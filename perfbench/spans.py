"""Spans and counters recorded from outside the program.

The benchmark times a layer only through the public functions of its
module: ``patch`` swaps every reference a loaded module holds to such a
function for a wrapper, and ``Tracer.wrap`` makes that wrapper record a span
(name, start, end, parent).  Spans stay in memory until the sample ends.
Hot callbacks, called once per tensor factor of every step, are aggregated
by ``Tracer.accumulate`` into a total time and a call count instead.
"""

from __future__ import annotations

from speed import clock


def patch(modules, original, replacement):
    """Point every name bound to ``original`` in ``modules`` at ``replacement``.

    Returns a function that undoes the swap.  Catching ``from x import f``
    copies as well as ``x.f`` keeps the wrapper on every call path.
    """
    bound = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                bound.append((mod, name))

    def undo():
        for mod, name in bound:
            setattr(mod, name, original)

    if not bound:
        raise LookupError(f"{original!r} is not bound in any loaded module")
    return undo


class Tracer:
    """Spans of one sample, kept in memory; indices into ``spans`` are span ids."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent id or -1]
        self._open = []
        self.sizes = {}  # span name -> {call arguments: size of the result}
        self.busy_ns = {}  # accumulated callback name -> [total ns, calls]

    def wrap(self, name, fn, size=None):
        """A wrapper of ``fn`` that records one span per call.

        ``size`` maps a result to a work count, kept once per distinct
        argument tuple so that cache hits do not count twice.
        """
        spans, stack = self.spans, self._open
        sizes = self.sizes.setdefault(name, {}) if size else None

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = clock()
            if sizes is not None:
                sizes[args] = size(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def accumulate(self, name, fn):
        """A wrapper of ``fn`` that adds its time and one call to ``busy_ns[name]``."""
        acc = self.busy_ns.setdefault(name, [0, 0])

        def wrapper(*args):
            t = clock()
            try:
                return fn(*args)
            finally:
                acc[0] += clock() - t
                acc[1] += 1

        return wrapper

    def size_total(self, name) -> int:
        return sum(self.sizes.get(name, {}).values())


def self_times(spans) -> dict:
    """Seconds per span name, each span counted minus the spans it caused."""
    out = {}
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for (name, start, end, _), inner in zip(spans, child_ns):
        out[name] = out.get(name, 0.0) + (end - start - inner) / 1e9
    return out


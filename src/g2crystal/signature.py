"""Signature machinery for crystal operators on tensor products.

Words over {+1, -1, 0} (plus/minus/zero) tagged with factor positions.
Reduction deletes zeros and cancels every adjacent (plus, minus) pair --
a plus immediately followed by a minus, never the other convention -- until
the word has shape minus^a plus^b.  The lowering operator acts at the factor
of the leftmost surviving plus, the raising operator at the rightmost
surviving minus.

``bracket`` is the one bracketing rule the program runs: the tensor-product
operators and the string lengths of the G2 and A2 tableau crystals all call
it, and B^l's tables and the square proof apply its two-factor case in
closed form.  ``unmatched``, the positional form behind word reduction, and
``reduce_brute`` are its oracles.
"""

from __future__ import annotations

PLUS = 1
MINUS = -1
ZERO = 0


class UWord:
    """A signature word with per-symbol factor positions."""

    __slots__ = ("symbols", "positions")

    def __init__(self, symbols, positions=None):
        self.symbols = tuple(symbols)
        if positions is None:
            positions = range(len(self.symbols))
        self.positions = tuple(positions)
        if len(self.symbols) != len(self.positions):
            raise ValueError("symbols and positions must have equal length")

    def __eq__(self, other):
        return self.symbols == other.symbols and self.positions == other.positions

    def __repr__(self):
        sym = "".join({PLUS: "+", MINUS: "-", ZERO: "0"}[s] for s in self.symbols)
        return f"UWord({sym!r}, {self.positions})"


def unmatched(ep_list) -> tuple[list[int], list[int]]:
    """Factor indices of the surviving minuses and pluses, in tensor order.

    ``ep_list`` holds one (eps, phi) pair per tensor factor, first factor
    first; factor k reads as eps minuses followed by phi pluses.  Each minus
    cancels the nearest surviving plus to its left, so a factor's minuses
    take the last pluses off the stack in one slice.
    """
    minus = []
    plus = []
    for k, (e, f) in enumerate(ep_list):
        if e:
            if e < len(plus):
                del plus[len(plus) - e:]
            else:
                minus += [k] * (e - len(plus))
                plus.clear()
        if f:
            plus += [k] * f
    return minus, plus


def bracket(ep_pairs) -> tuple[int, int, int | None, int | None]:
    """(eps, phi, f_at, e_at) of ``ep_pairs``, read as in ``unmatched`` (a
    one-shot iterator will do), from integer counts: ``pending`` pluses
    survive so far; the rightmost surviving minus is in the last factor with
    minuses left over, the leftmost surviving plus in the last factor whose
    pluses found none pending."""
    eps = pending = 0
    f_at = e_at = None
    for k, (e, f) in enumerate(ep_pairs):
        if e > pending:
            eps += e - pending
            pending = 0
            e_at = k
        else:
            pending -= e
        if f:
            if not pending:
                f_at = k
            pending += f
    return eps, pending, f_at if pending else None, e_at


def reduce_word(word: UWord) -> UWord:
    """Reduce through ``unmatched``, one factor per symbol; zeros drop out.

    Equivalent to deleting zeros and then repeatedly cancelling adjacent
    (plus, minus) pairs to the fixed point; the equivalence is a tested
    property, not an assumption.
    """
    minus, plus = unmatched([(s == MINUS, s == PLUS) for s in word.symbols])
    pos = word.positions
    return UWord((MINUS,) * len(minus) + (PLUS,) * len(plus),
                 [pos[k] for k in minus + plus])


def reduce_brute(word: UWord) -> UWord:
    """Fixed-point reduction by repeated single-pair deletion (oracle)."""
    syms = list(word.symbols)
    poss = list(word.positions)
    keep = [i for i, s in enumerate(syms) if s != ZERO]
    syms = [syms[i] for i in keep]
    poss = [poss[i] for i in keep]
    while True:
        for i in range(len(syms) - 1):
            if syms[i] == PLUS and syms[i + 1] == MINUS:
                del syms[i : i + 2]
                del poss[i : i + 2]
                break
        else:
            return UWord(syms, poss)


def tensor_apply(op: str, factors, uword_fn, apply_fn):
    """Apply a Kashiwara operator to a tensor product of crystal elements.

    ``factors`` is the sequence of factors in tensor order, ``uword_fn``
    returns the (eps, phi) pair of a factor for the active color, and
    ``apply_fn`` performs the single-factor step.  Returns the new factor
    list or None.  A callback whose (eps, phi) disagrees with the factor's
    sl2 string (apply_fn returning None where the signature demanded a
    step) is a contract violation and raises.
    """
    if op not in ("f", "e"):
        raise ValueError(f"unknown operator {op!r}")
    k = bracket(map(uword_fn, factors))[2 if op == "f" else 3]
    if k is None:
        return None
    image = apply_fn(op, factors[k])
    if image is None:
        raise ValueError(
            f"signature selected factor {k} but the factor's {op}-step is empty"
        )
    out = list(factors)
    out[k] = image
    return out

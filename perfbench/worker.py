"""One sample of a benchmark workload, in a fresh interpreter.

``run.py`` starts ``python3 -S perfbench/worker.py SPEC`` once per sample,
so a cold sample pays for its own imports and starts with every cache
empty.  SPEC is a JSON object (see ``run.py``).  The last line printed is a
JSON object with the sample's timings, the host speed probed around and
during each timed part (``speed.py``), its correctness checks and, when
traced, its spans and layer metrics.  An exception raised by the program is
caught and reported as a failed check, never as a traceback.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import pkgutil
import random
import resource
import sys
from pathlib import Path

import speed
from answers import with_overrides
from speed import clock
from spans import Tracer, patch, self_times

FACTORS = 64  # tensor factors in a path
WORD = 8  # e_i/f_i steps in one path operation
ROUND = 125  # operations per timed round of the path loop

# public functions timed in a traced sample, with the work count kept per
# distinct argument (None: time only)
TRACED = (
    ("cli", "main", None),
    ("g2", "enumerate_tableaux", len),
    ("affine", "model", lambda m: len(m.elements)),
    ("affine", "phi_table", len),
    ("affine", "bl_crystal", None),
    ("affine", "verify_construction", None),
    ("perfect", "check_perfect", lambda rep: rep.square_size),
    ("perfect", "minimal_elements", None),
    ("level1", "verify_module_relations", None),
    ("level1", "verify_prepolarization", None),
    ("level1", "crystal_compat_report", None),
    ("rmatrix", "verify_singular", None),
    ("rmatrix", "verify_fusion_identities", None),
    ("rmatrix", "rmatrix_checks", None),
    ("signature", "tensor_apply", None),
)

# layer metric -> span whose self time it reports
SELF_TIME = {
    "cli.self_s": "cli.main",
    "g2.enumerate_s": "g2.enumerate_tableaux",
    "affine.model_s": "affine.model",
    "affine.phi_build_s": "affine.phi_table",
    "affine.bl_tables_s": "affine.bl_crystal",
    "affine.verify_construction_s": "affine.verify_construction",
    "perfect.check_perfect_s": "perfect.check_perfect",
    "perfect.minimal_s": "perfect.minimal_elements",
    "level1.module_relations_s": "level1.verify_module_relations",
    "level1.prepolarization_s": "level1.verify_prepolarization",
    "level1.crystal_compat_s": "level1.crystal_compat_report",
    "rmatrix.singular_s": "rmatrix.verify_singular",
    "rmatrix.fusion_s": "rmatrix.verify_fusion_identities",
    "rmatrix.checks_s": "rmatrix.rmatrix_checks",
}

# layer metric -> span whose per-argument work counts it sums
SIZE = {
    "g2.tableaux": "g2.enumerate_tableaux",
    "affine.model_elements": "affine.model",
    "affine.phi_entries": "affine.phi_table",
    "perfect.square_size": "perfect.check_perfect",
}


class Gate:
    """Correctness checks of one sample; a failure is a message, not an exception."""

    def __init__(self, answers):
        self.answers = answers
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def known(self, key, got):
        want = self.answers[key]
        return self.check(got == want, f"{key}: expected {want}, got {got}")

    def reads_pass(self, report, where):
        """Every 'pass'/'all_pass' flag of a nested report dict must be True."""
        for key, val in report.items():
            if key in ("pass", "all_pass"):
                self.check(val is True, f"{where}: does not read pass")
            elif isinstance(val, dict):
                self.reads_pass(val, f"{where}.{key}")


def import_package(root):
    """Import every module of the g2crystal package under ``root/src``."""
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("g2crystal")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"g2crystal imported from {pkg.__file__}, not from {src}")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"g2crystal.{info.name}")
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("g2crystal.")}


def check_cold(gate, mods):
    """Every lru_cache of the package must be empty before the sample starts."""
    for mod in mods.values():
        for name, fn in vars(mod).items():
            if (callable(getattr(fn, "cache_info", None))
                    and getattr(fn, "__module__", None) == mod.__name__):
                size = fn.cache_info().currsize
                gate.check(size == 0, f"cache {mod.__name__}.{name} holds {size} entries at start")


def install_tracer(mods):
    tracer = Tracer()
    undo = []
    for modname, fname, size in TRACED:
        fn = getattr(mods[modname], fname)
        undo.append(patch(mods.values(), fn, tracer.wrap(f"{modname}.{fname}", fn, size)))
    return tracer, undo


def recording(fn, sink):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result
    return wrapper


# -- workloads: each times its own calls and checks them afterwards ------


def run_verify(mods, spec, gate, out, tracer):
    level = spec["level"]
    reports = []  # check_perfect's reports, for the square sizes
    check_perfect = mods["perfect"].check_perfect
    patch(mods.values(), check_perfect, recording(check_perfect, reports))
    buf = io.StringIO()
    yield  # no set-up beyond the imports
    speed.begin()
    t = clock()
    with contextlib.redirect_stdout(buf):
        rc = mods["cli"].main(["verify", "--level", str(level)])
    out["wall_s"] = (clock() - t) / 1e9
    out["ref_ns"] = speed.end()
    yield
    lines = buf.getvalue().splitlines()
    gate.check(rc == 0, f"verify --level {level} exited {rc}")
    gate.check(bool(lines) and lines[-1] == f"levels 1..{level}: all checks pass",
               f"verify --level {level} ends with {lines[-1:]!r}")
    for line in lines[:-1]:
        gate.check(line.endswith(": pass"), f"verify line {line!r}")
    for l in range(1, level + 1):
        gate.check(any(line.startswith(f"level {l} ") for line in lines),
                   f"verify printed no check for level {l}")
    gate.check(len(reports) == level, f"check_perfect ran {len(reports)} times for {level} levels")
    for rep in reports:
        gate.known(f"square_size.{rep.level}", rep.square_size)
        gate.check(rep.cond_connected_square, f"square of B^{rep.level} is not connected")
        gate.known(f"minimal.{rep.level}", len(rep.minimal))
    for l in range(level + 1):
        gate.known(f"bl_size.{l}", len(mods["affine"].bl_crystal(l).elements))


def run_build(mods, spec, gate, out, tracer):
    level = spec["level"]
    g2, affine, perfect = mods["g2"], mods["affine"], mods["perfect"]
    yield  # no set-up beyond the imports
    speed.begin()
    t = clock()
    tableaux = [g2.enumerate_tableaux(n) for n in range(level + 1)]
    mod = affine.model(level)
    table = affine.phi_table(level)
    bl = affine.bl_crystal(level)
    rep = affine.verify_construction(level)
    minimal = perfect.minimal_elements(level)
    out["wall_s"] = (clock() - t) / 1e9
    out["ref_ns"] = speed.end()
    yield
    for n, words in enumerate(tableaux):
        gate.known(f"tableaux.{n}", len(words))
    for what, size in (("model", len(mod.elements)), ("phi_table", len(table)),
                       ("bl_crystal", len(bl.elements))):
        gate.check(size == gate.answers[f"bl_size.{level}"],
                   f"{what}({level}) has {size} elements, expected {gate.answers[f'bl_size.{level}']}")
    gate.reads_pass(rep, f"verify_construction({level})")
    gate.known(f"minimal.{level}", len(minimal))
    if spec["extra_checks"]:
        # the lower levels, once per run and outside the timing
        for l in range(1, level):
            gate.known(f"bl_size.{l}", len(affine.bl_crystal(l).elements))
            gate.known(f"minimal.{l}", len(perfect.minimal_elements(l)))


QSUITE = ("level1.verify_module_relations", "level1.verify_prepolarization",
          "level1.crystal_compat_report", "rmatrix.verify_singular",
          "rmatrix.verify_fusion_identities", "rmatrix.rmatrix_checks")


def run_qsuite(mods, spec, gate, out, tracer):
    calls = [getattr(mods[name.split(".")[0]], name.split(".")[1]) for name in QSUITE]
    yield  # no set-up beyond the imports
    speed.begin()
    t = clock()
    reports = [call() for call in calls]
    out["wall_s"] = (clock() - t) / 1e9
    out["ref_ns"] = speed.end()
    yield
    for name, rep in zip(QSUITE, reports):
        gate.reads_pass(rep, name)
    gate.known("singular_vectors", len(reports[3]["vectors"]))
    gate.known("fusion_items", len(reports[4]["items"]))


def run_path(mods, spec, gate, out, tracer):
    """Closed loop, one client: each operation applies a seeded word of WORD
    e_i/f_i steps to a path in (B^l)^{(x)64}, continuing from the last result.

    A step costs one callback per factor, and that cost depends on the color,
    so single steps have a three-peaked latency whose median jumps between
    peaks; a word of eight steps has one peak.
    """
    affine, signature, cartan = mods["affine"], mods["signature"], mods["cartan"]
    t = clock()
    bl = affine.bl_crystal(spec["level"])
    out["setup_s"] += (clock() - t) / 1e9
    yield
    gate.known(f"bl_size.{spec['level']}", len(bl.elements))

    def callbacks(i):
        def uword(b):
            return bl.eps(i, b), bl.phi_i(i, b)

        def step(op, b):
            return bl.f(i, b) if op == "f" else bl.e(i, b)

        return uword, step

    plain = [callbacks(i) for i in (0, 1, 2)]
    apply = check_apply = signature.tensor_apply  # the tracer's wrapper when traced
    timed = plain
    if tracer is not None:
        timed = [tuple(tracer.accumulate("affine.bl_query", fn) for fn in pair) for pair in plain]
        check_apply = apply.__wrapped__
    roots = [cartan.simple_root(i) for i in (0, 1, 2)]

    rng = random.Random(spec["seed"] * 1000 + spec["child"])
    elements = sorted(bl.elements)  # independent of the program's own order
    path = [rng.choice(elements) for _ in range(FACTORS)]
    rounds, round_ns, lat = [], [], []  # per round: time, probe speed, op latencies
    ops = steps = hits = 0
    start = clock()
    while ops < spec["max_ops"] and clock() - start < spec["loop_s"] * 1e9:
        plan = [[(rng.choice("ef"), rng.randrange(3)) for _ in range(WORD)]
                for _ in range(min(ROUND, spec["max_ops"] - ops))]
        trail, lat_round = [], []
        speed.begin(timer=False)
        t_round = clock()
        for word in plan:
            t = clock()
            for op, i in word:
                uword, step = timed[i]
                try:
                    nxt = apply(op, path, uword, step)
                except Exception as exc:  # the program failed: data, not a crash
                    nxt = exc
                trail.append((path, nxt))
                if isinstance(nxt, list):
                    path = nxt
            lat_round.append(clock() - t)
        rounds.append((clock() - t_round) / 1e9)
        round_ns.append(speed.end())
        lat.append(lat_round)
        ops += len(plan)
        steps += len(trail)
        # outside the timing: e_i(f_i(b)) = b (and f_i(e_i(b)) = b), and the
        # step changes one factor, by the simple root
        for (op, i), (before, after) in zip((s for word in plan for s in word), trail):
            if isinstance(after, list):
                hits += 1
                back = check_apply("e" if op == "f" else "f", after, *plain[i])
                changed = [k for k in range(FACTORS) if after[k] != before[k]]
                shift = [bl.weight(after[k]) - bl.weight(before[k]) for k in changed]
                want = -roots[i] if op == "f" else roots[i]
                gate.check(back == before and shift == [want],
                           f"{op}_{i} on {before} gave {after}: inverse {back}, shifts {shift}")
            else:
                gate.check(after is None, f"{op}_{i} on {before} raised {after!r}")
    out.update(ops=ops, steps=steps, hits=hits, rounds_s=rounds, rounds_ref_ns=round_ns,
               lat_ns=lat, ref_ns=sum(round_ns) / len(round_ns))
    yield


WORKLOADS = {"verify": run_verify, "build": run_build, "qsuite": run_qsuite, "path": run_path}


def layer_metrics(tracer, out):
    selfs = self_times(tracer.spans)
    layer = {metric: selfs.get(span, 0.0) for metric, span in SELF_TIME.items()}
    layer.update({metric: tracer.size_total(span) for metric, span in SIZE.items()})
    busy_ns, queries = tracer.busy_ns.get("affine.bl_query", (0, 0))
    steps = out.get("steps", 0)
    layer["affine.bl_query_s"] = busy_ns / 1e9
    layer["affine.bl_queries"] = queries / steps if steps else 0.0
    layer["signature.tensor_apply_self_s"] = selfs.get("signature.tensor_apply", 0.0) - busy_ns / 1e9
    layer["signature.ops"] = steps
    layer["signature.hit_ratio"] = out["hits"] / steps if steps else 0.0
    return layer


def main(spec):
    gate = Gate(with_overrides(spec["expect"]))
    out = {"ok": False}
    speed.begin()
    t = clock()
    try:
        mods = import_package(spec["root"])
    except Exception as exc:
        speed.end()
        gate.check(False, f"cannot import g2crystal: {exc!r}")
        return gate, out
    out["setup_s"] = (clock() - t) / 1e9
    check_cold(gate, mods)
    tracer, undo = install_tracer(mods) if spec["trace"] else (None, [])
    steps = WORKLOADS[spec["workload"]](mods, spec, gate, out, tracer)
    try:
        next(steps)  # the workload's own set-up, if any
        out["setup_ref_ns"] = speed.end()
        next(steps)  # the timed part
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for fn in undo:
            fn()
        next(steps, None)  # the checks
        out["ok"] = True
    except Exception as exc:  # the program failed: data, not a crash
        speed.end()
        gate.check(False, f"{spec['workload']} raised {exc!r}")
    if tracer is not None and out["ok"]:
        out["layer"] = layer_metrics(tracer, out)
        out["spans"] = tracer.spans
    return gate, out


if __name__ == "__main__":
    gate, out = main(json.loads(sys.argv[1]))
    out["attempted"] = gate.attempted
    out["failures"] = gate.failures[:20]
    out["failed"] = len(gate.failures)
    print(json.dumps(out))

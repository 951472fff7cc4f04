"""The g2crystal benchmark.

    python3 perfbench/run.py --workload {verify,build,path,qsuite} \\
        --seed N --seconds S --trace {0,1} [--smoke] [--expect KEY=VALUE ...]

Runs one workload for about S seconds, one sample at a time, each sample in
a fresh single-threaded interpreter (``worker.py``).  Prints every metric
with its unit, the correctness verdict, and as the last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` half the samples are traced and the metrics are the
per-layer ones, and the spans are written to ``perfbench/out/``.  Times are
reported at one host speed: each is scaled by the speed of a probe loop
timed around and during it (``speed.py``); the unscaled ones are printed too.

Exit codes: 0 every check passed, 1 a check failed (the result is still
printed), 2 bad arguments, or the package sources or BENCHMARK.json are
missing (no result is printed).

``--smoke`` runs levels <= 2 and 320 path steps, one sample each (two when
traced).  ``--expect KEY=VALUE`` replaces a known answer (``answers.py``), to
prove that a wrong answer is caught.  See README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from answers import with_overrides
from speed import REF_NS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LEVEL = {"verify": 4, "build": 6, "path": 4, "qsuite": 1}
SMOKE_LEVEL = {"verify": 2, "build": 2, "path": 2, "qsuite": 1}
MIN_SAMPLES = 3  # cold samples per run, whatever --seconds says
PATH_CHILDREN = 4  # interpreters per path run; each sets up once
SMOKE_PATH_OPS = 40  # words of eight steps
HARD_LIMIT_S = 160  # no sample starts that could end after this


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(LEVEL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--expect", action="append", default=[], metavar="KEY=VALUE")
    return p.parse_args(argv)


def run_sample(spec, timeout):
    """One worker interpreter; its result dict, or a failed sample as data."""
    cmd = [sys.executable, "-S", str(HERE / "worker.py"), json.dumps(spec)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return {"ok": False, "attempted": 1, "failed": 1,
                "failures": [f"sample killed after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"ok": False, "attempted": 1, "failed": 1,
                "failures": [f"worker exited {proc.returncode}: {' | '.join(tail)}"]}


def collect(args):
    """Samples until --seconds is spent: at least MIN_SAMPLES cold ones, or
    PATH_CHILDREN path interpreters that share the time between them."""
    path = args.workload == "path"
    if args.smoke:
        wanted = 2 if args.trace else 1
    else:
        wanted = PATH_CHILDREN if path else MIN_SAMPLES
    samples = []
    start = time.perf_counter()
    overhead = 1.0  # seconds a path sample spends outside its loop
    while True:
        k = len(samples)
        elapsed = time.perf_counter() - start
        spec = {"root": str(ROOT), "workload": args.workload,
                "level": (SMOKE_LEVEL if args.smoke else LEVEL)[args.workload],
                "seed": args.seed, "child": k, "trace": bool(args.trace and k % 2),
                "extra_checks": k == 0, "expect": args.expect,
                "loop_s": 1e9, "max_ops": SMOKE_PATH_OPS if args.smoke else 1 << 62}
        if path and not args.smoke:
            spec["loop_s"] = max(0.5, (args.seconds - elapsed) / (wanted - k) - overhead)
        t = time.perf_counter()
        res = run_sample(spec, HARD_LIMIT_S - elapsed)
        last = time.perf_counter() - t
        overhead = max(0.0, last - spec["loop_s"])
        res["traced"] = spec["trace"]
        samples.append(res)
        elapsed += last
        if len(samples) >= wanted and (path or args.smoke or elapsed + last > args.seconds):
            return samples
        if elapsed + last > HARD_LIMIT_S:
            return samples


def p99(values):
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[98]


def end_to_end(workload, samples, scaled=True):
    """The user-visible metrics of a set of untraced samples.

    Each time is scaled by REF_NS over the probe speed measured around it
    (``speed.py``), so that it reads as at one host speed; ``scaled=False``
    gives the times as the clock read them.
    """
    def at_ref(ns):
        return REF_NS / ns if scaled else 1.0

    m = {"setup_s": median([s["setup_s"] * at_ref(s["setup_ref_ns"]) for s in samples]),
         "peak_rss_mb": median([s["rss_mb"] for s in samples])}
    if workload == "path":
        # an operation is a word of eight e_i/f_i steps; wall_s is one round
        # of 125 operations
        rounds, lat_us = [], []
        for s in samples:
            for r, ns, lat in zip(s["rounds_s"], s["rounds_ref_ns"], s["lat_ns"]):
                rounds.append(r * at_ref(ns))
                lat_us += [t / 1e3 * at_ref(ns) for t in lat]
        m["wall_s"] = median(rounds)
        m["ops_per_s"] = sum(s["ops"] for s in samples) / sum(rounds)
    else:
        # an operation is one cold pass of the whole workload
        walls = [s["wall_s"] * at_ref(s["ref_ns"]) for s in samples]
        lat_us = [w * 1e6 for w in walls]
        m["wall_s"] = median(walls)
        m["ops_per_s"] = len(walls) / sum(walls)
    m["op_p50_us"] = median(lat_us)
    m["op_p99_us"] = p99(lat_us)
    return m


def per_layer(workload, samples, traced):
    """Layer metrics, median over the traced samples; times scaled as in end_to_end."""
    def value(s, name):
        v = s["layer"][name]
        return v * REF_NS / s["ref_ns"] if name.endswith("_s") else v

    names = traced[0]["layer"]
    m = {name: median([value(s, name) for s in traced]) for name in names}
    m["host.probe_ns"] = median([s["ref_ns"] for s in samples + traced])
    m["trace.overhead_s"] = (end_to_end(workload, traced)["wall_s"]
                             - end_to_end(workload, samples)["wall_s"])
    return m


def write_trace(args, samples, metrics):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
           "span_fields": ["name", "start_ns", "end_ns", "parent"],
           "samples": [{"sample": k, "spans": s.get("spans", [])}
                       for k, s in enumerate(samples) if s["traced"]],
           "layer": metrics}
    path.write_text(json.dumps(doc))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "g2crystal" / "__init__.py").is_file() or not bench.is_file():
        print(f"perfbench: no g2crystal sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        with_overrides(args.expect)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    samples = collect(args)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    good = [s for s in samples if s["ok"] and not s["traced"]]
    traced = [s for s in samples if s["ok"] and s["traced"]]
    metrics = {}
    if good and (traced or not args.trace):
        values = per_layer(args.workload, good, traced) if args.trace else end_to_end(args.workload, good)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = failed == 0 and bool(metrics) and all(s["ok"] for s in samples)

    print(f"workload {args.workload}  seed {args.seed}  samples {len(samples)}"
          f" ({len(traced)} traced)  smoke {args.smoke}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if metrics and not args.trace:
        raw = end_to_end(args.workload, good, scaled=False)
        print("  unscaled: " + "  ".join(f"{k} {raw[k]:.6g}" for k in ("wall_s", "setup_s", "op_p99_us"))
              + f"  (probe {median(s['ref_ns'] for s in good):.4g} ns, scaled to {REF_NS:g} ns)")
    for s in samples:
        for msg in s["failures"]:
            print(f"  FAIL {msg}")
    print(f"  failed_frac {failed / max(attempted, 1):.6g} ({failed}/{attempted})"
          f"  correct {'yes' if correct else 'NO'}")
    if args.trace:
        print(f"  spans written to {write_trace(args, samples, metrics).relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

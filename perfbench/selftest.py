"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench/selftest.py``.

They run the smoke mode (levels <= 2, a few hundred path steps), so the
whole file takes a few seconds.  The file name keeps them out of the
package's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import speed
from answers import BL_SIZE, KNOWN, MINIMAL, SQUARE_SIZE, TABLEAUX
from run import end_to_end
from spans import Tracer, patch, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_known_answers_agree_with_each_other():
    assert list(BL_SIZE) == [sum(TABLEAUX[: l + 1]) for l in range(len(TABLEAUX))]
    assert all(SQUARE_SIZE[l] == BL_SIZE[l] ** 2 for l in SQUARE_SIZE)
    for l, count in enumerate(MINIMAL):
        weights = [(m0, m1, m2) for m1 in range(l + 1) for m2 in range(l + 1)
                   for m0 in range(l + 1) if m0 + 2 * m1 + m2 == l]
        assert len(weights) == count


def test_self_time_subtracts_children():
    spans = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 15, 25, 1], ["b", 50, 60, 0]]
    got = self_times(spans)
    assert got == pytest.approx({"a": 60e-9, "b": 30e-9, "c": 10e-9})


def test_patch_reaches_every_binding_and_undoes():
    def f(x):
        return x + 1

    owner, user = types.ModuleType("owner"), types.ModuleType("user")
    owner.f = user.g = f
    tracer = Tracer()
    undo = patch([owner, user], f, tracer.wrap("owner.f", f, size=lambda r: r))
    assert owner.f(1) == 2 and user.g(1) == 2 and user.g(1) == 2
    assert [s[0] for s in tracer.spans] == ["owner.f"] * 3
    assert tracer.size_total("owner.f") == 2  # one distinct argument
    undo()
    assert owner.f is f and user.g is f


def test_probes_run_during_a_segment_and_stay_out_of_the_clock():
    speed.begin()
    c0, w0 = speed.clock(), time.perf_counter_ns()
    while time.perf_counter_ns() - w0 < 0.5e9:
        pass
    c1, w1 = speed.clock(), time.perf_counter_ns()
    probes = len(speed._segment)
    ns = speed.end()
    assert probes >= 3  # the opening one and two from the timer
    assert (w1 - w0) - (c1 - c0) >= 2 * speed.PROBE_ITERS * ns / 2
    assert speed.end() is None  # closing twice is harmless


def test_times_are_scaled_to_the_reference_speed():
    slow = {"setup_s": 0.2, "setup_ref_ns": 2 * speed.REF_NS, "rss_mb": 20.0,
            "wall_s": 3.0, "ref_ns": 1.5 * speed.REF_NS}
    got = end_to_end("build", [slow])
    assert got["setup_s"] == pytest.approx(0.1) and got["wall_s"] == pytest.approx(2.0)
    assert got["op_p50_us"] == pytest.approx(2e6) and got["peak_rss_mb"] == 20.0
    assert end_to_end("build", [slow], scaled=False)["wall_s"] == 3.0


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload,spans", [
    ("verify", {"cli.main", "perfect.check_perfect", "affine.verify_construction"}),
    ("build", {"g2.enumerate_tableaux", "affine.phi_table", "perfect.minimal_elements"}),
    ("path", {"affine.bl_crystal", "signature.tensor_apply"}),
    ("qsuite", {"level1.verify_prepolarization", "rmatrix.rmatrix_checks"})])
def test_traced_smoke_run_reports_every_layer_metric(workload, spans):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = result(proc)
    assert res["correct"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    doc = json.loads((HERE / "out" / f"trace-{workload}-seed3.json").read_text())
    assert spans <= {s[0] for sample in doc["samples"] for s in sample["spans"]}
    if workload == "path":
        assert res["metrics"]["signature.ops"]["value"] == 320


@pytest.mark.parametrize("workload,wrong", [("verify", "square_size.2=8465"),
                                            ("build", "tableaux.2=78"),
                                            ("path", "bl_size.2=93"),
                                            ("qsuite", "fusion_items=14")])
def test_wrong_expected_value_fails_without_a_crash(workload, wrong):
    key, _, value = wrong.partition("=")
    assert KNOWN[key] != int(value)
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
               "--smoke", "--expect", wrong)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    res = result(proc)
    assert not res["correct"] and res["failed"] > 0
    assert "Traceback" not in proc.stdout + proc.stderr
    assert f"FAIL {key}: expected {value}" in proc.stdout


def test_directory_without_sources_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_warm_cache_is_reported():
    import worker

    mods = worker.import_package(ROOT)
    gate = worker.Gate(KNOWN)
    mods["affine"].model(1)
    try:
        worker.check_cold(gate, mods)
    finally:
        mods["affine"].model.cache_clear()
    assert any("g2crystal.affine.model holds 1 entries" in f for f in gate.failures)

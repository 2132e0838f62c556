"""The benchmark's own tests, on small inputs.

    python3 -m pytest adcbench/test_adcbench.py -q

The output check must accept a correct result and reject corrupted ones;
a smoke run of every workload must emit every metric BENCHMARK.json names,
with its unit; and the benchmark must refuse to run without the program.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import verify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.core import adc_miner_local, hitting_sets_to_dcs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def mined(name: str):
    """A correct result for a workload's smoke input, with its check inputs."""
    wl = WORKLOADS[name]
    pdf = wl.make_input(seed=3, smoke=True)
    res = adc_miner_local(pdf, wl.make_function(), wl.eps)
    bag, vios = verify.local_evidence(pdf, res.space, wl.function == "f2")
    ref = verify.reference_sets(res.evidence, wl.make_function(), wl.eps, 60)
    return wl, res, ref, bag, vios


def problems(wl, res, ref, bag, vios):
    return verify.check_call(res, wl.function, wl.eps, wl.alpha, ref, bag, vios)


@pytest.mark.parametrize("name", ["enum-f1", "spark-full-f2"])
def test_check_accepts_a_correct_result(name):
    wl, res, ref, bag, vios = mined(name)
    assert res.hitting_sets
    assert problems(wl, res, ref, bag, vios) == []


def test_check_rejects_a_dropped_adc():
    wl, res, ref, bag, vios = mined("enum-f1")
    res.hitting_sets = res.hitting_sets[1:]
    res.dcs = hitting_sets_to_dcs(res.evidence, res.hitting_sets)
    found = problems(wl, res, ref, bag, vios)
    assert any("1 missing" in p for p in found), found


@pytest.mark.parametrize("name", ["enum-f1", "spark-full-f2"])
def test_check_rejects_a_non_minimal_adc(name):
    wl, res, ref, bag, vios = mined(name)
    s = res.hitting_sets[0]
    extra = next(e for e in range(len(res.space)) if e not in s)
    res.hitting_sets = res.hitting_sets + [s | {extra}]
    res.dcs = hitting_sets_to_dcs(res.evidence, res.hitting_sets)
    found = problems(wl, res, ref, bag, vios)
    assert any("not minimal" in p for p in found), found


def test_check_rejects_a_hitting_set_that_does_not_pass():
    wl, res, ref, bag, vios = mined("enum-f1")
    s = min(res.hitting_sets, key=len)
    res.hitting_sets = [h for h in res.hitting_sets if h != s] + [frozenset(list(s)[:-1])]
    res.dcs = hitting_sets_to_dcs(res.evidence, res.hitting_sets)
    found = problems(wl, res, ref, bag, vios)
    assert any("does not pass" in p for p in found), found


def test_check_rejects_corrupted_evidence():
    wl, res, ref, bag, vios = mined("spark-full-f2")
    res.evidence.counts = res.evidence.counts.copy()
    res.evidence.counts[0] += 1
    found = problems(wl, res, ref, bag, vios)
    assert any("n(n-1)" in p for p in found), found
    assert any("differs from the local rebuild" in p for p in found), found


def test_check_rejects_a_deadline_hit():
    wl, res, ref, bag, vios = mined("enum-f1")
    res.enum_stats.truncated = True
    assert any("deadline" in p for p in problems(wl, res, ref, bag, vios))


def test_f1_prime_judge_agrees_with_the_program():
    from repro.sampling.threshold import F1Prime

    wl = WORKLOADS["spark-sample-f1"]
    pdf = wl.make_input(seed=3, smoke=True)
    f = F1Prime(wl.alpha)
    res = adc_miner_local(pdf, f, wl.eps)
    judge = verify.Judge(res.evidence, "f1'", wl.eps, wl.alpha)
    ref = verify.reference_sets(res.evidence, f, wl.eps, 60)
    assert verify.check_call(res, "f1'", wl.eps, wl.alpha, ref) == []
    masks = res.evidence.masks
    for s in res.hitting_sets[:50]:
        for sub in [s] + [s - {e} for e in s]:
            bits = sum(1 << e for e in sub)
            unc = [i for i, m in enumerate(masks) if not m & bits]
            assert f.passes(res.evidence, unc, wl.eps) == (judge.margin(sub) <= 0)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "adcbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    proc = run_bench(
        ROOT, "--workload", name, "--seed", "2", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    for k, v in out["metrics"].items():
        assert isinstance(v["value"], (int, float)), k
    if trace and name == "spark-full-f2":
        assert out["metrics"]["evidence.vios_rows"]["value"] > 0
        assert out["metrics"]["evidence.vios_jobs"]["value"] > 0
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "enum-f1", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

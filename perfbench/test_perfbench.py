"""Self-tests of the benchmark on tiny inputs (``--smoke``); a few seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import bench_checks
import bench_speed
import bench_workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(__file__).parent / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_metrics_on_every_workload():
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    result = _result(_run("--workload", "all", "--seed", "3", "--seconds", "0",
                          "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in bench_workloads.NAMES:
        got = {k.split(".", 1)[1]: v for k, v in result["metrics"].items()
               if k.startswith(name + ".")}
        assert {k: v["unit"] for k, v in got.items()} == wanted
        assert all(v["value"] > 0 for v in got.values())


def test_traced_counts_repeat_between_runs():
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for _ in range(2):
        result = _result(_run("--workload", "all", "--seed", "5", "--seconds", "0",
                              "--trace", "1", "--smoke"))
        assert result["correct"]
        metrics = result["metrics"]
        for name in bench_workloads.NAMES:
            got = {k.split(".", 1)[1]: v["unit"] for k, v in metrics.items()
                   if k.startswith(name + ".")}
            assert got == wanted
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["sweep.reduction.solvable_pmv.calls"] > 0
    assert counts[0]["batch.catalog.identify.calls"] > 0
    assert counts[0]["chains.reduction.psi_step.calls"] > 0
    assert counts[0]["generic.genericity.nongenericity_witness.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_scaling():
    speed = bench_speed.HostSpeed()
    first = speed.last()
    assert speed.samples == [first] and speed.last() == first
    # a host twice as slow as the nominal one halves the times
    ref = bench_speed.REF_SECONDS
    assert bench_speed.HostSpeed.factor(2 * ref, 2 * ref) == 0.5
    assert bench_speed.HostSpeed.factor(ref, 3 * ref) == 0.5


def _step(n, state_entries, alpha, margins, omega, n1):
    return {"n": n, "n1": n1, "dropped": [],
            "state": {"n": n, "entries": [{"eigenvalues": e} for e in state_entries]},
            "alpha": {"holds": alpha >= 0, "slack": alpha},
            "beta": {"holds": min(margins) >= 0, "margins": margins},
            "omega": {"holds": omega >= 0, "slack": omega}}


def test_trace_audit_catches_a_wrong_value():
    # (1,1);(1,1);(1,1) at n=2: r = 1 each, d = 2 each; omega slack 3 - 4 < 0,
    # beta margins 2 - 2 = 0, so it reduces to n1 = 1.
    ones = [[1], [1]]
    payload = {
        "verdict": {"solvable": True, "reason": "ReducedToSize1", "at_step": 1},
        "defect": 2,
        "chain": [[], []],
        "steps": [_step(2, [ones] * 3, 0, [0, 0, 0], -1, 1),
                  _step(1, [[[1]]] * 3, 0, [-1, -1, -1], -2, None)],
    }
    assert bench_checks.audit_trace(payload, 2) == []
    payload["steps"][0]["omega"]["slack"] = 0
    assert bench_checks.audit_trace(payload, 2)


def test_planted_assignment_has_a_kappa2_relation():
    mults = [[9, 1], [1] * 10, [1] * 10]
    planted = bench_checks.planted_nongeneric(mults, kappa=2)
    assert bench_checks._is_relation(bench_checks._trace_total(planted), "additive")
    witness = {"kappa": 2, "sub_multiplicities": [[2, 0], [1, 1] + [0] * 8, [1, 1] + [0] * 8],
               "total": {}}
    assert bench_checks.witness_problems(planted, witness) == []
    witness["sub_multiplicities"][1] = [0, 1, 1] + [0] * 7
    assert bench_checks.witness_problems(planted, witness)

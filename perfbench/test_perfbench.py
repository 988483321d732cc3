"""The benchmark's own tests: run with ``python3 -m pytest -q perfbench``.

They run the benchmark in subprocesses with short ``--seconds``, so the
whole module takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

WORKLOADS = ("sweep", "locate", "design", "detect")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_traced_runs_repeat_counts_and_digests(workload):
    first, second = bench(workload, 7, 1), bench(workload, 7, 1)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    (rep1, res1), (rep2, res2) = parse(first), parse(second)
    assert res1["correct"] and res2["correct"]
    assert set(res1["metrics"]) == set(run.per_layer_units())
    assert rep1["computed_counts"] == rep2["computed_counts"]
    assert rep1["digests"] == rep2["digests"]
    assert (res1["attempted"], res1["failed"]) == (res2["attempted"], res2["failed"])
    m = res1["metrics"]
    assert m["trace.self_sum_s"]["value"] == pytest.approx(m["trace.wall_s"]["value"], abs=1e-6)


def test_end_to_end_run_prints_every_metric():
    proc = bench("locate", 3, 0)
    assert proc.returncode == 0, proc.stderr
    report, result = parse(proc)
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["machine"]["nproc"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("sweep", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_trial_without_a_fix_is_recorded_not_failed():
    sys.path.insert(0, str(ROOT / "src"))
    from types import SimpleNamespace

    from workloads import Step

    st = Step(ops=2)
    st.record_no_fix(SimpleNamespace(failure="NoValidFixError: all 2 candidates fall outside"))
    st.record_no_fix(SimpleNamespace(failure=None))
    assert (st.failed, st.failure_types, st.no_fix) == (0, {}, {"NoValidFixError": 1})

"""Smoke test of the benchmark harness at toy size (a few seconds).

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_result(trace: int, names: list[str]) -> None:
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "0", "--scale", "toy", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        got = {k.split(".", 1)[1] for k in result["metrics"] if k.startswith(workload + ".")}
        assert got == set(names), workload


def test_untraced_run_reports_every_end_to_end_metric():
    _check_result(0, [m["name"] for m in SPEC["end_to_end"]])


def test_traced_run_reports_every_per_layer_metric():
    _check_result(1, [m["name"] for m in SPEC["per_layer"]])


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work", "out"))
    proc = _run("--workload", "sweep-short", "--seed", "1", "--seconds", "1", "--scale", "toy", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fixed_point_text_round_trips_exactly():
    k = np.array([[0, -1, 12345, -9_999_999, 9_999_999, 120_000]])
    nan = np.array([[False, False, False, False, False, True]])
    text = workloads.format_fixed(k, nan).decode()
    parsed = np.array([float(tok) for tok in text.split()])
    assert np.array_equal(parsed[:5], k[0, :5] / workloads.SCALE)
    assert np.isnan(parsed[5])


def test_training_window_count_matches_harwin_folds():
    from harwin.preprocess import Sample, make_folds

    counts = [7, 9, 8, 13, 5]
    samples = [Sample(np.zeros((2, 18)), c, 0, (0, 0)) for c, n in enumerate(counts) for _ in range(n)]
    plan = make_folds(samples, 4, seed=11)
    expected = sum(len(plan.train_test(f)[0]) for f in range(4))
    assert workloads.train_windows(counts, 4) == expected


def test_report_digest_is_kept_across_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run._recorded_csv_sha("sweep-short/toy/1", "aa") == "aa"
    assert run._recorded_csv_sha("sweep-short/toy/1", "bb") == "aa"
    assert run._recorded_csv_sha("sweep-short/toy/2", "bb") == "bb"

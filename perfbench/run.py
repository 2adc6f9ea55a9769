"""harwin benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Each repetition of a workload runs in a fresh child process (``child.py``),
one at a time, with BLAS and OpenMP pinned to one thread. A repetition
starts only while the median repetition so far still fits before the end of
``--seconds`` (the first always runs); each metric is the median over the
repetitions. With ``--trace 1`` the first half of the time runs untraced and
the second half traced; the per-layer metrics are medians over the traced
repetitions, and ``trace.overhead_ratio`` is the traced over the untraced
median ``run_s``. ``setup_s`` is the median over at least ``MIN_SETUPS``
set-ups: where fewer repetitions fit, set-up-only children make up the rest.

    python3 perfbench/run.py --workload sweep-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The full result of each workload, with the environment and, when
traced, the spans of the last traced repetition, is written to
``perfbench/out/results-<workload>.json``. See perfbench/README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import REFERENCE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_SETUPS = 7
# The whole command, every workload of `--workload all` included, must end
# within 180 s: no child starts unless its median time fits before this.
TIME_LIMIT_S = 170.0

# The host's CPU speed drifts: on a shared 2-vCPU Intel Xeon virtual machine
# (Python 3.11, numpy 2.4) by up to 1.5x, from one second to the next and
# over tens of seconds, in CPU time as much as in wall time. Every child
# therefore also times a fixed reference loop (child.Reference) before,
# during and after the timed phase; the loop slows down in step, and the
# timings below are in reference seconds: wall seconds x REF_NOMINAL_S / the
# loop's median time. Each workload uses the loop that runs like it
# (workloads.REFERENCE); set-up uses the small one. REF_NOMINAL_S is the
# loop's time in the fast state on that machine, so there a reference second
# is a wall second without the drift.
# The wall-clock figures are printed too, with a _wall suffix.
REF_NOMINAL_S = {"small": 0.0175, "large": 0.023}
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("windows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
PRINTED = END_TO_END + [("setup_wall_s", "s"), ("run_wall_s", "s"), ("windows_per_wall_s", "1/s"), ("ref_loop_s", "s")]


class BenchError(Exception):
    """The harness itself could not run a workload."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_child(workload: str, seed: int, scale: str, mode: str, deadline: float) -> dict:
    """One child process in ``mode`` plain, traced or setup. Returns its
    result with ``setup_wall_s`` measured from process start, ``child_s``
    (the child's whole wall time) and, when traced, its spans."""
    work = HERE / "_work" / f"{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), scale, mode, str(work)]
    try:
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                timeout=max(1.0, deadline - started),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: child exceeded the time limit") from None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise BenchError(f"{workload}: child exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if mode == "traced":
            with open(work / "spans.jsonl") as fh:
                result["spans"] = [json.loads(line) for line in fh]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["child_s"] = time.monotonic() - started
    result["setup_wall_s"] = result["setup_end"] - started
    result["setup_s"] = result["setup_wall_s"] * REF_NOMINAL_S["small"] / statistics.median(result["setup_ref"])
    if mode != "setup":
        ref = result.pop("ref")
        result["ref_loop_s"] = statistics.median(t for times in ref.values() for t in times)
        result["ref_samples"] = {k: len(v) for k, v in ref.items()}
    return result


def _recorded_csv_sha(key: str, sha: str | None) -> str | None:
    """The report.csv digest first recorded for ``key`` with this exact
    program source, recording ``sha`` if there is none yet."""
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "harwin").rglob("*.py")):
        source.update(path.read_bytes())
    key = f"{key}/{source.hexdigest()[:16]}"
    store = OUT / "csv-sha.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key not in known:
        known[key] = sha
        OUT.mkdir(exist_ok=True)
        store.write_text(json.dumps(known, indent=1) + "\n")
    return known[key]


def _another(done: list[dict], until: float) -> bool:
    """The first child always runs; another only if the median child time
    so far still fits before ``until``."""
    if not done:
        return True
    return time.monotonic() + statistics.median(r["child_s"] for r in done) <= until


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str, deadline: float) -> dict:
    start = time.monotonic()
    end = min(start + seconds, deadline)
    untraced_end = min(start + seconds / 2, deadline) if trace else end

    def child(mode: str) -> dict:
        return run_child(workload, seed, scale, mode, deadline)

    plain, traced = [child("plain")], []
    while _another(plain, untraced_end):
        plain.append(child("plain"))
    while trace and _another(traced, end):
        traced.append(child("traced"))
    reps = plain + traced
    setups = []
    # the first set-up-only child is timed by the repetitions, which are longer
    while len(reps) + len(setups) < MIN_SETUPS and _another(setups or reps, deadline):
        setups.append(child("setup"))

    # the same seed must give byte-identical sweep outputs in every
    # repetition, and in every run of the same program source
    expected = _recorded_csv_sha(f"{workload}/{scale}/{seed}", reps[0].get("csv_sha"))
    for r in reps:
        if r.get("csv_sha") != expected:
            r["failed"] = r["attempted"]
            r["problems"].append("report.csv differs from the one first recorded for this seed")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    def med(key: str, rs: list[dict] = plain) -> float:
        return statistics.median(r[key] for r in rs)

    for r in reps:
        r["run_s"] = r["run_wall_s"] * REF_NOMINAL_S[REFERENCE[workload]] / r["ref_loop_s"]
        r["windows_per_s"] = r["work_items"] / r["run_s"]
        r["windows_per_wall_s"] = r["work_items"] / r["run_wall_s"]
    end_to_end = {name: med(name) for name, _ in PRINTED}
    end_to_end["setup_s"] = med("setup_s", reps + setups)
    end_to_end["setup_wall_s"] = med("setup_wall_s", reps + setups)
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced) for name, _ in PER_LAYER}
        layers["trace.overhead_ratio"] = med("run_s", traced) / end_to_end["run_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    acc = [r["acc_pct"] for r in reps if "acc_pct" in r]
    spans = traced[-1].pop("spans") if traced else None
    keep = ("run_s", "run_wall_s", "setup_s", "setup_wall_s", "ref_loop_s", "ref_samples", "sampler_s", "peak_rss_mb", "attempted", "failed")
    return {
        "workload": workload,
        "seed": seed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "end_to_end": end_to_end,
        "acc_pct": statistics.median(acc) if acc else None,
        "failed_ratio": failed / attempted,
        "reps": {"untraced": len(plain), "traced": len(traced), "setup_only": len(setups)},
        "problems": sorted({p for r in reps for p in r["problems"]}),
        "inputs": reps[0]["inputs"],
        "env": dict(reps[0]["env"], git_sha=_git_sha()),
        "children": [
            dict({k: r[k] for k in keep if k in r}, mode=r["mode"]) for r in reps + setups
        ],
        "spans": spans,
    }


def _print_summary(res: dict, path: Path) -> None:
    print(f"== {res['workload']}  reps {res['reps']}  inputs {json.dumps(res['inputs'])}")
    for name, unit in PRINTED:
        print(f"  {name:34s} {res['end_to_end'][name]:.6g} {unit}")
    for name, m in res["metrics"].items():
        if name not in res["end_to_end"]:
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if res["acc_pct"] is not None:
        print(f"  {'acc_pct':34s} {res['acc_pct']:.6g} %")
    print(f"  {'failed_ratio':34s} {res['failed_ratio']:.6g} ({res['failed']}/{res['attempted']} operations)")
    for p in res["problems"]:
        print(f"  CHECK FAILED: {p}")
    env = dict(res["env"])
    blas = (env.pop("blas") or {}).get("Build Dependencies", {}).get("blas", {})
    env["blas"] = {k: blas.get(k) for k in ("name", "version")}
    print(f"  env {json.dumps(env)}")
    print(f"  full result, BLAS config included: {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full", help="toy: tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale, deadline)
            OUT.mkdir(exist_ok=True)
            path = OUT / f"results-{name}.json"
            path.write_text(json.dumps(res, indent=1) + "\n")
            _print_summary(res, path)
            results.append(res)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(HERE / "_work", ignore_errors=True)
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {
            f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured repetition of a workload, in a fresh interpreter.

Started by ``run.py`` with BLAS/OpenMP threads pinned in the environment.
It imports harwin from the checkout's ``src``, writes the workload's inputs
(set-up), runs the timed phase, checks the outputs and prints one JSON object
as its last line of stdout. ``setup_end`` is a ``time.monotonic`` reading,
which Linux shares between processes, so the parent can time set-up from the
moment it started this process.

The child also times a fixed reference loop (``Reference``): six trials
before the timed phase, one every ``SAMPLE_EVERY_S`` during it and six
after. The host's CPU speed drifts by tens of percent, from one second to
the next and over tens of seconds, in CPU time as much as in wall time, and
the loop slows down with it; ``run.py`` scales the timings by the loop's
median time (see ``REF_NOMINAL_S`` there). The trials' time is in neither
the set-up time nor the timed phase.

With MODE ``setup`` the child stops after the set-up and six trials of the
small reference loop; ``plain`` and ``traced`` run the timed phase untraced or
traced.

Usage: python3 perfbench/child.py WORKLOAD SEED SCALE MODE WORK_DIR
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


REFERENCE_TRIALS = 6  # before and again after the timed phase
SAMPLE_EVERY_S = 0.5  # and one trial this often during it


class Reference:
    """Two fixed loops written with numpy alone, which no change to harwin
    can alter; each call returns the loop's time in seconds.

    ``small`` mixes what the short-window sweep and ingest spend their time
    on: small broadcast multiply-adds (the convolution loops at short
    windows), one small array per window, and text parsing. ``large`` is a
    broadcast multiply-add over arrays the size of a 128-window batch at
    2 s, what the long-window convolutions spend their time on."""

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.x, self.w = rng.normal(size=(32, 16, 60)), rng.normal(size=(32, 16, 5))
        self.sig = rng.normal(size=(18, 8010))
        self.text = "\n".join(" ".join(f"{v:.4f}" for v in row) for row in rng.normal(size=(1000, 54)))
        self.xl, self.wl = rng.normal(size=(128, 200)), rng.normal(size=(32, 11))

    def small(self) -> float:
        np = self.np
        start = time.perf_counter()
        out = np.zeros((32, 32, 56))
        for c in range(16):
            for k in range(5):
                out += self.w[None, :, c, k, None] * self.x[:, None, c, k : k + 56]
        views = [np.ascontiguousarray(self.sig[:, i : i + 10].T) for i in range(0, 8000, 2)]
        np.loadtxt(io.StringIO(self.text))
        del out, views
        return time.perf_counter() - start

    def large(self) -> float:
        start = time.perf_counter()
        out = self.np.zeros((128, 32, 190))
        for k in range(11):
            out += self.wl[None, :, k, None] * self.xl[:, None, k : k + 190]
        del out
        return time.perf_counter() - start


class Sampler:
    """Times one reference trial every ``SAMPLE_EVERY_S`` from a SIGALRM
    handler while the timed phase runs, so that the reference sees the
    host's speed throughout the phase, not only at its ends. ``spent`` is
    the handlers' wall time, which the caller takes off the phase's."""

    def __init__(self, trial) -> None:
        self.trial = trial
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(self.trial())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = None
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv: list[str]) -> int:
    workload, seed, scale, mode, work = argv[0], int(argv[1]), argv[2], argv[3], Path(argv[4])
    sys.path.insert(0, str(ROOT / "src"))
    import harwin

    if Path(harwin.__file__).resolve().parent != ROOT / "src" / "harwin":
        print(f"harwin imported from {harwin.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    setup, run, check = workloads.WORKLOADS[workload]
    inputs = setup(work, seed, workloads.SIZES[scale][workload])
    setup_end = time.monotonic()
    reference = Reference()
    setup_ref = [reference.small() for _ in range(REFERENCE_TRIALS)]
    if mode == "setup":
        print(json.dumps({"mode": mode, "setup_end": setup_end, "setup_ref": setup_ref}))
        return 0
    trial = getattr(reference, workloads.REFERENCE[workload])
    ref = {"before": [trial() for _ in range(REFERENCE_TRIALS)]}
    spans = None
    sampler = Sampler(trial)
    if mode == "traced":
        t = tracer.Tracer()
        t.install()
        # each trial a span of its own, which the tracer takes out of the
        # span it interrupted
        sampler = Sampler(t.wrap(trial, tracer.REFERENCE))
    start = time.perf_counter()
    try:
        with sampler:
            outcome = run(inputs)
    finally:
        run_s = time.perf_counter() - start - sampler.spent
        if mode == "traced":
            t.uninstall()
            spans = t.spans
    ref["during"] = sampler.times
    ref["after"] = [trial() for _ in range(REFERENCE_TRIALS)]
    result = check(inputs, outcome)
    result.update(
        mode=mode,
        setup_end=setup_end,
        run_wall_s=run_s,
        setup_ref=setup_ref,
        ref=ref,
        sampler_s=sampler.spent,
        work_items=inputs["work_items"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=_environment(seed),
        inputs=workloads.describe(inputs),
    )
    if spans is not None:
        result["layers"] = tracer.layer_metrics(spans, inputs.get("text_bytes", 0))
        with open(work / "spans.jsonl", "w") as fh:
            for i, (name, parent, t0, t1, _) in enumerate(spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "start": t0, "end": t1}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

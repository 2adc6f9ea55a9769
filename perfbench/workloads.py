"""Workload definitions: seeded input generators, timed phases and output checks.

Every input is generated here from the workload seed; harwin only ever sees
the files written by ``setup``. Sizes are fixed per workload (``SIZES``), so
the amount of work does not depend on the seed, only the values do.

A workload is three functions called by ``child.py`` in one fresh process:

- ``setup(work_dir, seed, size)`` writes the input files and returns a dict
  describing them;
- ``run(inputs)`` is the timed phase: it drives harwin through ``harwin.cli``
  and the package's public functions;
- ``check(inputs, outcome)`` verifies the outputs and returns the operation
  counts (attempted, failed) plus the figures a workload reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 100
N_CHANNELS = 18
RETAINED_CODES = (2, 3, 4, 12, 13)  # harwin's default activity set, in class order
OTHER_CODES = (1, 5, 6, 7, 24)  # PAMAP2 activities outside the retained set
DEFAULT_DURATIONS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)  # `harwin sweep` default
INGEST_FOLDS = 8  # `harwin sweep` default fold count

# Sizes are fixed per scale, so the work done does not depend on the seed.
# Sweeps: blocks of block_len samples per class, the CLI's training flags,
# and acc_floor, the mean held-out accuracy (percent) a sweep must clear.
# Both sweeps train at harwin's default batch of 128. sweep-long's cache
# gives 505 windows at 4 s (two batches per training fold) and 1,030 at
# 2 s, where each held-out fold of 515 windows fills one 512-window
# evaluation chunk. The synthetic classes differ in per-channel offset and
# frequency; chance is 20%; the floors sit below the lowest baseline score
# over seeds 1-10 (see README.md). ingest-window: runs retained-activity
# runs of run_len samples per subject file.
SIZES = {
    "full": {
        "sweep-long": {
            "durations": (2.0, 4.0), "folds": 2, "epochs": 1, "batch": 128, "lr": 0.01,
            "blocks": 1, "block_len": 10450, "acc_floor": 35.0,
        },
        "sweep-short": {
            "durations": (0.1, 0.25), "folds": 4, "epochs": 1, "batch": 128, "lr": 0.01,
            "blocks": 2, "block_len": 400, "acc_floor": 75.0,
        },
        "ingest-window": {"subjects": 3, "runs": 10, "run_len": 2000},
    },
    "toy": {
        "sweep-long": {
            "durations": (2.0, 4.0), "folds": 2, "epochs": 1, "batch": 128, "lr": 0.01,
            "blocks": 1, "block_len": 500, "acc_floor": 0.0,
        },
        "sweep-short": {
            "durations": (0.1, 0.25), "folds": 2, "epochs": 1, "batch": 128, "lr": 0.01,
            "blocks": 1, "block_len": 120, "acc_floor": 0.0,
        },
        "ingest-window": {"subjects": 2, "runs": 5, "run_len": 1100},
    },
}


def window_geometry(duration: float) -> tuple[int, int]:
    """(window length, stride) in samples: 75% overlap at 100 Hz.

    Worked out here rather than with harwin's ``WindowSpec``, so that the
    window-count check does not rest on the code it checks."""
    w = int(round(duration * SAMPLE_RATE_HZ))
    return w, max(1, w // 4)


def windows_in(length: int, duration: float) -> int:
    """floor((L - W) / S) + 1 windows in a run of L samples, 0 if L < W."""
    w, s = window_geometry(duration)
    return (length - w) // s + 1 if length >= w else 0


def train_windows(class_counts: list[int], folds: int) -> int:
    """Training windows summed over folds of a stratified k-fold split.

    harwin deals each shuffled class round-robin over the folds, so fold f
    holds ceil((n_c - f) / k) windows of a class with n_c windows.
    """
    total = 0
    n = sum(class_counts)
    for f in range(folds):
        total += n - sum(-(-(nc - f) // folds) for nc in class_counts)
    return total


@contextlib.contextmanager
def _captured():
    """Collect the CLI's stdout; drop its progress lines on stderr."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        yield out


# ---------------------------------------------------------------------------
# Sweeps: `harwin sweep` on a seeded synthetic cache
# ---------------------------------------------------------------------------


def _class_signal(rng: np.random.Generator, cls: int, length: int, profile: dict) -> np.ndarray:
    """(18, length) samples of one class: a per-channel offset plus two
    sinusoids at class-specific frequencies, plus Gaussian noise."""
    t = np.arange(length) / SAMPLE_RATE_HZ
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(N_CHANNELS, 1))
    f1, f2 = profile["freqs"][cls]
    clean = (
        profile["offsets"][cls][:, None]
        + np.sin(2.0 * np.pi * f1 * t + phase)
        + 0.5 * np.sin(2.0 * np.pi * f2 * t + 2.0 * phase)
    )
    return clean + rng.normal(0.0, 0.6, size=(N_CHANNELS, length))


def _class_profile(rng: np.random.Generator) -> dict:
    return {
        "offsets": rng.normal(0.0, 2.0, size=(len(RETAINED_CODES), N_CHANNELS)),
        "freqs": [(1.0 + 1.7 * c + rng.uniform(0.0, 0.3), 7.0 + 2.3 * c) for c in range(len(RETAINED_CODES))],
    }


def setup_sweep(work: Path, seed: int, size: dict) -> dict:
    """Write a one-signal dataset cache of ``blocks`` rounds of the five
    classes, each block ``block_len`` samples. Consecutive blocks always
    carry different codes, so every block is its own activity segment."""
    import harwin

    rng = np.random.default_rng(seed)
    profile = _class_profile(rng)
    chans, labels = [], []
    for _ in range(size["blocks"]):
        for cls, code in enumerate(RETAINED_CODES):
            chans.append(_class_signal(rng, cls, size["block_len"], profile))
            labels.append(np.full(size["block_len"], code, dtype=np.int64))
    cache = work / "synthetic.bin"
    harwin.save_signals([harwin.LabeledSignal(1, np.concatenate(chans, axis=1), np.concatenate(labels))], cache)
    per_class = [size["blocks"] * windows_in(size["block_len"], d) for d in size["durations"]]
    passes = sum(
        size["epochs"] * train_windows([n] * len(RETAINED_CODES), size["folds"]) for n in per_class
    )
    return {"cache": str(cache), "out_dir": str(work / "sweep_out"), "seed": seed, "size": size, "work_items": passes}


def run_sweep(inputs: dict) -> dict:
    from harwin import cli

    size = inputs["size"]
    epochs = str(size["epochs"])
    argv = [
        "sweep",
        "--cache", inputs["cache"],
        "--windows", ",".join(f"{d:g}" for d in size["durations"]),
        "--folds", str(size["folds"]),
        "--max-epochs", epochs,
        "--patience", epochs,  # patience >= the cap: every fold runs exactly the cap
        "--batch-size", str(size["batch"]),
        "--learning-rate", f"{size['lr']:g}",
        "--seed", str(inputs["seed"]),
        "--out-dir", inputs["out_dir"],
    ]
    with _captured() as out:
        code = cli.cli(argv)
    return {"exit_code": code, "stdout": out.getvalue()}


def check_sweep(inputs: dict, outcome: dict) -> dict:
    """Operations are (duration, fold) pairs. An NA row fails its folds; a
    non-zero exit, a CSV that `harwin report` does not reproduce or a mean
    accuracy under the floor fails all of them. Byte-identity across runs of
    one seed is checked by the parent on ``csv_sha``."""
    from harwin import cli

    size = inputs["size"]
    folds, n_rows = size["folds"], len(size["durations"])
    attempted = n_rows * folds
    problems = []
    if outcome["exit_code"] != 0:
        return {"attempted": attempted, "failed": attempted, "problems": ["sweep exited non-zero"]}
    out_dir = Path(inputs["out_dir"])
    csv_bytes = (out_dir / "report.csv").read_bytes()
    csv_text = csv_bytes.decode()
    if csv_text != outcome["stdout"]:
        problems.append("stdout differs from report.csv")
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    if len(rows) != n_rows:
        problems.append(f"expected {n_rows} CSV rows, got {len(rows)}")
    accs = [float(r[3]) for r in rows if "NA" not in r]
    acc_pct = sum(accs) / len(accs) if accs else 0.0
    if acc_pct < size["acc_floor"]:
        problems.append(f"acc_pct {acc_pct:.2f} below floor {size['acc_floor']}")
    regen = out_dir.parent / "regenerated"
    with _captured() as out:
        code = cli.cli(["report", "--report", str(out_dir / "report.json"), "--out-dir", str(regen)])
    if code != 0 or out.getvalue() != csv_text or (regen / "report.csv").read_bytes() != csv_bytes:
        problems.append("`harwin report` does not reproduce report.csv")
    n_na = sum("NA" in r for r in rows)
    failed_ops = attempted if problems else n_na * folds
    if n_na:
        problems.append(f"{n_na} NA row(s)")
    return {
        "attempted": attempted,
        "failed": failed_ops,
        "problems": problems,
        "acc_pct": acc_pct,
        "csv_sha": hashlib.sha256(csv_bytes).hexdigest(),
    }


# ---------------------------------------------------------------------------
# ingest-window: PAMAP2-format protocol files -> windows and folds
#
# The file layout is restated here from the PAMAP2 format, not imported from
# harwin.dataset, so that the generated files and the bit-equality check are
# independent of the parser under test.
# ---------------------------------------------------------------------------

N_COLUMNS = 54
IMU_OFFSETS = (3, 20, 37)
KEPT_SLOTS = (1, 2, 3, 7, 8, 9)  # acc16g x,y,z then gyro x,y,z
RETAINED_COLUMNS = tuple(o + s for o in IMU_OFFSETS for s in KEPT_SLOTS)
FIELD = 10  # bytes per formatted field, leading separator included
SCALE = 10_000  # values are k / 10^4: four decimals, exact through a text round trip


def format_fixed(k: np.ndarray, nan: np.ndarray) -> bytes:
    """Format integers k (rows, cols) as space-separated ``k / 10^4`` with
    four decimals, "NaN" where ``nan`` is set, one row per line.

    Vectorized so that writing tens of MB of protocol text stays a small
    part of set-up. |k / 10^4| must be below 1000.
    """
    neg = k < 0
    a = np.abs(k)
    ip, fp = a // SCALE, a % SCALE
    if ip.max(initial=0) >= 1000:
        raise ValueError("value out of the formatter's range")
    buf = np.full(k.shape + (FIELD,), ord(" "), dtype=np.uint8)
    for j in range(4):
        buf[..., FIELD - 1 - j] = ord("0") + (fp // 10**j) % 10
    buf[..., FIELD - 5] = ord(".")
    n_int = 1 + (ip >= 10) + (ip >= 100)
    for j in range(3):
        buf[..., FIELD - 6 - j] = np.where(j < n_int, ord("0") + (ip // 10**j) % 10, ord(" "))
    for j in range(1, 4):
        pos = FIELD - 6 - j
        buf[..., pos] = np.where(neg & (n_int == j), ord("-"), buf[..., pos])
    buf[nan] = np.frombuffer(b"       NaN", dtype=np.uint8)
    lines = buf.reshape(k.shape[0], -1)
    newline = np.full((k.shape[0], 1), ord("\n"), dtype=np.uint8)
    return np.concatenate([lines, newline], axis=1).tobytes()


def _subject_layout(rng: np.random.Generator, size: dict) -> list[tuple[int, int]]:
    """(code, length) runs: retained runs of fixed length, each followed by a
    transient 0 run or a run of a non-retained activity. Only the order of
    codes depends on the seed, so the window counts do not."""
    runs = []
    codes = [RETAINED_CODES[i % len(RETAINED_CODES)] for i in range(size["runs"])]
    for i, code in enumerate(rng.permutation(codes)):
        runs.append((int(code), size["run_len"]))
        if i % 2:
            runs.append((int(rng.choice(OTHER_CODES)), 300))
        else:
            runs.append((0, 150))
    return runs


def _subject_file(rng: np.random.Generator, subject_index: int, size: dict, profile: dict) -> tuple[bytes, np.ndarray, list]:
    runs = _subject_layout(rng, size)
    total = sum(n for _, n in runs)
    k = rng.integers(-200_000, 200_000, size=(total, N_COLUMNS))  # unused readings: +/-20
    nan = np.zeros((total, N_COLUMNS), dtype=bool)
    k[:, 0] = (np.arange(total) + 500 + 1000 * subject_index) * (SCALE // SAMPLE_RATE_HZ)
    codes = np.concatenate([np.full(n, c) for c, n in runs])
    k[:, 1] = codes * SCALE
    # heart rate at ~9 Hz: one reading in eleven, NaN otherwise
    k[:, 2] = rng.integers(700_000, 1_600_000, size=total)
    nan[:, 2] = np.arange(total) % 11 != 0
    # retained channels: class-shaped signal for retained activities
    retained = np.empty((N_CHANNELS, total))
    start = 0
    for code, n in runs:
        cls = RETAINED_CODES.index(code) if code in RETAINED_CODES else int(rng.integers(len(RETAINED_CODES)))
        retained[:, start : start + n] = _class_signal(rng, cls, n, profile)
        start += n
    k[:, RETAINED_COLUMNS] = np.round(retained * 3.0 * SCALE).T.astype(np.int64)
    # dropped wireless packets: short runs where a whole IMU block reads NaN
    for offset in IMU_OFFSETS:
        for s in rng.choice(total - 8, size=total // 200, replace=False):
            nan[s + 1 : s + 1 + int(rng.integers(1, 6)), offset : offset + 17] = True
    expected = (k[:, RETAINED_COLUMNS] / SCALE).T
    expected[nan[:, RETAINED_COLUMNS].T] = np.nan
    # in blocks of rows, so that set-up peaks well below what windowing uses
    text = b"".join(format_fixed(k[i : i + 2048], nan[i : i + 2048]) for i in range(0, total, 2048))
    return text, expected, [n for c, n in runs if c in RETAINED_CODES]


def setup_ingest(work: Path, seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    profile = _class_profile(rng)
    data_dir = work / "protocol"
    data_dir.mkdir()
    text_bytes = 0
    segment_lens = []
    for i in range(size["subjects"]):
        text, expected, lens = _subject_file(rng, i, size, profile)
        (data_dir / f"subject{101 + i}.dat").write_bytes(text)
        np.save(work / f"expected{101 + i}.npy", expected)
        text_bytes += len(text)
        segment_lens += lens
    counts = {d: sum(windows_in(n, d) for n in segment_lens) for d in DEFAULT_DURATIONS}
    return {
        "data_dir": str(data_dir),
        "cache": str(work / "ingested.bin"),
        "work": str(work),
        "seed": seed,
        "size": size,
        "text_bytes": text_bytes,
        "expected_windows": {f"{d:g}": n for d, n in counts.items()},
        "work_items": sum(counts.values()),
    }


def run_ingest(inputs: dict) -> dict:
    """`harwin ingest`, then what a sweep does before its first training
    step, at every default duration, with one fold's training set stacked."""
    from harwin import cli, dataset, model, preprocess

    with _captured() as out:
        code = cli.cli(["ingest", "--data-dir", inputs["data_dir"], "--out", inputs["cache"]])
    if code != 0:
        return {"exit_code": code}
    signals = dataset.load_signals(inputs["cache"])
    fingerprint = dataset.dataset_fingerprint(signals)
    signals = preprocess.apply_zscore(signals, preprocess.compute_stats(signals))
    segments = dataset.collect_segments(signals)
    per_duration = {}
    for d in DEFAULT_DURATIONS:
        samples = preprocess.segment(segments, preprocess.WindowSpec(d))
        plan = preprocess.make_folds(samples, INGEST_FOLDS, inputs["seed"])
        train_idx, _ = plan.train_test(0)
        pool = [samples[i] for i in train_idx]
        x, y = model.stack_windows(pool), model.stack_labels(pool)
        per_duration[f"{d:g}"] = {
            "windows": len(samples),
            "assignment": plan.assignment,
            "classes": np.array([s.class_index for s in samples]),
            "train_idx": train_idx,
            "x_shape": x.shape,
            "y_len": len(y),
            "first": np.array_equal(x[0], pool[0].window) if len(pool) else False,
        }
    return {"exit_code": code, "stdout": out.getvalue(), "fingerprint": fingerprint, "per_duration": per_duration}


def check_ingest(inputs: dict, outcome: dict) -> dict:
    """Operations: one per protocol file ingested, one per duration windowed."""
    import harwin

    size = inputs["size"]
    n_files = size["subjects"]
    attempted = n_files + len(DEFAULT_DURATIONS)
    if outcome["exit_code"] != 0:
        return {"attempted": attempted, "failed": attempted, "problems": ["ingest exited non-zero"]}
    problems = []
    failed = 0
    signals = {s.subject_id: s for s in harwin.load_signals(inputs["cache"])}
    for i in range(n_files):
        sid = 101 + i
        expected = np.load(Path(inputs["work"]) / f"expected{sid}.npy")
        sig = signals.get(sid)
        gaps = np.isnan(expected)
        ok = (
            sig is not None
            and sig.channels.shape == expected.shape
            and np.array_equal(sig.channels[~gaps], expected[~gaps])
            and np.isfinite(sig.channels).all()
        )
        if not ok:
            failed += 1
            problems.append(f"subject{sid}: ingested samples differ from the generated ones")
    if f"fingerprint {outcome['fingerprint']}" not in outcome["stdout"]:
        problems.append("ingest fingerprint differs from the reloaded cache's")
        failed = n_files
    for d in DEFAULT_DURATIONS:
        key = f"{d:g}"
        got = outcome["per_duration"][key]
        n = inputs["expected_windows"][key]
        a = got["assignment"]
        test_sizes = np.bincount(a, minlength=INGEST_FOLDS) if a.size else np.zeros(INGEST_FOLDS)
        partition = (
            a.shape == (n,)
            and a.min(initial=0) >= 0
            and a.max(initial=0) < INGEST_FOLDS
            and np.array_equal(np.sort(got["train_idx"]), np.flatnonzero(a != 0))
        )
        # stratified: per class, fold sizes differ by at most one
        for cls in np.unique(got["classes"]):
            per_fold = np.bincount(a[got["classes"] == cls], minlength=INGEST_FOLDS)
            partition = partition and per_fold.max() - per_fold.min() <= 1
        w, _ = window_geometry(d)
        n_train = n - int(test_sizes[0])
        stacked = got["x_shape"] == (n_train, w, N_CHANNELS) and got["y_len"] == n_train and got["first"]
        if got["windows"] != n or not partition or not stacked:
            failed += 1
            problems.append(f"{key} s: {got['windows']} windows (expected {n}), partition {partition}, stack {stacked}")
    return {"attempted": attempted, "failed": failed, "problems": problems}


# the reference loop (child.Reference) that runs like each workload
REFERENCE = {"sweep-long": "large", "sweep-short": "small", "ingest-window": "small"}

WORKLOADS = {
    "sweep-long": (setup_sweep, run_sweep, check_sweep),
    "sweep-short": (setup_sweep, run_sweep, check_sweep),
    "ingest-window": (setup_ingest, run_ingest, check_ingest),
}


def describe(inputs: dict) -> dict:
    """The input sizes, recorded with every result."""
    return {k: v for k, v in inputs.items() if k in ("size", "text_bytes", "expected_windows", "work_items")}

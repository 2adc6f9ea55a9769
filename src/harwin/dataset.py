"""PAMAP2 ingestion: protocol-file parsing, channel selection, gap repair,
activity segmentation and a seeded synthetic stand-in generator.

Protocol files carry one sample per line as 54 space-separated fields:
column 0 timestamp (s), column 1 activity id, column 2 heart rate, then three
17-column IMU blocks (hand at 3, chest at 20, ankle at 37). Within a block at
offset ``o``: ``o`` temperature, ``o+1..o+3`` the +/-16 g accelerometer,
``o+4..o+6`` the +/-6 g accelerometer, ``o+7..o+9`` the gyroscope,
``o+10..o+12`` the magnetometer and ``o+13..o+16`` orientation. "NaN" marks a
dropped reading. Only the +/-16 g accelerometer and the gyroscope of each IMU
are retained (the +/-6 g unit saturates), giving 18 channels at 100 Hz.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 100

N_COLUMNS = 54
N_READINGS = 52  # everything except timestamp and activity id

IMU_OFFSETS = (3, 20, 37)  # hand, chest, ankle blocks, in file order
_KEPT_SLOTS = (1, 2, 3, 7, 8, 9)  # acc16g x,y,z then gyro x,y,z

# Indices into the 52-wide reading array (file column minus 2) of the 18
# retained channels, IMU-major.
SELECTED_READINGS = tuple(o + s - 2 for o in IMU_OFFSETS for s in _KEPT_SLOTS)
N_CHANNELS = len(SELECTED_READINGS)

ACTIVITY_NAMES = {
    2: "sitting",
    3: "standing",
    4: "walking",
    12: "ascending stairs",
    13: "descending stairs",
}

SYNTHETIC_SUBJECT_ID = 0


@dataclass(frozen=True)
class ActivitySet:
    """Maps retained activity codes to contiguous class indices."""

    code_to_class: dict[int, int]

    def __post_init__(self) -> None:
        n = len(self.code_to_class)
        if n != 5:
            raise ValueError(f"activity set must have exactly 5 entries, got {n}")
        if sorted(self.code_to_class.values()) != list(range(5)):
            raise ValueError("class indices must be a permutation of 0..4")

    def __contains__(self, code: int) -> bool:
        return code in self.code_to_class

    def class_of(self, code: int) -> int:
        return self.code_to_class[code]


DEFAULT_ACTIVITIES = ActivitySet({2: 0, 3: 1, 4: 2, 12: 3, 13: 4})


@dataclass
class RawRecording:
    """One subject's parsed protocol stream; NaN marks missing readings."""

    subject_id: int
    timestamps: np.ndarray  # (T,) seconds, strictly increasing
    activity_ids: np.ndarray  # (T,) int
    readings: np.ndarray  # (T, 52) float64


@dataclass
class LabeledSignal:
    """18-channel, 100 Hz signal with a per-timestep activity label."""

    subject_id: int
    channels: np.ndarray  # (18, T) float64
    labels: np.ndarray  # (T,) int

    def __post_init__(self) -> None:
        if self.channels.ndim != 2 or self.channels.shape[0] != N_CHANNELS:
            raise ValueError(f"expected {N_CHANNELS} channels, got shape {self.channels.shape}")
        if self.labels.shape != (self.channels.shape[1],):
            raise ValueError("labels length must equal the number of timesteps")

    @property
    def n_timesteps(self) -> int:
        return self.channels.shape[1]


@dataclass
class ActivitySegment:
    """Maximal run of timesteps sharing one retained activity."""

    segment_id: int
    subject_id: int
    class_index: int
    channels: np.ndarray  # (18, L) float64


def _diagnose_lines(numbered: list[tuple[int, str]]) -> None:
    """Raise for the first malformed line; no-op if all lines look fine."""
    for lineno, line in numbered:
        fields = line.split()
        if len(fields) != N_COLUMNS:
            raise ValueError(
                f"line {lineno}: expected {N_COLUMNS} fields, got {len(fields)}"
            )
        for tok in fields:
            try:
                float(tok)
            except ValueError:
                raise ValueError(f"line {lineno}: unparsable number {tok!r}") from None


def parse_pamap2_file(text: str, subject_id: int) -> RawRecording:
    """Parse one protocol file into a raw recording.

    Malformed lines (wrong field count, unparsable tokens, non-finite
    timestamps, non-integer activity ids) and non-increasing timestamps are
    hard errors naming the offending line; an empty file is a hard error.
    """
    numbered = [
        (i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()
    ]
    if not numbered:
        raise ValueError("empty recording")
    try:
        data = np.loadtxt(
            io.StringIO("\n".join(line for _, line in numbered)),
            dtype=np.float64,
            comments=None,
            ndmin=2,
        )
    except ValueError:
        _diagnose_lines(numbered)
        raise
    if data.shape[1] != N_COLUMNS:
        _diagnose_lines(numbered)
        raise ValueError(f"expected {N_COLUMNS} fields per line, got {data.shape[1]}")

    linenos = np.array([n for n, _ in numbered])
    timestamps = data[:, 0]
    activities = data[:, 1]
    readings = data[:, 2:]

    bad = ~np.isfinite(timestamps)
    if bad.any():
        raise ValueError(f"line {linenos[bad.argmax()]}: non-finite timestamp")
    bad = ~np.isfinite(activities) | (activities != np.round(activities))
    if bad.any():
        raise ValueError(f"line {linenos[bad.argmax()]}: activity id is not an integer")
    bad = np.isinf(readings).any(axis=1)
    if bad.any():
        raise ValueError(f"line {linenos[bad.argmax()]}: infinite sensor reading")
    nonmono = np.flatnonzero(np.diff(timestamps) <= 0)
    if nonmono.size:
        raise ValueError(
            f"line {linenos[nonmono[0] + 1]}: timestamps must be strictly increasing"
        )

    return RawRecording(
        subject_id=subject_id,
        timestamps=timestamps,
        activity_ids=activities.astype(np.int64),
        readings=readings,
    )


def select_channels(rec: RawRecording) -> LabeledSignal:
    """Pull the 18 retained channels out of a raw recording.

    Channel order is fixed: hand, chest, ankle; within each IMU the
    accelerometer x,y,z then the gyroscope x,y,z. Missing readings stay NaN.
    """
    if rec.timestamps.size == 0:
        raise ValueError("recording is empty")
    channels = np.ascontiguousarray(rec.readings[:, SELECTED_READINGS].T)
    return LabeledSignal(rec.subject_id, channels, rec.activity_ids.copy())


def interpolate_missing(sig: LabeledSignal) -> LabeledSignal:
    """Fill NaN gaps per channel: linear interior interpolation, edge fill
    with the nearest valid value. A channel with no valid values is a hard
    error."""
    filled = sig.channels.copy()
    for c in range(filled.shape[0]):
        row = filled[c]
        missing = np.isnan(row)
        if not missing.any():
            continue
        valid = np.flatnonzero(~missing)
        if valid.size == 0:
            raise ValueError(f"channel {c} has no valid values")
        filled[c] = np.interp(np.arange(row.size), valid, row[valid])
    return LabeledSignal(sig.subject_id, filled, sig.labels.copy())


def filter_activities(sig: LabeledSignal, acts: ActivitySet = DEFAULT_ACTIVITIES) -> list[ActivitySegment]:
    """Split a signal into maximal single-activity runs, dropping timesteps
    whose label is not in the activity set (the transient code 0 included).
    Each segment's channels are a view of the signal, not a copy."""
    labels = sig.labels
    t_total = labels.size
    if t_total == 0:
        return []
    change = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    bounds = np.concatenate(([0], change, [t_total]))
    segments: list[ActivitySegment] = []
    for start, end in zip(bounds[:-1], bounds[1:]):
        code = int(labels[start])
        if code in acts:
            segments.append(
                ActivitySegment(
                    segment_id=len(segments),
                    subject_id=sig.subject_id,
                    class_index=acts.class_of(code),
                    channels=sig.channels[:, start:end],
                )
            )
    return segments


def collect_segments(
    signals: list[LabeledSignal], acts: ActivitySet = DEFAULT_ACTIVITIES
) -> list[ActivitySegment]:
    """Segment every signal and renumber segment ids globally."""
    out: list[ActivitySegment] = []
    for sig in signals:
        for seg in filter_activities(sig, acts):
            out.append(replace(seg, segment_id=len(out)))
    return out


def generate_synthetic(seed: int, samples_per_class: int, segment_len: int) -> LabeledSignal:
    """Deterministic 5-class stand-in signal for CI runs without the real
    dataset.

    Class c gets sinusoids of frequency 2+3c Hz with a class- and
    channel-specific phase, plus Gaussian noise of standard deviation 0.3.
    Classes are interleaved so each block survives as its own activity run.
    """
    if segment_len < 2:
        raise ValueError(f"segment_len must be >= 2, got {segment_len}")
    if samples_per_class < 1:
        raise ValueError(f"samples_per_class must be >= 1, got {samples_per_class}")
    rng = np.random.default_rng(seed)
    codes = sorted(DEFAULT_ACTIVITIES.code_to_class)
    t = np.arange(segment_len) / SAMPLE_RATE_HZ
    channels = np.empty((N_CHANNELS, samples_per_class * len(codes) * segment_len))
    for b, code in enumerate(codes * samples_per_class):
        c = DEFAULT_ACTIVITIES.class_of(code)
        freq = 2.0 + 3.0 * c
        phase = 2.0 * np.pi * (c * N_CHANNELS + np.arange(N_CHANNELS)) / (5 * N_CHANNELS)
        clean = np.sin(2.0 * np.pi * freq * t[None, :] + phase[:, None])
        block = channels[:, b * segment_len : (b + 1) * segment_len]
        np.add(clean, rng.normal(0.0, 0.3, size=block.shape), out=block)
    labels = np.repeat(np.array(codes * samples_per_class, dtype=np.int64), segment_len)
    return LabeledSignal(SYNTHETIC_SUBJECT_ID, channels, labels)


# ---------------------------------------------------------------------------
# Dataset cache ("HARW1"): ingested signals in one little-endian binary file.
#
#   magic "HARW1"
#   u32 signal count
#   per signal: i64 subject_id, u32 channel count, u64 timesteps T,
#               i64[T] labels, f64[C*T] channel data (channel-major)
# ---------------------------------------------------------------------------

CACHE_MAGIC = b"HARW1"


def _pack_signals(signals: list[LabeledSignal]) -> Iterator[bytes | memoryview]:
    """The cache's bytes part by part; each array part is a view of the
    signal's own memory, so no part is copied and no parts are joined."""
    yield CACHE_MAGIC
    yield struct.pack("<I", len(signals))
    for sig in signals:
        c, t = sig.channels.shape
        yield struct.pack("<qIQ", sig.subject_id, c, t)
        yield np.ascontiguousarray(sig.labels, dtype="<i8").data
        yield np.ascontiguousarray(sig.channels, dtype="<f8").data


def save_signals(signals: list[LabeledSignal], path: str | Path) -> None:
    with open(path, "wb") as f:
        f.writelines(_pack_signals(signals))


def load_signals(path: str | Path) -> list[LabeledSignal]:
    """Read a cache written by save_signals; each labels and channels part
    is read straight into its own array."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(len(CACHE_MAGIC)) != CACHE_MAGIC:
            raise ValueError(f"{path}: not a dataset cache (bad magic)")

        def check(n: int) -> None:
            if f.tell() + n > size:
                raise ValueError(f"{path}: truncated dataset cache")

        def take(n: int) -> bytes:
            check(n)
            return f.read(n)

        def take_array(shape: tuple[int, ...], dtype: str) -> np.ndarray:
            check(np.dtype(dtype).itemsize * math.prod(shape))  # before allocating what the header claims
            arr = np.empty(shape, dtype=dtype)
            if f.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise ValueError(f"{path}: truncated dataset cache")
            return arr

        (count,) = struct.unpack("<I", take(4))
        signals = []
        for _ in range(count):
            subject, c, t = struct.unpack("<qIQ", take(20))
            labels = take_array((t,), "<i8")
            channels = take_array((c, t), "<f8")
            signals.append(LabeledSignal(int(subject), channels, labels))
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes in dataset cache")
    return signals


def dataset_fingerprint(signals: list[LabeledSignal]) -> str:
    """Content hash of a dataset, stable across runs on identical data."""
    digest = hashlib.sha256()
    for part in _pack_signals(signals):
        digest.update(part)
    return "sha256:" + digest.hexdigest()


def load_subject_file(path: str | Path, subject_id: int) -> LabeledSignal:
    """Parse, select channels and repair gaps for one protocol file."""
    rec = parse_pamap2_file(Path(path).read_text(), subject_id)
    return interpolate_missing(select_channels(rec))


def ingest_directory(
    data_dir: str | Path, subjects: list[int] | None = None
) -> list[LabeledSignal]:
    """Ingest ``subjectNNN.dat`` protocol files from a directory.

    With ``subjects`` unset, every ``subject*.dat`` file present is read,
    and one whose name is not ``subject`` plus a number is an error;
    otherwise each requested subject's file must exist.
    """
    root = Path(data_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"data directory not found: {root}")
    if subjects is None:
        files = sorted(root.glob("subject*.dat"))
        if not files:
            raise FileNotFoundError(f"no subject*.dat files in {root}")
        for p in files:
            if not p.stem.removeprefix("subject").isdecimal():
                raise ValueError(f"{p}: not a subjectNNN.dat protocol file name")
        pairs = [(int(p.stem.removeprefix("subject")), p) for p in files]
    else:
        pairs = [(s, root / f"subject{s}.dat") for s in subjects]
        for _, p in pairs:
            if not p.is_file():
                raise FileNotFoundError(f"missing protocol file: {p}")
    return [load_subject_file(path, sid) for sid, path in pairs]

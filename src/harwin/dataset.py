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

``load_subject_file`` parses a file with one np.loadtxt pass, checks the
parsed array, takes the 18 retained channels into one fresh ``(18, T)`` array
and repairs its gaps in place. The file is read again only to name the line
of an error, and every ingest error names the file.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import struct
import warnings
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 100

N_COLUMNS = 54

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

# Retained activity code -> contiguous class index, in ACTIVITY_NAMES order.
ACTIVITY_CLASSES = {code: index for index, code in enumerate(ACTIVITY_NAMES)}

SYNTHETIC_SUBJECT_ID = 0


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


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """The 1-based number and text of each line that holds a row: blank
    lines hold none, as in np.loadtxt."""
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                yield lineno, line


def _diagnose_lines(path: Path) -> None:
    """Raise for the first malformed line; no-op if all lines look fine."""
    for lineno, line in _data_lines(path):
        fields = line.split()
        if len(fields) != N_COLUMNS:
            raise ValueError(
                f"line {lineno}: expected {N_COLUMNS} fields, got {len(fields)}"
            )
        if not _parses(line):
            for tok in fields:
                if not _parses(tok):
                    raise ValueError(f"line {lineno}: unparsable number {tok!r}")


def _parses(text: str) -> bool:
    """Whether np.loadtxt, the parser that reads the file, accepts ``text``."""
    try:
        np.loadtxt([text], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return False
    return True


def repair_gaps(channels: np.ndarray) -> None:
    """Fill NaN gaps of each channel row in place: linear interior
    interpolation, edge fill with the nearest valid value. A channel with no
    valid values is a hard error."""
    for c, row in enumerate(channels):
        missing = np.isnan(row)
        if not missing.any():
            continue
        valid = np.flatnonzero(~missing)
        if valid.size == 0:
            raise ValueError(f"channel {c} has no valid values")
        row[missing] = np.interp(np.flatnonzero(missing), valid, row[valid])


def _parse_protocol_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The gap-repaired ``(18, T)`` channels and ``(T,)`` labels of one
    protocol file, parsed by one np.loadtxt pass over the file.

    Malformed lines (wrong field count, unparsable tokens, non-finite
    timestamps, non-integer activity ids, infinite readings) and
    non-increasing timestamps are errors naming the line; the file is read
    a second time only then, to find the line.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(path, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            _diagnose_lines(path)
            raise
    if data.size == 0:
        raise ValueError("empty recording")
    if data.shape[1] != N_COLUMNS:
        _diagnose_lines(path)
        raise ValueError(f"expected {N_COLUMNS} fields per line, got {data.shape[1]}")

    def check(bad_rows: np.ndarray, message: str) -> None:
        if bad_rows.any():
            lineno, _ = next(itertools.islice(_data_lines(path), bad_rows.argmax(), None))
            raise ValueError(f"line {lineno}: {message}")

    timestamps = data[:, 0]
    activities = data[:, 1]
    check(~np.isfinite(timestamps), "non-finite timestamp")
    check(~np.isfinite(activities) | (activities != np.round(activities)), "activity id is not an integer")
    check(np.isinf(data[:, 2:]).any(axis=1), "infinite sensor reading")
    # prepending -inf makes row 0 pass, so a flagged row is the later of the pair
    check(np.diff(timestamps, prepend=-np.inf) <= 0, "timestamps must be strictly increasing")

    channels = data.T[[r + 2 for r in SELECTED_READINGS]]  # a fresh C-contiguous (18, T)
    repair_gaps(channels)
    return channels, activities.astype(np.int64)


def filter_activities(sig: LabeledSignal) -> list[ActivitySegment]:
    """Split a signal into maximal single-activity runs, dropping timesteps
    whose label is not a retained activity (the transient code 0 included).
    Each segment's channels are a view of the signal, not a copy."""
    labels = sig.labels
    t_total = labels.size
    if t_total == 0:
        return []
    change = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    bounds = np.concatenate(([0], change, [t_total]))
    segments: list[ActivitySegment] = []
    for start, end in zip(bounds[:-1], bounds[1:]):
        class_index = ACTIVITY_CLASSES.get(int(labels[start]))
        if class_index is not None:
            segments.append(
                ActivitySegment(
                    segment_id=len(segments),
                    subject_id=sig.subject_id,
                    class_index=class_index,
                    channels=sig.channels[:, start:end],
                )
            )
    return segments


def collect_segments(signals: list[LabeledSignal]) -> list[ActivitySegment]:
    """Segment every signal and renumber segment ids globally."""
    out: list[ActivitySegment] = []
    for sig in signals:
        for seg in filter_activities(sig):
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
    codes = sorted(ACTIVITY_CLASSES)
    t = np.arange(segment_len) / SAMPLE_RATE_HZ
    channels = np.empty((N_CHANNELS, samples_per_class * len(codes) * segment_len))
    for b, code in enumerate(codes * samples_per_class):
        c = ACTIVITY_CLASSES[code]
        freq = 2.0 + 3.0 * c
        phase = 2.0 * np.pi * (c * N_CHANNELS + np.arange(N_CHANNELS)) / (len(codes) * N_CHANNELS)
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
    write_atomic(path, _pack_signals(signals))


def write_atomic(path: str | Path, parts: Iterable[bytes | memoryview]) -> None:
    """Write ``parts`` in order as the file ``path``, all or nothing: into a
    new temporary file in the same directory, flushed and fsynced, then
    renamed over ``path``. A failure leaves any previous file as it was and
    removes the temporary one. The directory is fsynced after the rename,
    so a write that returned survives a crash, where the OS can open a
    directory. The file gets the mode a plain ``open()`` gives a new file,
    0o666 less the umask."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb") as f:
            f.writelines(parts)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # Windows opens no directory
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


@contextmanager
def read_binary(path: str | Path, magic: bytes, kind: str):
    """``with read_binary(...) as (unpack, array)``: ``unpack(fmt)`` reads a
    struct, ``array(shape, dtype)`` reads into a fresh array. A read past the
    end is refused before anything is allocated, the file must start with
    ``magic`` and end where the body stops, and every ValueError, the body's
    own included, is re-raised naming the file."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def array(shape: tuple[int, ...], dtype: str) -> np.ndarray:
            nbytes = np.dtype(dtype).itemsize * math.prod(shape)
            if f.tell() + nbytes > size:  # checked before allocating what a header claims
                raise ValueError(f"truncated {kind}")
            arr = np.empty(shape, dtype=dtype)
            if nbytes and f.readinto(memoryview(arr).cast("B")) != nbytes:
                raise ValueError(f"truncated {kind}")
            return arr

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, array((struct.calcsize(fmt),), "u1"))

        try:
            if f.read(len(magic)) != magic:
                raise ValueError(f"not a {kind} (bad magic)")
            yield unpack, array
            if f.read(1):
                raise ValueError(f"trailing bytes in {kind}")
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


def load_signals(path: str | Path) -> list[LabeledSignal]:
    """Read a cache written by save_signals; each labels and channels part
    is read straight into its own array, and every sample must be finite."""
    signals = []
    with read_binary(path, CACHE_MAGIC, "dataset cache") as (unpack, array):
        (count,) = unpack("<I")
        for _ in range(count):
            subject, c, t = unpack("<qIQ")
            labels = array((t,), "<i8")
            channels = array((c, t), "<f8")
            # min and max are non-finite exactly when a sample is, and copy nothing
            if not np.isfinite([channels.min(initial=0.0), channels.max(initial=0.0)]).all():
                raise ValueError("non-finite sample in dataset cache")
            signals.append(LabeledSignal(int(subject), channels, labels))
    return signals


def dataset_fingerprint(signals: list[LabeledSignal]) -> str:
    """Content hash of a dataset, stable across runs on identical data."""
    digest = hashlib.sha256()
    for part in _pack_signals(signals):
        digest.update(part)
    return "sha256:" + digest.hexdigest()


def load_subject_file(path: str | Path, subject_id: int) -> LabeledSignal:
    """Parse, select channels and repair gaps for one protocol file. Every
    error names the file (and the line, where there is one)."""
    try:
        channels, labels = _parse_protocol_file(Path(path))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return LabeledSignal(subject_id, channels, labels)


def check_subjects(subjects: list[int]) -> None:
    """Reject a subject listed twice: its windows would fall into both the
    training and the test folds."""
    repeated = [s for i, s in enumerate(subjects) if s in subjects[:i]]
    if repeated:
        raise ValueError(f"subject {repeated[0]} is listed more than once")


def ingest_directory(
    data_dir: str | Path, subjects: list[int] | None = None
) -> list[LabeledSignal]:
    """Ingest ``subjectNNN.dat`` protocol files from a directory.

    With ``subjects`` unset, every ``subject*.dat`` file present is read,
    and one whose name is not ``subject`` plus a number is an error;
    otherwise each requested subject's file must exist, and a subject
    requested twice is an error.
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
        check_subjects(subjects)
        pairs = [(s, root / f"subject{s}.dat") for s in subjects]
        for _, p in pairs:
            if not p.is_file():
                raise FileNotFoundError(f"missing protocol file: {p}")
    return [load_subject_file(path, sid) for sid, path in pairs]

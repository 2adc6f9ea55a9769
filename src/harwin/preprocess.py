"""Per-channel statistics, sliding-window extraction and fold assignment.

``kept_signal`` concatenates the kept segments once per sweep and
re-points each segment into that copy. Nothing downstream then reads the
loaded signals, so once ``experiment.prepare`` returns, a sweep holds one
copy of its data, of kept timesteps only. For each window duration,
``window_arrays`` cuts a read-only ``sliding_window_view`` of that one
array, one row per start position, with a label array that marks where
``segment`` has a window (its class) and where it has none (-1); no window
and no signal is copied. Folds are dealt from that label array
(``FoldPlan.stratified``), and rows labelled -1 fall in no fold. A fold is
an array of window indices: training and evaluation gather their batches
from the view through it and standardize each gathered copy with a
``ChannelStats``, so neither the signal nor a fold is ever copied out in
standardized form.

``segment`` (one ``Sample`` view per window), ``make_folds``,
``apply_zscore`` and ``model.stack_windows``/``stack_labels`` remain as a
public API over the same geometry; the pipeline itself no longer calls them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import SAMPLE_RATE_HZ, ActivitySegment, LabeledSignal, N_CHANNELS
from .layers import CoverageError, GeometryError


@dataclass
class ChannelStats:
    mean: np.ndarray  # (18,)
    std: np.ndarray  # (18,)


def compute_stats(signals: list[LabeledSignal]) -> ChannelStats:
    """Population mean/std per channel over the concatenation of all signals.

    A constant channel would divide by zero downstream, so it is rejected
    here rather than silently producing infinities. Each channel is reduced
    through one row of all its timesteps, with the operations of numpy's
    ``mean`` and ``std``, so the result is bitwise that of
    ``np.concatenate(...).mean/std(axis=1)`` without the concatenated copy.
    """
    if not signals:
        raise ValueError("no signals to compute stats over")
    total = sum(s.n_timesteps for s in signals)
    if total < 2:
        raise ValueError("need at least 2 timesteps to compute stats")
    mean = np.empty(N_CHANNELS)
    std = np.empty(N_CHANNELS)
    row = np.empty(total)
    for c in range(N_CHANNELS):
        np.concatenate([s.channels[c] for s in signals], out=row)
        mean[c] = row.sum() / total
        row -= mean[c]
        row *= row
        std[c] = np.sqrt(row.sum() / total)
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        raise ValueError(f"channel {flat[0]} is constant; cannot normalize")
    return ChannelStats(mean=mean, std=std)


def apply_zscore(signals: list[LabeledSignal], stats: ChannelStats) -> list[LabeledSignal]:
    """Standardized copies of the signals, (x - mean) / std per channel.

    The pipeline no longer calls this: it keeps the signals raw and
    standardizes each gathered batch with the same two operations per
    element (``model.gather``), so the results are bitwise the same."""
    out = []
    for sig in signals:
        z = (sig.channels - stats.mean[:, None]) / stats.std[:, None]
        out.append(LabeledSignal(sig.subject_id, z, sig.labels.copy()))
    return out


@dataclass(frozen=True)
class WindowSpec:
    """Window geometry: duration in seconds, 75% overlap.

    ``window_len`` is the duration at 100 Hz rounded to samples and
    ``stride`` is a quarter window, floored, never below one sample.
    """

    window_sec: float
    window_len: int = field(init=False)
    stride: int = field(init=False)

    def __post_init__(self) -> None:
        w = int(round(self.window_sec * SAMPLE_RATE_HZ))
        if w < 2:
            raise GeometryError(
                f"window of {self.window_sec} s is {w} samples at {SAMPLE_RATE_HZ} Hz; need >= 2"
            )
        object.__setattr__(self, "window_len", w)
        object.__setattr__(self, "stride", max(1, w // 4))

    @property
    def overlap(self) -> int:
        return self.window_len - self.stride


@dataclass
class Sample:
    """One training example: a read-only (window_len, 18) view and its class."""

    window: np.ndarray
    class_index: int
    subject_id: int
    origin: tuple[int, int]  # (segment_id, start offset)


def _windows_of(seg: ActivitySegment, spec: WindowSpec) -> np.ndarray:
    """Read-only (n_windows, window_len, C) view of one segment's windows;
    window i starts at timestep i * stride. A segment shorter than one
    window has none."""
    c, length = seg.channels.shape
    if length < spec.window_len:
        return np.empty((0, spec.window_len, c))
    return sliding_window_view(seg.channels, spec.window_len, axis=1)[:, :: spec.stride].transpose(1, 2, 0)


def segment(segments: list[ActivitySegment], spec: WindowSpec) -> list[Sample]:
    """Slide the window over each segment; runs shorter than one window
    contribute nothing. Each window is a read-only view of its segment."""
    samples: list[Sample] = []
    for seg in segments:
        views = _windows_of(seg, spec)
        samples += [
            Sample(v, seg.class_index, seg.subject_id, (seg.segment_id, i * spec.stride))
            for i, v in enumerate(views)
        ]
    return samples


def kept_signal(segments: list[ActivitySegment]) -> tuple[np.ndarray, list[ActivitySegment]]:
    """The kept segments' channels, concatenated in order into one
    (C, T_kept) array, the one copy every duration's windows view, and the
    segments re-pointed into it: each one's channels become its slice of
    that array, so the segments no longer hold the signals they were cut
    from."""
    n_ch = segments[0].channels.shape[0] if segments else N_CHANNELS
    sig = np.concatenate([np.empty((n_ch, 0))] + [seg.channels for seg in segments], axis=1)
    kept, start = [], 0
    for seg in segments:
        end = start + seg.channels.shape[1]
        kept.append(replace(seg, channels=sig[:, start:end]))
        start = end
    return sig, kept


def window_arrays(sig: np.ndarray, segments: list[ActivitySegment], spec: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """A read-only (N, window_len, C) view of every window over ``sig``,
    the ``kept_signal(segments)``, one row per start position, and int64
    labels: a row's segment class where ``segment(segments, spec)`` has that
    window, -1 where it has none (a window straddling two segments, or one
    that does not start on the stride).

    ``x[y >= 0]`` is ``np.stack`` of ``segment``'s windows, in its order,
    bit for bit and with the same strides."""
    w = spec.window_len
    y = np.full(max(0, sig.shape[1] - w + 1), -1, dtype=np.int64)
    start = 0
    for seg in segments:
        # a segment shorter than a window has none, and its slice is empty
        y[start : start + len(_windows_of(seg, spec)) * spec.stride : spec.stride] = seg.class_index
        start += seg.channels.shape[1]
    # a signal shorter than a window has no start: slide over placeholders, keep none
    x = sliding_window_view(sig if y.size else np.empty((sig.shape[0], w)), w, axis=1)[:, : y.size]
    return x.transpose(1, 2, 0), y


@dataclass
class FoldPlan:
    k: int
    assignment: np.ndarray  # (n_samples,) fold index per sample, -1 for none

    def train_test(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted window indices of every other fold and of ``fold``; rows
        in no fold are on neither side."""
        if not 0 <= fold < self.k:
            raise ValueError(f"fold {fold} out of range for k={self.k}")
        test = np.flatnonzero(self.assignment == fold)
        train = np.flatnonzero((self.assignment != fold) & (self.assignment >= 0))
        return train, test

    @classmethod
    def stratified(cls, labels: np.ndarray, k: int, seed: int) -> FoldPlan:
        """Shuffle each class of ``labels``, deal it round-robin into k
        folds. Every class needs at least k windows; per-class fold counts
        then differ by at most one. A label below 0 puts its row in no fold
        (-1) and draws nothing from the rng."""
        if k < 2:
            raise ValueError(f"need k >= 2 folds, got {k}")
        kept = labels[labels >= 0]
        if kept.size == 0:
            raise CoverageError("no samples to fold")
        rng = np.random.default_rng(seed)
        assignment = np.full(labels.size, -1, dtype=np.int64)
        for c in np.unique(kept):
            idx = np.flatnonzero(labels == c)
            if idx.size < k:
                raise CoverageError(
                    f"class {c} has only {idx.size} windows; need at least {k} for {k} folds"
                )
            perm = rng.permutation(idx)
            assignment[perm] = np.arange(perm.size) % k
        return cls(k=k, assignment=assignment)


def make_folds(samples: list[Sample], k: int, seed: int) -> FoldPlan:
    """``FoldPlan.stratified`` over the samples' class indices."""
    return FoldPlan.stratified(np.array([s.class_index for s in samples], dtype=np.int64), k, seed)

"""Per-channel normalization, sliding-window extraction and fold assignment.

Windows are read-only views into their segment, never copies; folds are
dealt from a label array (``FoldPlan.stratified``). A fold is an array of
window indices: training and evaluation gather their batches from the one
stacked window array through it, so no fold is ever copied out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    here rather than silently producing infinities.
    """
    if not signals:
        raise ValueError("no signals to compute stats over")
    data = np.concatenate([s.channels for s in signals], axis=1)
    if data.shape[1] < 2:
        raise ValueError("need at least 2 timesteps to compute stats")
    mean = data.mean(axis=1)
    std = data.std(axis=1)
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        raise ValueError(f"channel {flat[0]} is constant; cannot normalize")
    return ChannelStats(mean=mean, std=std)


def apply_zscore(signals: list[LabeledSignal], stats: ChannelStats) -> list[LabeledSignal]:
    """Standardize each channel in place-free fashion: (x - mean) / std."""
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


def segment(segments: list[ActivitySegment], spec: WindowSpec) -> list[Sample]:
    """Slide the window over each segment; runs shorter than one window
    contribute nothing. Each window is a read-only view of its segment."""
    w, stride = spec.window_len, spec.stride
    samples: list[Sample] = []
    for seg in segments:
        if seg.channels.shape[1] < w:
            continue
        # (n_windows, w, 18): window i starts at timestep i * stride
        views = sliding_window_view(seg.channels, w, axis=1)[:, ::stride].transpose(1, 2, 0)
        samples += [Sample(v, seg.class_index, seg.subject_id, (seg.segment_id, i * stride)) for i, v in enumerate(views)]
    return samples


@dataclass
class FoldPlan:
    k: int
    assignment: np.ndarray  # (n_samples,) fold index per sample

    def train_test(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted window indices of every other fold and of ``fold``."""
        if not 0 <= fold < self.k:
            raise ValueError(f"fold {fold} out of range for k={self.k}")
        test = np.flatnonzero(self.assignment == fold)
        train = np.flatnonzero(self.assignment != fold)
        return train, test

    @classmethod
    def stratified(cls, labels: np.ndarray, k: int, seed: int) -> FoldPlan:
        """Shuffle each class of ``labels``, deal it round-robin into k
        folds. Every class needs at least k windows; per-class fold counts
        then differ by at most one."""
        if k < 2:
            raise ValueError(f"need k >= 2 folds, got {k}")
        if labels.size == 0:
            raise CoverageError("no samples to fold")
        rng = np.random.default_rng(seed)
        assignment = np.empty(labels.size, dtype=np.int64)
        for c in np.unique(labels):
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

"""Cross-validated training and the window-duration sweep.

The sweep trains one model per (window duration, fold) pair and aggregates
per-duration accuracy/loss/epoch statistics. Kernel sizes follow the window:
short windows (<= 0.25 s) use (3, 5), everything longer (7, 11). A duration
whose geometry fails (``GeometryError``) or whose windows cannot fill the
folds (``CoverageError``) is a failed row; any other error aborts the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import ActivitySet, DEFAULT_ACTIVITIES, LabeledSignal, collect_segments, dataset_fingerprint
from .layers import CoverageError, GeometryError
from .model import ModelParams, ModelSpec, TrainConfig, build_model, evaluate, plan_shapes, train
from .preprocess import ChannelStats, FoldPlan, WindowSpec, compute_stats, window_arrays

SHORT_WINDOW_SEC = 0.25
SHORT_KERNELS = (3, 5)
LONG_KERNELS = (7, 11)

DEFAULT_WINDOWS_SEC = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)

# Elements per chunk of the per-fold statistics' passes (8 MiB of float64).
STATS_CHUNK_ELEMS = 1 << 20


def select_kernels(window_sec: float) -> tuple[int, int]:
    """Conv kernel sizes as a function of window duration."""
    return SHORT_KERNELS if window_sec <= SHORT_WINDOW_SEC else LONG_KERNELS


def check_windows(windows_sec: list[float]) -> None:
    """Reject an empty list, a duration that is not positive and finite,
    and duplicates. A valid duration may still fail its geometry later."""
    if not windows_sec:
        raise ValueError("no window durations given")
    for w_sec in windows_sec:
        if not 0.0 < w_sec < math.inf:
            raise ValueError(f"window duration must be positive and finite, got {w_sec}")
    if len(set(windows_sec)) != len(windows_sec):
        raise ValueError("duplicate window durations")


@dataclass
class FoldResult:
    fold: int
    accuracy: float
    loss: float
    epochs_to_best: int


@dataclass
class SweepRow:
    """Aggregated cross-validation outcome for one window duration."""

    window_sec: float
    k1: int
    k2: int
    folds: list[FoldResult]
    failed: bool = False
    reason: str | None = None

    def _agg(self, attr: str) -> tuple[float, float]:
        vals = np.array([getattr(f, attr) for f in self.folds], dtype=np.float64)
        # sample std (ddof=1) across folds, matching how spread over repeated
        # trials is usually quoted
        return float(vals.mean()), float(vals.std(ddof=1)) if vals.size > 1 else 0.0

    @property
    def acc_mean(self) -> float:
        return self._agg("accuracy")[0]

    @property
    def acc_std(self) -> float:
        return self._agg("accuracy")[1]

    @property
    def loss_mean(self) -> float:
        return self._agg("loss")[0]

    @property
    def loss_std(self) -> float:
        return self._agg("loss")[1]

    @property
    def epochs_mean(self) -> float:
        return self._agg("epochs_to_best")[0]

    @property
    def epochs_std(self) -> float:
        return self._agg("epochs_to_best")[1]


@dataclass
class SweepReport:
    rows: list[SweepRow]
    seed: int
    dataset_fingerprint: str
    config: dict


def _window_level_stats(x: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std over every timestep of the (N, W, C) windows
    ``x[idx]``, without copying them: two passes over chunks of the windows,
    each chunk folded into the running sum in row order. Equal bit for bit
    to ``x[idx].reshape(-1, C).mean(axis=0)`` and ``.std(axis=0)``."""
    window_len, n_ch = x.shape[1:]
    step = max(1, min(len(idx), STATS_CHUNK_ELEMS // (window_len * n_ch)))  # windows per chunk
    # Row 0 carries the running sum. The buffer is C order, so np.add.reduce
    # adds it row by row, as numpy's mean and std do on a C-order copy.
    buf = np.empty((1 + step * window_len, n_ch))

    def row_sum(put) -> np.ndarray:
        first = 1  # no running sum before the first chunk
        for lo in range(0, len(idx), step):
            chunk = idx[lo : lo + step]
            end = 1 + len(chunk) * window_len
            put(x[chunk], buf[1:end].reshape(len(chunk), window_len, n_ch))
            buf[0] = np.add.reduce(buf[first:end], axis=0)
            first = 0
        return buf[0].copy()

    count = len(idx) * window_len
    mean = row_sum(lambda windows, dst: np.copyto(dst, windows)) / count
    var = row_sum(lambda windows, dst: np.square(np.subtract(windows, mean, out=dst), out=dst)) / count
    std = np.sqrt(var)
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        raise CoverageError(f"channel {flat[0]} is constant in the training folds")
    return mean, std


def _fit_fold(
    x: np.ndarray,
    y: np.ndarray,
    plan: FoldPlan,
    fold: int,
    spec: ModelSpec,
    cfg: TrainConfig,
    seed: int,
    *,
    stats: ChannelStats | None,
    honest_split: bool = False,
) -> SingleRunResult:
    """Train on the folds of ``plan`` but ``fold`` and test on ``fold``.

    Folds are index arrays into the raw (N, W, C) windows ``x`` (classes
    ``y``); ``train`` and ``evaluate`` gather their batches from ``x``
    itself and standardize each gathered copy, so no fold is copied and
    ``x`` is only read. They standardize with ``stats``, or, when it is
    None, with the statistics of the training folds' windows. The model,
    rng and inner split are seeded with ``seed + fold``. See ``run_cv`` for
    ``honest_split``."""
    fold_seed = seed + fold
    train_idx, test_idx = plan.train_test(fold)
    if stats is None:
        stats = ChannelStats(*_window_level_stats(x, train_idx))
    fit_idx, stop_idx = train_idx, test_idx
    if honest_split:
        fit, stop = FoldPlan.stratified(y[train_idx], 10, fold_seed).train_test(0)
        fit_idx, stop_idx = train_idx[fit], train_idx[stop]
    net = build_model(spec, x.shape[1], fold_seed)
    best, best_epoch, history = train(net, x, y, fit_idx, stop_idx, replace(cfg, seed=fold_seed), stats)
    accuracy, loss = evaluate(best, x, y, test_idx, stats)
    return SingleRunResult(best, accuracy, loss, best_epoch, history)


def run_cv(
    x: np.ndarray,
    y: np.ndarray,
    k: int,
    base_spec: ModelSpec,
    cfg: TrainConfig,
    seed: int,
    *,
    stats: ChannelStats | None,
    honest_split: bool = False,
) -> list[FoldResult]:
    """Stratified k-fold over the raw windows ``x`` (classes ``y``; a row
    labelled -1 is in no fold): train on k-1 folds, test on the held-out
    fold.

    Every batch is standardized with ``stats`` as it is gathered; with
    ``stats=None`` each fold uses the statistics of its own training folds
    (``--per-fold-stats``). By default the held-out fold doubles as the
    early-stopping set — the optimistic protocol this reproduces.
    ``honest_split`` instead carves a tenth of the training pool
    (stratified) for stopping, so the test fold is never seen before the
    final evaluation.
    """
    plan = FoldPlan.stratified(y, k, seed)
    results = []
    for fold in range(k):
        r = _fit_fold(x, y, plan, fold, base_spec, cfg, seed, stats=stats, honest_split=honest_split)
        results.append(FoldResult(fold, r.accuracy, r.loss, r.epochs_to_best))
    return results


def run_sweep(
    signals: list[LabeledSignal],
    windows_sec: list[float],
    cfg: TrainConfig,
    seed: int,
    *,
    folds: int = 8,
    acts: ActivitySet = DEFAULT_ACTIVITIES,
    honest_split: bool = False,
    per_fold_stats: bool = False,
    progress=None,
) -> SweepReport:
    """Cross-validate one model per window duration over a shared dataset.

    A ``GeometryError`` or ``CoverageError`` for a single duration marks
    that row failed with the reason; anything else, divergence included,
    propagates.
    """
    check_windows(windows_sec)
    fingerprint = dataset_fingerprint(signals)
    stats = None if per_fold_stats else compute_stats(signals)
    segments = collect_segments(signals, acts)
    rows = []
    for w_sec in sorted(windows_sec):
        k1, k2 = select_kernels(w_sec)
        if progress is not None:
            progress(f"window {w_sec:g} s: kernels ({k1}, {k2})")
        try:
            spec = ModelSpec(kernels=(k1, k2))
            wspec = WindowSpec(w_sec)
            plan_shapes(spec, wspec.window_len)
            # no name holds the window array, so it is freed before the next duration's
            fold_results = run_cv(
                *window_arrays(segments, wspec), folds, spec, cfg, seed, stats=stats, honest_split=honest_split
            )
        except (GeometryError, CoverageError) as err:
            rows.append(
                SweepRow(window_sec=w_sec, k1=k1, k2=k2, folds=[], failed=True, reason=str(err))
            )
            continue
        rows.append(SweepRow(window_sec=w_sec, k1=k1, k2=k2, folds=fold_results))
    return SweepReport(
        rows=rows,
        seed=seed,
        dataset_fingerprint=fingerprint,
        config={
            "folds": folds,
            "batch_size": cfg.batch_size,
            "max_epochs": cfg.max_epochs,
            "patience": cfg.patience,
            "learning_rate": cfg.learning_rate,
            "honest_split": honest_split,
            "per_fold_stats": per_fold_stats,
        },
    )


@dataclass
class SingleRunResult:
    model: ModelParams
    accuracy: float
    loss: float
    epochs_to_best: int
    history: list


def train_single(
    signals: list[LabeledSignal],
    window_sec: float,
    cfg: TrainConfig,
    seed: int,
    *,
    acts: ActivitySet = DEFAULT_ACTIVITIES,
    kernels: tuple[int, int] | None = None,
) -> SingleRunResult:
    """One standardize/window/train run with a held-out fifth for stopping
    and evaluation: fold 0 of a 5-fold plan. Used by the CLI's single-model
    path."""
    stats = compute_stats(signals)
    segments = collect_segments(signals, acts)
    wspec = WindowSpec(window_sec)
    spec = ModelSpec(kernels=kernels or select_kernels(window_sec))
    plan_shapes(spec, wspec.window_len)
    x, y = window_arrays(segments, wspec)
    plan = FoldPlan.stratified(y, 5, seed)
    return _fit_fold(x, y, plan, 0, spec, cfg, seed, stats=stats)

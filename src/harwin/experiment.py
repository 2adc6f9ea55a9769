"""Cross-validated training and the window-duration sweep.

A sweep is a flat list of independent cells, one per (window duration,
fold). ``run_cell`` trains and tests one from the sweep's inputs and its key
alone; ``assemble`` builds the report from the cells' outcomes, in any
order. Kernel sizes follow the window: short windows (<= 0.25 s) use (3, 5),
everything longer (7, 11). A cell whose geometry fails (``GeometryError``)
or whose windows cannot fill the folds (``CoverageError``) fails its
duration's row; any other error aborts the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import ActivitySegment, LabeledSignal, collect_segments, dataset_fingerprint
from .layers import CoverageError, GeometryError
from .model import EpochStats, ModelParams, ModelSpec, TrainConfig, build_model, evaluate, plan_shapes, train
from .preprocess import ChannelStats, FoldPlan, WindowSpec, compute_stats, kept_signal, window_arrays

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
    history: list[EpochStats] = field(default_factory=list)  # per epoch; not archived


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


def run_cell(
    sig: np.ndarray,
    segments: list[ActivitySegment],
    window_sec: float,
    fold: int,
    folds: int,
    cfg: TrainConfig,
    seed: int,
    *,
    stats: ChannelStats | None,
    honest_split: bool = False,
    kernels: tuple[int, int] | None = None,
) -> tuple[ModelParams, FoldResult]:
    """Train on every fold of a stratified ``folds``-fold plan, dealt with
    ``seed``, but ``fold``, and test on ``fold``; return the best model and
    the fold's result. ``kernels`` overrides ``select_kernels``.

    The windows are read-only views of ``sig``, the ``kept_signal`` of
    ``segments``, and folds are index arrays into them: ``train`` and
    ``evaluate`` standardize each batch they gather with ``stats``, or, when
    it is None (``--per-fold-stats``), with the training folds' statistics.
    The model, rng and inner split are seeded with ``seed + fold``. The test
    fold doubles as the early-stopping set, the optimistic protocol this
    reproduces, unless ``honest_split`` carves a stratified tenth of the
    training folds for stopping.
    """
    spec = ModelSpec(kernels=kernels or select_kernels(window_sec))
    wspec = WindowSpec(window_sec)
    plan_shapes(spec, wspec.window_len)
    x, y = window_arrays(sig, segments, wspec)
    train_idx, test_idx = FoldPlan.stratified(y, folds, seed).train_test(fold)
    fold_seed = seed + fold
    if stats is None:
        stats = ChannelStats(*_window_level_stats(x, train_idx))
    fit_idx, stop_idx = train_idx, test_idx
    if honest_split:
        fit, stop = FoldPlan.stratified(y[train_idx], 10, fold_seed).train_test(0)
        fit_idx, stop_idx = train_idx[fit], train_idx[stop]
    net = build_model(spec, wspec.window_len, fold_seed)
    best, best_epoch, history = train(net, x, y, fit_idx, stop_idx, replace(cfg, seed=fold_seed), stats)
    accuracy, loss = evaluate(best, x, y, test_idx, stats)
    return best, FoldResult(fold, accuracy, loss, best_epoch, history)


def assemble(
    outcomes: dict[tuple[float, int], FoldResult | str], *, seed: int, fingerprint: str, config: dict
) -> SweepReport:
    """The sweep report from its cell outcomes, each a ``FoldResult`` or the
    reason its cell failed, keyed by ``(window_sec, fold)``: one row per
    duration, in ascending order, with its folds in index order. A row with
    a failed fold is failed, with the reason of its lowest-numbered one.
    The report does not depend on the order of ``outcomes``."""
    rows = []
    for w_sec in sorted({w for w, _ in outcomes}):
        k1, k2 = select_kernels(w_sec)
        results = [outcomes[cell] for cell in sorted(outcomes) if cell[0] == w_sec]
        reasons = [r for r in results if isinstance(r, str)]
        if reasons:
            rows.append(SweepRow(window_sec=w_sec, k1=k1, k2=k2, folds=[], failed=True, reason=reasons[0]))
        else:
            rows.append(SweepRow(window_sec=w_sec, k1=k1, k2=k2, folds=results))
    return SweepReport(rows=rows, seed=seed, dataset_fingerprint=fingerprint, config=config)


def run_sweep(
    signals: list[LabeledSignal],
    windows_sec: list[float],
    cfg: TrainConfig,
    seed: int,
    *,
    folds: int = 8,
    honest_split: bool = False,
    per_fold_stats: bool = False,
    progress=None,
) -> SweepReport:
    """Cross-validate one model per window duration over a shared dataset:
    run the cells ``(w, f)`` for each duration ``w`` in ascending order and
    each fold ``f`` in order, then ``assemble`` their outcomes.

    A ``GeometryError`` or ``CoverageError`` from a cell fails its
    duration's row with the reason, and that duration's later cells are
    skipped; anything else, divergence included, propagates.
    """
    check_windows(windows_sec)
    fingerprint = dataset_fingerprint(signals)
    stats = None if per_fold_stats else compute_stats(signals)
    segments = collect_segments(signals)
    sig = kept_signal(segments)
    outcomes: dict[tuple[float, int], FoldResult | str] = {}
    failed = set()
    for w_sec, fold in [(w, f) for w in sorted(windows_sec) for f in range(folds)]:
        if w_sec in failed:
            continue
        if progress is not None:
            progress(f"window {w_sec:g} s: kernels {select_kernels(w_sec)}, fold {fold + 1}/{folds}")
        try:
            _, outcomes[w_sec, fold] = run_cell(
                sig, segments, w_sec, fold, folds, cfg, seed, stats=stats, honest_split=honest_split
            )
        except (GeometryError, CoverageError) as err:
            outcomes[w_sec, fold] = str(err)
            failed.add(w_sec)
    config = {
        "folds": folds,
        "batch_size": cfg.batch_size,
        "max_epochs": cfg.max_epochs,
        "patience": cfg.patience,
        "learning_rate": cfg.learning_rate,
        "honest_split": honest_split,
        "per_fold_stats": per_fold_stats,
    }
    return assemble(outcomes, seed=seed, fingerprint=fingerprint, config=config)


def train_single(
    signals: list[LabeledSignal],
    window_sec: float,
    cfg: TrainConfig,
    seed: int,
    *,
    kernels: tuple[int, int] | None = None,
) -> tuple[ModelParams, FoldResult]:
    """One cell with global statistics: train on four fifths, stop on and
    evaluate the held-out fifth (fold 0 of a 5-fold plan). Used by the
    CLI's single-model path."""
    stats = compute_stats(signals)
    segments = collect_segments(signals)
    return run_cell(kept_signal(segments), segments, window_sec, 0, 5, cfg, seed, stats=stats, kernels=kernels)

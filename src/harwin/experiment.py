"""Cross-validated training and the window-duration sweep.

A sweep is a flat list of independent cells, one per (window duration,
fold). ``prepare`` builds what every cell reads, ``run_cell`` trains and
tests one from that and its key alone, ``run_cells`` runs a list of them,
in worker processes on Linux (``worker_count``), and ``assemble`` builds
the report from their outcomes, in any order.
Kernel sizes follow the window (``model.select_kernels``). A cell whose
geometry fails (``GeometryError``) or whose windows cannot fill the folds
(``CoverageError``) fails its duration's row; any other error aborts the
sweep.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dataset import ActivitySegment, LabeledSignal, collect_segments, dataset_fingerprint
from .layers import CoverageError, DivergenceError, GeometryError
from .model import EpochStats, ModelParams, ModelSpec, TrainConfig, build_model, evaluate, select_kernels, train
from .preprocess import ChannelStats, FoldPlan, WindowSpec, compute_stats, kept_signal, window_arrays

DEFAULT_WINDOWS_SEC = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_FOLDS = 8

Cell = tuple[float, int]  # (window_sec, fold)

# Elements per chunk of the per-fold statistics' passes (8 MiB of float64).
STATS_CHUNK_ELEMS = 1 << 20


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

    def mean_std(self, name: str) -> tuple[float, float]:
        """Mean and sample std (ddof=1, as spread over repeated trials is
        usually quoted; 0.0 for one fold) of the FoldResult field ``name``
        over the folds."""
        vals = np.array([getattr(f, name) for f in self.folds], dtype=np.float64)
        return float(vals.mean()), float(vals.std(ddof=1)) if vals.size > 1 else 0.0

    @property
    def acc_mean(self) -> float:
        return self.mean_std("accuracy")[0]


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


class Prepared(NamedTuple):
    """What every cell reads; ``stats`` is None under per-fold statistics."""

    sig: np.ndarray
    segments: list[ActivitySegment]
    stats: ChannelStats | None


def prepare(signals: list[LabeledSignal], *, per_fold_stats: bool = False) -> Prepared:
    """``compute_stats``, unless ``per_fold_stats``, then the ``kept_signal``
    of the segments. Nothing returned refers to ``signals``, so a temporary
    passed in, as the CLI does, is freed when this returns."""
    stats = None if per_fold_stats else compute_stats(signals)
    return Prepared(*kept_signal(collect_segments(signals)), stats)


def run_cell(
    prepared: Prepared,
    window_sec: float,
    fold: int,
    folds: int,
    cfg: TrainConfig,
    *,
    honest_split: bool = False,
    kernels: tuple[int, int] | None = None,
) -> tuple[ModelParams, FoldResult]:
    """Train on every fold of a stratified ``folds``-fold plan, dealt with
    ``cfg.seed``, but ``fold``, and test on ``fold``; return the best epoch's
    model and the fold's result. ``kernels`` overrides ``select_kernels``.

    The windows are read-only views of ``prepared.sig``, and folds are index
    arrays into them: ``train`` and ``evaluate`` standardize each gathered
    batch with ``prepared.stats``, or with the training folds' statistics.
    The model, rng and inner split are seeded with ``cfg.seed + fold``. The
    test fold doubles as the early-stopping set, the optimistic protocol
    this reproduces, unless ``honest_split``: then fold 0 of a stratified
    10-fold plan of the training folds, seeded ``cfg.seed + fold``, is the
    stopping set, and the other nine are fit.
    """
    sig, segments, stats = prepared
    wspec = WindowSpec(window_sec)
    fold_seed = cfg.seed + fold
    # built first: its shape plan fails a bad geometry before the windows can fail coverage
    net = build_model(ModelSpec(kernels=kernels or select_kernels(window_sec)), wspec.window_len, fold_seed)
    x, y = window_arrays(sig, segments, wspec)
    train_idx, test_idx = FoldPlan.stratified(y, folds, cfg.seed).train_test(fold)
    if stats is None:
        stats = ChannelStats(*_window_level_stats(x, train_idx))
    fit_idx, stop_idx = train_idx, test_idx
    if honest_split:
        try:
            fit, stop = FoldPlan.stratified(y[train_idx], 10, fold_seed).train_test(0)
        except CoverageError as err:
            raise CoverageError(f"the honest split stops on 1 of 10 folds of the training folds: {err}") from err
        fit_idx, stop_idx = train_idx[fit], train_idx[stop]
    best, best_epoch, history = train(net, x, y, fit_idx, stop_idx, replace(cfg, seed=fold_seed), stats)
    accuracy, loss = evaluate(best, x, y, test_idx, stats)
    return best, FoldResult(fold, accuracy, loss, best_epoch, history)


def assemble(outcomes: dict[Cell, FoldResult | str], *, seed: int, fingerprint: str, config: dict) -> SweepReport:
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


def worker_count(n_cells: int) -> int:
    """The size of the pool that runs ``n_cells`` cells: one worker per CPU
    in this process's affinity mask, at most one per cell. 0, and the cells
    run in this process, where fewer than two workers would run or the OS
    has no affinity mask: anything but Linux, where the ``fork`` pool is
    untested."""
    if not hasattr(os, "sched_getaffinity"):
        return 0
    n = min(len(os.sched_getaffinity(0)), n_cells)
    return n if n > 1 else 0


def _outcome(prepared: Prepared, folds: int, cfg: TrainConfig, honest_split: bool, cell: Cell):
    """The cell's ``FoldResult``, the reason it failed (geometry or
    coverage), or the error it raised, for ``run_cells`` to raise if the
    cell is not skipped. Never the model, which a worker does not send."""
    try:
        return run_cell(prepared, *cell, folds, cfg, honest_split=honest_split)[1]
    except (GeometryError, CoverageError) as err:
        return str(err)
    except Exception as err:
        return err


_worker_args: tuple = ()  # a pool worker's (prepared, folds, cfg, honest_split)


def _start_worker(*args) -> None:
    import signal  # here, as multiprocessing is, so that importing harwin does not pay for it

    global _worker_args
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt stops the caller, which stops the workers
    _worker_args = args


def _worker_outcome(cell: Cell):
    return _outcome(*_worker_args, cell)


@contextmanager
def _outcome_stream(args: tuple, cells: list[Cell], skip: set[float]):
    """The outcome of each of ``cells``, in their order. With
    ``worker_count``, they come from a pool of worker processes, forked here
    so that they read ``args`` copy-on-write, and a cell whose duration is
    in ``skip`` still runs; a worker's death is a RuntimeError. Otherwise
    each is computed in this process as it is read, and such a cell gives
    None without running. Leaving the context stops the workers."""
    n_workers = worker_count(len(cells))
    if not n_workers:
        yield (None if cell[0] in skip else _outcome(*args, cell) for cell in cells)
        return
    import multiprocessing  # here, so that importing harwin does not pay for it

    ctx = multiprocessing.get_context("fork")
    others = set(multiprocessing.active_children())
    with ctx.Pool(n_workers, _start_worker, args) as pool:
        workers = set(multiprocessing.active_children()) - others
        results = pool.imap(_worker_outcome, cells, chunksize=1)

        def next_outcome():
            # a pool waits for ever for the cell of a worker that died, as
            # one does that the OS kills when memory runs out
            while True:
                try:
                    return results.next(timeout=1.0)
                except multiprocessing.TimeoutError:
                    dead = [w.exitcode for w in workers if w.exitcode is not None]
                    if dead:
                        raise RuntimeError(f"a sweep worker process died (exit code {dead[0]})") from None

        yield (next_outcome() for _ in cells)


def run_cells(
    prepared: Prepared, cells: list[Cell], folds: int, cfg: TrainConfig, *, honest_split: bool = False, done=None
) -> dict[Cell, FoldResult | str]:
    """Run ``cells`` and return their outcomes for ``assemble``, calling
    ``done(cell, outcome)`` after each one that ran, in the order given. A
    failed cell skips its duration's later cells; a ``DivergenceError`` gets
    its ``cell``. The cells run in worker processes where ``worker_count``
    gives two or more, else in this process, and one loop reads their
    outcomes in order, so the outcomes, the ``done`` calls and the error
    raised are the same either way."""
    outcomes: dict[Cell, FoldResult | str] = {}
    failed: set[float] = set()
    with _outcome_stream((prepared, folds, cfg, honest_split), cells, failed) as stream:
        for cell, outcome in zip(cells, stream):
            if cell[0] in failed:
                continue
            if isinstance(outcome, Exception):
                if isinstance(outcome, DivergenceError):
                    outcome.cell = cell
                raise outcome
            outcomes[cell] = outcome
            if isinstance(outcome, str):
                failed.add(cell[0])
            if done is not None:
                done(cell, outcome)
    return outcomes


def run_sweep(
    signals: list[LabeledSignal],
    windows_sec: list[float],
    cfg: TrainConfig,
    *,
    folds: int = DEFAULT_FOLDS,
    honest_split: bool = False,
    per_fold_stats: bool = False,
    done=None,
) -> SweepReport:
    """Cross-validate one model per window duration over a shared dataset:
    ``run_cells`` fold 0 of every duration, longest first, then fold 1, and
    so on, then ``assemble`` the outcomes; the report archives ``cfg.seed``
    once, as its ``seed``. Longest first, a pool ends on short cells.
    ``signals`` is dropped once ``prepare`` has built the kept signal: a
    caller that passes it as a temporary, as the CLI does, lets the loaded
    data be freed before the first cell."""
    check_windows(windows_sec)
    fingerprint = dataset_fingerprint(signals)
    prepared = prepare(signals, per_fold_stats=per_fold_stats)
    del signals  # the last reference, when the caller passed a temporary
    cells = [(w, f) for f in range(folds) for w in sorted(windows_sec, reverse=True)]
    outcomes = run_cells(prepared, cells, folds, cfg, honest_split=honest_split, done=done)
    config = asdict(cfg) | {"folds": folds, "honest_split": honest_split, "per_fold_stats": per_fold_stats}
    del config["seed"]  # archived once, as the report's own seed
    return assemble(outcomes, seed=cfg.seed, fingerprint=fingerprint, config=config)

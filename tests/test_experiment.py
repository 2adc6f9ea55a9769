"""Cross-validation cells, their assembly and the window-duration sweep."""

import random
from dataclasses import replace

import numpy as np
import pytest

from harwin import experiment
from harwin.dataset import ActivitySegment, collect_segments, generate_synthetic
from harwin.experiment import (
    FoldResult,
    Prepared,
    SweepRow,
    _window_level_stats,
    assemble,
    prepare,
    run_cell,
    run_cells,
    run_sweep,
    select_kernels,
)
from harwin.layers import CoverageError, DivergenceError
from harwin.model import EpochStats, ModelSpec, TrainConfig, build_model, evaluate, stack_labels, stack_windows, train
from harwin.preprocess import (
    ChannelStats,
    FoldPlan,
    WindowSpec,
    apply_zscore,
    compute_stats,
    kept_signal,
    make_folds,
    segment,
    window_arrays,
)
from harwin.report import format_report_csv, save_report

BLOB_SEC = 0.1  # 10 timesteps: a blob segment is exactly one window


def _blob_segments(n_per_class, sep=3.0, seed=0, n_classes=3, scale=1.0, offset=0.0):
    """One-window segments, ``n_per_class`` per class: class c is noise
    around (c - 1) * sep on every channel."""
    rng = np.random.default_rng(seed)
    segments = []
    for c in range(n_classes):
        for _ in range(n_per_class):
            channels = (rng.normal(size=(18, 10)) * 0.1 + (c - 1) * sep) * scale + offset
            segments.append(ActivitySegment(len(segments), 0, c, channels))
    return segments


def _blob_cell(segments, fold, folds, cfg=None, **kwargs):
    prepared = Prepared(*kept_signal(segments), kwargs.pop("stats", IDENTITY))
    return run_cell(prepared, BLOB_SEC, fold, folds, cfg or FAST_CFG, **kwargs)


def _arrays(samples):
    return stack_windows(samples), stack_labels(samples)


def _identity(n_ch):
    """Stats under which (w - 0) / 1 is w bit for bit."""
    return ChannelStats(np.zeros(n_ch), np.ones(n_ch))


def _reference_cell(x, y, fold, folds, spec, cfg, stats):
    """One cell of the default protocol by hand, over a stacked window
    array, seeded as ``run_cell`` seeds it."""
    train_idx, test_idx = FoldPlan.stratified(y, folds, cfg.seed).train_test(fold)
    net = build_model(spec, x.shape[1], cfg.seed + fold)
    best, best_epoch, history = train(net, x, y, train_idx, test_idx, replace(cfg, seed=cfg.seed + fold), stats)
    accuracy, loss = evaluate(best, x, y, test_idx, stats)
    return best, FoldResult(fold, accuracy, loss, best_epoch, history)


def _bits(result):
    """A fold result's fields with every float as its exact bits."""
    return (
        result.fold,
        result.accuracy.hex(),
        result.loss.hex(),
        result.epochs_to_best,
        [(h.train_loss.hex(), h.stop_loss.hex()) for h in result.history],
    )


def _assert_same_model(a, b, msg=None):
    for ta, tb in zip(a.tensors(), b.tensors()):
        assert (ta == tb).all(), msg


FAST_CFG = TrainConfig(batch_size=16, max_epochs=2, patience=2, seed=0)
IDENTITY = _identity(18)


def test_select_kernels_boundary():
    assert select_kernels(0.1) == (3, 5)
    assert select_kernels(0.25) == (3, 5)  # boundary belongs to the short side
    assert select_kernels(0.251) == (7, 11)
    assert select_kernels(0.5) == (7, 11)
    assert select_kernels(4.0) == (7, 11)


def test_run_cell_returns_one_result_per_fold():
    segments = _blob_segments(8)
    for fold in range(4):
        model, r = _blob_cell(segments, fold, 4)
        assert r.fold == fold
        assert 0.0 <= r.accuracy <= 1.0
        assert np.isfinite(r.loss)
        assert 1 <= r.epochs_to_best <= 2
        assert r.epochs_to_best <= len(r.history) <= 2
        assert model.plan.window_len == 10 and model.spec.kernels == select_kernels(BLOB_SEC)


def test_run_cell_learns_separable_data():
    segments = _blob_segments(16)
    cfg = TrainConfig(batch_size=16, max_epochs=120, patience=120, seed=0)
    for fold in range(2):
        _, r = _blob_cell(segments, fold, 2, cfg)
        assert r.accuracy == 1.0


def test_run_cell_is_deterministic():
    segments = _blob_segments(8)
    a = [_blob_cell(segments, fold, 3, replace(FAST_CFG, seed=5)) for fold in range(3)]
    b = [_blob_cell(segments, fold, 3, replace(FAST_CFG, seed=5)) for fold in range(3)]
    assert [_bits(r) for _, r in a] == [_bits(r) for _, r in b]
    for (ma, _), (mb, _) in zip(a, b):
        _assert_same_model(ma, mb)
    c = [_blob_cell(segments, fold, 3, replace(FAST_CFG, seed=6))[1] for fold in range(3)]
    assert [(r.accuracy, r.loss) for _, r in a] != [(r.accuracy, r.loss) for r in c]


def test_run_cell_honest_split_runs_and_differs():
    # the stop set changes, so the trained models (and losses) change too;
    # the inner tenth-for-stopping split needs >= 10 per class in the pool
    segments = _blob_segments(24)
    default = [_blob_cell(segments, fold, 2)[1] for fold in range(2)]
    honest = [_blob_cell(segments, fold, 2, honest_split=True)[1] for fold in range(2)]
    assert [r.loss for r in default] != [r.loss for r in honest]


def test_run_cell_per_fold_stats_handles_unscaled_input():
    # grossly offset/scaled windows still train once per-fold stats kick in
    segments = _blob_segments(8, scale=40.0, offset=300.0)
    for fold in range(2):
        _, r = _blob_cell(segments, fold, 2, replace(FAST_CFG, seed=1), stats=None)
        assert np.isfinite(r.loss)


def test_per_fold_stats_match_per_window_concatenation_bitwise():
    # raw (unstandardized) synthetic windows at a short, a middle and a long duration
    segments = collect_segments([generate_synthetic(5, samples_per_class=2, segment_len=420)])
    sig, segments = kept_signal(segments)
    for sec in (0.1, 0.5, 2.0):
        samples = segment(segments, WindowSpec(sec))
        x, y = _arrays(samples)
        train_idx, _ = FoldPlan.stratified(y, 4, seed=3).train_test(1)
        mean, std = _window_level_stats(x, train_idx)
        # oracle: concatenate contiguous per-window copies, standardize window by window
        copies = [np.ascontiguousarray(s.window) for s in samples]
        data = np.concatenate([copies[i] for i in train_idx], axis=0)
        assert (mean == data.mean(axis=0)).all() and (std == data.std(axis=0)).all(), sec
        oracle = np.stack([(w - data.mean(axis=0)) / data.std(axis=0) for w in copies])
        spec = ModelSpec(kernels=select_kernels(sec))
        cfg = replace(FAST_CFG, seed=3)
        got_model, got = run_cell(Prepared(sig, segments, None), sec, 1, 4, cfg)
        want_model, want = _reference_cell(oracle, y, 1, 4, spec, cfg, stats=IDENTITY)
        assert _bits(got) == _bits(want), sec
        _assert_same_model(got_model, want_model, sec)


def test_window_level_stats_match_gathered_copy_bitwise(monkeypatch):
    """The chunked two-pass statistics equal numpy's mean/std of the gathered
    fold, bit for bit, whether the fold is one chunk or many."""
    segments = collect_segments([generate_synthetic(5, samples_per_class=2, segment_len=900)])
    for sec in (0.1, 0.5, 4.0):
        samples = segment(segments, WindowSpec(sec))
        x = stack_windows(samples)
        train_idx, _ = make_folds(samples, 4, seed=0).train_test(2)
        data = x[train_idx].reshape(-1, x.shape[2])
        window_elems = x.shape[1] * x.shape[2]
        for windows_per_chunk in (1, 7, len(train_idx) + 1):
            monkeypatch.setattr(experiment, "STATS_CHUNK_ELEMS", windows_per_chunk * window_elems)
            mean, std = _window_level_stats(x, train_idx)
            assert (mean == data.mean(axis=0)).all(), (sec, windows_per_chunk)
            assert (std == data.std(axis=0)).all(), (sec, windows_per_chunk)


def test_run_cell_standardizes_gathered_batches_as_a_standardized_signal_bitwise():
    """Raw windows standardized batch by batch with the global stats train
    the same model as windows cut from apply_zscore's standardized copy."""
    sig = generate_synthetic(6, samples_per_class=2, segment_len=300)
    stats = compute_stats([sig])
    segments = collect_segments([sig])
    for sec in (0.1, 0.5):
        old = segment(collect_segments(apply_zscore([sig], stats)), WindowSpec(sec))
        spec = ModelSpec(kernels=select_kernels(sec))
        cfg = replace(FAST_CFG, seed=3)
        got_model, got = run_cell(Prepared(*kept_signal(segments), stats), sec, 2, 4, cfg)
        want_model, want = _reference_cell(*_arrays(old), 2, 4, spec, cfg, stats=IDENTITY)
        assert _bits(got) == _bits(want), sec
        _assert_same_model(got_model, want_model, sec)


def test_run_cell_only_reads_a_read_only_window_array():
    signal = generate_synthetic(2, samples_per_class=2, segment_len=120)
    segments = collect_segments([signal])
    sig, segments = kept_signal(segments)
    before = sig.copy()
    for view in [sig] + [seg.channels for seg in segments]:
        view.flags.writeable = False  # a write anywhere in the cell would raise
    for stats in (compute_stats([signal]), None):
        for honest_split in (False, True):
            for fold in range(2):
                run_cell(Prepared(sig, segments, stats), 0.25, fold, 2, FAST_CFG, honest_split=honest_split)
    assert (sig == before).all()


def test_run_sweep_holds_one_window_array(monkeypatch):
    """At every default duration, a sweep's data path holds less than 1.4
    signals beyond the signal itself, under either protocol: every
    duration's windows are views of the one kept-signal copy built per
    sweep, and there is no standardized signal, no copied window, no
    per-fold window array and no joined cache bytes for the fingerprint."""
    import tracemalloc

    monkeypatch.setattr(experiment, "train", lambda net, x, y, fit_idx, stop_idx, cfg, stats: (net, 1, []))
    monkeypatch.setattr(experiment, "evaluate", lambda net, x, y, idx, stats: (1.0, 0.0))
    monkeypatch.setattr(experiment, "STATS_CHUNK_ELEMS", 1 << 14)  # 128 KiB, under 1% of the signal
    sig = generate_synthetic(3, samples_per_class=40, segment_len=500)
    for per_fold_stats in (False, True):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = run_sweep(
                [sig], list(experiment.DEFAULT_WINDOWS_SEC), FAST_CFG, folds=2, per_fold_stats=per_fold_stats
            )
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert not any(row.failed for row in report.rows)
        assert extra < 1.4 * sig.channels.nbytes, (per_fold_stats, extra / sig.channels.nbytes)


def _stub_train_and_evaluate(monkeypatch, calls):
    """Replace the training and evaluation that run_cell calls by stubs that
    record their arguments."""

    def train(net, x, y, fit_idx, stop_idx, cfg, stats):
        calls.append(("train", x, fit_idx, stop_idx))
        return net, 1, []

    def evaluate(net, x, y, idx, stats):
        calls.append(("evaluate", x, idx))
        return 1.0, 0.0

    monkeypatch.setattr(experiment, "train", train)
    monkeypatch.setattr(experiment, "evaluate", evaluate)


def test_run_cell_hands_the_stacked_array_itself_to_train_and_evaluate(monkeypatch):
    calls = []
    _stub_train_and_evaluate(monkeypatch, calls)
    segments = _blob_segments(16)  # the honest split's inner ten folds need 10 per class
    sig, segments = kept_signal(segments)
    _, y = window_arrays(sig, segments, WindowSpec(BLOB_SEC))
    train_idx, held_out = FoldPlan.stratified(y, 4, seed=0).train_test(2)
    for honest_split in (False, True):
        calls.clear()
        run_cell(Prepared(sig, segments, IDENTITY), BLOB_SEC, 2, 4, FAST_CFG, honest_split=honest_split)
        (_, fit_x, fit_idx, stop_idx), (_, test_x, test_idx) = calls
        assert fit_x is test_x and np.shares_memory(fit_x, sig) and not fit_x.flags.writeable
        assert np.array_equal(test_idx, held_out)
        if honest_split:
            assert np.array_equal(np.sort(np.concatenate([fit_idx, stop_idx])), train_idx)
        else:
            assert np.array_equal(fit_idx, train_idx) and np.array_equal(stop_idx, held_out)


def test_run_cell_tests_and_returns_the_model_that_train_returns(monkeypatch):
    """``train`` leaves the last epoch's weights in the model it is given and
    returns the best epoch's as a new one; the cell tests and returns that."""
    best, tested = object(), []
    monkeypatch.setattr(experiment, "train", lambda net, x, y, fit_idx, stop_idx, cfg, stats: (best, 1, []))
    monkeypatch.setattr(experiment, "evaluate", lambda net, x, y, idx, stats: tested.append(net) or (1.0, 0.0))
    model, _ = _blob_cell(_blob_segments(4), 0, 2)
    assert tested == [best] and model is best


def test_run_cell_honest_split_stops_on_fold_0_of_ten_seeded_per_cell(monkeypatch):
    """``honest_split`` stops on fold 0 of a stratified 10-fold plan of the
    training folds, dealt with ``cfg.seed + fold``, and fits the other nine."""
    calls = []
    _stub_train_and_evaluate(monkeypatch, calls)
    sig, segments = kept_signal(_blob_segments(16))
    _, y = window_arrays(sig, segments, WindowSpec(BLOB_SEC))
    cfg = replace(FAST_CFG, seed=7)
    for fold in range(4):
        calls.clear()
        run_cell(Prepared(sig, segments, IDENTITY), BLOB_SEC, fold, 4, cfg, honest_split=True)
        (_, _, fit_idx, stop_idx), _ = calls
        train_idx, _ = FoldPlan.stratified(y, 4, cfg.seed).train_test(fold)
        fit, stop = FoldPlan.stratified(y[train_idx], 10, cfg.seed + fold).train_test(0)
        assert np.array_equal(stop_idx, train_idx[stop]) and np.array_equal(fit_idx, train_idx[fit]), fold


def test_run_cell_copies_no_fold(monkeypatch):
    """Beyond the model itself, a cell allocates a small fraction of its
    duration's stacked windows: the windows are views and the folds are
    index arrays, never copies."""
    import tracemalloc

    _stub_train_and_evaluate(monkeypatch, [])
    segments = collect_segments([generate_synthetic(3, samples_per_class=4, segment_len=500)])
    sig, segments = kept_signal(segments)
    nbytes = stack_windows(segment(segments, WindowSpec(0.5))).nbytes
    tracemalloc.start()
    try:
        for fold in range(8):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_cell(Prepared(sig, segments, IDENTITY), 0.5, fold, 8, FAST_CFG)
            extra = tracemalloc.get_traced_memory()[1] - base
            assert extra < 0.1 * nbytes, (fold, extra, nbytes)
    finally:
        tracemalloc.stop()


def test_run_cell_per_fold_stats_holds_one_window_array(monkeypatch):
    """Per-fold normalization standardizes each gathered batch, so the cells
    of a cross-validation hold less than one stacked window array beyond
    the kept signal, not a raw and a normalized one."""
    import tracemalloc

    # stubs that keep no reference to the array they are handed
    monkeypatch.setattr(experiment, "train", lambda net, x, y, fit_idx, stop_idx, cfg, stats: (net, 1, []))
    monkeypatch.setattr(experiment, "evaluate", lambda net, x, y, idx, stats: (1.0, 0.0))
    monkeypatch.setattr(experiment, "STATS_CHUNK_ELEMS", 1)  # one window per chunk, next to nothing
    segments = collect_segments([generate_synthetic(3, samples_per_class=4, segment_len=500)])
    sig, segments = kept_signal(segments)
    nbytes = stack_windows(segment(segments, WindowSpec(0.5))).nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for fold in range(4):
            run_cell(Prepared(sig, segments, None), 0.5, fold, 4, FAST_CFG)
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert extra < 1.5 * nbytes, (extra, nbytes)


def test_run_cell_per_fold_stats_rejects_constant_channel():
    segments = _blob_segments(8)
    for seg in segments:
        seg.channels[1] = 0.0
    with pytest.raises(CoverageError, match="channel 1 is constant"):
        _blob_cell(segments, 0, 2, stats=None)


def test_run_cell_rejects_too_few_samples_per_class():
    with pytest.raises(CoverageError, match="class"):
        _blob_cell(_blob_segments(3), 0, 4)
    # the honest split's inner ten-fold split needs 10 windows per class,
    # and its error says so whatever the outer fold count
    prefix = "^the honest split stops on 1 of 10 folds of the training folds: "
    with pytest.raises(CoverageError, match=prefix + ".*need at least 10"):
        _blob_cell(_blob_segments(8), 0, 2, honest_split=True)


# ---------------------------------------------------------------------------
# sweep rows
# ---------------------------------------------------------------------------


def test_sweep_row_aggregates():
    row = SweepRow(
        window_sec=0.5,
        k1=7,
        k2=11,
        folds=[
            FoldResult(0, accuracy=0.999, loss=0.01, epochs_to_best=300),
            FoldResult(1, accuracy=1.0, loss=0.02, epochs_to_best=400),
        ],
    )
    assert row.acc_mean == pytest.approx(0.9995)
    acc_mean, acc_std = row.mean_std("accuracy")
    assert acc_mean == row.acc_mean
    assert acc_std == pytest.approx(7.0710678118654764e-4, rel=1e-9)  # ddof=1
    assert row.mean_std("loss")[0] == pytest.approx(0.015)
    assert row.mean_std("epochs_to_best") == pytest.approx((350.0, 70.71067811865476), rel=1e-12)


def test_sweep_row_single_fold_has_zero_spread():
    row = SweepRow(0.5, 7, 11, [FoldResult(0, 0.9, 0.3, 12)])
    assert row.mean_std("accuracy") == (0.9, 0.0)
    assert row.mean_std("epochs_to_best") == (12.0, 0.0)


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------


def _tiny_signal(seed=0):
    return generate_synthetic(seed, samples_per_class=2, segment_len=60)


def test_run_sweep_end_to_end():
    report = run_sweep([_tiny_signal()], [0.25, 0.1], FAST_CFG, folds=2)
    assert [r.window_sec for r in report.rows] == [0.1, 0.25]  # sorted
    assert report.seed == 0
    assert report.dataset_fingerprint.startswith("sha256:")
    assert report.config["folds"] == 2
    for row in report.rows:
        assert not row.failed
        assert (row.k1, row.k2) == (3, 5)
        assert len(row.folds) == 2


def test_run_sweep_fingerprint_covers_input_not_normalized_copy():
    sig = _tiny_signal()
    from harwin.dataset import dataset_fingerprint

    before = dataset_fingerprint([sig])
    report = run_sweep([sig], [0.1], FAST_CFG, folds=2)
    assert report.dataset_fingerprint == before
    # the caller's signal was not mutated by normalization
    assert dataset_fingerprint([sig]) == before


def test_run_sweep_marks_impossible_geometry_failed():
    report = run_sweep([_tiny_signal()], [0.03, 0.1], FAST_CFG, folds=2)
    bad = report.rows[0]
    assert bad.window_sec == 0.03
    assert bad.failed
    assert "architecture invalid" in bad.reason
    assert report.rows[1].failed is False


def test_run_sweep_marks_window_longer_than_segments_failed():
    report = run_sweep([_tiny_signal()], [4.0], FAST_CFG, folds=2)
    assert report.rows[0].failed
    assert report.rows[0].reason


def test_run_sweep_rejects_bad_window_lists():
    with pytest.raises(ValueError, match="no window"):
        run_sweep([_tiny_signal()], [], FAST_CFG)
    with pytest.raises(ValueError, match="duplicate"):
        run_sweep([_tiny_signal()], [0.1, 0.1], FAST_CFG)
    for windows in ([float("inf")], [float("nan"), float("nan")], [-1.0], [0.1, 0.0]):
        with pytest.raises(ValueError, match="positive and finite"):
            run_sweep([_tiny_signal()], windows, FAST_CFG)


def test_run_sweep_raises_on_divergence_instead_of_a_failed_row():
    # one minibatch per epoch: the first Adam step blows the weights up and
    # the first non-finite logits appear in the stop-set evaluation
    sig = generate_synthetic(42, samples_per_class=2, segment_len=120)
    cfg = TrainConfig(max_epochs=3, learning_rate=1e200, seed=42)
    with pytest.raises(DivergenceError) as info:
        run_sweep([sig], [0.5], cfg, folds=2)
    assert isinstance(info.value, RuntimeError)
    assert (info.value.epoch, info.value.cell) == (1, (0.5, 0))
    assert str(info.value) == "training diverged at epoch 1 in window 0.5 s, fold 1"


def test_run_sweep_propagates_untyped_value_errors(monkeypatch):
    # only geometry and coverage failures become NA rows; a bug crashes loudly
    def broken_train(*args, **kwargs):
        raise ValueError("class index out of range")

    monkeypatch.setattr(experiment, "train", broken_train)
    with pytest.raises(ValueError, match="class index out of range"):
        run_sweep([_tiny_signal()], [0.1], FAST_CFG, folds=2)


def test_run_sweep_kernel_switch_across_durations():
    sig = generate_synthetic(0, samples_per_class=2, segment_len=120)
    report = run_sweep([sig], [0.25, 0.5], FAST_CFG, folds=2)
    assert (report.rows[0].k1, report.rows[0].k2) == (3, 5)
    assert (report.rows[1].k1, report.rows[1].k2) == (7, 11)


def test_run_cells_calls_done_once_per_cell_that_ran(monkeypatch):
    """``done`` sees each cell that ran, in the order given, with its
    outcome; a failed duration's later cells neither run nor reach it; and
    the outcomes assemble into ``run_sweep``'s report."""
    sig = _tiny_signal()
    want = run_sweep([sig], [0.1, 0.25, 4.0], FAST_CFG, folds=2)
    ran, calls = [], []
    real_cell = experiment.run_cell

    def cell(prepared, window_sec, fold, *args, **kwargs):
        ran.append((window_sec, fold))
        return real_cell(prepared, window_sec, fold, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_cell", cell)
    cells = [(w, f) for w in (0.1, 4.0, 0.25) for f in range(2)]
    outcomes = run_cells(prepare([sig]), cells, 2, FAST_CFG, done=lambda *args: calls.append(args))
    assert ran == [(0.1, 0), (0.1, 1), (4.0, 0), (0.25, 0), (0.25, 1)]
    assert [c for c, _ in calls] == ran == list(outcomes)
    assert all(outcome is outcomes[c] for c, outcome in calls)
    assert outcomes[4.0, 0] == "no samples to fold"
    assert assemble(outcomes, seed=0, fingerprint=want.dataset_fingerprint, config=want.config) == want


def test_run_cells_sets_the_cell_of_a_divergence_and_reports_no_outcome(monkeypatch):
    def diverge(prepared, window_sec, fold, *args, **kwargs):
        err = DivergenceError("non-finite logits")
        err.epoch = 2
        raise err

    monkeypatch.setattr(experiment, "run_cell", diverge)
    calls = []
    with pytest.raises(DivergenceError) as info:
        run_cells(prepare([_tiny_signal()]), [(0.5, 3), (0.5, 4)], 5, FAST_CFG, done=lambda *args: calls.append(args))
    assert info.value.cell == (0.5, 3) and calls == []
    assert str(info.value) == "training diverged at epoch 2 in window 0.5 s, fold 4"


@pytest.mark.parametrize("honest_split", [False, True])
@pytest.mark.parametrize("per_fold_stats", [False, True])
def test_a_cell_run_alone_equals_the_same_cell_in_run_sweep(honest_split, per_fold_stats):
    sig = generate_synthetic(7, samples_per_class=2, segment_len=240)
    cfg = TrainConfig(batch_size=64, max_epochs=2, patience=2, seed=4)
    report = run_sweep([sig], [0.5, 0.1], cfg, folds=2, honest_split=honest_split, per_fold_stats=per_fold_stats)
    segments = collect_segments([sig])
    stats = None if per_fold_stats else compute_stats([sig])
    assert [(row.window_sec, row.failed) for row in report.rows] == [(0.1, False), (0.5, False)]
    for row in report.rows:
        assert [f.fold for f in row.folds] == [0, 1]
        for want in row.folds:
            _, got = run_cell(
                Prepared(*kept_signal(segments), stats), row.window_sec, want.fold, 2, cfg, honest_split=honest_split
            )
            assert got.history and _bits(got) == _bits(want), (row.window_sec, want.fold)


def test_run_sweep_skips_the_later_cells_of_a_failed_duration(monkeypatch):
    ran = []

    def cell(prepared, window_sec, fold, folds, cfg, **kwargs):
        ran.append((window_sec, fold))
        if (window_sec, fold) == (0.1, 1):
            raise CoverageError("channel 3 is constant in the training folds")
        return None, FoldResult(fold, 1.0, 0.0, 1)

    monkeypatch.setattr(experiment, "run_cell", cell)
    report = run_sweep([_tiny_signal()], [0.25, 0.1], FAST_CFG, folds=3)
    assert ran == [(0.1, 0), (0.1, 1), (0.25, 0), (0.25, 1), (0.25, 2)]
    assert [(row.window_sec, row.failed, row.reason) for row in report.rows] == [
        (0.1, True, "channel 3 is constant in the training folds"),
        (0.25, False, None),
    ]
    assert report.rows[0].folds == [] and [f.fold for f in report.rows[1].folds] == [0, 1, 2]


def test_assemble_gives_the_same_report_for_outcomes_in_any_order(tmp_path):
    outcomes = {
        (0.03, 0): "architecture invalid for window_len 3",
        (0.5, 0): FoldResult(0, 0.75, 0.61, 3, [EpochStats(1.2, 0.9)]),
        (0.5, 1): "the lowest-numbered failure",
        (0.5, 2): "a later failure",
        (0.5, 3): FoldResult(3, 0.5, 0.7, 2),
    }
    for w_sec, acc in ((0.1, 0.8), (2.0, 0.9)):
        for fold in range(4):
            outcomes[w_sec, fold] = FoldResult(fold, acc + 0.01 * fold, 0.3 - 0.02 * fold, 5 + fold)
    config = {"folds": 4, "batch_size": 128, "max_epochs": 3, "patience": 3, "learning_rate": 1e-3,
              "honest_split": False, "per_fold_stats": False}

    def outputs(items, name):
        report = assemble(dict(items), seed=7, fingerprint="sha256:ab", config=config)
        save_report(report, tmp_path / name)
        return report, (tmp_path / name).read_bytes(), format_report_csv(report)

    report, json_bytes, csv = outputs(sorted(outcomes.items()), "sorted.json")
    assert [row.window_sec for row in report.rows] == [0.03, 0.1, 0.5, 2.0]
    assert [row.failed for row in report.rows] == [True, False, True, False]
    assert report.rows[2].reason == "the lowest-numbered failure" and report.rows[2].folds == []
    assert [f.fold for f in report.rows[1].folds] == [0, 1, 2, 3]
    assert b"history" not in json_bytes
    items = list(outcomes.items())
    for seed in range(10):
        random.Random(seed).shuffle(items)
        _, shuffled_json, shuffled_csv = outputs(items, f"shuffled{seed}.json")
        assert shuffled_json == json_bytes and shuffled_csv == csv, seed


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------


def test_single_model_reports_holdout_metrics():
    sig = generate_synthetic(3, samples_per_class=2, segment_len=60)
    cfg = TrainConfig(batch_size=32, max_epochs=3, patience=3, seed=1)
    model, res = run_cell(prepare([sig]), 0.25, 0, 5, cfg)
    assert res.fold == 0
    assert 0.0 <= res.accuracy <= 1.0
    assert np.isfinite(res.loss)
    assert len(res.history) <= 3
    assert model.plan.window_len == 25
    # kernel override is honored
    model2, _ = run_cell(prepare([sig]), 0.25, 0, 5, cfg, kernels=(3, 3))
    assert model2.spec.kernels == (3, 3)


def test_single_model_is_fold_zero_of_five_fold_cv():
    sig = generate_synthetic(3, samples_per_class=2, segment_len=60)
    cfg = TrainConfig(batch_size=32, max_epochs=3, patience=3, seed=1)
    model, res = run_cell(prepare([sig]), 0.25, 0, 5, cfg)
    samples = segment(collect_segments(apply_zscore([sig], compute_stats([sig]))), WindowSpec(0.25))
    spec = ModelSpec(kernels=select_kernels(0.25))
    fold0_model, fold0 = _reference_cell(*_arrays(samples), 0, 5, spec, cfg, stats=IDENTITY)
    assert (res.accuracy, res.loss, res.epochs_to_best) == (fold0.accuracy, fold0.loss, fold0.epochs_to_best)
    assert _bits(res) == _bits(fold0)
    _assert_same_model(model, fold0_model)

"""Cross-validation harness and the window-duration sweep."""

import numpy as np
import pytest

from harwin import experiment
from harwin.dataset import collect_segments, generate_synthetic
from harwin.experiment import (
    FoldResult,
    SweepRow,
    _fit_fold,
    _window_level_stats,
    run_cv,
    run_sweep,
    select_kernels,
    train_single,
)
from harwin.layers import CoverageError, DivergenceError
from harwin.model import ModelSpec, TrainConfig, stack_labels, stack_windows
from harwin.preprocess import (
    ChannelStats, FoldPlan, Sample, WindowSpec, apply_zscore, compute_stats, make_folds, segment, window_arrays
)


def _blob_samples(n_per_class, sep=3.0, seed=0, n_classes=3, window_len=12):
    rng = np.random.default_rng(seed)
    out = []
    for c in range(n_classes):
        for i in range(n_per_class):
            w = rng.normal(size=(window_len, 2)) * 0.1 + (c - 1) * sep
            out.append(Sample(window=w, class_index=c, subject_id=0, origin=(c, i)))
    return out


def _arrays(samples):
    return stack_windows(samples), stack_labels(samples)


def _identity(n_ch):
    """Stats under which (w - 0) / 1 is w bit for bit."""
    return ChannelStats(np.zeros(n_ch), np.ones(n_ch))


SMALL_SPEC = ModelSpec(in_channels=2, conv_filters=(2, 3), kernels=(3, 5), n_classes=3)
FAST_CFG = TrainConfig(batch_size=16, max_epochs=2, patience=2, seed=0)
IDENTITY = _identity(2)


def test_select_kernels_boundary():
    assert select_kernels(0.1) == (3, 5)
    assert select_kernels(0.25) == (3, 5)  # boundary belongs to the short side
    assert select_kernels(0.251) == (7, 11)
    assert select_kernels(0.5) == (7, 11)
    assert select_kernels(4.0) == (7, 11)


def test_run_cv_returns_one_result_per_fold():
    samples = _blob_samples(8)
    results = run_cv(*_arrays(samples), 4, SMALL_SPEC, FAST_CFG, seed=0, stats=IDENTITY)
    assert [r.fold for r in results] == [0, 1, 2, 3]
    for r in results:
        assert 0.0 <= r.accuracy <= 1.0
        assert np.isfinite(r.loss)
        assert 1 <= r.epochs_to_best <= 2


def test_run_cv_learns_separable_data():
    # a touch wider than SMALL_SPEC: two conv filters can die on a bad init
    wide = ModelSpec(in_channels=2, conv_filters=(4, 6), kernels=(3, 5), n_classes=3)
    samples = _blob_samples(16)
    cfg = TrainConfig(batch_size=16, max_epochs=120, patience=120, seed=0)
    results = run_cv(*_arrays(samples), 2, wide, cfg, seed=0, stats=IDENTITY)
    for r in results:
        assert r.accuracy == 1.0


def test_run_cv_is_deterministic():
    samples = _blob_samples(8)
    a = run_cv(*_arrays(samples), 3, SMALL_SPEC, FAST_CFG, seed=5, stats=IDENTITY)
    b = run_cv(*_arrays(samples), 3, SMALL_SPEC, FAST_CFG, seed=5, stats=IDENTITY)
    assert [(r.accuracy, r.loss, r.epochs_to_best) for r in a] == [
        (r.accuracy, r.loss, r.epochs_to_best) for r in b
    ]
    c = run_cv(*_arrays(samples), 3, SMALL_SPEC, FAST_CFG, seed=6, stats=IDENTITY)
    assert [(r.accuracy, r.loss) for r in a] != [(r.accuracy, r.loss) for r in c]


def test_run_cv_honest_split_runs_and_differs():
    # the stop set changes, so the trained models (and losses) change too;
    # the inner tenth-for-stopping split needs >= 10 per class in the pool
    samples = _blob_samples(24)
    default = run_cv(*_arrays(samples), 2, SMALL_SPEC, FAST_CFG, seed=0, stats=IDENTITY)
    honest = run_cv(*_arrays(samples), 2, SMALL_SPEC, FAST_CFG, seed=0, stats=IDENTITY, honest_split=True)
    assert len(honest) == 2
    assert [(r.loss) for r in default] != [(r.loss) for r in honest]


def test_run_cv_per_fold_stats_handles_unscaled_input():
    # grossly offset/scaled windows still train once per-fold stats kick in
    raw = _blob_samples(8)
    scaled = [
        Sample(window=s.window * 40.0 + 300.0, class_index=s.class_index, subject_id=0, origin=s.origin)
        for s in raw
    ]
    results = run_cv(*_arrays(scaled), 2, SMALL_SPEC, FAST_CFG, seed=1, stats=None)
    for r in results:
        assert np.isfinite(r.loss)


def test_per_fold_stats_match_per_window_concatenation_bitwise():
    # raw (unstandardized) synthetic windows at a short, a middle and a long duration
    segments = collect_segments([generate_synthetic(5, samples_per_class=2, segment_len=420)])
    for sec in (0.1, 0.5, 2.0):
        samples = segment(segments, WindowSpec(sec))
        x, y = stack_windows(samples), stack_labels(samples)
        plan = make_folds(samples, 4, seed=0)
        train_idx, _ = plan.train_test(1)
        mean, std = _window_level_stats(x, train_idx)
        # oracle: concatenate contiguous per-window copies, standardize window by window
        copies = [np.ascontiguousarray(s.window) for s in samples]
        data = np.concatenate([copies[i] for i in train_idx], axis=0)
        assert (mean == data.mean(axis=0)).all() and (std == data.std(axis=0)).all(), sec
        oracle = np.stack([(w - data.mean(axis=0)) / data.std(axis=0) for w in copies])
        spec = ModelSpec(kernels=select_kernels(sec))
        got = _fit_fold(x, y, plan, 1, spec, FAST_CFG, seed=3, stats=None)
        want = _fit_fold(oracle, y, plan, 1, spec, FAST_CFG, seed=3, stats=_identity(18))
        assert (got.accuracy, got.loss, got.history) == (want.accuracy, want.loss, want.history), sec
        for a, b in zip(got.model.tensors(), want.model.tensors()):
            assert (a == b).all(), sec


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


def test_fit_fold_standardizing_gathered_batches_matches_a_standardized_signal_bitwise():
    """Raw windows standardized batch by batch with the global stats train
    the same model as windows cut from apply_zscore's standardized copy."""
    sig = generate_synthetic(6, samples_per_class=2, segment_len=300)
    stats = compute_stats([sig])
    for sec in (0.1, 0.5):
        x, y = window_arrays(collect_segments([sig]), WindowSpec(sec))
        old = segment(collect_segments(apply_zscore([sig], stats)), WindowSpec(sec))
        plan = FoldPlan.stratified(y, 4, seed=0)
        spec = ModelSpec(kernels=select_kernels(sec))
        old_plan = FoldPlan.stratified(stack_labels(old), 4, seed=0)
        got = _fit_fold(x, y, plan, 2, spec, FAST_CFG, seed=3, stats=stats)
        want = _fit_fold(*_arrays(old), old_plan, 2, spec, FAST_CFG, seed=3, stats=_identity(18))
        assert (got.accuracy, got.loss, got.history) == (want.accuracy, want.loss, want.history), sec
        for a, b in zip(got.model.tensors(), want.model.tensors()):
            assert (a == b).all(), sec


def test_run_cv_only_reads_a_read_only_window_array():
    sig = generate_synthetic(2, samples_per_class=2, segment_len=120)
    x, y = window_arrays(collect_segments([sig]), WindowSpec(0.25))
    before = x.copy()
    spec = ModelSpec(kernels=select_kernels(0.25))
    for stats in (compute_stats([sig]), None):
        for honest_split in (False, True):
            run_cv(x, y, 2, spec, FAST_CFG, 0, stats=stats, honest_split=honest_split)
    assert not x.flags.writeable
    assert (x == before).all()


def test_run_sweep_holds_one_window_array(monkeypatch):
    """At every default duration, a sweep's data path holds less than one
    and a half signals beyond the signal itself, under either protocol:
    the windows are views of one kept-signal copy, freed before the next
    duration's, and there is no standardized signal, no copied window, no
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
                [sig], list(experiment.DEFAULT_WINDOWS_SEC), FAST_CFG, seed=0, folds=2, per_fold_stats=per_fold_stats
            )
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert not any(row.failed for row in report.rows)
        assert extra < 1.5 * sig.channels.nbytes, (per_fold_stats, extra / sig.channels.nbytes)


def _stub_train_and_evaluate(monkeypatch, calls):
    """Replace the training and evaluation that _fit_fold calls by stubs that
    record their arguments."""

    def train(net, x, y, fit_idx, stop_idx, cfg, stats):
        calls.append(("train", x, fit_idx, stop_idx))
        return net, 1, []

    def evaluate(net, x, y, idx, stats):
        calls.append(("evaluate", x, idx))
        return 1.0, 0.0

    monkeypatch.setattr(experiment, "train", train)
    monkeypatch.setattr(experiment, "evaluate", evaluate)


def test_fit_fold_hands_the_stacked_array_itself_to_train_and_evaluate(monkeypatch):
    calls = []
    _stub_train_and_evaluate(monkeypatch, calls)
    samples = _blob_samples(16)  # the honest split's inner ten folds need 10 per class
    x, y = stack_windows(samples), stack_labels(samples)
    plan = make_folds(samples, 4, seed=0)
    for honest_split in (False, True):
        calls.clear()
        _fit_fold(x, y, plan, 2, SMALL_SPEC, FAST_CFG, seed=0, stats=IDENTITY, honest_split=honest_split)
        (_, fit_x, fit_idx, stop_idx), (_, test_x, test_idx) = calls
        assert fit_x is x and test_x is x
        train_idx, held_out = plan.train_test(2)
        assert np.array_equal(test_idx, held_out)
        if honest_split:
            assert np.array_equal(np.sort(np.concatenate([fit_idx, stop_idx])), train_idx)
        else:
            assert np.array_equal(fit_idx, train_idx) and np.array_equal(stop_idx, held_out)


def test_fit_fold_copies_no_fold(monkeypatch):
    """Beyond the model itself, a fold's fit allocates a small fraction of
    the window array: the folds are index arrays, never copies."""
    import tracemalloc

    _stub_train_and_evaluate(monkeypatch, [])
    segments = collect_segments([generate_synthetic(3, samples_per_class=4, segment_len=500)])
    samples = segment(segments, WindowSpec(0.5))
    x, y = stack_windows(samples), stack_labels(samples)
    plan = make_folds(samples, 8, seed=0)
    spec = ModelSpec(kernels=select_kernels(0.5))
    tracemalloc.start()
    try:
        for fold in range(plan.k):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _fit_fold(x, y, plan, fold, spec, FAST_CFG, seed=0, stats=_identity(18))
            extra = tracemalloc.get_traced_memory()[1] - base
            assert extra < 0.1 * x.nbytes, (fold, extra, x.nbytes)
    finally:
        tracemalloc.stop()


def test_run_cv_per_fold_stats_holds_one_window_array(monkeypatch):
    """Per-fold normalization standardizes each gathered batch, so a
    cross-validation holds the caller's one window array, not a raw and a
    normalized one."""
    import tracemalloc

    # stubs that keep no reference to the array they are handed
    monkeypatch.setattr(experiment, "train", lambda net, x, y, fit_idx, stop_idx, cfg, stats: (net, 1, []))
    monkeypatch.setattr(experiment, "evaluate", lambda net, x, y, idx, stats: (1.0, 0.0))
    monkeypatch.setattr(experiment, "STATS_CHUNK_ELEMS", 1)  # one window per chunk, next to nothing
    segments = collect_segments([generate_synthetic(3, samples_per_class=4, segment_len=500)])
    samples = segment(segments, WindowSpec(0.5))
    x, y = _arrays(samples)
    nbytes = x.nbytes
    spec = ModelSpec(kernels=select_kernels(0.5))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_cv(x, y, 4, spec, FAST_CFG, seed=0, stats=None)
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert extra < 1.5 * nbytes, (extra, nbytes)


def test_run_cv_per_fold_stats_rejects_constant_channel():
    flat = [Sample(s.window * [1.0, 0.0], s.class_index, 0, s.origin) for s in _blob_samples(8)]
    with pytest.raises(CoverageError, match="channel 1 is constant"):
        run_cv(*_arrays(flat), 2, SMALL_SPEC, FAST_CFG, seed=0, stats=None)


def test_run_cv_rejects_too_few_samples_per_class():
    with pytest.raises(CoverageError, match="class"):
        run_cv(*_arrays(_blob_samples(3)), 4, SMALL_SPEC, FAST_CFG, seed=0, stats=IDENTITY)
    # the honest split's inner ten-fold split needs 10 windows per class
    with pytest.raises(CoverageError, match="need at least 10"):
        run_cv(*_arrays(_blob_samples(8)), 2, SMALL_SPEC, FAST_CFG, seed=0, stats=IDENTITY, honest_split=True)


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
    assert row.acc_std == pytest.approx(7.0710678118654764e-4, rel=1e-9)  # ddof=1
    assert row.loss_mean == pytest.approx(0.015)
    assert row.epochs_mean == pytest.approx(350.0)
    assert row.epochs_std == pytest.approx(70.71067811865476, rel=1e-12)


def test_sweep_row_single_fold_has_zero_spread():
    row = SweepRow(0.5, 7, 11, [FoldResult(0, 0.9, 0.3, 12)])
    assert row.acc_std == 0.0
    assert row.epochs_std == 0.0


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------


def _tiny_signal(seed=0):
    return generate_synthetic(seed, samples_per_class=2, segment_len=60)


def test_run_sweep_end_to_end():
    report = run_sweep([_tiny_signal()], [0.25, 0.1], FAST_CFG, seed=0, folds=2)
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
    report = run_sweep([sig], [0.1], FAST_CFG, seed=0, folds=2)
    assert report.dataset_fingerprint == before
    # the caller's signal was not mutated by normalization
    assert dataset_fingerprint([sig]) == before


def test_run_sweep_marks_impossible_geometry_failed():
    report = run_sweep([_tiny_signal()], [0.03, 0.1], FAST_CFG, seed=0, folds=2)
    bad = report.rows[0]
    assert bad.window_sec == 0.03
    assert bad.failed
    assert "architecture invalid" in bad.reason
    assert report.rows[1].failed is False


def test_run_sweep_marks_window_longer_than_segments_failed():
    report = run_sweep([_tiny_signal()], [4.0], FAST_CFG, seed=0, folds=2)
    assert report.rows[0].failed
    assert report.rows[0].reason


def test_run_sweep_rejects_bad_window_lists():
    with pytest.raises(ValueError, match="no window"):
        run_sweep([_tiny_signal()], [], FAST_CFG, seed=0)
    with pytest.raises(ValueError, match="duplicate"):
        run_sweep([_tiny_signal()], [0.1, 0.1], FAST_CFG, seed=0)
    for windows in ([float("inf")], [float("nan"), float("nan")], [-1.0], [0.1, 0.0]):
        with pytest.raises(ValueError, match="positive and finite"):
            run_sweep([_tiny_signal()], windows, FAST_CFG, seed=0)


def test_run_sweep_raises_on_divergence_instead_of_a_failed_row():
    # one minibatch per epoch: the first Adam step blows the weights up and
    # the first non-finite logits appear in the stop-set evaluation
    sig = generate_synthetic(42, samples_per_class=2, segment_len=120)
    cfg = TrainConfig(max_epochs=3, learning_rate=1e200, seed=0)
    with pytest.raises(RuntimeError, match="diverged at epoch 1") as info:
        run_sweep([sig], [0.5], cfg, seed=42, folds=2)
    assert isinstance(info.value.__cause__, DivergenceError)


def test_run_sweep_propagates_untyped_value_errors(monkeypatch):
    # only geometry and coverage failures become NA rows; a bug crashes loudly
    def broken_train(*args, **kwargs):
        raise ValueError("class index out of range")

    monkeypatch.setattr(experiment, "train", broken_train)
    with pytest.raises(ValueError, match="class index out of range"):
        run_sweep([_tiny_signal()], [0.1], FAST_CFG, seed=0, folds=2)


def test_run_sweep_kernel_switch_across_durations():
    sig = generate_synthetic(0, samples_per_class=2, segment_len=120)
    report = run_sweep([sig], [0.25, 0.5], FAST_CFG, seed=0, folds=2)
    assert (report.rows[0].k1, report.rows[0].k2) == (3, 5)
    assert (report.rows[1].k1, report.rows[1].k2) == (7, 11)


def test_run_sweep_progress_callback():
    lines = []
    run_sweep([_tiny_signal()], [0.1], FAST_CFG, seed=0, folds=2, progress=lines.append)
    assert lines and "0.1" in lines[0]


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------


def test_train_single_reports_holdout_metrics():
    sig = generate_synthetic(3, samples_per_class=2, segment_len=60)
    cfg = TrainConfig(batch_size=32, max_epochs=3, patience=3, seed=1)
    res = train_single([sig], 0.25, cfg, seed=1)
    assert 0.0 <= res.accuracy <= 1.0
    assert np.isfinite(res.loss)
    assert len(res.history) <= 3
    assert res.model.plan.window_len == 25
    # kernel override is honored
    res2 = train_single([sig], 0.25, cfg, seed=1, kernels=(3, 3))
    assert res2.model.spec.kernels == (3, 3)


def test_train_single_is_fold_zero_of_five_fold_cv():
    sig = generate_synthetic(3, samples_per_class=2, segment_len=60)
    cfg = TrainConfig(batch_size=32, max_epochs=3, patience=3, seed=1)
    res = train_single([sig], 0.25, cfg, seed=1)
    samples = segment(collect_segments(apply_zscore([sig], compute_stats([sig]))), WindowSpec(0.25))
    fold0 = run_cv(*_arrays(samples), 5, ModelSpec(kernels=select_kernels(0.25)), cfg, seed=1, stats=_identity(18))[0]
    assert (res.accuracy, res.loss, res.epochs_to_best) == (fold0.accuracy, fold0.loss, fold0.epochs_to_best)

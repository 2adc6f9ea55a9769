"""Normalization, window geometry and stratified fold assignment."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harwin.dataset import ActivitySegment, LabeledSignal, collect_segments, generate_synthetic
from harwin.layers import CoverageError, GeometryError
from harwin.model import stack_labels, stack_windows
from harwin.preprocess import (
    FoldPlan,
    Sample,
    WindowSpec,
    apply_zscore,
    compute_stats,
    kept_signal,
    make_folds,
    segment,
    window_arrays,
)


def _signal(data):
    data = np.asarray(data, dtype=np.float64)
    return LabeledSignal(0, data, np.zeros(data.shape[1], dtype=np.int64))


def _pad18(row_values):
    """One interesting channel on top of 17 boring ones."""
    t = len(row_values)
    ch = np.tile(np.arange(t, dtype=np.float64), (18, 1))
    ch[0] = row_values
    return ch


# ---------------------------------------------------------------------------
# z-score
# ---------------------------------------------------------------------------


def test_compute_stats_known_values():
    stats = compute_stats([_signal(_pad18([1.0, 2.0, 3.0, 4.0]))])
    assert stats.mean[0] == pytest.approx(2.5)
    # population std: sqrt(mean of squared deviations), not the sample form
    assert stats.std[0] == pytest.approx(np.sqrt(1.25))


def test_compute_stats_spans_signals():
    a = _signal(_pad18([0.0, 0.0]))
    b = _signal(_pad18([4.0, 4.0]))
    stats = compute_stats([a, b])
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.std[0] == pytest.approx(2.0)


def test_compute_stats_is_bitwise_the_concatenated_formula():
    """Per-channel reduction gives numpy's mean and std of the concatenated
    signals bit for bit, and holds one channel's row, not the signals again."""
    import tracemalloc

    rng = np.random.default_rng(11)
    signals = [
        LabeledSignal(
            i,
            rng.normal(rng.normal(scale=1e3, size=(18, 1)), rng.uniform(0.01, 50.0, size=(18, 1)), size=(18, n)),
            np.zeros(n, dtype=np.int64),
        )
        for i, n in enumerate((20011, 9001, 3))
    ]
    data = np.concatenate([s.channels for s in signals], axis=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stats = compute_stats(signals)
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (stats.mean.view(np.uint64) == data.mean(axis=1).view(np.uint64)).all()
    assert (stats.std.view(np.uint64) == data.std(axis=1).view(np.uint64)).all()
    assert extra < 0.1 * data.nbytes, extra / data.nbytes


def test_compute_stats_rejects_constant_channel():
    ch = np.tile(np.arange(4, dtype=np.float64), (18, 1))
    ch[3] = 7.0
    with pytest.raises(ValueError, match="channel 3"):
        compute_stats([_signal(ch)])


def test_compute_stats_rejects_empty_and_tiny():
    with pytest.raises(ValueError, match="no signals"):
        compute_stats([])
    with pytest.raises(ValueError, match="2 timesteps"):
        compute_stats([_signal(np.ones((18, 1)))])


def test_apply_zscore_standardizes():
    sig = _signal(np.random.default_rng(0).normal(3.0, 2.0, size=(18, 500)))
    stats = compute_stats([sig])
    (z,) = apply_zscore([sig], stats)
    assert np.allclose(z.channels.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(z.channels.std(axis=1), 1.0, atol=1e-12)
    assert z.subject_id == sig.subject_id
    assert np.array_equal(z.labels, sig.labels)


@given(st.integers(0, 2**31 - 1))
def test_zscore_round_trips(seed):
    rng = np.random.default_rng(seed)
    sig = _signal(rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4), size=(18, 64)))
    stats = compute_stats([sig])
    (z,) = apply_zscore([sig], stats)
    back = z.channels * stats.std[:, None] + stats.mean[:, None]
    assert np.allclose(back, sig.channels, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# window geometry
# ---------------------------------------------------------------------------


def test_window_spec_table():
    # durations at 100 Hz with quarter-window strides, all hand-checked
    expect = {
        0.1: (10, 2),
        0.25: (25, 6),
        0.5: (50, 12),
        1.0: (100, 25),
        2.0: (200, 50),
        4.0: (400, 100),
    }
    for sec, (w, stride) in expect.items():
        spec = WindowSpec(sec)
        assert (spec.window_len, spec.stride) == (w, stride), sec
        assert spec.overlap == w - stride


def test_window_spec_stride_floor_is_one():
    spec = WindowSpec(0.03)  # 3 samples; 3 // 4 would be 0
    assert spec.window_len == 3
    assert spec.stride == 1


def test_window_spec_rejects_sub_two_sample_windows():
    with pytest.raises(GeometryError, match="need >= 2"):
        WindowSpec(0.01)


@given(st.floats(0.02, 10.0))
def test_window_overlap_is_three_quarters(sec):
    spec = WindowSpec(sec)
    w = spec.window_len
    assert spec.stride == max(1, w // 4)
    assert spec.overlap == w - max(1, w // 4)


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------


def _segment_of(length, segment_id=0, class_index=0):
    ch = np.arange(18 * length, dtype=np.float64).reshape(18, length)
    return ActivitySegment(segment_id=segment_id, subject_id=9, class_index=class_index, channels=ch)


def test_segment_count_matches_formula():
    spec = WindowSpec(0.5)  # W=50, stride 12
    for length in (49, 50, 61, 62, 278, 500):
        segs = [_segment_of(length)]
        got = len(segment(segs, spec))
        expected = 0 if length < 50 else (length - 50) // 12 + 1
        assert got == expected, length


def test_segment_windows_are_time_major_slices():
    spec = WindowSpec(0.03)  # W=3, stride 1
    seg = _segment_of(5, segment_id=3, class_index=2)
    samples = segment([seg], spec)
    assert len(samples) == 3
    s = samples[1]
    assert s.window.shape == (3, 18)
    assert s.class_index == 2
    assert s.subject_id == 9
    assert s.origin == (3, 1)
    assert np.array_equal(s.window, seg.channels[:, 1:4].T)


def test_segment_windows_are_read_only_views():
    spec = WindowSpec(0.25)  # W=25, stride 6
    segs = [_segment_of(60, 0, 0), _segment_of(75, 1, 1)]
    samples = segment(segs, spec)
    assert {s.origin[0] for s in samples} == {0, 1}
    for s in samples:
        seg_id, start = s.origin
        seg = segs[seg_id]
        assert np.array_equal(s.window, seg.channels[:, start : start + spec.window_len].T)
        assert np.shares_memory(s.window, seg.channels)
        assert not s.window.flags.writeable


def test_segment_multiple_segments_keep_provenance():
    spec = WindowSpec(0.03)
    samples = segment([_segment_of(4, 0, 0), _segment_of(3, 1, 1)], spec)
    assert [s.origin for s in samples] == [(0, 0), (0, 1), (1, 0)]


@settings(max_examples=60)
@given(st.integers(2, 300), st.floats(0.02, 2.0))
def test_segment_starts_form_arithmetic_progression(length, sec):
    spec = WindowSpec(sec)
    samples = segment([_segment_of(length)], spec)
    w, stride = spec.window_len, spec.stride
    if length < w:
        assert samples == []
    else:
        starts = [s.origin[1] for s in samples]
        assert starts == list(range(0, length - w + 1, stride))
        # every window ends in bounds and the next start would not fit
        assert starts[-1] + w <= length
        assert starts[-1] + stride + w > length


def test_window_arrays_equal_stacked_segment_windows():
    """The rows labelled 0 or more are segment()'s windows in segment()'s
    order, bit for bit and in np.stack's layout, with their classes."""
    segments = collect_segments([generate_synthetic(4, samples_per_class=2, segment_len=420)])
    segments.insert(3, _segment_of(7, segment_id=99, class_index=4))  # shorter than any window here
    sig, segments = kept_signal(segments)
    for sec in (0.1, 0.5, 4.0):
        samples = segment(segments, WindowSpec(sec))
        x, y = window_arrays(sig, segments, WindowSpec(sec))
        kept = x[y >= 0]
        if not samples:  # 4 s windows do not fit 420-step segments
            assert kept.shape == (0, 400, 18) and (y < 0).all()
            continue
        want = stack_windows(samples)
        assert kept.shape == want.shape and kept.strides == want.strides, sec
        assert (kept == want).all(), sec
        assert y.dtype == np.int64 and (y[y >= 0] == stack_labels(samples)).all(), sec
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0, 0] = 1.0


def test_window_arrays_are_views_of_one_signal():
    segments = [_segment_of(60, 0, 0), _segment_of(75, 1, 1)]
    sig, kept = kept_signal(segments)
    assert sig.shape == (18, 60 + 75)
    assert not any(np.shares_memory(sig, seg.channels) for seg in segments)  # one copy of the kept signal
    # the kept segments are the same segments, their channels now slices of sig
    assert [replace(k, channels=None) for k in kept] == [replace(s, channels=None) for s in segments]
    assert [k.channels.base is sig for k in kept] == [True, True]
    assert (np.concatenate([k.channels for k in kept], axis=1) == sig).all()
    assert all((k.channels == s.channels).all() for k, s in zip(kept, segments))
    x, y = window_arrays(sig, segments, WindowSpec(0.25))  # W=25, stride 6
    assert x.shape == (60 + 75 - 25 + 1, 25, 18) and y.shape == (len(x),)
    assert np.shares_memory(x[0], x[1])
    assert not x.flags.writeable
    assert not any(np.shares_memory(x, seg.channels) for seg in segments)
    assert np.array_equal(x[60 + 6], segments[1].channels[:, 6:31].T)
    # every duration's windows view the same kept signal
    longer, _ = window_arrays(sig, segments, WindowSpec(0.5))
    assert np.shares_memory(x, sig) and np.shares_memory(longer, sig)


def test_window_arrays_first_segment_shorter_than_a_window():
    """A first segment without windows labels nothing, not the tail of y."""
    segments = [_segment_of(30, 0, 3), _segment_of(62, 1, 1)]
    x, y = window_arrays(*kept_signal(segments), WindowSpec(0.5))  # W=50, stride 12
    assert y.shape == (30 + 62 - 50 + 1,)
    assert np.flatnonzero(y >= 0).tolist() == [30, 42]
    assert (y[y >= 0] == 1).all()
    assert np.array_equal(x[30], segments[1].channels[:, :50].T)


def test_window_arrays_no_window_straddles_a_boundary_of_one_class():
    """Two signals that meet on the same class are still two segments: the
    start positions whose window would cross the boundary are labelled -1."""
    acts = collect_segments(
        [
            LabeledSignal(1, np.arange(18 * 40.0).reshape(18, 40), np.full(40, 4)),
            LabeledSignal(2, -np.arange(18 * 40.0).reshape(18, 40), np.full(40, 4)),
        ]
    )
    spec = WindowSpec(0.1)  # W=10, stride 2
    assert [a.class_index for a in acts] == [2, 2]  # activity 4 is class 2
    _, y = window_arrays(*kept_signal(acts), spec)
    starts = np.flatnonzero(y >= 0)
    assert (y[starts] == 2).all()
    assert starts.tolist() == list(range(0, 31, 2)) + list(range(40, 71, 2))
    assert len(starts) == len(segment(acts, spec))
    assert (y[31:40] == -1).all()


def test_window_arrays_without_windows_fail_folding():
    for segments in ([_segment_of(30), _segment_of(49, 1, 1)], [_segment_of(49)], []):
        x, y = window_arrays(*kept_signal(segments), WindowSpec(0.5))
        assert x.shape[1:] == (50, 18) and y.shape == (len(x),)
        assert (y < 0).all()
        with pytest.raises(CoverageError, match="no samples"):
            FoldPlan.stratified(y, 4, seed=0)


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------


def _labeled_samples(counts, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for cls, n in enumerate(counts):
        for i in range(n):
            samples.append(
                Sample(window=rng.normal(size=(4, 18)), class_index=cls, subject_id=0, origin=(cls, i))
            )
    return samples


def test_make_folds_partitions_exactly_once():
    samples = _labeled_samples([20, 20, 20])
    plan = make_folds(samples, 8, seed=0)
    seen = np.zeros(len(samples), dtype=int)
    for fold in range(8):
        _, test_idx = plan.train_test(fold)
        seen[test_idx] += 1
    assert (seen == 1).all()


def test_make_folds_per_class_imbalance_at_most_one():
    samples = _labeled_samples([21, 9, 17])
    plan = make_folds(samples, 8, seed=3)
    labels = np.array([s.class_index for s in samples])
    for cls in range(3):
        counts = np.bincount(plan.assignment[labels == cls], minlength=8)
        assert counts.max() - counts.min() <= 1


def test_stratified_deals_each_class_from_fold_0():
    """Each class is dealt round-robin from fold 0, so its per-fold counts
    never increase with the fold index: the first ``n % k`` folds hold one
    window more than the rest."""
    sizes = (21, 9, 17)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    for k, seed in ((8, 3), (4, 0), (5, 11)):
        plan = FoldPlan.stratified(labels, k, seed)
        for cls in range(len(sizes)):
            counts = np.bincount(plan.assignment[labels == cls], minlength=k)
            assert (np.diff(counts) <= 0).all(), (k, cls, counts)


def test_make_folds_train_test_complement():
    samples = _labeled_samples([10, 10])
    plan = make_folds(samples, 5, seed=1)
    train_idx, test_idx = plan.train_test(2)
    assert set(train_idx) | set(test_idx) == set(range(20))
    assert not set(train_idx) & set(test_idx)
    with pytest.raises(ValueError, match="out of range"):
        plan.train_test(5)


def test_make_folds_is_seeded():
    samples = _labeled_samples([16, 16])
    a = make_folds(samples, 4, seed=5)
    b = make_folds(samples, 4, seed=5)
    c = make_folds(samples, 4, seed=6)
    assert np.array_equal(a.assignment, b.assignment)
    assert not np.array_equal(a.assignment, c.assignment)


def test_make_folds_validation():
    samples = _labeled_samples([10, 10])
    with pytest.raises(ValueError, match="k >= 2"):
        make_folds(samples, 1, seed=0)
    with pytest.raises(CoverageError, match="no samples"):
        make_folds([], 2, seed=0)
    with pytest.raises(CoverageError, match="class 1 has only 3"):
        make_folds(_labeled_samples([10, 3]), 4, seed=0)


@settings(max_examples=40)
@given(
    counts=st.lists(st.integers(8, 40), min_size=1, max_size=5),
    k=st.integers(2, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_make_folds_stratification_property(counts, k, seed):
    samples = _labeled_samples(counts, seed=1)
    plan = make_folds(samples, k, seed=seed)
    labels = np.array([s.class_index for s in samples])
    assert plan.assignment.shape == (len(samples),)
    assert set(np.unique(plan.assignment)) <= set(range(k))
    for cls, n in enumerate(counts):
        fold_counts = np.bincount(plan.assignment[labels == cls], minlength=k)
        assert fold_counts.sum() == n
        assert fold_counts.max() - fold_counts.min() <= 1


@settings(max_examples=40)
@given(
    counts=st.lists(st.integers(8, 40), min_size=1, max_size=5),
    k=st.integers(2, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_stratified_puts_negative_labels_in_no_fold(counts, k, seed):
    """Rows labelled below 0 are in no fold, and the other rows get the
    folds they would get with those rows taken out."""
    compact = np.repeat(np.arange(len(counts)), counts)
    rng = np.random.default_rng(seed)
    labels = compact.copy()
    for at in sorted(rng.integers(0, len(labels) + 1, size=len(labels)), reverse=True):
        labels = np.insert(labels, at, -1)
    kept = labels >= 0
    plan = FoldPlan.stratified(labels, k, seed)
    want = FoldPlan.stratified(compact, k, seed)
    assert (plan.assignment[~kept] == -1).all()
    assert np.array_equal(plan.assignment[kept], want.assignment)
    rows = np.flatnonzero(kept)
    for fold in range(k):
        train, test = plan.train_test(fold)
        want_train, want_test = want.train_test(fold)
        assert np.array_equal(train, rows[want_train]) and np.array_equal(test, rows[want_test])


def test_fold_distribution_on_synthetic_windows():
    """End-to-end: synthetic signal -> windows -> folds keeps classes even."""
    from harwin.dataset import collect_segments

    sig = generate_synthetic(0, samples_per_class=2, segment_len=100)
    samples = segment(collect_segments([sig]), WindowSpec(0.5))
    labels = np.array([s.class_index for s in samples])
    # 2 segments/class, 5 windows each
    assert [int((labels == c).sum()) for c in range(5)] == [10] * 5
    plan = make_folds(samples, 8, seed=0)
    for c in range(5):
        counts = np.bincount(plan.assignment[labels == c], minlength=8)
        assert counts.max() - counts.min() <= 1

"""Protocol-file parsing, channel selection, gap repair, segmentation and the
binary dataset cache."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harwin.dataset import (
    ACTIVITY_NAMES,
    DEFAULT_ACTIVITIES,
    ActivitySet,
    LabeledSignal,
    N_CHANNELS,
    SELECTED_READINGS,
    collect_segments,
    dataset_fingerprint,
    filter_activities,
    generate_synthetic,
    ingest_directory,
    interpolate_missing,
    load_signals,
    parse_pamap2_file,
    save_signals,
    select_channels,
)


def make_line(timestamp, activity, readings):
    assert len(readings) == 52
    fields = [f"{timestamp}", f"{activity}"] + [str(r) for r in readings]
    return " ".join(fields)


def make_text(rows):
    return "\n".join(make_line(*r) for r in rows) + "\n"


def counted_readings(base=0.0):
    # reading i carries the value base + i so selections are easy to check
    return [base + i for i in range(52)]


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_selected_reading_indices_are_the_hand_derived_set():
    # per IMU block at file columns {3, 20, 37}: columns o+1..o+3 (acc) and
    # o+7..o+9 (gyro), shifted by -2 into reading space
    assert SELECTED_READINGS == (
        2, 3, 4, 8, 9, 10,
        19, 20, 21, 25, 26, 27,
        36, 37, 38, 42, 43, 44,
    )
    assert N_CHANNELS == 18


def test_activity_codes():
    assert set(ACTIVITY_NAMES) == {2, 3, 4, 12, 13}
    assert DEFAULT_ACTIVITIES.class_of(2) == 0
    assert DEFAULT_ACTIVITIES.class_of(13) == 4
    assert 0 not in DEFAULT_ACTIVITIES  # the transient marker is not a class


def test_activity_set_validation():
    with pytest.raises(ValueError, match="5 entries"):
        ActivitySet({1: 0, 2: 1})
    with pytest.raises(ValueError, match="permutation"):
        ActivitySet({1: 0, 2: 1, 3: 2, 4: 3, 5: 5})


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic_file():
    text = make_text([(0.01, 4, counted_readings()), (0.02, 4, counted_readings(100))])
    rec = parse_pamap2_file(text, subject_id=101)
    assert rec.subject_id == 101
    assert rec.timestamps.tolist() == [0.01, 0.02]
    assert rec.activity_ids.tolist() == [4, 4]
    assert rec.readings.shape == (2, 52)
    assert rec.readings[1, 0] == 100.0


def test_parse_nan_token_maps_to_reading_index():
    # a NaN in the 4th field (heart rate is field 3) is reading index 1
    readings = counted_readings()
    readings[1] = "NaN"
    text = make_text([(0.01, 0, readings)])
    rec = parse_pamap2_file(text, 7)
    assert np.isnan(rec.readings[0, 1])
    assert rec.readings[0, 0] == 0.0
    assert rec.readings[0, 2] == 2.0


def test_parse_skips_blank_lines_keeps_numbering():
    text = make_line(0.01, 4, counted_readings()) + "\n\n" + make_line(0.02, 4, counted_readings())
    rec = parse_pamap2_file(text, 1)
    assert rec.timestamps.size == 2


def test_parse_rejects_wrong_field_count():
    good = make_line(0.01, 4, counted_readings())
    bad = "0.02 4 1.0 2.0"
    with pytest.raises(ValueError, match="line 2.*fields"):
        parse_pamap2_file(good + "\n" + bad + "\n", 1)


def test_parse_rejects_unparsable_token():
    readings = counted_readings()
    readings[5] = "bogus"
    text = make_line(0.01, 4, counted_readings()) + "\n" + make_line(0.02, 4, readings)
    with pytest.raises(ValueError, match="line 2.*bogus"):
        parse_pamap2_file(text, 1)


def test_parse_rejects_non_integer_activity():
    text = make_text([(0.01, 2.5, counted_readings())])
    with pytest.raises(ValueError, match="line 1.*activity"):
        parse_pamap2_file(text, 1)


def test_parse_rejects_non_increasing_timestamps():
    text = make_text(
        [(0.02, 4, counted_readings()), (0.02, 4, counted_readings()), (0.01, 4, counted_readings())]
    )
    with pytest.raises(ValueError, match="line 2.*increasing"):
        parse_pamap2_file(text, 1)


def test_parse_rejects_infinite_reading():
    readings = counted_readings()
    readings[10] = "inf"
    with pytest.raises(ValueError, match="line 1.*infinite"):
        parse_pamap2_file(make_text([(0.01, 4, readings)]), 1)


def test_parse_rejects_empty_input():
    with pytest.raises(ValueError, match="empty"):
        parse_pamap2_file("", 1)
    with pytest.raises(ValueError, match="empty"):
        parse_pamap2_file("\n\n  \n", 1)


# ---------------------------------------------------------------------------
# channel selection + interpolation
# ---------------------------------------------------------------------------


def test_select_channels_pulls_the_right_columns():
    rec = parse_pamap2_file(make_text([(0.01, 4, counted_readings())]), 3)
    sig = select_channels(rec)
    assert sig.subject_id == 3
    assert sig.channels.shape == (18, 1)
    assert sig.channels[:, 0].tolist() == list(map(float, SELECTED_READINGS))
    assert sig.labels.tolist() == [4]


def test_interpolate_interior_gap_is_linear():
    ch = np.full((18, 5), 1.0)
    ch[0] = [0.0, np.nan, np.nan, 3.0, 4.0]
    sig = LabeledSignal(1, ch, np.zeros(5, dtype=np.int64))
    fixed = interpolate_missing(sig)
    assert fixed.channels[0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_interpolate_edges_hold_nearest_value():
    ch = np.full((18, 4), 1.0)
    ch[2] = [np.nan, 5.0, 6.0, np.nan]
    sig = LabeledSignal(1, ch, np.zeros(4, dtype=np.int64))
    fixed = interpolate_missing(sig)
    assert fixed.channels[2].tolist() == [5.0, 5.0, 6.0, 6.0]


def test_interpolate_rejects_all_missing_channel():
    ch = np.full((18, 3), 1.0)
    ch[7] = np.nan
    sig = LabeledSignal(1, ch, np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="channel 7"):
        interpolate_missing(sig)


@given(st.integers(0, 2**31 - 1), st.integers(3, 40))
def test_interpolate_is_idempotent_and_preserves_valid_points(seed, n):
    rng = np.random.default_rng(seed)
    ch = rng.normal(size=(18, n))
    holes = rng.random(size=ch.shape) < 0.3
    holes[:, 0] = False  # keep at least one valid point per channel
    ch_holed = np.where(holes, np.nan, ch)
    sig = LabeledSignal(1, ch_holed, np.zeros(n, dtype=np.int64))
    once = interpolate_missing(sig)
    assert np.isfinite(once.channels).all()
    # valid points survive untouched, bit for bit
    assert np.array_equal(once.channels[~holes], ch[~holes])
    twice = interpolate_missing(once)
    assert np.array_equal(once.channels, twice.channels)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def _sig_with_labels(labels):
    labels = np.asarray(labels, dtype=np.int64)
    ch = np.arange(18 * labels.size, dtype=np.float64).reshape(18, labels.size)
    return LabeledSignal(5, ch, labels)


def test_filter_activities_splits_on_transient():
    sig = _sig_with_labels([4, 4, 0, 0, 4, 4, 4])
    segs = filter_activities(sig)
    assert [s.class_index for s in segs] == [2, 2]
    assert [s.channels.shape[1] for s in segs] == [2, 3]
    assert [s.segment_id for s in segs] == [0, 1]
    # content is the contiguous slice, not a copy from elsewhere
    assert np.array_equal(segs[1].channels, sig.channels[:, 4:7])


def test_filter_activities_drops_unknown_codes():
    segs = filter_activities(_sig_with_labels([7, 7, 2, 2, 24, 3]))
    assert [s.class_index for s in segs] == [0, 1]


def test_filter_activities_adjacent_activities_stay_separate():
    segs = filter_activities(_sig_with_labels([2, 2, 3, 3, 12, 13]))
    assert [s.class_index for s in segs] == [0, 1, 3, 4]
    assert [s.channels.shape[1] for s in segs] == [2, 2, 1, 1]


def test_filter_activities_empty_signal():
    assert filter_activities(_sig_with_labels([])) == []


@given(st.lists(st.sampled_from([0, 2, 3, 4, 7, 12, 13]), max_size=60))
def test_filter_activities_segments_tile_the_retained_timesteps(labels):
    sig = _sig_with_labels(labels)
    segs = filter_activities(sig)
    # total retained length matches a direct count
    keep = [l for l in labels if l in DEFAULT_ACTIVITIES.code_to_class]
    assert sum(s.channels.shape[1] for s in segs) == len(keep)
    # runs are maximal: consecutive segments never share a class when adjacent
    # in the original signal; ids are sequential
    assert [s.segment_id for s in segs] == list(range(len(segs)))
    for s in segs:
        assert s.channels.shape[0] == 18


def test_filter_activities_segments_are_views_of_the_signal():
    sig = _sig_with_labels([2, 2, 0, 3, 3, 3, 7, 4])
    segs = filter_activities(sig)
    assert [s.channels.shape[1] for s in segs] == [2, 3, 1]
    for seg, (start, end) in zip(segs, [(0, 2), (3, 6), (7, 8)]):
        assert np.shares_memory(seg.channels, sig.channels)
        assert np.array_equal(seg.channels, sig.channels[:, start:end])


def test_collect_segments_renumbers_globally():
    a = _sig_with_labels([2, 2, 0, 3, 3])
    b = _sig_with_labels([4, 4, 4])
    segs = collect_segments([a, b])
    assert [s.segment_id for s in segs] == [0, 1, 2]
    assert [s.class_index for s in segs] == [0, 1, 2]


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_generate_synthetic_layout():
    sig = generate_synthetic(0, samples_per_class=2, segment_len=50)
    assert sig.channels.shape == (18, 2 * 5 * 50)
    segs = filter_activities(sig)
    assert len(segs) == 10
    assert sorted({s.class_index for s in segs}) == [0, 1, 2, 3, 4]
    assert all(s.channels.shape[1] == 50 for s in segs)


def test_generate_synthetic_is_seeded():
    a = generate_synthetic(1, 2, 30)
    b = generate_synthetic(1, 2, 30)
    c = generate_synthetic(2, 2, 30)
    assert np.array_equal(a.channels, b.channels)
    assert not np.array_equal(a.channels, c.channels)


def test_generate_synthetic_values_are_pinned():
    """The rng's call order and the arithmetic fix every value, and cached
    synthetic sets and the reports built on them depend on it."""
    assert dataset_fingerprint([generate_synthetic(5, 2, 40)]) == (
        "sha256:412ac5fad7e20c851e83360df49a5c65d55926a3014d504b1fcb6b30e38633a9"
    )
    assert dataset_fingerprint([generate_synthetic(0, 1, 2)]) == (
        "sha256:055f8f667d565a507fdbfa94aa9d49afd7bdd0bb0fa8c373c9200b09882e709f"
    )


def test_generate_synthetic_validation():
    with pytest.raises(ValueError, match="segment_len"):
        generate_synthetic(0, 1, 1)
    with pytest.raises(ValueError, match="samples_per_class"):
        generate_synthetic(0, 0, 10)


# ---------------------------------------------------------------------------
# cache round-trip
# ---------------------------------------------------------------------------


def test_cache_round_trip_bit_exact(tmp_path):
    sig1 = generate_synthetic(3, 1, 20)
    sig2 = LabeledSignal(104, np.random.default_rng(0).normal(size=(18, 7)), np.arange(7, dtype=np.int64))
    path = tmp_path / "cache.bin"
    save_signals([sig1, sig2], path)
    back = load_signals(path)
    assert len(back) == 2
    assert back[0].subject_id == sig1.subject_id
    assert back[1].subject_id == 104
    assert np.array_equal(back[0].channels, sig1.channels)
    assert np.array_equal(back[1].channels, sig2.channels)
    assert np.array_equal(back[1].labels, sig2.labels)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOPE!" + b"\x00" * 10)
    with pytest.raises(ValueError, match="bad magic"):
        load_signals(path)
    save_signals([generate_synthetic(0, 1, 10)], path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_signals(path)
    path.write_bytes(blob + b"\xff")
    with pytest.raises(ValueError, match="trailing"):
        load_signals(path)


def test_fingerprint_tracks_content(tmp_path):
    sig = generate_synthetic(5, 1, 12)
    fp1 = dataset_fingerprint([sig])
    fp2 = dataset_fingerprint([sig])
    assert fp1 == fp2
    assert fp1.startswith("sha256:")
    other = generate_synthetic(6, 1, 12)
    assert dataset_fingerprint([other]) != fp1
    # a loaded cache fingerprints identically to the in-memory original
    path = tmp_path / "c.bin"
    save_signals([sig], path)
    assert dataset_fingerprint(load_signals(path)) == fp1


def _traced_peak(fn, *args):
    """fn(*args) and the peak memory it allocated beyond what was live before."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_cache_bytes_stream_without_a_second_copy(tmp_path):
    """The fingerprint hashes and save_signals writes the cache's parts as
    views of the signal, and load_signals reads each part into its own
    array: none of them holds the signal twice."""
    import hashlib

    sig = generate_synthetic(3, samples_per_class=40, segment_len=500)  # 14 MiB of channels
    path = tmp_path / "c.bin"
    fp, extra = _traced_peak(dataset_fingerprint, [sig])
    assert extra < 0.05 * sig.channels.nbytes, extra / sig.channels.nbytes
    _, extra = _traced_peak(save_signals, [sig], path)
    assert extra < 0.05 * sig.channels.nbytes, extra / sig.channels.nbytes
    assert fp == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    (back,), extra = _traced_peak(load_signals, path)
    assert extra < 1.05 * (sig.channels.nbytes + sig.labels.nbytes), extra / sig.channels.nbytes
    assert np.array_equal(back.channels, sig.channels) and np.array_equal(back.labels, sig.labels)


# ---------------------------------------------------------------------------
# directory ingestion
# ---------------------------------------------------------------------------


def _write_protocol_file(path, n_rows, activity=4):
    rows = [(0.01 * (i + 1), activity, counted_readings(i)) for i in range(n_rows)]
    path.write_text(make_text(rows))


def test_ingest_directory_reads_requested_subjects(tmp_path):
    _write_protocol_file(tmp_path / "subject101.dat", 3)
    _write_protocol_file(tmp_path / "subject102.dat", 2)
    signals = ingest_directory(tmp_path, [101, 102])
    assert [s.subject_id for s in signals] == [101, 102]
    assert [s.n_timesteps for s in signals] == [3, 2]


def test_ingest_directory_discovers_all_subjects(tmp_path):
    _write_protocol_file(tmp_path / "subject103.dat", 2)
    _write_protocol_file(tmp_path / "subject101.dat", 2)
    signals = ingest_directory(tmp_path)
    assert [s.subject_id for s in signals] == [101, 103]  # sorted by name


def test_ingest_directory_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="not found"):
        ingest_directory(tmp_path / "absent")
    with pytest.raises(FileNotFoundError, match="no subject"):
        ingest_directory(tmp_path)
    _write_protocol_file(tmp_path / "subject101.dat", 2)
    with pytest.raises(FileNotFoundError, match="subject105"):
        ingest_directory(tmp_path, [101, 105])


def test_ingest_directory_names_a_stray_subject_file(tmp_path):
    _write_protocol_file(tmp_path / "subject101.dat", 2)
    (tmp_path / "subject_notes.dat").write_text("notes\n")
    with pytest.raises(ValueError, match=r"subject_notes\.dat: not a subjectNNN\.dat"):
        ingest_directory(tmp_path)
    # naming the subjects reads only their files
    assert [s.subject_id for s in ingest_directory(tmp_path, [101])] == [101]


def test_ingest_repairs_gaps(tmp_path):
    readings = counted_readings()
    readings[SELECTED_READINGS[0]] = "NaN"
    rows = [
        make_line(0.01, 4, counted_readings()),
        make_line(0.02, 4, readings),
        make_line(0.03, 4, counted_readings()),
    ]
    (tmp_path / "subject101.dat").write_text("\n".join(rows) + "\n")
    (sig,) = ingest_directory(tmp_path, [101])
    assert np.isfinite(sig.channels).all()
    # the hole sat between two equal values, so it takes that value
    assert sig.channels[0].tolist() == [2.0, 2.0, 2.0]

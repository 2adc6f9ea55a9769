"""Protocol-file parsing, channel selection, gap repair, segmentation and the
binary dataset cache."""

import os
import stat
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harwin import dataset
from harwin.dataset import (
    ACTIVITY_CLASSES,
    ACTIVITY_NAMES,
    LabeledSignal,
    N_CHANNELS,
    SELECTED_READINGS,
    collect_segments,
    dataset_fingerprint,
    filter_activities,
    generate_synthetic,
    ingest_directory,
    load_signals,
    load_subject_file,
    repair_gaps,
    save_signals,
    write_atomic,
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


def load_text(tmp_path, text, subject_id=1):
    """load_subject_file on a protocol file holding exactly ``text``."""
    path = tmp_path / f"subject{subject_id}.dat"
    path.write_bytes(text.encode())
    return load_subject_file(path, subject_id)


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
    assert ACTIVITY_CLASSES[2] == 0
    assert ACTIVITY_CLASSES[13] == 4
    assert 0 not in ACTIVITY_CLASSES  # the transient marker is not a class


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic_file(tmp_path):
    text = make_text([(0.01, 4, counted_readings()), (0.02, 4, counted_readings(100))])
    sig = load_text(tmp_path, text, subject_id=101)
    assert sig.subject_id == 101
    assert sig.n_timesteps == 2
    assert sig.labels.tolist() == [4, 4]
    assert sig.channels.shape == (18, 2)
    assert sig.channels[:, 1].tolist() == [100.0 + r for r in SELECTED_READINGS]


def test_parse_nan_token_maps_to_reading_index(tmp_path):
    # a NaN in the 4th field (heart rate is field 3) is reading index 1,
    # which no channel keeps
    readings = counted_readings()
    readings[1] = "NaN"
    sig = load_text(tmp_path, make_text([(0.01, 0, readings)]), 7)
    assert np.isfinite(sig.channels).all()
    assert sig.channels[0, 0] == 2.0
    # a NaN at reading index 3 is channel 1, and one row leaves it no value
    readings[3] = "NaN"
    with pytest.raises(ValueError, match="channel 1 has no valid values"):
        load_text(tmp_path, make_text([(0.01, 0, readings)]), 7)


def test_parse_skips_blank_lines_keeps_numbering(tmp_path):
    text = make_line(0.01, 4, counted_readings()) + "\n\n" + make_line(0.02, 4, counted_readings())
    assert load_text(tmp_path, text).n_timesteps == 2
    bad = make_line(0.005, 4, counted_readings())
    with pytest.raises(ValueError, match="line 3: timestamps"):
        load_text(tmp_path, make_line(0.01, 4, counted_readings()) + "\n\n" + bad)


def test_parse_rejects_wrong_field_count(tmp_path):
    good = make_line(0.01, 4, counted_readings())
    bad = "0.02 4 1.0 2.0"
    with pytest.raises(ValueError, match="line 2.*fields"):
        load_text(tmp_path, good + "\n" + bad + "\n")


def test_parse_rejects_unparsable_token(tmp_path):
    readings = counted_readings()
    readings[5] = "bogus"
    text = make_line(0.01, 4, counted_readings()) + "\n" + make_line(0.02, 4, readings)
    with pytest.raises(ValueError, match="line 2.*bogus"):
        load_text(tmp_path, text)


def test_parse_rejects_non_integer_activity(tmp_path):
    text = make_text([(0.01, 2.5, counted_readings())])
    with pytest.raises(ValueError, match="line 1.*activity"):
        load_text(tmp_path, text)


def test_parse_rejects_non_increasing_timestamps(tmp_path):
    text = make_text(
        [(0.02, 4, counted_readings()), (0.02, 4, counted_readings()), (0.01, 4, counted_readings())]
    )
    with pytest.raises(ValueError, match="line 2.*increasing"):
        load_text(tmp_path, text)


def test_parse_rejects_infinite_reading(tmp_path):
    readings = counted_readings()
    readings[10] = "inf"
    with pytest.raises(ValueError, match="line 1.*infinite"):
        load_text(tmp_path, make_text([(0.01, 4, readings)]))


@pytest.mark.filterwarnings("error")
def test_parse_rejects_empty_input(tmp_path):
    # numpy's "input contained no data" warning stays inside the parser
    with pytest.raises(ValueError, match="empty"):
        load_text(tmp_path, "")
    with pytest.raises(ValueError, match="empty"):
        load_text(tmp_path, "\n\n  \n")
    with pytest.raises(ValueError, match=r"subject1\.dat: empty recording"):
        load_text(tmp_path, " \r\n\t\r\n")


def _readings_with(index, token):
    readings = counted_readings()
    readings[index] = token
    return readings


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize(
    "bad_line, message",
    [  # each bad line follows a good one stamped 0.01 s
        ("0.02 4 1.0 2.0", "expected 54 fields, got 4"),
        (make_line(0.02, 4, _readings_with(5, "bogus")), "unparsable number 'bogus'"),
        # np.loadtxt rejects both, though float() takes 1_0
        (make_line(0.02, 4, _readings_with(5, "1_0")), "unparsable number '1_0'"),
        (make_line(0.02, 4, _readings_with(5, "0x10")), "unparsable number '0x10'"),
        (make_line("nan", 4, counted_readings()), "non-finite timestamp"),
        (make_line(0.02, 2.5, counted_readings()), "activity id is not an integer"),
        (make_line(0.02, 4, _readings_with(10, "-inf")), "infinite sensor reading"),
        (make_line(0.01, 4, counted_readings()), "timestamps must be strictly increasing"),
    ],
    ids=["fields", "unparsable", "underscore", "hex", "timestamp", "activity", "infinite", "increasing"],
)
def test_parse_errors_name_the_file_and_line_after_blank_lines(tmp_path, bad_line, message, newline):
    lines = ["", make_line(0.01, 4, counted_readings()), "  ", "", bad_line, make_line(0.03, 4, counted_readings())]
    path = tmp_path / "subject101.dat"
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    with pytest.raises(ValueError) as err:
        load_subject_file(path, 101)
    assert str(err.value) == f"{path}: line 5: {message}"


# ---------------------------------------------------------------------------
# channel selection + interpolation
# ---------------------------------------------------------------------------


def test_select_channels_pulls_the_right_columns(tmp_path):
    sig = load_text(tmp_path, make_text([(0.01, 4, counted_readings())]), 3)
    assert sig.subject_id == 3
    assert sig.channels.shape == (18, 1)
    assert sig.channels[:, 0].tolist() == list(map(float, SELECTED_READINGS))
    assert sig.labels.tolist() == [4]
    assert sig.channels.flags.c_contiguous


def test_interpolate_interior_gap_is_linear():
    ch = np.full((18, 5), 1.0)
    ch[0] = [0.0, np.nan, np.nan, 3.0, 4.0]
    repair_gaps(ch)
    assert ch[0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_interpolate_edges_hold_nearest_value():
    ch = np.full((18, 4), 1.0)
    ch[2] = [np.nan, 5.0, 6.0, np.nan]
    repair_gaps(ch)
    assert ch[2].tolist() == [5.0, 5.0, 6.0, 6.0]


def test_interpolate_rejects_all_missing_channel():
    ch = np.full((18, 3), 1.0)
    ch[7] = np.nan
    with pytest.raises(ValueError, match="channel 7"):
        repair_gaps(ch)


@given(st.integers(0, 2**31 - 1), st.integers(3, 40))
def test_interpolate_is_idempotent_and_preserves_valid_points(seed, n):
    rng = np.random.default_rng(seed)
    ch = rng.normal(size=(18, n))
    holes = rng.random(size=ch.shape) < 0.3
    holes[:, 0] = False  # keep at least one valid point per channel
    once = np.where(holes, np.nan, ch)
    repair_gaps(once)
    assert np.isfinite(once).all()
    # valid points survive untouched, bit for bit
    assert np.array_equal(once[~holes], ch[~holes])
    # each hole takes what interpolating the whole row would give it
    valid = [np.flatnonzero(~h) for h in holes]
    ref = np.array([np.interp(np.arange(n), v, row[v]) for v, row in zip(valid, ch)])
    assert np.array_equal(once, ref)
    twice = once.copy()
    repair_gaps(twice)
    assert np.array_equal(once, twice)


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
    keep = [l for l in labels if l in ACTIVITY_CLASSES]
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
    """Also for a signal of no timesteps, which save_signals writes."""
    sig1 = generate_synthetic(3, 1, 20)
    sig2 = LabeledSignal(104, np.random.default_rng(0).normal(size=(18, 7)), np.arange(7, dtype=np.int64))
    empty = LabeledSignal(105, np.empty((18, 0)), np.empty(0, dtype=np.int64))
    path = tmp_path / "cache.bin"
    save_signals([sig1, sig2, empty], path)
    back = load_signals(path)
    assert len(back) == 3
    assert back[0].subject_id == sig1.subject_id
    assert back[1].subject_id == 104
    assert np.array_equal(back[0].channels, sig1.channels)
    assert np.array_equal(back[1].channels, sig2.channels)
    assert np.array_equal(back[1].labels, sig2.labels)
    assert (back[2].subject_id, back[2].channels.shape, back[2].labels.shape) == (105, (18, 0), (0,))


def test_cache_bytes_are_pinned(tmp_path):
    """The HARW1 layout, byte for byte: magic, u32 signal count, then per
    signal an i64 subject id, u32 channel count and u64 timestep count,
    the i64 labels and the channel-major f64 samples, all little-endian."""
    rng = np.random.default_rng(0)
    first = LabeledSignal(101, rng.normal(size=(18, 3)), np.array([4, 4, 12], dtype=np.int64))
    second = LabeledSignal(102, rng.normal(size=(18, 2)), np.array([0, 13], dtype=np.int64))
    path = tmp_path / "cache.bin"
    save_signals([first, second], path)
    blob = path.read_bytes()
    expected = [
        b"HARW1",
        bytes.fromhex("02000000"),  # two signals
        bytes.fromhex("6500000000000000" "12000000" "0300000000000000"),  # subject 101, 18 channels, 3 steps
        first.labels.astype("<i8").tobytes(),
        first.channels.astype("<f8").tobytes(),
        bytes.fromhex("6600000000000000" "12000000" "0200000000000000"),  # subject 102, 18 channels, 2 steps
        second.labels.astype("<i8").tobytes(),
        second.channels.astype("<f8").tobytes(),
    ]
    for part in expected:
        assert blob[: len(part)] == part
        blob = blob[len(part) :]
    assert blob == b""


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
    path.write_bytes(b"HARW1" + struct.pack("<I", 1) + struct.pack("<qIQ", 101, 0, 3) + bytes(8 * 3))  # no channels
    with pytest.raises(ValueError) as err:
        load_signals(path)
    assert str(err.value) == f"{path}: expected 18 channels, got shape (0, 3)"
    for value in (np.nan, np.inf, -np.inf):
        sig = generate_synthetic(0, 1, 10)
        sig.channels[3, 7] = value
        save_signals([sig], path)
        with pytest.raises(ValueError) as err:
            load_signals(path)
        assert str(err.value) == f"{path}: non-finite sample in dataset cache"


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


def test_a_write_that_fails_partway_leaves_the_previous_file_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "c.bin"
    save_signals([generate_synthetic(0, 1, 10)], path)
    before = path.read_bytes()

    def failing(signals, pack=dataset._pack_signals):
        parts = pack(signals)
        yield next(parts)
        yield next(parts)
        raise OSError("disk full")

    monkeypatch.setattr(dataset, "_pack_signals", failing)
    with pytest.raises(OSError, match="disk full"):
        save_signals([generate_synthetic(1, 1, 10)], path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["c.bin"]


@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
def test_write_atomic_gives_the_mode_of_a_plain_open(tmp_path):
    old = os.umask(0o027)
    try:
        write_atomic(tmp_path / "new.bin", [b"new"])
        with open(tmp_path / "plain.bin", "wb") as f:
            f.write(b"plain")
    finally:
        os.umask(old)
    assert (tmp_path / "new.bin").read_bytes() == b"new"
    assert stat.S_IMODE((tmp_path / "new.bin").stat().st_mode) == 0o640
    assert stat.S_IMODE((tmp_path / "plain.bin").stat().st_mode) == 0o640
    write_atomic(tmp_path / "new.bin", [b"re", memoryview(b"placed")])
    assert (tmp_path / "new.bin").read_bytes() == b"replaced"
    assert sorted(os.listdir(tmp_path)) == ["new.bin", "plain.bin"]


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
    # a repeated subject is rejected before any file is looked for
    with pytest.raises(ValueError, match="subject 101 is listed more than once"):
        ingest_directory(tmp_path, [101, 102, 101])
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


def test_ingest_directory_error_names_the_bad_file_and_line(tmp_path):
    _write_protocol_file(tmp_path / "subject101.dat", 3)
    rows = [make_line(0.02, 4, counted_readings()), make_line(0.01, 4, counted_readings())]
    (tmp_path / "subject102.dat").write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"subject102\.dat: line 2: timestamps must be strictly increasing"):
        ingest_directory(tmp_path)
    assert [s.subject_id for s in ingest_directory(tmp_path, [101])] == [101]


def test_load_subject_file_peak_stays_under_two_parsed_arrays(tmp_path):
    """One np.loadtxt pass over the file: no copy of its text, and the
    channels are taken from the parsed array once and repaired in place."""
    rows = 5000
    data = np.random.default_rng(0).normal(size=(rows, 54))
    data[:, 0] = np.arange(1, rows + 1) / 100
    data[:, 1] = 4
    data[::50, 2 + SELECTED_READINGS[1]] = np.nan  # gaps to repair
    path = tmp_path / "subject101.dat"
    np.savetxt(path, data, fmt="%.6g")
    sig, extra = _traced_peak(load_subject_file, path, 101)
    assert sig.channels.shape == (18, rows) and np.isfinite(sig.channels).all()
    assert extra < 2 * data.nbytes, extra / data.nbytes

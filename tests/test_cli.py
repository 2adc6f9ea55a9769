"""CLI behaviour: exit codes, stream discipline, artifact round-trips."""

import json
import os
import struct
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from harwin import dataset, experiment, layers
from harwin.cli import cli
from harwin.dataset import generate_synthetic, load_signals, save_signals
from harwin.model import load_model
from harwin.report import load_report

pytestmark = pytest.mark.usefixtures("tmp_cwd")


@pytest.fixture
def tmp_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HARWIN_DATA_DIR", raising=False)
    return tmp_path


def _synth(path="cache.bin", extra=()):
    rc = cli(["synth", "--seed", "42", "--samples-per-class", "2", "--segment-len", "120", "--out", str(path), *extra])
    assert rc == 0
    return path


def test_unknown_flag_exits_2(capsys):
    assert cli(["synth", "--frobnicate"]) == 2
    assert cli(["no-such-command"]) == 2
    assert cli([]) == 2


def test_synth_writes_loadable_cache(capsys):
    _synth()
    out = capsys.readouterr()
    assert "cache.bin" in out.out
    assert "fingerprint sha256:" in out.out
    (sig,) = load_signals("cache.bin")
    assert sig.channels.shape == (18, 2 * 5 * 120)


def test_synth_is_reproducible(tmp_cwd):
    _synth("a.bin")
    _synth("b.bin")
    assert (tmp_cwd / "a.bin").read_bytes() == (tmp_cwd / "b.bin").read_bytes()


def test_synth_to_a_missing_directory_exits_1_before_generating(tmp_cwd, capsys, monkeypatch):
    generated = []
    monkeypatch.setattr(dataset, "generate_synthetic", lambda *args: generated.append(args))
    assert cli(["synth", "--out", "nodir/x.bin"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: cannot write nodir/x.bin: nodir is not a directory\n" in out.err
    assert generated == []


def test_synth_validation_exit_2(capsys):
    assert cli(["synth", "--samples-per-class", "0", "--out", "x.bin"]) == 2
    assert cli(["synth", "--segment-len", "1", "--out", "x.bin"]) == 2
    err = capsys.readouterr().err
    assert "segment-len" in err
    assert cli(["synth", "--seed", "-1", "--out", "x.bin"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_missing_cache_exits_1_with_stderr_only(capsys):
    rc = cli(["train", "--cache", "absent.bin", "--window", "0.5"])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "absent.bin" in out.err


def test_no_input_source_exits_1(capsys):
    rc = cli(["sweep"])
    assert rc == 1
    assert "HARWIN_DATA_DIR" in capsys.readouterr().err


def test_train_writes_model_and_metrics(tmp_cwd, capsys):
    _synth()
    rc = cli(
        [
            "train", "--cache", "cache.bin", "--window", "0.25",
            "--max-epochs", "3", "--patience", "3", "--batch-size", "64",
            "--model-out", "model.bin", "--metrics-json", "metrics.json",
        ]
    )
    assert rc == 0
    out = capsys.readouterr()
    assert "accuracy" in out.out
    net = load_model(tmp_cwd / "model.bin")
    assert net.plan.window_len == 25
    doc = json.loads((tmp_cwd / "metrics.json").read_text())
    assert doc["window_sec"] == 0.25
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert list(doc) == ["window_sec", "accuracy", "loss", "epochs_to_best", "history"]
    assert 1 <= len(doc["history"]) <= 3
    assert all(list(h) == ["train_loss", "stop_loss"] for h in doc["history"])


def test_train_kernel_override(tmp_cwd):
    _synth()
    rc = cli(
        [
            "train", "--cache", "cache.bin", "--window", "0.25", "--kernels", "3,3",
            "--max-epochs", "2", "--patience", "2", "--model-out", "m.bin",
        ]
    )
    assert rc == 0
    assert load_model(tmp_cwd / "m.bin").spec.kernels == (3, 3)
    assert cli(["train", "--cache", "cache.bin", "--window", "0.25", "--kernels", "3", "--max-epochs", "2"]) == 2


def test_sweep_writes_all_outputs(tmp_cwd, capsys):
    _synth()
    capsys.readouterr()  # drop the synth chatter
    rc = cli(
        [
            "sweep", "--cache", "cache.bin", "--windows", "0.1,0.25",
            "--folds", "2", "--max-epochs", "2", "--patience", "2", "--out-dir", "out",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("window_sec,k1,k2,")
    for name in ("report.json", "report.csv", "accuracy_boxplot.svg", "loss_boxplot.svg", "epochs_boxplot.svg"):
        assert (tmp_cwd / "out" / name).is_file(), name
    assert (tmp_cwd / "out" / "report.csv").read_text() == captured.out
    rep = load_report(tmp_cwd / "out" / "report.json")
    lines = captured.err.splitlines()
    assert lines[1:-1] == [
        f"window {row.window_sec:g} s: kernels ({row.k1}, {row.k2}), fold {f.fold + 1}/2: "
        f"accuracy {f.accuracy * 100:.2f}%"
        for row in rep.rows
        for f in row.folds
    ]
    assert len(lines) == 6 and lines[-1] == (
        "wrote out/report.json, out/report.csv, out/accuracy_boxplot.svg, out/loss_boxplot.svg, out/epochs_boxplot.svg"
    )


def test_sweep_with_only_failed_rows_names_the_files_it_wrote(tmp_cwd, capsys):
    _synth()
    capsys.readouterr()
    assert cli(["sweep", "--cache", "cache.bin", "--windows", "9", "--folds", "2", "--out-dir", "out"]) == 0
    err = capsys.readouterr().err
    assert err.splitlines()[1:] == [
        "window 9 s: kernels (7, 11), fold 1/2: failed, no samples to fold",
        "wrote out/report.json, out/report.csv",
    ]
    assert sorted(p.name for p in (tmp_cwd / "out").iterdir()) == ["report.csv", "report.json"]


def test_reports_and_checkpoints_do_not_depend_on_the_thread_count(tmp_cwd, monkeypatch, share_counts):
    """Criterion 6 across thread counts: with the forward forced onto one CPU
    or two, a sweep writes the same report.csv and report.json bytes, and
    train the same checkpoint and metrics bytes. At batch 60 some forward
    calls of both commands split into two shares."""
    _synth(extra=("--segment-len", "600"))
    flags = ["--cache", "cache.bin", "--max-epochs", "2", "--patience", "2", "--batch-size", "60"]
    for cpus in (1, 2):
        monkeypatch.setattr(layers, "usable_cpus", lambda cpus=cpus: cpus)
        outputs = ["--model-out", f"m{cpus}.bin", "--metrics-json", f"m{cpus}.json"]
        sweep = ["sweep", "--windows", "1,2", "--folds", "2", "--out-dir", f"sweep{cpus}"]
        for args in (sweep, ["train", "--window", "2", *outputs]):
            share_counts.clear()
            assert cli([*args, *flags]) == 0
            assert max(share_counts) == cpus, args
    for name in ("sweep{}/report.csv", "sweep{}/report.json", "m{}.bin", "m{}.json"):
        assert (tmp_cwd / name.format(1)).read_bytes() == (tmp_cwd / name.format(2)).read_bytes(), name


@pytest.mark.skipif(layers.usable_cpus() < 2, reason="OpenBLAS takes no more threads than usable CPUs")
def test_reports_do_not_depend_on_the_blas_thread_variable(tmp_cwd):
    """A sweep in child processes with OPENBLAS_NUM_THREADS unset, 1 and 2
    writes the same report bytes, because importing harwin pins the BLAS to
    one thread. Unpinned, a 1 s sweep's report.json differs at two."""
    _synth(extra=("--samples-per-class", "3", "--segment-len", "240"))
    unpinned = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")  # OpenBLAS reads these in turn
    env = {k: v for k, v in os.environ.items() if k not in unpinned}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(layers.__file__).parents[1]), env.get("PYTHONPATH")]))
    sweep = ["sweep", "--cache", "cache.bin", "--windows", "1", "--folds", "4", "--max-epochs", "3", "--patience", "3"]
    for threads in ("unset", "1", "2"):
        child_env = env if threads == "unset" else dict(env, OPENBLAS_NUM_THREADS=threads)
        child = subprocess.run(
            [sys.executable, "-m", "harwin.cli", *sweep, "--out-dir", threads],
            env=child_env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
    for name in ("report.csv", "report.json"):
        assert (tmp_cwd / "1" / name).read_bytes() == (tmp_cwd / "unset" / name).read_bytes(), name
        assert (tmp_cwd / "1" / name).read_bytes() == (tmp_cwd / "2" / name).read_bytes(), name


def test_sweep_folds_below_two_exit_2(capsys):
    _synth()
    assert cli(["sweep", "--cache", "cache.bin", "--folds", "1"]) == 2
    assert "--folds" in capsys.readouterr().err


def test_sweep_bad_windows_exit_2(capsys):
    _synth()
    assert cli(["sweep", "--cache", "cache.bin", "--windows", "0.1,zebra"]) == 2
    assert cli(["sweep", "--cache", "cache.bin", "--windows", "0.1,0.1"]) == 2
    for windows in ("inf", "nan,nan", "-1", "0.1,0"):
        assert cli(["sweep", "--cache", "cache.bin", "--windows", windows]) == 2, windows
    assert "positive and finite" in capsys.readouterr().err


def test_train_bad_window_exit_2(capsys):
    _synth()
    for window in ("inf", "nan", "-1"):
        assert cli(["train", "--cache", "cache.bin", "--window", window]) == 2, window
    assert "--window" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["sweep", "--windows", "0.1"], ["train", "--window", "0.1"]])
@pytest.mark.parametrize(
    "flags",
    [
        ["--batch-size", "0"],
        ["--patience", "-1"],
        ["--max-epochs", "0"],
        ["--learning-rate", "nan"],
        # train rejects kernels that are not positive or do not fit the
        # window; sweep has no --kernels flag, so argparse rejects them there
        ["--kernels", "0,5"],
        ["--kernels", "99,5", "--window", "0.5"],
        ["--seed", "-1"],
    ],
)
def test_bad_train_config_exits_2_before_loading(capsys, command, flags):
    _synth()
    capsys.readouterr()
    assert cli([*command, "--cache", "cache.bin", *flags]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "loading cache" not in out.err
    assert "error:" in out.err


@pytest.mark.parametrize(
    "command",
    [
        ["sweep", "--windows", "0.1", "--out-dir", "taken"],
        ["train", "--window", "0.1", "--model-out", "nodir/m.bin"],
        ["train", "--window", "0.1", "--metrics-json", "nodir/metrics.json"],
        ["train", "--window", "0.1", "--model-out", "taken/m.bin"],
    ],
)
def test_unwritable_output_exits_1_before_loading(tmp_cwd, capsys, command):
    _synth()
    (tmp_cwd / "taken").write_text("a file, not a directory\n")
    capsys.readouterr()
    assert cli([*command, "--cache", "cache.bin", "--max-epochs", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "loading cache" not in out.err
    assert "error:" in out.err
    assert not (tmp_cwd / "nodir").exists()


def test_sweep_divergence_exits_1(tmp_cwd, capsys):
    _synth()
    capsys.readouterr()
    rc = cli(
        [
            "sweep", "--cache", "cache.bin", "--windows", "0.5", "--folds", "2",
            "--max-epochs", "3", "--learning-rate", "1e200", "--out-dir", "out",
        ]
    )
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: training diverged at epoch 1 in window 0.5 s, fold 1\n" in out.err
    assert not (tmp_cwd / "out" / "report.json").exists()


def test_report_regenerates_byte_identical_outputs(tmp_cwd):
    _synth()
    assert (
        cli(
            [
                "sweep", "--cache", "cache.bin", "--windows", "0.1",
                "--folds", "2", "--max-epochs", "2", "--patience", "2", "--out-dir", "one",
            ]
        )
        == 0
    )
    assert cli(["report", "--report", "one/report.json", "--out-dir", "two"]) == 0
    for name in ("report.csv", "accuracy_boxplot.svg", "loss_boxplot.svg", "epochs_boxplot.svg"):
        assert (tmp_cwd / "one" / name).read_bytes() == (tmp_cwd / "two" / name).read_bytes(), name


def test_ingest_via_env_var(tmp_cwd, monkeypatch, capsys):
    data = tmp_cwd / "data"
    data.mkdir()
    rows = []
    rng = np.random.default_rng(0)
    for i in range(40):
        vals = rng.normal(size=52)
        rows.append(" ".join([f"{0.01 * (i + 1):.2f}", "4"] + [f"{v:.5f}" for v in vals]))
    (data / "subject101.dat").write_text("\n".join(rows) + "\n")
    monkeypatch.setenv("HARWIN_DATA_DIR", str(data))
    rc = cli(["ingest", "--out", "pamap.bin"])
    assert rc == 0
    assert "1 subject(s), 40 timesteps" in capsys.readouterr().out
    (sig,) = load_signals("pamap.bin")
    assert sig.subject_id == 101
    assert sig.channels.shape == (18, 40)


def _write_subject(path, rng, n_rows=40):
    rows = []
    for i in range(n_rows):
        vals = rng.normal(size=52)
        rows.append(" ".join([f"{0.01 * (i + 1):.2f}", "4"] + [f"{v:.5f}" for v in vals]))
    path.write_text("\n".join(rows) + "\n")


def test_sweep_reads_requested_subjects_from_data_dir(tmp_cwd, capsys):
    data = tmp_cwd / "data"
    data.mkdir()
    rng = np.random.default_rng(1)
    for subject in (101, 102, 103):
        _write_subject(data / f"subject{subject}.dat", rng)
    assert cli(["ingest", "--data-dir", "data", "--subjects", "101,102", "--out", "two.bin"]) == 0
    fingerprint = capsys.readouterr().out.split("fingerprint ")[1].strip()
    rc = cli(
        [
            "sweep", "--data-dir", "data", "--subjects", "101,102", "--windows", "0.1",
            "--folds", "2", "--max-epochs", "1", "--out-dir", "out",
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_cwd / "out" / "report.json").read_text())
    assert doc["dataset_fingerprint"] == fingerprint
    capsys.readouterr()
    rc = cli(["sweep", "--data-dir", "data", "--subjects", "101,104", "--windows", "0.1", "--folds", "2"])
    assert rc == 1
    assert "subject104.dat" in capsys.readouterr().err


def test_ingest_missing_dir_exits_1(capsys):
    assert cli(["ingest", "--data-dir", "nowhere", "--out", "x.bin"]) == 1
    assert "not found" in capsys.readouterr().err


def test_ingest_to_a_missing_directory_exits_1_before_parsing(tmp_cwd, capsys, monkeypatch):
    data = tmp_cwd / "data"
    data.mkdir()
    _write_subject(data / "subject101.dat", np.random.default_rng(3))
    parsed = []
    monkeypatch.setattr(dataset, "load_subject_file", lambda *args, **kw: parsed.append(args))
    assert cli(["ingest", "--data-dir", "data", "--out", "nodir/x.bin"]) == 1
    err = capsys.readouterr().err
    assert "cannot write nodir/x.bin: nodir is not a directory" in err
    assert parsed == []
    assert "ingesting" not in err


def test_ingest_stray_subject_file_exits_1_naming_it(tmp_cwd, capsys):
    data = tmp_cwd / "data"
    data.mkdir()
    _write_subject(data / "subject101.dat", np.random.default_rng(2))
    (data / "subject_notes.dat").write_text("notes\n")
    assert cli(["ingest", "--data-dir", str(data), "--out", "x.bin"]) == 1
    err = capsys.readouterr().err
    assert "subject_notes.dat" in err and "not a subjectNNN.dat" in err
    assert not (tmp_cwd / "x.bin").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["ingest", "--out", "x.bin"],
        ["train", "--window", "0.1"],
        ["sweep", "--windows", "0.1"],
        ["train", "--window", "0.1", "--cache", "none.bin"],  # a missing cache would exit 1
        ["sweep", "--windows", "0.1", "--cache", "none.bin"],
    ],
)
def test_repeated_subject_exits_2_before_reading(tmp_cwd, capsys, command):
    (tmp_cwd / "data").mkdir()  # empty: looking for a protocol file would exit 1
    assert cli([*command, "--data-dir", "data", "--subjects", "101,102,101"]) == 2
    err = capsys.readouterr().err
    assert "--subjects: subject 101 is listed more than once" in err
    assert "ingesting" not in err and "loading" not in err


def test_sweep_reads_requested_subjects_from_cache(tmp_cwd, capsys):
    first = replace(generate_synthetic(1, 2, 120), subject_id=101)
    second = replace(generate_synthetic(2, 2, 120), subject_id=102)
    save_signals([first, second], "two.bin")
    save_signals([second], "one.bin")
    sweep = ["sweep", "--windows", "0.1", "--folds", "2", "--max-epochs", "1"]
    assert cli([*sweep, "--cache", "two.bin", "--subjects", "102", "--out-dir", "picked"]) == 0
    assert cli([*sweep, "--cache", "one.bin", "--out-dir", "alone"]) == 0
    assert (tmp_cwd / "picked" / "report.json").read_bytes() == (tmp_cwd / "alone" / "report.json").read_bytes()
    capsys.readouterr()
    assert cli([*sweep, "--cache", "two.bin", "--subjects", "102,103"]) == 1
    assert "error: two.bin: subject 103 is not in the dataset cache\n" in capsys.readouterr().err


def test_sweep_over_a_cache_with_an_empty_subject_matches_the_sweep_without_it(tmp_cwd, capsys):
    """A subject of no timesteps loads and adds no window: the report.csv is
    byte-identical to the sweep's without it."""
    sig = generate_synthetic(42, 2, 120)
    empty = dataset.LabeledSignal(105, np.empty((18, 0)), np.empty(0, dtype=np.int64))
    save_signals([sig, empty], "with.bin")
    save_signals([sig], "without.bin")
    sweep = ["sweep", "--windows", "0.1,0.25", "--folds", "2", "--max-epochs", "1"]
    assert cli([*sweep, "--cache", "with.bin", "--out-dir", "with"]) == 0
    assert cli([*sweep, "--cache", "without.bin", "--out-dir", "without"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_cwd / "with" / "report.csv").read_bytes() == (tmp_cwd / "without" / "report.csv").read_bytes()


@pytest.mark.parametrize(
    "command, message",
    [
        (["train", "--cache", "bad.bin", "--window", "0.1"], "bad.bin: expected 18 channels, got shape (17, 3)"),
        (["report", "--report", "bad.json"], "bad.json: not a sweep report, Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["cache", "report"],
)
def test_malformed_input_exits_1_naming_the_file(tmp_cwd, capsys, command, message):
    header = b"HARW1" + struct.pack("<I", 1) + struct.pack("<qIQ", 101, 17, 3)
    (tmp_cwd / "bad.bin").write_bytes(header + bytes(8 * 3) + bytes(8 * 17 * 3))
    (tmp_cwd / "bad.json").write_text("not json\n")
    assert cli(command) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: {message}\n" in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "command", [["sweep", "--windows", "0.5", "--folds", "4", "--per-fold-stats"], ["train", "--window", "0.5"]]
)
def test_non_finite_cache_exits_1_naming_the_file_not_divergence(tmp_cwd, capsys, command, value):
    """A NaN or infinite sample is refused as the cache loads; it is not
    trained on until it surfaces as divergence."""
    sig = generate_synthetic(42, 3, 600)
    sig.channels[3, 100] = value
    save_signals([sig], "bad.bin")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the statistics either
        rc = cli([*command, "--cache", "bad.bin", "--max-epochs", "2"])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: bad.bin: non-finite sample in dataset cache\n" in out.err
    assert "diverged" not in out.err


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the caller's stack keeps a call's arguments alive")
@pytest.mark.parametrize("command", [["sweep", "--windows", "0.5", "--folds", "2"], ["train", "--window", "0.5"]])
@pytest.mark.parametrize("subjects", [[], ["--subjects", "102"]])
def test_loaded_signals_are_freed_before_the_first_cell(monkeypatch, command, subjects):
    """sweep and train hand the loaded signals to the library as a
    temporary, and it drops them once the kept signal is built: every
    loaded channels array is gone before the first cell runs, so a sweep
    holds one copy of its data."""
    save_signals(
        [replace(generate_synthetic(seed, 2, 120), subject_id=subject) for seed, subject in ((1, 101), (2, 102))],
        "cache.bin",
    )
    loaded, alive = [], []

    def load_and_watch(path):
        signals = load_signals(path)
        loaded.extend(weakref.ref(sig.channels) for sig in signals)
        return signals

    run_cell = experiment.run_cell

    def watched_cell(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in loaded))
        return run_cell(*args, **kwargs)

    monkeypatch.setattr(dataset, "load_signals", load_and_watch)
    monkeypatch.setattr(experiment, "run_cell", watched_cell)
    assert cli([*command, "--cache", "cache.bin", *subjects, "--max-epochs", "1"]) == 0
    assert len(loaded) == 2 and alive and alive[0] == 0, alive

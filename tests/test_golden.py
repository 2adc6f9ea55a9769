"""Golden values: the trained numbers of a small synthetic sweep and of two
single-model runs, pinned in ``golden_values.json``, and the sha256 of the
files those runs write, pinned per environment in ``golden_bytes.json``.

Accuracy and epochs compare exactly, losses at a relative tolerance of
1e-9, so a BLAS that sums in another order still passes while a changed
fold, split, initialization or training step fails. The window indices that
each cell trains, stops and tests on involve no floating-point sum, so they
are pinned exactly, by one sha256 per protocol setting. So are the batch
order and the dropout masks of the 0.5 s run, by one sha256 each.

The output bytes (each sweep's ``report.csv`` and ``report.json``, each
run's checkpoint and ``--metrics-json`` document) depend on how the BLAS
sums, so their digests are recorded per environment: the numpy version, the
BLAS build, core and thread count, and the machine. The thread count reads
1 wherever harwin could pin the BLAS. On an environment with no record the
bytes test skips and names its key.

Each run is made once per session and shared by the tests that read it.
Both files are regenerated only by hand: ``PYTHONPATH=src python
tests/test_golden.py`` rewrites ``golden_values.json``, and with ``--bytes``
it adds this environment's digests to ``golden_bytes.json``. A change that
regenerates either says why in CHANGES.md.
"""

import ctypes
import functools
import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from harwin import experiment, model
from harwin.dataset import generate_synthetic
from harwin.experiment import prepare, run_cell, run_sweep
from harwin.layers import openblas_function
from harwin.model import TrainConfig, save_model
from harwin.report import render_all, save_report

GOLDEN = Path(__file__).with_name("golden_values.json")
GOLDEN_BYTES = Path(__file__).with_name("golden_bytes.json")
WINDOWS = [0.1, 0.5]
FOLDS = 4
CFG = TrainConfig(max_epochs=4, patience=3)
SETTINGS = {
    "default": {},
    "honest_split": {"honest_split": True},
    "per_fold_stats": {"per_fold_stats": True},
    "both": {"honest_split": True, "per_fold_stats": True},
}


def _signals(segment_len: int = 300):
    return [generate_synthetic(42, 3, segment_len)]


@functools.cache
def _sweep(setting: str):
    """The per-fold results of one sweep and a digest of every cell's fit,
    stop and test indices, in the order the cells ran, and the report."""
    digest = hashlib.sha256()
    real_train, real_evaluate = experiment.train, experiment.evaluate

    def train(model, x, y, fit_idx, stop_idx, cfg, stats):
        digest.update(fit_idx.astype("<i8").tobytes() + b"|" + stop_idx.astype("<i8").tobytes() + b"|")
        return real_train(model, x, y, fit_idx, stop_idx, cfg, stats)

    def evaluate(model, x, y, idx, stats):  # run_cell's test-fold pass only
        digest.update(idx.astype("<i8").tobytes() + b";")
        return real_evaluate(model, x, y, idx, stats)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(experiment, "train", train)
        monkeypatch.setattr(experiment, "evaluate", evaluate)
        report = run_sweep(_signals(), WINDOWS, CFG, folds=FOLDS, **SETTINGS[setting])
    rows = {
        f"{row.window_sec:g}": [[f.accuracy, f.loss, f.epochs_to_best] for f in row.folds] for row in report.rows
    }
    return {"rows": rows, "index_sha256": digest.hexdigest()}, report


@functools.cache
def _train_05():
    """The 0.5 s run's model and result, with one sha256 over the window
    indices of every batch that ``gather`` receives, in call order, and one
    over every dropout mask that ``dropout`` returns."""
    batches, masks = hashlib.sha256(), hashlib.sha256()
    real_gather, real_dropout = model.gather, model.dropout

    def gather(x, idx, stats):
        batches.update(idx.astype("<i8").tobytes() + b";")
        return real_gather(x, idx, stats)

    def dropout(x, rate, training, rng=None):
        out, mask = real_dropout(x, rate, training, rng)
        if mask is not None:
            masks.update(repr(mask.shape).encode() + mask.astype("<f8").tobytes())
        return out, mask

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(model, "gather", gather)
        monkeypatch.setattr(model, "dropout", dropout)
        net, result = run_cell(prepare(_signals()), 0.5, 0, 5, CFG)
    return {"gather_sha256": batches.hexdigest(), "dropout_sha256": masks.hexdigest()}, net, result


@functools.cache
def _train_4s():
    """A 4 s run, on segments long enough to hold several 4 s windows: its
    batches make forward calls of several tiles, shared among threads."""
    return run_cell(prepare(_signals(1200)), 4.0, 0, 5, CFG)


@functools.cache
def _train_01():
    """A 0.1 s run whose test fold, 1,190 windows, spans three evaluation
    chunks, so the order their losses are added in shows in its bytes."""
    return run_cell(prepare(_signals(800)), 0.1, 0, 5, CFG)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("setting", SETTINGS)
def test_sweep_matches_golden_values(setting):
    want = _golden()["sweeps"][setting]
    got = _sweep(setting)[0]
    assert got["index_sha256"] == want["index_sha256"]
    assert got["rows"].keys() == want["rows"].keys()
    for window, folds in want["rows"].items():
        assert len(got["rows"][window]) == len(folds)
        for (acc, loss, epochs), (want_acc, want_loss, want_epochs) in zip(got["rows"][window], folds):
            assert (acc, epochs) == (want_acc, want_epochs)
            assert loss == pytest.approx(want_loss, rel=1e-9)


def _assert_same_history(got: list[dict], want: list[dict]) -> None:
    assert len(got) == len(want)
    for epoch, want_epoch in zip(got, want):
        assert epoch.keys() == want_epoch.keys()
        for key, value in want_epoch.items():
            assert epoch[key] == pytest.approx(value, rel=1e-9)


def _history(result) -> list[dict]:
    return [asdict(e) for e in result.history]


def test_train_history_matches_golden_values():
    _assert_same_history(_history(_train_05()[2]), _golden()["train_history_0.5"])


def test_train_batches_and_dropout_masks_match_golden_digests():
    assert _train_05()[0] == _golden()["train_digests_0.5"]


def test_train_4s_matches_golden_values():
    want = _golden()["train_4"]
    _, got = _train_4s()
    assert got.accuracy == want["accuracy"]
    assert got.loss == pytest.approx(want["loss"], rel=1e-9)
    _assert_same_history(_history(got), want["history"])


def _openblas(name: str, restype):
    """``openblas_<name>()`` of the OpenBLAS that numpy bundles, bytes
    decoded; None when there is no such library or function."""
    fn = openblas_function(name, restype)
    result = None if fn is None else fn()
    return result.decode() if isinstance(result, bytes) else result


def environment_key() -> str:
    """What the output bytes may depend on besides the code: the numpy
    version, the BLAS build and the core, configuration and thread count it
    runs with, and the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return " | ".join(
        [
            f"numpy {np.__version__}",
            f"{blas.get('name')} {blas.get('version')}",
            f"core {_openblas('get_corename', ctypes.c_char_p)}",
            f"config {_openblas('get_config', ctypes.c_char_p)}",
            f"threads {_openblas('get_num_threads', ctypes.c_int)}",
            platform.machine(),
        ]
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _output_digests(out: Path) -> dict[str, str]:
    """The sha256 of every file the golden runs write: each sweep's
    ``report.csv`` and ``report.json``, as ``harwin sweep`` writes them, and
    each single-model run's checkpoint and metrics document, as ``harwin
    train --model-out --metrics-json`` writes them."""
    digests = {}
    for setting in SETTINGS:
        report = _sweep(setting)[1]
        save_report(report, out / "report.json")
        render_all(report, out)
        for name in ("report.csv", "report.json"):
            digests[f"sweep {setting} {name}"] = _sha256(out / name)
    for window, (net, result) in ((0.1, _train_01()), (0.5, _train_05()[1:]), (4.0, _train_4s())):
        save_model(net, out / "model.bin")
        doc = dict(window_sec=window, **asdict(result))
        del doc["fold"]
        (out / "metrics.json").write_text(json.dumps(doc, indent=2) + "\n")
        for name in ("model.bin", "metrics.json"):
            digests[f"train {window:g} s {name}"] = _sha256(out / name)
    return digests


def test_output_bytes_match_golden_digests(tmp_path):
    key = environment_key()
    recorded = json.loads(GOLDEN_BYTES.read_text())
    if key not in recorded:
        pytest.skip(f"no golden bytes recorded for environment: {key}")
    assert _output_digests(tmp_path) == recorded[key]


def regenerate() -> None:
    """Rewrite golden_values.json from the code as it stands."""
    sweeps = {setting: _sweep(setting)[0] for setting in SETTINGS}
    digests, _, result = _train_05()
    _, result_4 = _train_4s()
    train_4 = {"accuracy": result_4.accuracy, "loss": result_4.loss, "history": _history(result_4)}
    doc = {"sweeps": sweeps, "train_history_0.5": _history(result), "train_digests_0.5": digests, "train_4": train_4}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def record_bytes() -> None:
    """Add this environment's output digests to golden_bytes.json."""
    recorded = json.loads(GOLDEN_BYTES.read_text()) if GOLDEN_BYTES.exists() else {}
    with tempfile.TemporaryDirectory() as out:
        recorded[environment_key()] = _output_digests(Path(out))
    GOLDEN_BYTES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record_bytes() if sys.argv[1:] == ["--bytes"] else regenerate()

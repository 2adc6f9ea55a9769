"""Golden values: the trained numbers of a small synthetic sweep and of two
single-model runs, pinned in ``golden_values.json``.

Accuracy and epochs compare exactly, losses at a relative tolerance of
1e-9, so a BLAS that sums in another order still passes while a changed
fold, split, initialization or training step fails. The window indices that
each cell trains, stops and tests on involve no floating-point sum, so they
are pinned exactly, by one sha256 per protocol setting. So are the batch
order and the dropout masks of the 0.5 s run, by one sha256 each.

The file is regenerated only by hand, with ``PYTHONPATH=src python
tests/test_golden.py``; a change that regenerates it says why in CHANGES.md.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from harwin import experiment, model
from harwin.dataset import generate_synthetic
from harwin.experiment import prepare, run_cell, run_sweep
from harwin.model import TrainConfig

GOLDEN = Path(__file__).with_name("golden_values.json")
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


def _sweep(monkeypatch, setting: str) -> dict:
    """The per-fold results of one sweep and a digest of every cell's fit,
    stop and test indices, in the order the cells ran."""
    digest = hashlib.sha256()
    real_train, real_evaluate = experiment.train, experiment.evaluate

    def train(model, x, y, fit_idx, stop_idx, cfg, stats):
        digest.update(fit_idx.astype("<i8").tobytes() + b"|" + stop_idx.astype("<i8").tobytes() + b"|")
        return real_train(model, x, y, fit_idx, stop_idx, cfg, stats)

    def evaluate(model, x, y, idx, stats):  # run_cell's test-fold pass only
        digest.update(idx.astype("<i8").tobytes() + b";")
        return real_evaluate(model, x, y, idx, stats)

    monkeypatch.setattr(experiment, "train", train)
    monkeypatch.setattr(experiment, "evaluate", evaluate)
    report = run_sweep(_signals(), WINDOWS, CFG, folds=FOLDS, **SETTINGS[setting])
    rows = {
        f"{row.window_sec:g}": [[f.accuracy, f.loss, f.epochs_to_best] for f in row.folds] for row in report.rows
    }
    return {"rows": rows, "index_sha256": digest.hexdigest()}


def _train_history() -> list[dict]:
    _, result = run_cell(prepare(_signals()), 0.5, 0, 5, CFG)
    return [asdict(e) for e in result.history]


def _train_digests(monkeypatch) -> dict:
    """One sha256 over the window indices of every batch that ``gather``
    receives in the 0.5 s run, in call order, and one over every dropout
    mask that ``dropout`` returns."""
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

    monkeypatch.setattr(model, "gather", gather)
    monkeypatch.setattr(model, "dropout", dropout)
    run_cell(prepare(_signals()), 0.5, 0, 5, CFG)
    return {"gather_sha256": batches.hexdigest(), "dropout_sha256": masks.hexdigest()}


def _train_4s() -> dict:
    """A 4 s run, on segments long enough to hold several 4 s windows: its
    batches make forward calls of several tiles, shared among threads."""
    _, result = run_cell(prepare(_signals(1200)), 4.0, 0, 5, CFG)
    return {"accuracy": result.accuracy, "loss": result.loss, "history": [asdict(e) for e in result.history]}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("setting", SETTINGS)
def test_sweep_matches_golden_values(monkeypatch, setting):
    want = _golden()["sweeps"][setting]
    got = _sweep(monkeypatch, setting)
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


def test_train_history_matches_golden_values():
    _assert_same_history(_train_history(), _golden()["train_history_0.5"])


def test_train_batches_and_dropout_masks_match_golden_digests(monkeypatch):
    assert _train_digests(monkeypatch) == _golden()["train_digests_0.5"]


def test_train_4s_matches_golden_values():
    want = _golden()["train_4"]
    got = _train_4s()
    assert got["accuracy"] == want["accuracy"]
    assert got["loss"] == pytest.approx(want["loss"], rel=1e-9)
    _assert_same_history(got["history"], want["history"])


def regenerate() -> None:
    """Rewrite golden_values.json from the code as it stands."""
    sweeps = {}
    for setting in SETTINGS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            sweeps[setting] = _sweep(monkeypatch, setting)
    with pytest.MonkeyPatch.context() as monkeypatch:
        digests = _train_digests(monkeypatch)
    doc = {"sweeps": sweeps, "train_history_0.5": _train_history(), "train_digests_0.5": digests, "train_4": _train_4s()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()

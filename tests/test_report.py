"""CSV formatting, SVG box plots and the JSON archive round-trip."""

import ast
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import harwin
from harwin.cli import cli
from harwin.experiment import FoldResult, SweepReport, SweepRow
from harwin.model import EpochStats
from harwin.report import (
    CSV_HEADER,
    _box_stats,
    format_report_csv,
    load_report,
    render_all,
    render_boxplot_svg,
    save_report,
)


def _report(rows):
    return SweepReport(rows=rows, seed=42, dataset_fingerprint="sha256:feed", config={"folds": 8})


def _row(window_sec=0.5, k=(7, 11), folds=None, **kw):
    return SweepRow(window_sec=window_sec, k1=k[0], k2=k[1], folds=folds or [], **kw)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_header_is_frozen():
    assert CSV_HEADER == "window_sec,k1,k2,acc_mean,acc_std,loss_mean,loss_std,epochs_mean,epochs_std"


def test_csv_row_formatting():
    folds = [
        FoldResult(0, accuracy=0.999, loss=0.002, epochs_to_best=100),
        FoldResult(1, accuracy=1.0, loss=0.004, epochs_to_best=600),
    ]
    text = format_report_csv(_report([_row(folds=folds)]))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    # acc: mean 99.95%, sample std 0.0707% -> 0.07 at 2 dp
    assert lines[1] == "0.5,7,11,99.95,0.07,0.003,0.001,350.0,353.6"
    assert text.endswith("\n")
    assert "\r" not in text


def test_csv_failed_row_uses_na():
    text = format_report_csv(_report([_row(0.03, (3, 5), failed=True, reason="nope")]))
    assert text.splitlines()[1] == "0.03,3,5,NA,NA,NA,NA,NA,NA"


def test_csv_window_column_drops_trailing_zeros():
    folds = [FoldResult(0, 0.5, 1.0, 10), FoldResult(1, 0.5, 1.0, 10)]
    text = format_report_csv(
        _report([_row(1.0, folds=folds), _row(0.25, (3, 5), folds=folds)])
    )
    assert text.splitlines()[1].startswith("1,")
    assert text.splitlines()[2].startswith("0.25,")


# ---------------------------------------------------------------------------
# box stats / SVG
# ---------------------------------------------------------------------------


def test_box_stats_octave_example():
    # 1..8 with linear interpolation: Q1 2.75, median 4.5, Q3 6.25
    lo, q1, med, q3, hi = _box_stats(list(map(float, range(1, 9))))
    assert (lo, hi) == (1.0, 8.0)
    assert q1 == pytest.approx(2.75)
    assert med == pytest.approx(4.5)
    assert q3 == pytest.approx(6.25)


def test_box_stats_matches_numpy_percentile():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=11).tolist()
    _, q1, med, q3, _ = _box_stats(vals)
    assert [q1, med, q3] == pytest.approx(np.percentile(vals, [25, 50, 75]).tolist())


def test_svg_is_well_formed_with_one_box_per_group():
    groups = [(0.1, [1.0, 2.0, 3.0]), (0.5, [2.0, 2.5, 4.0]), (1.0, [0.5, 1.5])]
    svg = render_boxplot_svg(groups, "accuracy (%)")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    # background + frame + one box per group
    assert len(rects) == 2 + len(groups)
    texts = [e.text for e in root.iter() if e.tag.endswith("text")]
    assert "accuracy (%)" in texts
    assert "window (s)" in texts
    assert "0.1" in texts and "0.5" in texts and "1" in texts


def test_svg_escapes_markup_in_its_labels():
    svg = render_boxplot_svg([(0.5, [1.0, 2.0])], "loss & <a>")
    assert "loss &amp; &lt;a&gt;</text>" in svg
    texts = [e.text for e in ET.fromstring(svg).iter() if e.tag.endswith("text")]
    assert "loss & <a>" in texts


def test_import_loads_no_network_modules():
    """Importing harwin pulls in no URL, HTTP or mail machinery; xml.sax's
    escape would bring in urllib.request, http.client and email."""
    env = dict(os.environ)
    package_root = str(Path(harwin.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = "import sys, harwin; print(sorted({'urllib.request', 'http.client', 'email'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_package_imports_only_the_standard_library_and_numpy():
    """harwin is numpy-only: every absolute import in its modules names a
    standard-library module or numpy; relative imports are its own."""
    paths = sorted(Path(harwin.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.split(".")[0] for name in names} - sys.stdlib_module_names - {"numpy"}
            foreign += [f"{path.name}:{node.lineno} {name}" for name in sorted(top)]
    assert foreign == []


def test_svg_handles_degenerate_equal_values():
    svg = render_boxplot_svg([(0.5, [2.0, 2.0, 2.0])], "loss")
    ET.fromstring(svg)  # parses
    assert "NaN" not in svg and "inf" not in svg


def test_svg_rejects_undersized_groups():
    with pytest.raises(ValueError, match="no groups"):
        render_boxplot_svg([], "x")
    with pytest.raises(ValueError, match=">= 2"):
        render_boxplot_svg([(0.5, [1.0])], "x")


def test_svg_is_deterministic():
    groups = [(0.1, [1.0, 5.0, 2.0]), (0.25, [4.0, 3.0])]
    assert render_boxplot_svg(groups, "m") == render_boxplot_svg(groups, "m")


# ---------------------------------------------------------------------------
# render_all / JSON archive
# ---------------------------------------------------------------------------


def _two_row_report():
    folds_a = [FoldResult(i, 0.7 + 0.02 * i, 0.5 - 0.01 * i, 10 + i) for i in range(4)]
    folds_b = [FoldResult(i, 0.9 + 0.01 * i, 0.2 - 0.01 * i, 30 + i) for i in range(4)]
    return _report([_row(0.1, (3, 5), folds_a), _row(0.5, (7, 11), folds_b)])


def test_render_all_writes_csv_and_plots(tmp_path):
    written = render_all(_two_row_report(), tmp_path)
    names = sorted(p.name for p in written)
    assert names == [
        "accuracy_boxplot.svg",
        "epochs_boxplot.svg",
        "loss_boxplot.svg",
        "report.csv",
    ]
    for p in written:
        assert p.exists() and p.stat().st_size > 0


def test_render_all_with_only_failed_rows_writes_csv_only(tmp_path):
    rep = _report([_row(0.03, (3, 5), failed=True, reason="won't fit")])
    written = render_all(rep, tmp_path)
    assert [p.name for p in written] == ["report.csv"]


def test_json_round_trip_preserves_everything(tmp_path):
    rep = _two_row_report()
    rep.rows.append(_row(0.03, (3, 5), failed=True, reason="too short"))
    path = tmp_path / "report.json"
    save_report(rep, path)
    back = load_report(path)
    assert back.seed == rep.seed
    assert back.dataset_fingerprint == rep.dataset_fingerprint
    assert back.config == rep.config
    assert len(back.rows) == 3
    for orig, got in zip(rep.rows, back.rows):
        assert got.window_sec == orig.window_sec
        assert (got.k1, got.k2, got.failed, got.reason) == (orig.k1, orig.k2, orig.failed, orig.reason)
        for fo, fg in zip(orig.folds, got.folds):
            # floats survive exactly thanks to round-tripping repr
            assert fg.accuracy == fo.accuracy
            assert fg.loss == fo.loss
            assert fg.epochs_to_best == fo.epochs_to_best


def test_load_report_rejects_malformed_reports_naming_the_file(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"seed": 1}))
    with pytest.raises(ValueError, match=r"bare\.json.*missing key 'rows'"):
        load_report(bare)
    save_report(_two_row_report(), tmp_path / "full.json")
    doc = json.loads((tmp_path / "full.json").read_text())
    del doc["rows"][0]["folds"][0]["loss"]
    holed = tmp_path / "holed.json"
    holed.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"holed\.json.*missing key 'loss'"):
        load_report(holed)
    holed.write_text(json.dumps({**doc, "rows": [1]}))
    with pytest.raises(ValueError, match=r"holed\.json: not a sweep report"):
        load_report(holed)
    holed.write_text("")
    with pytest.raises(ValueError, match=r"holed\.json: not a sweep report, Expecting value"):
        load_report(holed)
    assert cli(["report", "--report", str(bare), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing key 'rows'" in err and "Traceback" not in err


def _refusal(tmp_path, capsys, edit):
    """What `harwin report` says is wrong with the two-row archive once
    ``edit`` has changed its JSON document, after checking that it exits 1,
    names the file and writes nothing."""
    path = tmp_path / "report.json"
    save_report(_two_row_report(), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert cli(["report", "--report", str(path), "--out-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out_dir.exists()
    prefix = f"error: {path}: not a sweep report, "
    assert captured.err.startswith(prefix) and captured.err.endswith("\n")
    return captured.err[len(prefix) : -1]


@pytest.mark.parametrize(
    "where, key, value, message",
    [
        (("rows", 0, "folds", 1), "accuracy", None, "float, not null"),
        (("rows", 1), "window_sec", "0.1", 'float, not "0.1"'),
        (("rows", 0, "folds", 0), "accuracy", float("nan"), "float, not NaN"),
        (("rows", 0, "folds", 0), "loss", True, "float, not true"),
        (("rows", 0, "folds", 0), "epochs_to_best", 10.5, "int, not 10.5"),
        (("rows", 0, "folds", 0), "epochs_to_best", 10**400, "int, not 1" + "0" * 400),
        (("rows", 0), "k1", False, "int, not false"),
        (("rows", 0), "failed", 0, "bool, not 0"),
        (("rows", 0), "reason", 1, "str | None, not 1"),
        ((), "seed", "42", 'int, not "42"'),
        ((), "dataset_fingerprint", None, "str, not null"),
        ((), "config", [], "dict, not []"),
    ],
    ids=[
        "accuracy-null", "window-string", "accuracy-nan", "loss-bool", "epochs-fraction", "epochs-huge",
        "k1-bool", "failed-int", "reason-int", "seed-string", "fingerprint-null", "config-list",
    ],
)
def test_report_rejects_a_value_its_field_cannot_hold(tmp_path, capsys, where, key, value, message):
    """`harwin report` on an archive with one bad value exits 1 naming the
    file and the key, and writes nothing."""

    def edit(doc):
        for step in where:
            doc = doc[step]
        doc[key] = value

    assert _refusal(tmp_path, capsys, edit) == f"key {key!r} must hold {message}"


_RAN = "ran, so it needs a null reason and folds 0, 1, ... (at least 2)"
_FAILED = "failed, so it needs a reason and no folds"


@pytest.mark.parametrize(
    "row, edit, message",
    [
        (0, lambda r: r.update(folds=[]), _RAN),
        (0, lambda r: r.update(folds=r["folds"][:1]), _RAN),
        (0, lambda r: r["folds"].reverse(), _RAN),
        (0, lambda r: r["folds"].pop(1), _RAN),
        (0, lambda r: r.update(reason="too short"), _RAN),
        (1, lambda r: r.update(failed=True), _FAILED),
        (1, lambda r: r.update(failed=True, reason="too short"), _FAILED),
        (1, lambda r: r.update(failed=True, folds=[]), _FAILED),
    ],
    ids=[
        "ran-without-folds", "ran-with-one-fold", "folds-out-of-order", "fold-missing", "ran-with-a-reason",
        "failed-with-folds", "failed-with-folds-and-reason", "failed-without-reason",
    ],
)
def test_report_rejects_a_row_no_sweep_writes(tmp_path, capsys, row, edit, message):
    """A failed row needs a reason and no folds; a row that ran needs a null
    reason and at least two folds, numbered from 0 in order. Anything else
    makes `harwin report` exit 1 naming the file and the row, writing
    nothing."""
    window = _two_row_report().rows[row].window_sec
    assert _refusal(tmp_path, capsys, lambda doc: edit(doc["rows"][row])) == f"row {window:g} {message}"


def test_json_save_is_byte_stable(tmp_path):
    rep = _two_row_report()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_report(rep, p1)
    save_report(load_report(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


PINNED_ARCHIVE = """{
  "config": {
    "batch_size": 128,
    "folds": 2,
    "honest_split": false,
    "learning_rate": 0.001,
    "max_epochs": 3,
    "patience": 3,
    "per_fold_stats": true
  },
  "dataset_fingerprint": "sha256:feed",
  "rows": [
    {
      "failed": false,
      "folds": [
        {
          "accuracy": 0.5,
          "epochs_to_best": 1,
          "fold": 0,
          "loss": 1.25
        },
        {
          "accuracy": 0.75,
          "epochs_to_best": 2,
          "fold": 1,
          "loss": 0.625
        }
      ],
      "k1": 3,
      "k2": 5,
      "reason": null,
      "window_sec": 0.25
    },
    {
      "failed": true,
      "folds": [],
      "k1": 7,
      "k2": 11,
      "reason": "no samples to fold",
      "window_sec": 4.0
    }
  ],
  "seed": 7
}
"""


def test_save_report_writes_the_pinned_archive_text(tmp_path):
    # history is left out; keys are sorted at every level
    config = {
        "batch_size": 128, "folds": 2, "honest_split": False, "learning_rate": 0.001,
        "max_epochs": 3, "patience": 3, "per_fold_stats": True,
    }
    folds = [
        FoldResult(0, 0.5, 1.25, 1, [EpochStats(2.0, 1.25)]),
        FoldResult(1, 0.75, 0.625, 2, [EpochStats(1.5, 1.0), EpochStats(1.0, 0.625)]),
    ]
    rows = [_row(0.25, (3, 5), folds), _row(4.0, (7, 11), failed=True, reason="no samples to fold")]
    path = tmp_path / "report.json"
    save_report(SweepReport(rows=rows, seed=7, dataset_fingerprint="sha256:feed", config=config), path)
    assert path.read_text() == PINNED_ARCHIVE


def test_regenerated_outputs_are_byte_identical(tmp_path):
    rep = _two_row_report()
    d1, d2 = tmp_path / "one", tmp_path / "two"
    render_all(rep, d1)
    save_report(rep, tmp_path / "r.json")
    render_all(load_report(tmp_path / "r.json"), d2)
    for name in ("report.csv", "accuracy_boxplot.svg", "loss_boxplot.svg", "epochs_boxplot.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

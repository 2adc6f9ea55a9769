"""Sweep outputs: summary CSV, per-duration box plots (SVG), JSON archive.

Every writer here is a pure function of the report object — no timestamps,
no environment — so rerunning a seeded sweep regenerates byte-identical
files.
"""

from __future__ import annotations

import html
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .dataset import write_atomic
from .experiment import FoldResult, SweepReport, SweepRow

CSV_HEADER = "window_sec,k1,k2,acc_mean,acc_std,loss_mean,loss_std,epochs_mean,epochs_std"


def _format_row(row: SweepRow) -> str:
    head = f"{row.window_sec:g},{row.k1},{row.k2}"
    if row.failed:
        return head + ",NA,NA,NA,NA,NA,NA"
    acc, acc_std = row.mean_std("accuracy")
    loss, loss_std = row.mean_std("loss")
    epochs, epochs_std = row.mean_std("epochs_to_best")
    return head + (
        f",{acc * 100:.2f},{acc_std * 100:.2f}"
        f",{loss:.3f},{loss_std:.3f}"
        f",{epochs:.1f},{epochs_std:.1f}"
    )


def format_report_csv(report: SweepReport) -> str:
    """Accuracy in percent (2 dp), loss to 3 dp, epochs to 1 dp; failed
    durations keep their geometry columns and carry NA elsewhere."""
    lines = [CSV_HEADER]
    lines.extend(_format_row(row) for row in report.rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Box plots
# ---------------------------------------------------------------------------

_W, _H = 640, 360
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 20, 24, 52
_BOX_W = 34


def _escape(text: str) -> str:
    """``text`` as SVG character data: &, < and > escaped, & first."""
    return html.escape(text, quote=False)


def _box_stats(values: list[float]) -> tuple[float, float, float, float, float]:
    """(lo, q1, median, q3, hi): linearly interpolated quartiles, whiskers at
    the extremes."""
    arr = np.asarray(values, dtype=np.float64)
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return float(arr.min()), float(q1), float(med), float(q3), float(arr.max())


def render_boxplot_svg(groups: list[tuple[float, list[float]]], metric: str) -> str:
    """One box-and-whisker per (window duration, values) group.

    Groups are drawn in the given order along x. Each group needs at least
    two values (a box of one point has no spread to show).
    """
    if not groups:
        raise ValueError("no groups to plot")
    for label, values in groups:
        if len(values) < 2:
            raise ValueError(f"group {label:g} has {len(values)} value(s); need >= 2")

    stats = [(label, _box_stats(values)) for label, values in groups]
    lo = min(s[1][0] for s in stats)
    hi = max(s[1][4] for s in stats)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_w = _W - _LEFT - _RIGHT
    plot_h = _H - _TOP - _BOTTOM

    def ty(v: float) -> float:
        return _TOP + plot_h * (hi - v) / (hi - lo)

    def fmt(v: float) -> str:
        return f"{v:.2f}".rstrip("0").rstrip(".")

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]
    for tick in np.linspace(lo, hi, 5):
        y = ty(float(tick))
        out.append(
            f'<line x1="{_LEFT - 4}" y1="{fmt(y)}" x2="{_LEFT}" y2="{fmt(y)}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{_LEFT - 8}" y="{fmt(y + 4)}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_escape(f"{tick:.3g}")}</text>'
        )
    slot = plot_w / len(stats)
    for i, (label, (w_lo, q1, med, q3, w_hi)) in enumerate(stats):
        cx = _LEFT + (i + 0.5) * slot
        x0, x1 = cx - _BOX_W / 2, cx + _BOX_W / 2
        out.append(
            f'<line x1="{fmt(cx)}" y1="{fmt(ty(w_lo))}" x2="{fmt(cx)}" '
            f'y2="{fmt(ty(w_hi))}" stroke="#333"/>'
        )
        for w in (w_lo, w_hi):
            out.append(
                f'<line x1="{fmt(cx - 10)}" y1="{fmt(ty(w))}" x2="{fmt(cx + 10)}" '
                f'y2="{fmt(ty(w))}" stroke="#333"/>'
            )
        out.append(
            f'<rect x="{fmt(x0)}" y="{fmt(ty(q3))}" width="{_BOX_W}" '
            f'height="{fmt(max(ty(q1) - ty(q3), 0.5))}" fill="#9ecae1" stroke="#333"/>'
        )
        out.append(
            f'<line x1="{fmt(x0)}" y1="{fmt(ty(med))}" x2="{fmt(x1)}" '
            f'y2="{fmt(ty(med))}" stroke="#08306b" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{fmt(cx)}" y="{_H - _BOTTOM + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{_escape(f"{label:g}")}</text>'
        )
    out.append(
        f'<text x="{_LEFT + plot_w / 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">window (s)</text>'
    )
    out.append(
        f'<text x="16" y="{_TOP + plot_h / 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_TOP + plot_h / 2})">'
        f"{_escape(metric)}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_all(report: SweepReport, out_dir: str | Path) -> list[Path]:
    """Write report.csv plus accuracy/loss/epoch box plots; returns the paths.

    Failed durations appear in the CSV only; plots cover the rows that ran.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "report.csv"]
    write_atomic(written[0], [format_report_csv(report).encode()])
    rows = [r for r in report.rows if not r.failed]
    if rows:
        panels = [
            ("accuracy_boxplot.svg", "accuracy (%)", lambda f: f.accuracy * 100.0),
            ("loss_boxplot.svg", "cross-entropy loss", lambda f: f.loss),
            ("epochs_boxplot.svg", "epochs to best", lambda f: float(f.epochs_to_best)),
        ]
        for name, metric, pick in panels:
            groups = [(r.window_sec, [pick(f) for f in r.folds]) for r in rows]
            path = out / name
            write_atomic(path, [render_boxplot_svg(groups, metric).encode()])
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# JSON archive
# ---------------------------------------------------------------------------


def _archived(pairs: list[tuple[str, object]]) -> dict:
    """``asdict`` factory for report.json: every field but the per-epoch
    ``history``, which only ``train --metrics-json`` writes."""
    return {name: value for name, value in pairs if name != "history"}


def _fits(value: object, hint: type) -> bool:
    """Whether a JSON value fits a field of type ``hint``: a number is never
    a bool and is finite as a float, and an int will do for a float."""
    if hint in (int, float):
        return type(value) in (int, hint) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _record(cls: type, doc: dict, **nested):
    """A ``cls`` from its archived fields in ``doc``, each checked against
    the field's type, with ``nested`` in place of its list of records."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name not in nested and f.name != "history" and not _fits(doc[f.name], hints[f.name]):
            raise ValueError(f"key {f.name!r} must hold {f.type}, not {json.dumps(doc[f.name])}")
    return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name != "history"} | nested)


def _check_row(row: SweepRow) -> SweepRow:
    """``row`` if a sweep could have written it (``assemble``): a failed row
    has a reason and no folds, a row that ran has no reason and folds 0, 1,
    ... in order, at least two of them."""
    if row.failed:
        if row.reason is None or row.folds:
            raise ValueError(f"row {row.window_sec:g} failed, so it needs a reason and no folds")
    elif row.reason is not None or len(row.folds) < 2 or [f.fold for f in row.folds] != list(range(len(row.folds))):
        raise ValueError(f"row {row.window_sec:g} ran, so it needs a null reason and folds 0, 1, ... (at least 2)")
    return row


def save_report(report: SweepReport, path: str | Path) -> None:
    """Write the report's dataclass fields as JSON, keys sorted."""
    doc = asdict(report, dict_factory=_archived)
    write_atomic(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])


def load_report(path: str | Path) -> SweepReport:
    """Read a report.json written by ``save_report``; a file that is not
    JSON, a missing key, a list or object out of place, a value its field
    cannot hold or a row no sweep writes (``_check_row``) is a ValueError
    naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
        rows = [
            _check_row(_record(SweepRow, row, folds=[_record(FoldResult, f) for f in row["folds"]]))
            for row in doc["rows"]
        ]
        return _record(SweepReport, doc, rows=rows)
    except KeyError as err:
        raise ValueError(f"{path}: not a sweep report, missing key {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:  # not JSON, or e.g. a list where an object belongs
        raise ValueError(f"{path}: not a sweep report, {err}") from None

"""Command-line front end.

Subcommands: ``ingest`` (protocol files -> dataset cache), ``synth``
(seeded synthetic cache), ``train`` (single model), ``sweep``
(cross-validated window-duration sweep) and ``report`` (regenerate CSV/SVG
from an archived sweep). Exit codes: 0 success, 1 missing data or a runtime
failure, 2 bad usage. Diagnostics go to stderr; stdout carries results only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import dataset, experiment, report
from .model import ModelSpec, TrainConfig, plan_shapes, save_model
from .preprocess import WindowSpec

ENV_DATA_DIR = "HARWIN_DATA_DIR"
DEFAULT_OUT_DIR = "sweep_out"


class UsageError(Exception):
    """Bad arguments detected after argparse (exit code 2)."""


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_list(text: str, flag: str, convert: type) -> list:
    """Comma-separated values of one type; empty entries are skipped."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(convert(tok))
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise UsageError(f"{flag}: {tok!r} is not {kind}") from None
    if not out:
        raise UsageError(f"{flag}: no values given")
    return out


def _check(check, values: list, flag: str) -> None:
    """Run a library check on a flag's values; its ValueError is bad usage."""
    try:
        check(values)
    except ValueError as err:
        raise UsageError(f"{flag}: {err}") from None


def _load_signals(args: argparse.Namespace) -> list[dataset.LabeledSignal]:
    """Cache file wins; otherwise a data directory (flag or environment).
    ``--subjects`` picks subjects from either, in the order listed."""
    subjects = None
    if args.subjects:
        subjects = _parse_list(args.subjects, "--subjects", int)
        _check(dataset.check_subjects, subjects, "--subjects")
    if getattr(args, "cache", None):
        _progress(f"loading cache {args.cache}")
        signals = dataset.load_signals(args.cache)
        for s in subjects or ():
            if all(sig.subject_id != s for sig in signals):
                raise ValueError(f"{args.cache}: subject {s} is not in the dataset cache")
        return signals if subjects is None else [sig for s in subjects for sig in signals if sig.subject_id == s]
    data_dir = args.data_dir or os.environ.get(ENV_DATA_DIR)
    if not data_dir:
        flags = "--cache or --data-dir" if "cache" in args else "--data-dir"
        raise FileNotFoundError(f"no input: pass {flags} (or set {ENV_DATA_DIR})")
    _progress(f"ingesting protocol files from {data_dir}")
    return dataset.ingest_directory(data_dir, subjects)


def _check_out_dirs(*outs: str | None) -> None:
    """Fail before any data is read when an output file's directory is missing."""
    for out in outs:
        if out and not Path(out).parent.is_dir():
            raise FileNotFoundError(f"cannot write {out}: {Path(out).parent} is not a directory")


def _train_config(args: argparse.Namespace) -> TrainConfig:
    """Built before any data is read, so a bad value fails fast as usage."""
    try:
        return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    except ValueError as err:
        raise UsageError(str(err)) from None


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field (--batch-size ... --seed), same defaults."""
    for f in fields(TrainConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache", help="dataset cache file produced by ingest/synth")
    p.add_argument("--data-dir", help=f"directory of subjectNNN.dat files (default ${ENV_DATA_DIR})")
    p.add_argument("--subjects", help="comma-separated subject numbers, e.g. 101,102")


def cmd_ingest(args: argparse.Namespace) -> int:
    _check_out_dirs(args.out)
    signals = _load_signals(args)
    dataset.save_signals(signals, args.out)
    total = sum(s.n_timesteps for s in signals)
    print(f"wrote {args.out}: {len(signals)} subject(s), {total} timesteps")
    print(f"fingerprint {dataset.dataset_fingerprint(signals)}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.samples_per_class < 1:
        raise UsageError("--samples-per-class must be >= 1")
    if args.segment_len < 2:
        raise UsageError("--segment-len must be >= 2")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    _check_out_dirs(args.out)
    sig = dataset.generate_synthetic(args.seed, args.samples_per_class, args.segment_len)
    dataset.save_signals([sig], args.out)
    print(f"wrote {args.out}: 1 signal, {sig.n_timesteps} timesteps")
    print(f"fingerprint {dataset.dataset_fingerprint([sig])}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    _check(experiment.check_windows, [args.window], "--window")
    kernels = None
    if args.kernels:
        pair = _parse_list(args.kernels, "--kernels", int)
        if len(pair) != 2:
            raise UsageError("--kernels needs exactly two sizes, e.g. 7,11")
        kernels = (pair[0], pair[1])
    try:  # the architecture must fit the window before any data is read
        spec = ModelSpec(kernels=kernels or experiment.select_kernels(args.window))
        plan_shapes(spec, WindowSpec(args.window).window_len)
    except ValueError as err:
        raise UsageError(str(err)) from None
    cfg = _train_config(args)
    _check_out_dirs(args.model_out, args.metrics_json)
    prepared = experiment.prepare(_load_signals(args))  # a temporary, freed when prepare returns
    _progress(f"training at window {args.window:g} s (seed {cfg.seed})")
    # the single-model protocol: fit four fifths, stop on and test fold 0 of a 5-fold plan
    model, result = experiment.run_cell(prepared, args.window, 0, 5, cfg, kernels=kernels)
    if args.model_out:
        save_model(model, args.model_out)
        _progress(f"saved model to {args.model_out}")
    if args.metrics_json:
        doc = dict(window_sec=args.window, **asdict(result))
        del doc["fold"]  # always 0
        dataset.write_atomic(args.metrics_json, [(json.dumps(doc, indent=2) + "\n").encode()])
    print(
        f"window {args.window:g} s: accuracy {result.accuracy * 100:.2f}% "
        f"loss {result.loss:.4f} best epoch {result.epochs_to_best}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.folds < 2:
        raise UsageError("--folds must be >= 2")
    windows = _parse_list(args.windows, "--windows", float)
    _check(experiment.check_windows, windows, "--windows")
    cfg = _train_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable one fails before any data is read

    def done(cell: experiment.Cell, outcome: experiment.FoldResult | str) -> None:
        w_sec, fold = cell
        result = f"failed, {outcome}" if isinstance(outcome, str) else f"accuracy {outcome.accuracy * 100:.2f}%"
        kernels = experiment.select_kernels(w_sec)
        _progress(f"window {w_sec:g} s: kernels {kernels}, fold {fold + 1}/{args.folds}: {result}")

    rep = experiment.run_sweep(
        _load_signals(args),  # a temporary, so run_sweep can free the loaded data
        windows,
        cfg,
        folds=args.folds,
        honest_split=args.honest_split,
        per_fold_stats=args.per_fold_stats,
        done=done,
    )
    report.save_report(rep, out_dir / "report.json")
    written = [out_dir / "report.json", *report.render_all(rep, out_dir)]
    _progress("wrote " + ", ".join(map(str, written)))
    sys.stdout.write(report.format_report_csv(rep))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rep = report.load_report(args.report)
    report.render_all(rep, args.out_dir)
    _progress(f"regenerated outputs in {args.out_dir}")
    sys.stdout.write(report.format_report_csv(rep))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harwin",
        description="Window-duration benchmarking for IMU activity recognition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse protocol files into a dataset cache")
    p.add_argument("--data-dir", help=f"directory of subjectNNN.dat files (default ${ENV_DATA_DIR})")
    p.add_argument("--subjects", help="comma-separated subject numbers")
    p.add_argument("--out", required=True, help="cache file to write")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a deterministic synthetic cache")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples-per-class", type=int, default=10)
    p.add_argument("--segment-len", type=int, default=500)
    p.add_argument("--out", required=True, help="cache file to write")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model at a fixed window duration")
    _add_input_flags(p)
    p.add_argument("--window", type=float, required=True, help="window duration in seconds")
    p.add_argument("--kernels", help="override conv kernel sizes, e.g. 7,11")
    _add_train_flags(p)
    p.add_argument("--model-out", help="checkpoint file to write")
    p.add_argument("--metrics-json", help="metrics/history JSON to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="cross-validated sweep over window durations")
    _add_input_flags(p)
    default_windows = ",".join(f"{w:g}" for w in experiment.DEFAULT_WINDOWS_SEC)
    p.add_argument("--windows", default=default_windows, help="comma-separated durations (s)")
    p.add_argument("--folds", type=int, default=experiment.DEFAULT_FOLDS)
    p.add_argument("--honest-split", action="store_true", help="stop on a split of the training folds, not the test fold")
    p.add_argument("--per-fold-stats", action="store_true", help="normalize with training-fold statistics per fold")
    _add_train_flags(p)
    p.add_argument("--out-dir", default=DEFAULT_OUT_DIR)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="regenerate CSV/SVG outputs from report.json")
    p.add_argument("--report", required=True, help="report.json from a sweep run")
    p.add_argument("--out-dir", default=DEFAULT_OUT_DIR)
    p.set_defaults(func=cmd_report)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()

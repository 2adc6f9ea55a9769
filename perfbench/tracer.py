"""In-memory span tracer for harwin, installed from outside the package.

``Tracer.install`` replaces functions with timing wrappers in the namespace
where they are looked up at call time. ``harwin.model`` imports the layer
functions by name, so the convolution is wrapped as
``harwin.model.conv1d_forward``, not ``harwin.layers.conv1d_forward``; the
CLI reaches ``dataset``, ``experiment`` and ``report`` through module
attributes, so those are wrapped in their own modules.

A span is ``[name, parent index, start, end, info]``. Spans stay in a list
until the run ends; ``layer_metrics`` then derives the per-layer figures.
A span's self time is its duration minus the time its child spans cover
(calls are nested on one thread, so children never overlap).

Convolution spans carry op counts computed from the call's shapes, never
measured: 2*B*F*C*K*L_out FLOPs per pass (forward, grad_w and grad_x), and
the bytes of the arrays read and written at 8 bytes per element.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

N_INPUT_CHANNELS = 18  # conv1 reads the 18 IMU channels; conv2 reads conv1's filters

TRAIN_STEP = "model.loss_and_grads"
# a reference-loop trial run by child.Sampler inside whatever span is open
REFERENCE = "reference"


def _conv_name(kind: str):
    def name(args) -> str:
        layer = "conv1" if args[1].shape[1] == N_INPUT_CHANNELS else "conv2"
        return f"layers.{layer}.{kind}"

    return name


def _conv_dims(x: np.ndarray, w: np.ndarray) -> tuple[int, int, int, int, int]:
    b = x.shape[0] if x.ndim == 3 else 1
    f, c, k = w.shape
    return b, f, c, k, x.shape[-1] - k + 1


def _conv_fwd_info(args, kwargs, result):
    x, w = args[0], args[1]
    b, f, c, k, l_out = _conv_dims(x, w)
    flops = 2 * b * f * c * k * l_out
    return {"flops": flops, "useful": flops, "bytes": 8 * (x.size + w.size + b * f * l_out)}


def _conv_bwd_info(args, kwargs, result):
    x, w, grad_out = args[0], args[1], args[2]
    b, f, c, k, l_out = _conv_dims(x, w)
    per_pass = 2 * b * f * c * k * l_out
    grad_x = result[0]
    flops = per_pass * (2 if grad_x is not None else 1)
    # model.backward discards conv1's input gradient
    useful = per_pass if w.shape[1] == N_INPUT_CHANNELS else flops
    moved = x.size + w.size + grad_out.size + w.size + (grad_x.size if grad_x is not None else 0)
    return {"flops": flops, "useful": useful, "bytes": 8 * moved}


def _batch_info(args, kwargs, result):
    return {"windows": args[1].shape[0]}


def _epochs_info(args, kwargs, result):
    return {"epochs": len(result[2])}


def _windows_info(args, kwargs, result):
    return {"windows": len(result)}


# (module, attribute, span name or name function, info function)
TARGETS = [
    ("harwin.cli", "cli", "cli", None),
    ("harwin.dataset", "ingest_directory", "dataset.ingest", None),
    ("harwin.dataset", "load_signals", "dataset.load", None),
    ("harwin.dataset", "save_signals", "dataset.save", None),
    ("harwin.dataset", "dataset_fingerprint", "dataset.fingerprint", None),
    ("harwin.dataset", "collect_segments", "dataset.collect_segments", None),
    ("harwin.experiment", "dataset_fingerprint", "dataset.fingerprint", None),
    ("harwin.experiment", "collect_segments", "dataset.collect_segments", None),
    ("harwin.experiment", "compute_stats", "preprocess.zscore", None),
    ("harwin.experiment", "apply_zscore", "preprocess.zscore", None),
    ("harwin.experiment", "segment", "preprocess.segment", _windows_info),
    ("harwin.experiment", "make_folds", "preprocess.make_folds", None),
    ("harwin.preprocess", "compute_stats", "preprocess.zscore", None),
    ("harwin.preprocess", "apply_zscore", "preprocess.zscore", None),
    ("harwin.preprocess", "segment", "preprocess.segment", _windows_info),
    ("harwin.preprocess", "make_folds", "preprocess.make_folds", None),
    ("harwin.experiment", "run_sweep", "experiment.run_sweep", None),
    ("harwin.experiment", "run_cv", "experiment.run_cv", None),
    ("harwin.experiment", "build_model", "model.build", None),
    ("harwin.experiment", "train", "model.train", _epochs_info),
    ("harwin.experiment", "evaluate", "model.evaluate", None),
    ("harwin.model", "stack_windows", "model.stack", None),
    ("harwin.model", "stack_labels", "model.stack", None),
    ("harwin.model", "loss_and_grads", TRAIN_STEP, _batch_info),
    ("harwin.model", "forward", "model.forward", _batch_info),
    ("harwin.model", "backward", "model.backward", None),
    ("harwin.model", "conv1d_forward", _conv_name("fwd"), _conv_fwd_info),
    ("harwin.model", "conv1d_backward", _conv_name("bwd"), _conv_bwd_info),
    ("harwin.model", "maxpool_forward", "layers.pool.fwd", None),
    ("harwin.model", "maxpool_backward", "layers.pool.bwd", None),
    ("harwin.model", "dense_forward", "layers.dense.fwd", None),
    ("harwin.model", "dense_backward", "layers.dense.bwd", None),
    ("harwin.model", "relu", "layers.relu", None),
    ("harwin.model", "relu_backward", "layers.relu", None),
    ("harwin.model", "dropout", "layers.dropout", None),
    ("harwin.model", "dropout_backward", "layers.dropout", None),
    ("harwin.model", "softmax_xent", "layers.softmax", None),
    ("harwin.model", "adam_step", "layers.adam", None),
    ("harwin.report", "save_report", "report.write", None),
    ("harwin.report", "render_all", "report.write", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, info=None):
        """``fn`` recording a span per call; ``name`` is a string or a
        function of the call's arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, info in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"tracer: {module_name}.{attr} not found; not traced", file=sys.stderr)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, info))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


PER_LAYER = [
    ("dataset.ingest_s", "s"),
    ("dataset.ingest_mb_per_s", "MB/s"),
    ("dataset.load_s", "s"),
    ("dataset.fingerprint_s", "s"),
    ("dataset.collect_segments_s", "s"),
    ("preprocess.zscore_s", "s"),
    ("preprocess.segment_s", "s"),
    ("preprocess.make_folds_s", "s"),
    ("preprocess.windows", "count"),
    ("model.stack_s", "s"),
    ("model.train_step_ms.p50", "ms"),
    ("model.train_step_ms.p90", "ms"),
    ("model.batches", "count"),
    ("model.epochs", "count"),
    ("model.train_fwd_ms_per_window", "ms"),
    ("model.eval_ms_per_window", "ms"),
    ("model.conv_share_of_step", "ratio"),
    ("layers.conv1.fwd_ms", "ms"),
    ("layers.conv1.bwd_ms", "ms"),
    ("layers.conv2.fwd_ms", "ms"),
    ("layers.conv2.bwd_ms", "ms"),
    ("layers.conv1.fwd_calls", "count"),
    ("layers.conv1.bwd_calls", "count"),
    ("layers.conv2.fwd_calls", "count"),
    ("layers.conv2.bwd_calls", "count"),
    ("layers.conv1.fwd_gflops", "GFLOP/s"),
    ("layers.conv1.bwd_gflops", "GFLOP/s"),
    ("layers.conv2.fwd_gflops", "GFLOP/s"),
    ("layers.conv2.bwd_gflops", "GFLOP/s"),
    ("layers.conv.computed_gflop", "GFLOP"),
    ("layers.conv.computed_gbytes", "GB"),
    ("layers.conv_bwd.useful_ratio", "ratio"),
    ("layers.pool.fwd_ms", "ms"),
    ("layers.pool.bwd_ms", "ms"),
    ("layers.dense.fwd_ms", "ms"),
    ("layers.dense.bwd_ms", "ms"),
    ("layers.softmax_ms", "ms"),
    ("layers.dropout_ms", "ms"),
    ("layers.relu_ms", "ms"),
    ("layers.adam_ms", "ms"),
    ("experiment.fold_s.p50", "s"),
    ("experiment.eval_share", "ratio"),
    ("report.write_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
]


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], text_bytes: int = 0) -> dict[str, float]:
    """Per-layer figures from one traced run. A layer that did not run
    reports 0 (the convolutions on ingest-window, for instance).
    ``trace.overhead_ratio`` needs an untraced run and is filled in by the caller."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    # reference trials are not the work of the spans they interrupted
    for i, (name, parent, *_rest) in enumerate(spans):
        while name == REFERENCE and parent >= 0:
            dur[parent] -= dur[i]
            parent = spans[parent][1]
    self_t = list(dur)
    children: list[list[int]] = [[] for _ in range(n)]
    in_step = [False] * n  # inside a training step (loss_and_grads), parents come first
    for i, (name, parent, *_rest) in enumerate(spans):
        if parent >= 0 and name != REFERENCE:
            self_t[parent] -= dur[i]
            children[parent].append(i)
            in_step[i] = in_step[parent]
        if name == TRAIN_STEP:
            in_step[i] = True
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name: str, times=dur) -> float:
        return sum(times[i] for i in by_name.get(name, []))

    def self_ms(*names: str) -> float:
        return 1e3 * _median([self_t[i] for name in names for i in by_name.get(name, [])])

    m: dict[str, float] = {}
    ingest_s = total("dataset.ingest")
    m["dataset.ingest_s"] = ingest_s
    m["dataset.ingest_mb_per_s"] = _ratio(text_bytes / 1e6, ingest_s)
    m["dataset.load_s"] = total("dataset.load")
    m["dataset.fingerprint_s"] = total("dataset.fingerprint")
    m["dataset.collect_segments_s"] = total("dataset.collect_segments")
    m["preprocess.zscore_s"] = total("preprocess.zscore")
    m["preprocess.segment_s"] = total("preprocess.segment")
    m["preprocess.make_folds_s"] = total("preprocess.make_folds")
    m["preprocess.windows"] = sum(spans[i][4]["windows"] for i in by_name.get("preprocess.segment", []))
    m["model.stack_s"] = total("model.stack")

    steps = by_name.get(TRAIN_STEP, [])
    step_ms = [1e3 * dur[i] for i in steps]
    m["model.train_step_ms.p50"] = float(np.percentile(step_ms, 50)) if steps else 0.0
    m["model.train_step_ms.p90"] = float(np.percentile(step_ms, 90)) if steps else 0.0
    m["model.batches"] = len(steps)
    m["model.epochs"] = sum(spans[i][4]["epochs"] for i in by_name.get("model.train", []))
    fwd = by_name.get("model.forward", [])
    train_fwd = [i for i in fwd if in_step[i]]
    eval_fwd = [i for i in fwd if not in_step[i]]
    m["model.train_fwd_ms_per_window"] = 1e3 * _ratio(
        sum(dur[i] for i in train_fwd), sum(spans[i][4]["windows"] for i in train_fwd)
    )
    m["model.eval_ms_per_window"] = 1e3 * _ratio(
        sum(dur[i] for i in eval_fwd), sum(spans[i][4]["windows"] for i in eval_fwd)
    )

    conv_names = [f"layers.{layer}.{kind}" for layer in ("conv1", "conv2") for kind in ("fwd", "bwd")]
    conv_in_step = sum(self_t[i] for name in conv_names for i in by_name.get(name, []) if in_step[i])
    m["model.conv_share_of_step"] = _ratio(conv_in_step, sum(dur[i] for i in steps))
    for name in conv_names:
        calls = by_name.get(name, [])
        short = name.removeprefix("layers.")
        m[f"layers.{short}_ms"] = self_ms(name)
        m[f"layers.{short}_calls"] = len(calls)
        m[f"layers.{short}_gflops"] = _ratio(
            sum(spans[i][4]["flops"] for i in calls) / 1e9, sum(self_t[i] for i in calls)
        )
    conv_calls = [i for name in conv_names for i in by_name.get(name, [])]
    m["layers.conv.computed_gflop"] = sum(spans[i][4]["flops"] for i in conv_calls) / 1e9
    m["layers.conv.computed_gbytes"] = sum(spans[i][4]["bytes"] for i in conv_calls) / 1e9
    bwd_calls = by_name.get("layers.conv1.bwd", []) + by_name.get("layers.conv2.bwd", [])
    m["layers.conv_bwd.useful_ratio"] = _ratio(
        sum(spans[i][4]["useful"] for i in bwd_calls), sum(spans[i][4]["flops"] for i in bwd_calls)
    )
    for short in ("pool.fwd", "pool.bwd", "dense.fwd", "dense.bwd"):
        m[f"layers.{short}_ms"] = self_ms(f"layers.{short}")
    for short in ("softmax", "dropout", "relu", "adam"):
        m[f"layers.{short}_ms"] = self_ms(f"layers.{short}")

    fold_s = []
    for cv in by_name.get("experiment.run_cv", []):
        boundary = spans[cv][2]
        for c in children[cv]:
            if spans[c][0] == "preprocess.make_folds":
                boundary = spans[c][3]
            elif spans[c][0] == "model.evaluate":
                fold_s.append(spans[c][3] - boundary)
                boundary = spans[c][3]
    eval_s = total("model.evaluate") + sum(
        dur[i]
        for name in ("model.forward", "layers.softmax")
        for i in by_name.get(name, [])
        if spans[i][1] >= 0 and spans[spans[i][1]][0] == "model.train"
    )
    m["experiment.fold_s.p50"] = _median(fold_s)
    m["experiment.eval_share"] = _ratio(eval_s, sum(fold_s))
    m["report.write_s"] = total("report.write")
    m["cli.self_s"] = total("cli", self_t)
    m["trace.overhead_ratio"] = 1.0
    m["trace.spans"] = n - len(by_name.get(REFERENCE, []))
    return m

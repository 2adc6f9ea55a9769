"""Window-duration benchmarking for IMU-based activity recognition.

Pipeline: PAMAP2 protocol ingestion -> per-channel standardization ->
75%-overlap sliding windows -> a from-scratch 1-D CNN trained with Adam ->
stratified cross-validation swept over window durations.

Importing the package sets the OpenBLAS that numpy bundles to one thread,
so that no thread variable or CPU count changes a report's bytes.
"""

from .dataset import (
    ACTIVITY_CLASSES,
    ACTIVITY_NAMES,
    ActivitySegment,
    LabeledSignal,
    generate_synthetic,
    ingest_directory,
    load_signals,
    save_signals,
)
from .experiment import SweepReport, SweepRow, prepare, run_cell, run_cells, run_sweep, select_kernels
from .layers import pin_blas_threads
from .model import ModelParams, ModelSpec, TrainConfig, build_model, evaluate, load_model, plan_shapes, save_model, train
from .preprocess import (
    ChannelStats, Sample, WindowSpec, apply_zscore, compute_stats, kept_signal, make_folds, segment, window_arrays
)
from .report import format_report_csv, load_report, render_all, save_report

__version__ = "0.1.0"

pin_blas_threads()

__all__ = [
    "ACTIVITY_CLASSES",
    "ACTIVITY_NAMES",
    "ActivitySegment",
    "ChannelStats",
    "LabeledSignal",
    "ModelParams",
    "ModelSpec",
    "Sample",
    "SweepReport",
    "SweepRow",
    "TrainConfig",
    "WindowSpec",
    "apply_zscore",
    "build_model",
    "compute_stats",
    "evaluate",
    "format_report_csv",
    "generate_synthetic",
    "ingest_directory",
    "kept_signal",
    "load_model",
    "load_report",
    "load_signals",
    "make_folds",
    "plan_shapes",
    "prepare",
    "render_all",
    "run_cell",
    "run_cells",
    "run_sweep",
    "save_model",
    "save_report",
    "save_signals",
    "segment",
    "select_kernels",
    "train",
    "window_arrays",
]

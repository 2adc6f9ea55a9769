"""End-to-end acceptance gate.

Eight numbered checks, each printing its own PASS/FAIL/SKIP line to the
terminal (past pytest's capture) so a full run reads as a checklist. The
PAMAP2-dependent checks skip cleanly when the dataset directory is not
available; the full-scale sweep is a documented manual run, kept here behind
an opt-in environment variable.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from harwin.dataset import collect_segments, generate_synthetic, ingest_directory
from harwin.experiment import DEFAULT_WINDOWS_SEC, run_sweep
from harwin.layers import conv1d_forward, relu
from harwin.model import (
    ModelSpec,
    TrainConfig,
    build_model,
    forward,
    loss_and_grads,
    plan_shapes,
)
from harwin.preprocess import WindowSpec, make_folds, segment

DATA_DIR = os.environ.get("HARWIN_DATA_DIR", "")


def _have_subjects(*subjects):
    return bool(DATA_DIR) and all(
        (Path(DATA_DIR) / f"subject{s}.dat").is_file() for s in subjects
    )


def _emit(capsys, num, name, status):
    with capsys.disabled():
        print(f"\n[criterion {num}] {name}: {status}", flush=True)


@contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except BaseException as exc:
        skipped = isinstance(exc, pytest.skip.Exception)
        _emit(capsys, num, name, "SKIP" if skipped else "FAIL")
        raise
    _emit(capsys, num, name, "PASS")


# ---------------------------------------------------------------------------
# 1. full-network gradients vs central finite differences
# ---------------------------------------------------------------------------


def _kink_margin(net, windows):
    """Distance of the closest activation to a ReLU sign change or a pooling
    argmax flip. Central differences are only meaningful when every probe
    stays on one smooth branch, so data is drawn until this margin dwarfs
    the perturbation any single-parameter step can cause. The cache keeps
    no conv output, so both are recomputed from the layer inputs it keeps:
    the same calls on the same arrays as the forward pass, the same values."""
    _, (x, p1, _, _, _, z1, _, _, z2, _, _) = forward(net, windows)
    a1 = conv1d_forward(x, net.conv1_w, net.conv1_b)
    a2 = conv1d_forward(p1, net.conv2_w, net.conv2_b)
    margins = [
        np.abs(a1).min(),
        np.abs(a2).min(),
        np.abs(z1).min(),
        np.abs(z2).min(),
    ]
    for pre, applied in ((a1, net.plan.pool1_applied), (a2, net.plan.pool2_applied)):
        if not applied:
            continue
        act = relu(pre)
        n_pairs = act.shape[2] // 2
        pairs = act[:, :, : 2 * n_pairs].reshape(act.shape[0], act.shape[1], n_pairs, 2)
        # a pair of two clamped zeros is locally constant, hence harmless;
        # any live pair must be decided by a clear margin
        live = pairs.max(axis=3) > 0
        if live.any():
            margins.append(np.abs(pairs[..., 0] - pairs[..., 1])[live].min())
    return min(margins)


def test_criterion_1_gradient_oracle(capsys):
    with criterion(capsys, 1, "full-network gradient check"):
        started = time.monotonic()
        spec = ModelSpec(in_channels=2, conv_filters=(2, 3), kernels=(3, 5), n_classes=5)
        h = 1e-5
        worst = 0.0
        for seed in range(20):
            net = build_model(spec, 12, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            for _ in range(50):
                windows = rng.normal(size=(3, 12, 2))
                classes = rng.integers(0, 5, size=3)
                if _kink_margin(net, windows) > 2e-3:
                    break
            else:
                pytest.fail(f"seed {seed}: no kink-free draw found")
            _, grads = loss_and_grads(net, windows, classes)
            for tensor, grad in zip(net.tensors(), grads.tensors()):
                flat = tensor.ravel()
                gflat = grad.ravel()
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + h
                    hi, _ = loss_and_grads(net, windows, classes)
                    flat[i] = keep - h
                    lo, _ = loss_and_grads(net, windows, classes)
                    flat[i] = keep
                    fd = (hi - lo) / (2 * h)
                    err = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
                    worst = max(worst, err)
            assert worst < 1e-4, f"seed {seed}: worst relative error {worst:.3e}"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. vectorized convolution vs the quadruple loop, bit for bit
# ---------------------------------------------------------------------------


def _conv_quadruple_loop(x, w, b):
    n_filters, n_in, kernel = w.shape
    batch, _, length = x.shape
    out_len = length - kernel + 1
    out = np.empty((batch, n_filters, out_len))
    for bi in range(batch):
        for f in range(n_filters):
            for m in range(out_len):
                acc = b[f]
                for c in range(n_in):
                    for k in range(kernel):
                        acc = acc + w[f, c, k] * x[bi, c, m + k]
                out[bi, f, m] = acc
    return out


def test_criterion_2_convolution_oracle(capsys):
    with criterion(capsys, 2, "convolution bitwise oracle"):
        started = time.monotonic()
        rng = np.random.default_rng(0)
        checked = negative_zeros = 0
        for c_in in range(1, 5):
            for c_out in range(1, 5):
                for length in range(1, 9):
                    for kernel in range(1, length + 1):
                        x = rng.normal(size=(2, c_in, length))
                        w = rng.normal(size=(c_out, c_in, kernel))
                        b = rng.normal(size=c_out)
                        # window 0 zeroed under a negative filter 0 with a -0.0
                        # bias: the loop's sums there stay -0.0
                        x0, w0, b0 = x.copy(), w.copy(), b.copy()
                        x0[0], w0[0], b0[0] = 0.0, -np.abs(w0[0]), -0.0
                        for args in ((x, w, b), (x0, w0, b0)):
                            got = conv1d_forward(*args)
                            ref = _conv_quadruple_loop(*args)
                            assert got.shape == ref.shape
                            # bits, not ==, which takes -0.0 for +0.0
                            assert (got.view(np.uint64) == ref.view(np.uint64)).all(), (c_in, c_out, length, kernel)
                        negative_zeros += int((np.signbit(got) & (got == 0.0)).sum())
                        checked += 1
        assert checked == 576  # 4 * 4 * sum(L for L in 1..8)
        assert negative_zeros == 1920  # every position of window 0, filter 0: 16 * sum(L(L+1)/2 for L in 1..8)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"convolution oracle took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. shape plan table
# ---------------------------------------------------------------------------


def test_criterion_3_shape_plan(capsys):
    with criterion(capsys, 3, "shape-plan table"):
        expected = {10: 64, 25: 96, 50: 192, 100: 576, 200: 1376, 400: 2976}
        for window, flatten in expected.items():
            kernels = (3, 5) if window <= 25 else (7, 11)
            plan = plan_shapes(ModelSpec(kernels=kernels), window)
            assert plan.flatten == flatten, f"W={window}: {plan.flatten} != {flatten}"
        # a window shorter than the first kernel has no valid architecture
        with pytest.raises(ValueError):
            plan_shapes(ModelSpec(kernels=(7, 11)), 6)
        with pytest.raises(ValueError):
            plan_shapes(ModelSpec(kernels=(3, 5)), 2)


# ---------------------------------------------------------------------------
# 4. synthetic end-to-end through the CLI
# ---------------------------------------------------------------------------


def _run_cli(args, cwd):
    import harwin

    env = dict(os.environ)
    env.pop("HARWIN_DATA_DIR", None)
    # The child runs from ``cwd``, where a relative PYTHONPATH entry such as
    # ``src`` no longer resolves; point it at the package this process imported.
    package_root = str(Path(harwin.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "harwin.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )


def test_criterion_4_synthetic_end_to_end(capsys, tmp_path):
    with criterion(capsys, 4, "synthetic CLI training run"):
        started = time.monotonic()
        r = _run_cli(
            ["synth", "--seed", "42", "--samples-per-class", "4", "--segment-len", "300", "--out", "cache.bin"],
            tmp_path,
        )
        assert r.returncode == 0, r.stderr
        r = _run_cli(
            [
                "train", "--cache", "cache.bin", "--window", "0.5", "--seed", "42",
                "--max-epochs", "200", "--metrics-json", "metrics.json",
            ],
            tmp_path,
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["accuracy"] >= 0.99, f"held-out accuracy {doc['accuracy']:.4f}"
        assert len(doc["history"]) <= 200
        first = doc["history"][0]["stop_loss"]
        best = min(h["stop_loss"] for h in doc["history"])
        assert best > 0 and first / best >= 10.0, f"loss only fell {first / best:.1f}x"
        elapsed = time.monotonic() - started
        assert elapsed < 300.0, f"end-to-end run took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 5. windowing and fold properties
# ---------------------------------------------------------------------------


def _check_folds_partition(samples, k, seed):
    plan = make_folds(samples, k, seed)
    labels = np.array([s.class_index for s in samples])
    tested = np.zeros(len(samples), dtype=int)
    for fold in range(k):
        _, test_idx = plan.train_test(fold)
        tested[test_idx] += 1
    assert (tested == 1).all(), "every sample must be tested exactly once"
    for cls in np.unique(labels):
        counts = np.bincount(plan.assignment[labels == cls], minlength=k)
        assert counts.max() - counts.min() <= 1, f"class {cls} imbalance"


def test_criterion_5_windowing_and_folds(capsys):
    with criterion(capsys, 5, "window overlap + stratified folds"):
        sweep_lens = [WindowSpec(s).window_len for s in DEFAULT_WINDOWS_SEC]
        assert sweep_lens == [10, 25, 50, 100, 200, 400]
        for sec in DEFAULT_WINDOWS_SEC:
            spec = WindowSpec(sec)
            w = spec.window_len
            assert spec.overlap == w - w // 4, f"{sec}s"

        # segment length 278 at half-second windows: 20 windows per segment,
        # 20 segments -> exactly 400 samples, 80 per class
        sig = generate_synthetic(42, samples_per_class=4, segment_len=278)
        samples = segment(collect_segments([sig]), WindowSpec(0.5))
        assert len(samples) == 400
        _check_folds_partition(samples, 8, seed=42)

        # and the partition properties hold at every sweep duration
        big = generate_synthetic(42, samples_per_class=4, segment_len=840)
        segments = collect_segments([big])
        for sec in DEFAULT_WINDOWS_SEC:
            windowed = segment(segments, WindowSpec(sec))
            assert windowed, f"{sec}s produced no windows"
            _check_folds_partition(windowed, 8, seed=42)


# ---------------------------------------------------------------------------
# 6. byte-identical seeded sweeps
# ---------------------------------------------------------------------------


def test_criterion_6_sweep_determinism(capsys, tmp_path):
    with criterion(capsys, 6, "sweep determinism"):
        r = _run_cli(
            ["synth", "--seed", "42", "--samples-per-class", "2", "--segment-len", "120", "--out", "cache.bin"],
            tmp_path,
        )
        assert r.returncode == 0, r.stderr
        for out_dir in ("run1", "run2"):
            r = _run_cli(
                [
                    "sweep", "--cache", "cache.bin", "--windows", "0.1,0.25,0.5",
                    "--seed", "42", "--max-epochs", "3", "--patience", "3", "--out-dir", out_dir,
                ],
                tmp_path,
            )
            assert r.returncode == 0, r.stderr
        csv1 = (tmp_path / "run1" / "report.csv").read_bytes()
        csv2 = (tmp_path / "run2" / "report.csv").read_bytes()
        assert csv1 == csv2, "seeded sweep reports must match byte for byte"
        json1 = (tmp_path / "run1" / "report.json").read_bytes()
        json2 = (tmp_path / "run2" / "report.json").read_bytes()
        assert json1 == json2


# ---------------------------------------------------------------------------
# 7. window-duration trend on real recordings (subjects 101-102)
# ---------------------------------------------------------------------------


def test_criterion_7_trend_on_real_data(capsys):
    with criterion(capsys, 7, "half-second vs tenth-second trend"):
        if not _have_subjects(101, 102):
            pytest.skip("PAMAP2 protocol files not present (set HARWIN_DATA_DIR to run)")
        started = time.monotonic()
        signals = ingest_directory(DATA_DIR, [101, 102])
        cfg = TrainConfig(max_epochs=300, patience=100, seed=42)
        report = run_sweep(signals, [0.1, 0.5], cfg, folds=8)
        by_window = {row.window_sec: row for row in report.rows}
        assert not by_window[0.1].failed and not by_window[0.5].failed
        gap = (by_window[0.5].acc_mean - by_window[0.1].acc_mean) * 100.0
        assert gap >= 10.0, f"accuracy gap {gap:.1f} points"
        elapsed = time.monotonic() - started
        assert elapsed < 1800.0, f"trend run took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 8. full-scale sweep (manual, opt-in; the README's full-scale `harwin sweep` command)
# ---------------------------------------------------------------------------


def test_criterion_8_full_scale_interior_optimum(capsys):
    with criterion(capsys, 8, "full-scale interior optimum"):
        if os.environ.get("HARWIN_FULL_SCALE") != "1" or not _have_subjects(101):
            pytest.skip(
                "full-scale sweep is a documented manual run "
                "(HARWIN_FULL_SCALE=1 plus HARWIN_DATA_DIR; hours of CPU)"
            )
        signals = ingest_directory(DATA_DIR)
        cfg = TrainConfig()  # full defaults: 3000 epoch cap, patience 100
        report = run_sweep(signals, list(DEFAULT_WINDOWS_SEC), cfg, folds=8)
        ok = [r for r in report.rows if not r.failed]
        assert len(ok) == len(report.rows), "every duration must complete"
        best = max(ok, key=lambda r: r.acc_mean)
        assert 0.1 < best.window_sec < 4.0, f"optimum at the edge: {best.window_sec}s"
        by_window = {r.window_sec: r for r in ok}
        assert by_window[0.5].acc_mean >= 0.97

"""Layer-level oracles: naive-loop convolution, the pre-GEMM convolution
loops, finite differences, mpmath references for softmax and Adam."""

import ctypes
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harwin import layers
from harwin.layers import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DivergenceError,
    adam_step,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    dropout,
    dropout_backward,
    init_adam,
    maxpool_backward,
    maxpool_forward,
    relu,
    relu_backward,
    run_shares,
    softmax_xent,
    usable_cpus,
)
from harwin.model import EVAL_CHUNK, ModelSpec, param_shapes, plan_shapes


def conv_naive(x, w, b):
    """Quadruple-loop reference, accumulating bias-first then the (channel,
    tap) products in channel-major order — the exact summation order the
    vectorized path promises."""
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


def same_bits(a, b):
    """Bitwise equality, which unlike == tells -0.0 from +0.0."""
    return a.shape == b.shape and (a.view(np.uint64) == b.view(np.uint64)).all()


def conv_unblocked(x, w, b):
    """The forward before batch blocking: the whole batch in one pass, bias
    first, then one (channel, tap) product at a time in channel-major order."""
    n_filters, n_in, kernel = w.shape
    out_len = x.shape[2] - kernel + 1
    out = np.broadcast_to(b[None, :, None], (x.shape[0], n_filters, out_len)).copy()
    for c in range(n_in):
        for k in range(kernel):
            out += w[None, :, c, k, None] * x[:, None, c, k : k + out_len]
    return out


def conv_backward_einsum(x, w, grad_out):
    """The backward before the GEMM rewrite: one einsum pair per (channel,
    tap), returning (grad_x, grad_w, grad_b) for a (B, C, L) input."""
    n_filters, n_in, kernel = w.shape
    out_len = x.shape[2] - kernel + 1
    grad_w = np.empty_like(w)
    grad_x = np.zeros_like(x)
    for c in range(n_in):
        for k in range(kernel):
            grad_w[:, c, k] = np.einsum("bfi,bi->f", grad_out, x[:, c, k : k + out_len])
            grad_x[:, c, k : k + out_len] += np.einsum("bfi,f->bi", grad_out, w[:, c, k])
    return grad_x, grad_w, grad_out.sum(axis=(0, 2))


def sweep_geometries(windows=(200, 400)):
    """(c_in, c_out, kernel, length) of conv1 and conv2 with the default
    architecture at windows of the given samples, by default 2 s and 4 s."""
    spec = ModelSpec()
    out = []
    for window in windows:
        plan = plan_shapes(spec, window)
        out.append((spec.in_channels, spec.conv_filters[0], spec.kernels[0], window))
        out.append((spec.conv_filters[0], spec.conv_filters[1], spec.kernels[1], plan.pool1_out))
    return out


def central_diff(fn, arr, h=1e-5):
    """Central finite differences of a scalar function w.r.t. every entry."""
    grad = np.empty_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        hi = fn()
        flat[i] = old - h
        lo = fn()
        flat[i] = old
        gflat[i] = (hi - lo) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_conv_known_value():
    # one channel, one filter: [1,2,3] * [1,0,0] has a single valid position
    out = conv1d_forward(np.array([[[1.0, 2.0, 3.0]]]), np.array([[[1.0, 0.0, 0.0]]]), np.zeros(1))
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 1.0


def test_conv_identity_kernel_shifts():
    x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
    w = np.zeros((1, 1, 2))
    w[0, 0, 1] = 1.0  # picks the right element of each pair
    out = conv1d_forward(x, w, np.zeros(1))
    assert np.array_equal(out, np.array([[[2.0, 3.0, 4.0]]]))


def test_conv_bias_broadcast():
    x = np.zeros((2, 3, 5))
    w = np.zeros((4, 3, 2))
    out = conv1d_forward(x, w, np.array([1.0, 2.0, 3.0, 4.0]))
    assert out.shape == (2, 4, 4)
    assert np.array_equal(out[1, 2], np.full(4, 3.0))


def test_conv_matches_naive_loop_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        length = int(rng.integers(1, 9))
        kernel = int(rng.integers(1, length + 1))
        x = rng.normal(size=(3, c_in, length))
        w = rng.normal(size=(c_out, c_in, kernel))
        b = rng.normal(size=c_out)
        assert same_bits(conv1d_forward(x, w, b), conv_naive(x, w, b))  # not allclose, and not ==


def test_conv_single_channel_matches_dot_products():
    # sliding dot products are an independent spelling of the same arithmetic
    rng = np.random.default_rng(3)
    x = rng.normal(size=8)
    w = rng.normal(size=3)
    out = conv1d_forward(x[None, None], w[None, None], np.zeros(1))
    expected = np.array([np.dot(x[i : i + 3], w) for i in range(6)])
    assert np.allclose(out[0, 0], expected, rtol=1e-12)


def test_conv_rejects_short_input_and_channel_mismatch():
    w = np.zeros((1, 2, 4))
    with pytest.raises(ValueError, match="shorter than kernel"):
        conv1d_forward(np.zeros((1, 2, 3)), w, np.zeros(1))
    with pytest.raises(ValueError, match="channels"):
        conv1d_forward(np.zeros((1, 3, 8)), w, np.zeros(1))


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 7))
    w = rng.normal(size=(4, 3, 3))
    b = rng.normal(size=4)
    target = rng.normal(size=(2, 4, 5))

    def loss():
        return 0.5 * ((conv1d_forward(x, w, b) - target) ** 2).sum()

    grad_out = conv1d_forward(x, w, b) - target
    gx, gw, gb = conv1d_backward(x, w, grad_out)
    assert np.allclose(gx, central_diff(loss, x), rtol=1e-6, atol=1e-8)
    assert np.allclose(gw, central_diff(loss, w), rtol=1e-6, atol=1e-8)
    assert np.allclose(gb, central_diff(loss, b), rtol=1e-6, atol=1e-8)


def short_window_geometries():
    """(c_in, c_out, kernel, length) of conv1 (18 -> 16) and conv2 (16 -> 32)
    at the 0.1 s and 0.25 s windows (kernels 3 and 5) and at the 0.5 s
    window (kernels 7 and 11)."""
    return [(18, 16, 3, 10), (18, 16, 3, 25), (16, 32, 5, 8), (16, 32, 5, 11), (18, 16, 7, 50), (16, 32, 11, 22)]


def one_second_geometries():
    """(c_in, c_out, kernel, length) of conv1 and conv2 at the 1 s window."""
    return [(18, 16, 7, 100), (16, 32, 11, 47)]


def test_conv_blocked_forward_matches_unblocked_loop_bitwise():
    """Every split into position tiles keeps the unblocked loop's bits: the
    sweep's geometries from 0.1 s to 4 s, and at 0.5 s and 1 s filter counts
    of 5, 17 and 33."""
    rng = np.random.default_rng(19)
    geometries = sweep_geometries() + short_window_geometries() + one_second_geometries()
    geometries += [
        (c_in, c_out, kernel, length)
        for c_in, _, kernel, length in short_window_geometries()[4:] + one_second_geometries()
        for c_out in (5, 17, 33)
    ]
    for c_in, c_out, kernel, length in geometries:
        w = rng.normal(size=(c_out, c_in, kernel))
        b = rng.normal(size=c_out)
        for batch in (1, 3, 25, 128, EVAL_CHUNK):
            x = rng.normal(size=(batch, c_in, length))
            got = conv1d_forward(x, w, b)
            assert got.flags.c_contiguous
            assert same_bits(got, conv_unblocked(x, w, b)), (c_in, c_out, length, batch)
        # a non-contiguous input: a (B, L, C) array seen through swapaxes
        x = rng.normal(size=(25, length, c_in)).swapaxes(1, 2)
        assert same_bits(conv1d_forward(x, w, b), conv_unblocked(x, w, b)), (c_in, length)


def test_conv_forward_keeps_a_negative_zero_bias_across_tiles():
    """A -0.0 bias entry, in every other filter or in the last one alone,
    keeps the loop's -0.0 sums, in several tiles, on long rows and on rows
    of a single position, as a zero bias and a plain one keep their bits."""
    rng = np.random.default_rng(43)
    # several tiles of 33 filters, and one position whose accumulator holds more than BLOCK
    cases = [((16, 33, 11, 26), 512), ((16, 33, 11, 32), 512), ((18, 33, 3, 3), 2730)]
    for (c_in, c_out, kernel, length), batch in cases:
        out_len = length - kernel + 1
        x = relu(rng.normal(size=(batch, c_in, length)))
        x[::3] = 0.0  # whole windows of zeros
        w = rng.normal(size=(c_out, c_in, kernel))
        w[::2] = -np.abs(w[::2])  # negative filters: -0.0 products over a zero input
        w[-1] = -np.abs(w[-1])
        b = rng.normal(size=c_out)
        last_only = np.where(np.arange(c_out) == c_out - 1, -0.0, b)  # a -0.0 in the last filter alone
        for bias in (np.where(np.arange(c_out) % 2 == 0, -0.0, b), last_only, np.full(c_out, -0.0), np.zeros(c_out), b):
            got = conv1d_forward(x, w, bias)
            assert same_bits(got, conv_unblocked(x, w, bias)), (c_out, out_len, batch, bias[0])
        assert np.signbit(conv1d_forward(x, w, np.full(c_out, -0.0))[0, ::2]).all()


def test_conv_forward_bits_and_the_callers_buffer_size_hold_under_any_buffer_size(monkeypatch, share_counts):
    """The call forms its products under PRODUCT_BUFSIZE, which each helper
    inherits from the caller's context. Under a caller's buffer of 16
    elements and of 65536, every call from 0.1 s to 4 s at batch 128, on one
    thread and on two, keeps the bits of the unblocked loop, the sign of
    zero included: inputs hold exact zeros, as relu and pool outputs do, and
    filter 0 is all negative, so its sums over a zero window stay at a -0.0
    bias. The caller's buffer size is unchanged after every call, also after
    a call that raises, on one thread and on two."""
    rng = np.random.default_rng(37)
    saved = np.getbufsize()
    try:
        for bufsize in (16, 65536):
            np.setbufsize(bufsize)
            monkeypatch.setattr(layers, "usable_cpus", lambda: 2)
            for c_in, c_out, kernel, length in short_window_geometries() + sweep_geometries():
                x = relu(rng.normal(size=(128, c_in, length)))
                x[::3] = 0.0  # whole windows of zeros
                w = rng.normal(size=(c_out, c_in, kernel))
                w[0] = -np.abs(w[0])
                b = rng.normal(size=c_out)
                for bias in (b, np.where(np.arange(c_out) % 2 == 0, -0.0, b), np.zeros(c_out), np.full(c_out, -0.0)):
                    got = conv1d_forward(x, w, bias)
                    assert np.getbufsize() == bufsize
                    assert same_bits(got, conv_unblocked(x, w, bias)), (bufsize, c_in, length, bias[0])
                assert np.signbit(got[0, 0]).all()
            c_in, c_out, kernel, length = sweep_geometries()[2]  # conv1 at 4 s
            x, w = np.full((128, c_in, length), 1e200), np.full((c_out, c_in, kernel), 1e200)
            for cpus in (1, 2):
                monkeypatch.setattr(layers, "usable_cpus", lambda cpus=cpus: cpus)
                # np.seterr, not np.errstate, whose exit would restore the buffer size too
                errstate = np.seterr(over="raise")
                try:
                    with pytest.raises(FloatingPointError):
                        conv1d_forward(x, w, np.zeros(c_out))
                finally:
                    np.seterr(**errstate)
                assert np.getbufsize() == bufsize
    finally:
        np.setbufsize(saved)
    assert share_counts == {1, 2}


def test_conv_forward_empty_batch():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(4, 18, 10))
    w = rng.normal(size=(16, 18, 3))
    out = conv1d_forward(x[:0], w, rng.normal(size=16))
    assert out.shape == (0, 16, 8)


def test_conv_forward_scratch_stays_small():
    """At 4 s with an eval chunk of windows, one call allocates its output
    plus per-tile scratch, not a transposed copy of the whole input."""
    import tracemalloc

    rng = np.random.default_rng(31)
    for c_in, c_out, kernel, length in sweep_geometries()[2:]:
        x = rng.normal(size=(EVAL_CHUNK, c_in, length))
        w = rng.normal(size=(c_out, c_in, kernel))
        b = rng.normal(size=c_out)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv1d_forward(x, w, b)
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert extra < out.nbytes + 4 * 2**20, (c_in, extra - out.nbytes)


def test_conv_rejects_wrong_ranks_and_bias_shapes():
    x = np.zeros((2, 3, 8))
    w = np.zeros((4, 3, 2))
    for bias in (np.zeros(1), np.zeros(5), np.zeros((4, 1)), np.float64(0.0)):
        with pytest.raises(ValueError, match="bias"):
            conv1d_forward(x, w, bias)  # broadcast or truncated before
    with pytest.raises(ValueError, match="3-D"):
        conv1d_forward(x[0], w, np.zeros(4))
    with pytest.raises(ValueError, match="3-D"):
        conv1d_forward(x, w[0], np.zeros(4))


def test_usable_cpus_falls_back_where_there_is_no_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_pin_warns_naming_the_blas_where_no_openblas_is_found(tmp_path, monkeypatch):
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert layers.openblas_function("set_num_threads", None, ctypes.c_int) is None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with pytest.warns(RuntimeWarning, match="thread variable") as caught:
        layers.pin_blas_threads()
    assert len(caught) == 1
    assert f"{blas['name']} {blas['version']}" in str(caught[0].message)


def test_the_blas_runs_one_thread_once_harwin_is_imported():
    """In a child whose thread variable asks OpenBLAS for two threads."""
    if layers.openblas_function("get_num_threads", ctypes.c_int) is None:
        pytest.skip("numpy's BLAS has no openblas_get_num_threads")
    code = (
        "import ctypes, harwin.layers as layers;"
        "print(layers.openblas_function('get_num_threads', ctypes.c_int)())"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(layers.__file__).parents[1]), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stdout) == (0, "1\n"), child.stderr
    assert layers.openblas_function("get_num_threads", ctypes.c_int)() == 1


# (c_in, c_out, kernel, length) of wide layers whose calls split into 3 and 4
# shares
WIDE_GEOMETRIES = [(64, 16, 3, 130), (64, 16, 3, 200), (16, 48, 3, 66)]

# (c_in, c_out, kernel, length) of conv1 and conv2 from 0.1 s to 4 s, and
# their tile counts at batch 128 and EVAL_CHUNK. These are the counts of the
# (filter group x position tile) blocking that position tiles replaced,
# which cut each of these calls into a single filter group.
DEFAULT_TILES = {
    (18, 16, 3, 10): (1, 1),
    (18, 16, 3, 25): (1, 3),
    (16, 32, 5, 8): (1, 1),
    (16, 32, 5, 11): (1, 2),
    (18, 16, 7, 50): (2, 6),
    (16, 32, 11, 22): (1, 3),
    (18, 16, 7, 100): (3, 12),
    (16, 32, 11, 47): (3, 10),
    (18, 16, 7, 200): (7, 25),
    (16, 32, 11, 97): (6, 22),
    (18, 16, 7, 400): (13, 50),
    (16, 32, 11, 197): (12, 47),
}


def forward_plan(geometry, batch, cpus):
    """(n_shares, tiles) of a conv1d_forward call on ``geometry`` and
    ``batch`` windows with the CPU count forced to ``cpus``. The tiles,
    (p, q) for positions [p, q), are the items the call hands to
    run_shares, and no share runs: nothing is summed."""
    c_in, c_out, kernel, length = geometry
    plan = []

    def record(work, tiles, n_shares):
        plan.append((n_shares, list(tiles)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers, "usable_cpus", lambda: cpus)
        patch.setattr(layers, "run_shares", record)
        conv1d_forward(np.broadcast_to(0.0, (batch, c_in, length)), np.zeros((c_out, c_in, kernel)), np.zeros(c_out))
    return plan[0]


def closed_form_tiles(out_len, batch, n_filters):
    """A call's tile count before rounding to the share count: tiles of at
    most BLOCK // (F * B) positions, or of one."""
    return -(-out_len // max(1, layers.BLOCK // (n_filters * batch)))


def tile_scratch(kernel, batch, tile, n_filters):
    """Elements of one share's scratch for tiles of at most ``tile``
    positions: one channel of a tile, an accumulator and a product."""
    return (tile + kernel - 1) * batch + 2 * n_filters * tile * batch


def test_forward_shares_position_tiles():
    """A forward call cuts ceil(out_len / max(1, BLOCK // (F * B))) tiles,
    rounded up to a multiple of the share count but never to more tiles
    than positions: from 0.1 s to 4 s at batch 128 and EVAL_CHUNK, every
    share has as many tiles and none is empty, also in calls of one and of
    five positions, each position holding more than BLOCK. The default
    calls keep the tile counts in DEFAULT_TILES, and conv2 at 4 s and batch
    128 runs 12 tiles on 2 CPUs."""
    assert list(DEFAULT_TILES) == short_window_geometries() + one_second_geometries() + sweep_geometries()
    cases = [(g, batch) for g in DEFAULT_TILES for batch in (128, EVAL_CHUNK)]
    cases += [((18, 33, 3, 3), 2730), ((18, 33, 3, 7), 2730)]
    for geometry, batch in cases:
        c_in, c_out, kernel, length = geometry
        out_len = length - kernel + 1
        n_tiles = closed_form_tiles(out_len, batch, c_out)
        if geometry in DEFAULT_TILES:
            assert n_tiles == DEFAULT_TILES[geometry][batch != 128], (geometry, batch)
        for cpus in (1, 2, 3, 4):
            n_shares, tiles = forward_plan(geometry, batch, cpus)
            assert n_shares == min(cpus, n_tiles)
            count = min(out_len, -(-n_tiles // n_shares) * n_shares)
            assert tiles == [(i * out_len // count, (i + 1) * out_len // count) for i in range(count)], (
                geometry,
                batch,
                cpus,
            )
            assert all(q > p for p, q in tiles)
            assert len(tiles) % n_shares == 0 or len(tiles) == out_len, (geometry, batch, cpus)
    n_shares, tiles = forward_plan(sweep_geometries()[-1], 128, 2)  # conv2 at 4 s
    assert (n_shares, len(tiles)) == (2, 12)
    assert forward_plan((18, 33, 3, 7), 2730, 4) == (4, [(p, p + 1) for p in range(5)])


def test_conv_forward_bits_do_not_depend_on_the_thread_count(monkeypatch, share_counts):
    """With the CPU count forced to 1, 2, 3 and 4, every call keeps the bits
    of the unblocked loop: conv1 and conv2 from 0.5 s to 4 s at batch 128 and
    EVAL_CHUNK, and wide layers that split into 3 and 4 shares. Every other
    filter has a -0.0 bias over -0.0 products, so every tile holds some,
    whichever share takes it."""
    rng = np.random.default_rng(59)
    for c_in, c_out, kernel, length in sweep_geometries((50, 100, 200, 400)) + WIDE_GEOMETRIES:
        w = rng.normal(size=(c_out, c_in, kernel))
        w[::2] = -np.abs(w[::2])
        b = np.where(np.arange(c_out) % 2 == 0, -0.0, rng.normal(size=c_out))
        for batch in (128, EVAL_CHUNK):
            # batch 128 through a (B, L, C) array seen through swapaxes, as conv1 reads its windows
            x = relu(rng.normal(size=(batch, length, c_in)))
            x = x.swapaxes(1, 2) if batch == 128 else np.ascontiguousarray(x.swapaxes(1, 2))
            x[::3] = 0.0  # whole windows of zeros: -0.0 products under the negative filters
            ref = conv_unblocked(x, w, b)
            plans = []
            for cpus in (1, 2, 3, 4):
                plan = forward_plan((c_in, c_out, kernel, length), batch, cpus)
                if plan not in plans:  # a CPU count that changes nothing runs the same code
                    plans.append(plan)
                    monkeypatch.setattr(layers, "usable_cpus", lambda cpus=cpus: cpus)
                    assert same_bits(conv1d_forward(x, w, b), ref), (c_in, c_out, length, batch, cpus)
    assert share_counts == {1, 2, 3, 4}


def test_many_shares_under_fast_thread_switching_take_every_block_once(monkeypatch, share_counts):
    """Eight shares, more than the cores of most machines that run this, with
    Python switching threads every microsecond: fresh inputs each round, so
    a tile taken twice or never (left with an earlier round's sums) would
    change the bits."""
    c_in, c_out, kernel, length = 24, 8, 3, 514
    monkeypatch.setattr(layers, "usable_cpus", lambda: 8)
    rng = np.random.default_rng(67)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            x = rng.normal(size=(128, c_in, length))
            w = rng.normal(size=(c_out, c_in, kernel))
            b = rng.normal(size=c_out)
            assert same_bits(conv1d_forward(x, w, b), conv_unblocked(x, w, b))
    finally:
        sys.setswitchinterval(interval)
    assert share_counts == {8}


def test_shares_without_a_thread_run_on_the_calling_thread(monkeypatch):
    """When the OS starts no helper, every item runs once, in order, as
    share 0 on the calling thread, and the forward keeps its bits."""

    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    ran = []
    run_shares(lambda s, item: ran.append((s, item, threading.get_ident())), range(5), 3)
    assert ran == [(0, item, threading.get_ident()) for item in range(5)]
    monkeypatch.setattr(layers, "usable_cpus", lambda: 2)
    c_in, c_out, kernel, length = sweep_geometries()[2]  # conv1 at 4 s
    rng = np.random.default_rng(71)
    x = rng.normal(size=(128, c_in, length))
    w = rng.normal(size=(c_out, c_in, kernel))
    b = rng.normal(size=c_out)
    assert same_bits(conv1d_forward(x, w, b), conv_unblocked(x, w, b))


def test_a_refused_helper_leaves_its_tiles_to_the_shares_that_started(monkeypatch, share_counts):
    """With the CPU count forced to 3 and the second helper refused by the
    OS, conv1 at 4 s runs on the calling thread and one helper, keeps the
    bits of the unblocked loop and leaves no thread behind."""
    start, starts = threading.Thread.start, []

    def second_refused(self):
        starts.append(self)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        start(self)

    monkeypatch.setattr(threading.Thread, "start", second_refused)
    monkeypatch.setattr(layers, "usable_cpus", lambda: 3)
    c_in, c_out, kernel, length = sweep_geometries()[2]  # conv1 at 4 s
    rng = np.random.default_rng(73)
    x = rng.normal(size=(128, c_in, length))
    w = rng.normal(size=(c_out, c_in, kernel))
    b = rng.normal(size=c_out)
    threads = threading.active_count()
    assert same_bits(conv1d_forward(x, w, b), conv_unblocked(x, w, b))
    assert len(starts) == 2
    assert threading.active_count() == threads
    assert share_counts == {3}


def test_each_share_holds_at_most_one_tiles_scratch(monkeypatch, share_counts):
    """Every share allocates scratch for one tile: one channel of the tile,
    an accumulator and a product. Rounding the tile count to the share
    count never lengthens a tile, so a call's scratch is at most one tile's
    per share of the closed-form plan, as the plan's arithmetic shows for
    every CPU count and tracemalloc for conv2 at 4 s on an eval chunk and 2
    CPUs."""
    for c_in, c_out, kernel, length in sweep_geometries((50, 100, 200, 400)) + WIDE_GEOMETRIES:
        out_len = length - kernel + 1
        for batch in (128, EVAL_CHUNK):
            n_tiles = closed_form_tiles(out_len, batch, c_out)
            limit = tile_scratch(kernel, batch, -(-out_len // n_tiles), c_out)
            for cpus in (1, 2, 3, 4):
                _, tiles = forward_plan((c_in, c_out, kernel, length), batch, cpus)
                tile = max(q - p for p, q in tiles)
                assert tile_scratch(kernel, batch, tile, c_out) <= limit, (c_in, length, batch, cpus)
    c_in, c_out, kernel, length = sweep_geometries()[-1]  # conv2 at 4 s
    rng = np.random.default_rng(61)
    x = rng.normal(size=(EVAL_CHUNK, c_in, length))
    w = rng.normal(size=(c_out, c_in, kernel))
    b = rng.normal(size=c_out)
    out_len = length - kernel + 1
    tile = -(-out_len // closed_form_tiles(out_len, EVAL_CHUNK, c_out))
    monkeypatch.setattr(layers, "usable_cpus", lambda: 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = conv1d_forward(x, w, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert share_counts == {2}
    budget = 2 * tile_scratch(kernel, EVAL_CHUNK, tile, c_out) * 8  # bytes of two shares' float64 scratch
    assert peak - out.nbytes <= budget + 2**16, (peak - out.nbytes, budget)


def test_threaded_forward_runs_under_the_callers_error_state(monkeypatch, share_counts):
    """The helpers start in a copy of the caller's context, which holds
    numpy's error state, so an overflow that the caller ignores warns
    nowhere, and one that it raises on raises in the caller."""
    monkeypatch.setattr(layers, "usable_cpus", lambda: 2)
    c_in, c_out, kernel, length = sweep_geometries()[2]  # conv1 at 4 s
    x = np.full((128, c_in, length), 1e200)
    w = np.full((c_out, c_in, kernel), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            out = conv1d_forward(x, w, np.zeros(c_out))
        assert np.isposinf(out).all()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            conv1d_forward(x, w, np.zeros(c_out))
    assert share_counts == {2}


def test_run_shares_reraises_a_helpers_exception_once_every_share_has_finished():
    """Item 1 raises in whichever share takes it; the other shares still
    finish items 0 and 2, and no helper outlives the call."""
    finished = []

    def work(s, item):
        if item == 1:
            raise KeyError("helper")
        time.sleep(0.2)
        finished.append(item)

    threads = threading.active_count()
    with pytest.raises(KeyError, match="helper"):
        run_shares(work, range(3), 3)
    assert sorted(finished) == [0, 2]
    assert threading.active_count() == threads


def _conv_backward_cases(rng):
    for c_in in range(1, 5):
        for c_out in range(1, 5):
            for length in range(1, 9):
                for kernel in range(1, length + 1):
                    yield rng.normal(size=(2, c_in, length)), rng.normal(size=(c_out, c_in, kernel))
    for c_in, c_out, kernel, length in sweep_geometries():
        yield rng.normal(size=(25, c_in, length)), rng.normal(size=(c_out, c_in, kernel))


def test_conv_gemm_backward_matches_einsum_loop():
    rng = np.random.default_rng(23)
    for x, w in _conv_backward_cases(rng):
        grad_out = rng.normal(size=(x.shape[0], w.shape[0], x.shape[2] - w.shape[2] + 1))
        got = conv1d_backward(x, w, grad_out)
        ref = conv_backward_einsum(x, w, grad_out)
        for g, r in zip(got, ref):
            assert g.shape == r.shape
            assert np.allclose(g, r, rtol=1e-12), (x.shape, w.shape)
        no_gx, gw, gb = conv1d_backward(x, w, grad_out, input_grad=False)
        assert no_gx is None
        assert np.array_equal(gw, got[1]) and np.array_equal(gb, got[2])
    # the weight gradient is bit-identical to one np.tensordot per tap
    for c_in, c_out, kernel, length in sweep_geometries():
        for batch in (1, 25):
            x = rng.normal(size=(batch, c_in, length))
            w = rng.normal(size=(c_out, c_in, kernel))
            grad_out = rng.normal(size=(batch, c_out, length - kernel + 1))
            _, gw, _ = conv1d_backward(x, w, grad_out, input_grad=False)
            for k in range(kernel):
                tap = np.tensordot(grad_out, x[:, :, k : k + length - kernel + 1], axes=([0, 2], [0, 2]))
                assert (gw[:, :, k] == tap).all(), (batch, c_in, length, k)


def test_conv_backward_rejects_a_grad_out_of_another_shape():
    x, w = np.ones((2, 3, 8)), np.ones((4, 3, 5))
    conv1d_backward(x, w, np.ones((2, 4, 4)))
    for shape in ((2, 4, 5), (1, 4, 4), (2, 3, 4)):
        with pytest.raises(ValueError, match=rf"grad_out shape \({shape[0]}, {shape[1]}, {shape[2]}\) does not match"):
            conv1d_backward(x, w, np.ones(shape))


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------


def test_maxpool_known_values():
    x = np.array([[[3.0, 1.0, 2.0, 5.0, 4.0]]])  # odd tail dropped
    pooled, first_wins = maxpool_forward(x)
    assert np.array_equal(pooled, np.array([[[3.0, 5.0]]]))
    assert first_wins.dtype == bool and np.array_equal(first_wins, np.array([[[True, False]]]))


def test_maxpool_tie_prefers_earlier():
    pooled, first_wins = maxpool_forward(np.array([[[2.0, 2.0, 1.0, 1.0]]]))
    assert np.array_equal(pooled, np.array([[[2.0, 1.0]]]))
    assert np.array_equal(first_wins, np.array([[[True, True]]]))


def test_maxpool_rejects_length_one():
    with pytest.raises(ValueError, match="too short"):
        maxpool_forward(np.ones((1, 1, 1)))


def test_maxpool_backward_scatters_to_argmax():
    x = np.array([[[3.0, 1.0, 2.0, 5.0]]])
    _, first_wins = maxpool_forward(x)
    grad = maxpool_backward(first_wins, np.array([[[10.0, 20.0]]]), 4)
    assert np.array_equal(grad, np.array([[[10.0, 0.0, 0.0, 20.0]]]))


def test_maxpool_backward_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shapes must match"):
        maxpool_backward(np.array([[[True]]]), np.array([[[1.0, 2.0]]]), 4)
    with pytest.raises(ValueError, match="do not pool input length 6"):
        maxpool_backward(np.array([[[True, False]]]), np.array([[[1.0, 2.0]]]), 6)


@settings(max_examples=50)
@given(st.integers(2, 31), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_maxpool_grad_mass_is_conserved(length, channels, seed):
    """Everything routed back lands on exactly one input per pair."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, channels, length))
    pooled, first_wins = maxpool_forward(x)
    gout = rng.normal(size=pooled.shape)
    gin = maxpool_backward(first_wins, gout, length)
    assert gin.shape == x.shape
    assert np.allclose(gin.sum(), gout.sum())
    # the winners' positions hold the pooled values' gradients exactly
    idx = 2 * np.arange(pooled.shape[2]) + ~first_wins
    assert np.array_equal(np.take_along_axis(x, idx, axis=2), pooled)
    assert np.array_equal(np.take_along_axis(gin, idx, axis=2), gout)


# ---------------------------------------------------------------------------
# dense / relu
# ---------------------------------------------------------------------------


def test_dense_forward_known_value():
    x = np.array([[1.0, 2.0]])
    w = np.array([[3.0, 4.0], [5.0, 6.0]])
    b = np.array([0.5, -0.5])
    assert np.array_equal(dense_forward(x, w, b), np.array([[11.5, 16.5]]))


def test_dense_backward_matches_finite_differences():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(3, 6))
    b = rng.normal(size=3)
    target = rng.normal(size=(4, 3))

    def loss():
        return 0.5 * ((dense_forward(x, w, b) - target) ** 2).sum()

    grad_out = dense_forward(x, w, b) - target
    gx, gw, gb = dense_backward(x, w, grad_out)
    assert np.allclose(gx, central_diff(loss, x), rtol=1e-6, atol=1e-9)
    assert np.allclose(gw, central_diff(loss, w), rtol=1e-6, atol=1e-9)
    assert np.allclose(gb, central_diff(loss, b), rtol=1e-6, atol=1e-9)


def test_relu_zero_subgradient_at_zero():
    x = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(relu(x), np.array([0.0, 0.0, 2.0]))
    g = relu_backward(x, np.ones(3))
    assert np.array_equal(g, np.array([0.0, 0.0, 1.0]))  # exactly 0 at the kink


# ---------------------------------------------------------------------------
# softmax + cross-entropy
# ---------------------------------------------------------------------------


def test_softmax_loss_against_mpmath():
    """High: loss for peaked logits [10,0,0,0,0] with the peak correct is
    ln(1 + 4 e^-10); frozen here from a 50-digit evaluation."""
    with mpmath.workdps(50):
        expected = float(mpmath.log(1 + 4 * mpmath.e**-10))
    loss, _ = softmax_xent(np.array([[10.0, 0.0, 0.0, 0.0, 0.0]]), np.array([0]))
    assert expected == pytest.approx(1.8158323094380936e-04, rel=1e-12)
    assert loss[0] == pytest.approx(expected, rel=1e-12)


def test_softmax_uniform_logits():
    loss, grad = softmax_xent(np.zeros((1, 5)), np.array([2]))
    assert loss[0] == pytest.approx(np.log(5.0), rel=1e-15)
    expected_grad = np.full(5, 0.2)
    expected_grad[2] -= 1.0
    assert np.allclose(grad[0], expected_grad)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(17)
    logits = rng.normal(size=(6, 5))
    classes = rng.integers(0, 5, size=6)
    l1, g1 = softmax_xent(logits, classes)
    l2, g2 = softmax_xent(logits + 123.456, classes)
    assert np.allclose(l1, l2, atol=1e-10)
    assert np.allclose(g1, g2, atol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    loss, grad = softmax_xent(np.array([[1000.0, -1000.0, 0.0]]), np.array([1]))
    assert np.isfinite(loss)
    assert np.isfinite(grad).all()


def test_softmax_rejects_bad_input():
    with pytest.raises(DivergenceError, match="non-finite"):
        softmax_xent(np.array([[np.inf, 0.0]]), np.array([0]))
    with pytest.raises(ValueError, match="range"):
        softmax_xent(np.zeros((1, 3)), np.array([3]))
    with pytest.raises(ValueError):
        softmax_xent(np.zeros((2, 3)), np.array([0]))
    with pytest.raises(ValueError, match="per logit row"):
        softmax_xent(np.zeros(3), np.array([0]))  # logits come in (B, n) rows


@given(st.integers(0, 2**31 - 1), st.integers(2, 8), st.integers(1, 6))
def test_softmax_grad_rows_sum_to_zero(seed, n_classes, batch):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(batch, n_classes)) * 3
    classes = rng.integers(0, n_classes, size=batch)
    losses, grads = softmax_xent(logits, classes)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-12)
    assert (losses > 0).all()


def test_softmax_grad_is_exp_over_its_row_sum_bitwise():
    """The probabilities are exp(shifted) / sum_exp, one division each: a
    multiply by the reciprocal rounds differently in about a fifth of the
    entries, and would change every trained weight after it."""
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(2048, 10)) * 4
    classes = rng.integers(0, 10, size=2048)
    _, grads = softmax_xent(logits, classes)
    shifted = logits - logits.max(axis=1, keepdims=True)
    want = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    want[np.arange(2048), classes] -= 1.0
    assert np.array_equal(grads, want)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def test_dropout_eval_is_bit_identical_passthrough():
    x = np.random.default_rng(0).normal(size=(4, 7))
    y, mask = dropout(x, 0.3, training=False)
    assert y is x
    assert mask is None


def test_dropout_rate_zero_is_passthrough_even_training():
    x = np.ones((2, 2))
    y, mask = dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
    assert y is x and mask is None


def test_dropout_scales_survivors():
    rng = np.random.default_rng(123)
    x = np.ones((200, 50))
    y, mask = dropout(x, 0.3, training=True, rng=rng)
    vals = np.unique(y)
    assert set(np.round(vals, 12)) <= {0.0, np.round(1 / 0.7, 12)}
    # kept fraction concentrates near 0.7
    assert abs((y != 0).mean() - 0.7) < 0.02
    # backward reuses the same mask
    g = dropout_backward(mask, np.ones_like(x))
    assert np.array_equal(g, mask)


def test_dropout_keeps_a_draw_equal_to_the_rate():
    """A unit survives when its uniform draw is at least the rate, so it is
    kept with probability 1 - rate. No draw of numpy's generator equals 0.3
    (its draws are multiples of 2**-53), so a stub generator shows the
    boundary."""

    class Draws:
        def random(self, shape):
            return np.array([0.25, 0.5, 0.75]).reshape(shape)

    _, mask = dropout(np.ones((1, 3)), 0.5, training=True, rng=Draws())
    assert mask.tolist() == [[0.0, 2.0, 2.0]]


def test_dropout_rejects_bad_rate():
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="rate"):
            dropout(np.ones(3), rate, training=True, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="rng"):
        dropout(np.ones(3), 0.5, training=True)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_first_step_direction_and_size():
    # After bias correction the very first step is lr * g / (|g| + eps).
    p = np.array([1.0])
    state = init_adam(p, lr=0.1)
    adam_step(state, p, np.array([4.0]))
    expected = 1.0 - 0.1 * 4.0 / (4.0 + 1e-8)
    assert p[0] == pytest.approx(expected, rel=1e-14)
    assert state.t == 1


def test_adam_matches_mpmath_reference():
    """Five scalar steps on a fixed gradient sequence, checked against a
    40-digit re-derivation of the update rule (epsilon outside the root)."""
    grads = [0.3, -1.2, 0.7, 0.05, -0.4]
    p = np.array([0.5])
    state = init_adam(p, lr=1e-3)
    for g in grads:
        adam_step(state, p, np.array([g]))

    with mpmath.workdps(40):
        lr, b1, b2, eps = mpmath.mpf("1e-3"), mpmath.mpf("0.9"), mpmath.mpf("0.999"), mpmath.mpf("1e-8")
        theta, m, v = mpmath.mpf("0.5"), mpmath.mpf(0), mpmath.mpf(0)
        for t, gf in enumerate(grads, start=1):
            g = mpmath.mpf(repr(gf))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            theta -= lr * mhat / (mpmath.sqrt(vhat) + eps)
        expected = float(theta)

    assert p[0] == pytest.approx(expected, rel=1e-13)


def test_adam_moment_recursion_known_values():
    p = np.zeros(1)
    state = init_adam(p, lr=1e-3)
    adam_step(state, p, np.array([2.0]))
    assert state.m[0] == pytest.approx(0.2, rel=1e-15)  # (1-0.9)*2
    assert state.v[0] == pytest.approx(0.004, rel=1e-15)  # (1-0.999)*4
    adam_step(state, p, np.array([-1.0]))
    assert state.m[0] == pytest.approx(0.9 * 0.2 + 0.1 * -1.0, rel=1e-14)
    assert state.v[0] == pytest.approx(0.999 * 0.004 + 0.001 * 1.0, rel=1e-14)


def test_adam_updates_in_place_across_tensors():
    """The step writes into the vector itself, so tensors viewing it see
    the update."""
    params = np.concatenate([np.ones(4), np.zeros(3)])
    a, b = params[:4].reshape(2, 2), params[4:]
    state = init_adam(params, lr=0.01)
    adam_step(state, params, np.concatenate([np.ones(4), np.full(3, -1.0)]))
    assert (a < 1.0).all()
    assert (b > 0.0).all()


def test_adam_rejects_non_finite_gradient():
    p = np.ones(2)
    state = init_adam(p, lr=1e-3)
    with pytest.raises(DivergenceError, match="non-finite"):
        adam_step(state, p, np.array([1.0, np.nan]))
    assert state.t == 0  # nothing applied
    assert (p == 1.0).all() and not state.m.any()


def test_adam_rejects_mismatched_shapes():
    p = np.ones(2)
    state = init_adam(p, lr=1e-3)
    for params, grads in ((p, np.ones(3)), (np.ones(3), np.ones(3)), (p, np.ones((2, 1)))):
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, params, grads)
    assert state.t == 0
    assert (p == 1.0).all() and not state.m.any()


def _per_tensor_adam_step(ms, vs, t, lr, params, grads):
    """The per-tensor Adam loop, one tensor at a time: the oracle for the
    step over one flat vector."""
    b1t = 1.0 - ADAM_BETA1**t
    b2t = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, ms, vs):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


def test_flat_adam_matches_the_per_tensor_loop_bit_for_bit():
    """Seven steps over the default model's ten tensors at 2 s, gradients
    spanning eight orders of magnitude with exact and negative zeros: the
    flat step leaves the parameters and both moments bit-equal to the
    per-tensor loop."""
    spec = ModelSpec()
    shapes = list(param_shapes(spec, plan_shapes(spec, 200)).values())
    assert len(shapes) == 10
    rng = np.random.default_rng(3)
    tensors = [rng.normal(size=shape) for shape in shapes]
    ms, vs = [np.zeros(shape) for shape in shapes], [np.zeros(shape) for shape in shapes]
    flat = np.concatenate([t.ravel() for t in tensors])
    state = init_adam(flat, lr=1e-3)
    for t in range(1, 8):
        grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape) for shape in shapes]
        grads[1][:] = 0.0
        grads[3][::2] = -0.0
        adam_step(state, flat, np.concatenate([g.ravel() for g in grads]))
        _per_tensor_adam_step(ms, vs, t, 1e-3, tensors, grads)
    for got, want in ((flat, tensors), (state.m, ms), (state.v, vs)):
        want = np.concatenate([w.ravel() for w in want])
        assert (got.view(np.uint64) == want.view(np.uint64)).all()

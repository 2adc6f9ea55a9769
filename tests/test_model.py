"""Shape planning, initialization, the assembled forward/backward pass and
checkpoint round-trips."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from harwin.dataset import ACTIVITY_CLASSES, N_CHANNELS, SAMPLE_RATE_HZ
from harwin.experiment import DEFAULT_WINDOWS_SEC, select_kernels
from harwin.layers import (
    GeometryError,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    dropout,
    dropout_backward,
    maxpool_backward,
    maxpool_forward,
    relu,
    relu_backward,
    softmax_xent,
)
from harwin.model import (
    DROPOUT_RATE,
    EVAL_CHUNK,
    LONG_KERNELS,
    ModelParams,
    ModelSpec,
    TrainConfig,
    backward,
    build_model,
    evaluate,
    forward,
    gather,
    load_model,
    loss_and_grads,
    param_count,
    param_shapes,
    plan_shapes,
    save_model,
)
from harwin.preprocess import ChannelStats

# Hand-evaluated against the length recurrences with the pool-skip rules:
# conv1 = W - K1 + 1, halve if floor(conv1/2) >= K2, conv2 = . - K2 + 1,
# halve if conv2 >= 2, flatten = 32 * final length.
SHAPE_TABLE = {
    10: (3, 5, 64),
    25: (3, 5, 96),
    50: (7, 11, 192),
    100: (7, 11, 576),
    200: (7, 11, 1376),
    400: (7, 11, 2976),
}


def test_plan_shapes_reproduces_expected_flatten_sizes():
    for window, (k1, k2, flat) in SHAPE_TABLE.items():
        plan = plan_shapes(ModelSpec(kernels=(k1, k2)), window)
        assert plan.flatten == flat, f"W={window}"


def test_plan_shapes_w50_intermediates():
    plan = plan_shapes(ModelSpec(kernels=(7, 11)), 50)
    assert (plan.conv1_out, plan.pool1_out, plan.conv2_out, plan.pool2_out) == (44, 22, 12, 6)
    assert plan.pool1_applied and plan.pool2_applied


def test_plan_shapes_skips_first_pool_when_it_would_starve_conv2():
    # W=10, kernels (3,5): conv1=8, halving to 4 leaves no room for K2=5
    plan = plan_shapes(ModelSpec(kernels=(3, 5)), 10)
    assert not plan.pool1_applied
    assert plan.pool1_out == 8
    assert plan.conv2_out == 4
    assert plan.pool2_applied
    assert plan.flatten == 64


def test_plan_shapes_skips_second_pool_on_single_position():
    # 12 -> conv1 10 -> pool 5 -> conv2 1: nothing left to pool
    plan = plan_shapes(ModelSpec(kernels=(3, 5), conv_filters=(2, 3)), 12)
    assert plan.pool1_applied
    assert plan.conv2_out == 1
    assert not plan.pool2_applied
    assert plan.flatten == 3


def test_plan_shapes_rejects_window_below_first_kernel():
    with pytest.raises(GeometryError, match="architecture invalid"):
        plan_shapes(ModelSpec(kernels=(7, 11)), 6)


def test_plan_shapes_rejects_window_too_short_for_second_kernel():
    # W=11, kernels (7,11): conv1=5 stays unpooled but is still < 11
    with pytest.raises(GeometryError, match="architecture invalid"):
        plan_shapes(ModelSpec(kernels=(7, 11)), 11)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(conv_filters=(0, 32))


def test_model_spec_names_the_size_that_is_not_positive():
    for name in ("in_channels", "n_classes"):
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            ModelSpec(**{name: 0})
    with pytest.raises(ValueError, match="^kernels entries must be positive$"):
        ModelSpec(kernels=(3, -1))


def test_model_spec_defaults_come_from_the_data_and_the_kernel_rule():
    assert ModelSpec() == ModelSpec(N_CHANNELS, (16, 32), LONG_KERNELS, len(ACTIVITY_CLASSES))
    assert [f.name for f in fields(ModelSpec)] == ["in_channels", "conv_filters", "kernels", "n_classes"]


def test_build_model_shapes_and_init():
    spec = ModelSpec()
    net = build_model(spec, 50, seed=0)
    assert net.conv1_w.shape == (16, 18, 7)
    assert net.conv2_w.shape == (32, 16, 11)
    assert net.dense1_w.shape == (32, 192)
    assert net.dense2_w.shape == (24, 32)
    assert net.out_w.shape == (5, 24)
    for b in (net.conv1_b, net.conv2_b, net.dense1_b, net.dense2_b, net.out_b):
        assert not b.any()
    # uniform bounds follow sqrt(6 / fan_in) per tensor
    assert np.abs(net.conv1_w).max() <= np.sqrt(6 / (18 * 7))
    assert np.abs(net.dense1_w).max() <= np.sqrt(6 / 192)
    # and the draws actually come close to the bound
    assert np.abs(net.conv1_w).max() > 0.9 * np.sqrt(6 / (18 * 7))


def test_build_model_draws_each_weight_in_declaration_order():
    """The flat vector holds, bit for bit, the draws of a per-tensor init:
    each weight from the one seeded rng in param_shapes order, each bias
    zero. Every tensor is a view of the vector in its param_shapes shape."""
    spec = ModelSpec()
    net = build_model(spec, 50, seed=7)
    rng = np.random.default_rng(7)
    want = []
    for shape in param_shapes(spec, net.plan).values():
        bound = np.sqrt(6.0 / math.prod(shape[1:]))
        want.append(np.zeros(shape) if len(shape) == 1 else rng.uniform(-bound, bound, size=shape))
    assert [t.shape for t in net.tensors()] == [w.shape for w in want]
    assert all(np.shares_memory(t, net.flat) for t in net.tensors())
    want_flat = np.concatenate([w.ravel() for w in want])
    assert (net.flat.view(np.uint64) == want_flat.view(np.uint64)).all()


def test_model_params_rejects_a_malformed_vector():
    """The vector must be 1-D, float64, contiguous and exactly as long as
    the tensors' elements; a strided one would make the tensors copies."""
    net = build_model(ModelSpec(kernels=(3, 5)), 25, seed=11)
    n = net.flat.size
    assert n == param_count(net.spec, net.plan)
    bad = (
        np.zeros(n - 1),
        np.zeros(n + 1),
        np.zeros((1, n)),
        np.zeros(n, dtype=np.float32),
        np.zeros(2 * n)[::2],
        list(net.flat),
    )
    for flat in bad:
        with pytest.raises(ValueError, match=f"contiguous float64 vector of {n} elements"):
            ModelParams(net.spec, net.plan, flat)
    again = ModelParams(net.spec, net.plan, net.flat)
    again.out_b[0] = 2.5  # the views write through to the shared vector
    assert net.flat[-len(net.out_b)] == 2.5


def test_build_model_seed_determinism():
    a = build_model(ModelSpec(), 50, seed=9)
    b = build_model(ModelSpec(), 50, seed=9)
    c = build_model(ModelSpec(), 50, seed=10)
    for ta, tb in zip(a.tensors(), b.tensors()):
        assert np.array_equal(ta, tb)
    assert not np.array_equal(a.conv1_w, c.conv1_w)


def test_forward_shapes_and_eval_determinism():
    net = build_model(ModelSpec(), 50, seed=1)
    rng = np.random.default_rng(2)
    batch = rng.normal(size=(6, 50, 18))
    logits1, _ = forward(net, batch)
    logits2, _ = forward(net, batch)
    assert logits1.shape == (6, 5)
    assert np.array_equal(logits1, logits2)  # eval mode has no randomness


def test_gather_is_channel_major_and_forward_convolves_it_in_place():
    """gather returns a (B, W, C) view of (B, C, W) memory holding
    (x[idx] - mean) / std bit for bit, whatever the layout of the windows it
    reads; forward's channel-major input is that memory."""
    rng = np.random.default_rng(41)
    sig = rng.normal(size=(18, 160))
    view = sliding_window_view(sig, 50, axis=1).transpose(1, 2, 0)  # (N, W, C) over a (C, T) signal
    stats = ChannelStats(rng.normal(size=18), rng.uniform(0.5, 2.0, size=18))
    idx = rng.permutation(len(view))[:25]
    want = (view[idx] - stats.mean) / stats.std
    model = build_model(ModelSpec(kernels=(7, 11)), 50, seed=3)
    for x in (view, np.ascontiguousarray(view)):
        gathered = gather(x, idx, stats)
        assert gathered.shape == (25, 50, 18)
        assert gathered.transpose(0, 2, 1).flags.c_contiguous
        assert (gathered.view(np.uint64) == want.view(np.uint64)).all()
        _, cache = forward(model, gathered, training=True, rng=np.random.default_rng(0))
        assert np.shares_memory(cache[0], gathered)
    assert gather(view, idx[:0], stats).shape == (0, 50, 18)


def test_forward_rejects_wrong_window_shape():
    net = build_model(ModelSpec(), 50, seed=1)
    with pytest.raises(ValueError, match="expected windows"):
        forward(net, np.zeros((2, 49, 18)))
    with pytest.raises(ValueError, match="expected windows"):
        forward(net, np.zeros((2, 50, 17)))


def test_forward_training_dropout_differs_and_is_seeded():
    net = build_model(ModelSpec(), 50, seed=1)
    batch = np.random.default_rng(3).normal(size=(4, 50, 18))
    eval_logits, _ = forward(net, batch)
    t1, _ = forward(net, batch, training=True, rng=np.random.default_rng(7))
    t2, _ = forward(net, batch, training=True, rng=np.random.default_rng(7))
    t3, _ = forward(net, batch, training=True, rng=np.random.default_rng(8))
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, t3)
    assert not np.array_equal(t1, eval_logits)


def test_uncached_forward_gives_the_cached_logits_bit_for_bit():
    """Evaluation's pass (in-place ReLU, no cache) and the cached pass give
    the same logit bits at every default duration, and on plans that skip
    pool 1, pool 2 or both; neither writes to its input windows."""
    rng = np.random.default_rng(47)
    cases = [(int(round(sec * SAMPLE_RATE_HZ)), select_kernels(sec)) for sec in DEFAULT_WINDOWS_SEC]
    cases += [(12, (3, 5)), (7, (3, 5))]  # pool 2 skipped; both pools skipped
    plans = set()
    for window, kernels in cases:
        net = build_model(ModelSpec(kernels=kernels), window, seed=window)
        plans.add((net.plan.pool1_applied, net.plan.pool2_applied))
        batch = rng.normal(size=(9, window, 18))
        batch[::4] = 0.0  # whole windows of zeros, so ReLU meets exact zeros
        before = batch.copy()
        cached, cache = forward(net, batch)
        uncached, none = forward(net, batch, keep_cache=False)
        assert none is None and cache is not None
        assert (uncached.view(np.uint64) == cached.view(np.uint64)).all(), window
        assert (batch.view(np.uint64) == before.view(np.uint64)).all(), window
    assert {(False, True), (True, False), (False, False)} <= plans


def test_evaluate_leaves_its_windows_unchanged():
    rng = np.random.default_rng(53)
    x = rng.normal(size=(40, 50, 18))
    y = rng.integers(0, 5, size=40)
    stats = ChannelStats(rng.normal(size=18), rng.uniform(0.5, 2.0, size=18))
    before = x.copy()
    evaluate(build_model(ModelSpec(), 50, seed=2), x, y, np.arange(0, 40, 3), stats)
    assert (x.view(np.uint64) == before.view(np.uint64)).all()


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("window", [50, 100, 200, 400])
def test_activation_peaks_stay_a_small_multiple_of_the_input(window):
    """Evaluating one EVAL_CHUNK of windows keeps no backward cache and drops
    each activation after its reader, the input right after conv1: it peaks
    under 2.5x the gathered chunk (1.95-2.35x measured). A training step at
    batch 128 runs the conv ReLUs in place, caches no conv output and drops
    each cached array and gradient once read: under 3.5x the batch
    (2.6-3.1x measured)."""
    rng = np.random.default_rng(window)
    net = build_model(ModelSpec(kernels=(7, 11)), window, seed=1)
    signal = rng.normal(size=(18, EVAL_CHUNK + window - 1))
    x = sliding_window_view(signal, window, axis=1).transpose(1, 2, 0)  # (N, W, C) over a (C, T) signal
    y = rng.integers(0, 5, size=len(x))
    stats = ChannelStats(rng.normal(size=18), rng.uniform(0.5, 2.0, size=18))
    idx = rng.permutation(len(x))
    chunk_bytes = EVAL_CHUNK * window * 18 * 8
    assert _peak_bytes(lambda: evaluate(net, x, y, idx, stats)) <= 2.5 * chunk_bytes
    batch = gather(x, idx[:128], stats)
    step = lambda: loss_and_grads(net, batch, y[idx[:128]], training=True, rng=np.random.default_rng(0))
    assert _peak_bytes(step) <= 3.5 * batch.nbytes


def _grads_in_the_cached_pre_activation_order(net, windows, classes, rng):
    """loss_and_grads as it ran while the cache held each conv layer's
    pre-activation: ReLU out of place, and backward routed each pooled
    gradient through its pool before masking it by the pre-activation.
    Returns the gradients and the two pre-activations."""
    plan = net.plan
    x = np.ascontiguousarray(windows.transpose(0, 2, 1))
    a1 = conv1d_forward(x, net.conv1_w, net.conv1_b)
    p1, first1 = maxpool_forward(relu(a1)) if plan.pool1_applied else (relu(a1), None)
    a2 = conv1d_forward(p1, net.conv2_w, net.conv2_b)
    p2, first2 = maxpool_forward(relu(a2)) if plan.pool2_applied else (relu(a2), None)
    flat = p2.reshape(len(p2), plan.flatten)
    z1 = dense_forward(flat, net.dense1_w, net.dense1_b)
    h1d, mask1 = dropout(relu(z1), DROPOUT_RATE, True, rng)
    z2 = dense_forward(h1d, net.dense2_w, net.dense2_b)
    h2d, mask2 = dropout(relu(z2), DROPOUT_RATE, True, rng)
    _, g = softmax_xent(dense_forward(h2d, net.out_w, net.out_b), classes)
    g_h2d, g_out_w, g_out_b = dense_backward(h2d, net.out_w, g / len(windows))
    g_h1d, g_d2_w, g_d2_b = dense_backward(h1d, net.dense2_w, relu_backward(z2, dropout_backward(mask2, g_h2d)))
    g_flat, g_d1_w, g_d1_b = dense_backward(flat, net.dense1_w, relu_backward(z1, dropout_backward(mask1, g_h1d)))
    g_r2 = g_flat.reshape(p2.shape)
    if plan.pool2_applied:
        g_r2 = maxpool_backward(first2, g_r2, plan.conv2_out)
    g_p1, g_c2_w, g_c2_b = conv1d_backward(p1, net.conv2_w, relu_backward(a2, g_r2))
    g_r1 = maxpool_backward(first1, g_p1, plan.conv1_out) if plan.pool1_applied else g_p1
    _, g_c1_w, g_c1_b = conv1d_backward(x, net.conv1_w, relu_backward(a1, g_r1), input_grad=False)
    return [g_c1_w, g_c1_b, g_c2_w, g_c2_b, g_d1_w, g_d1_b, g_d2_w, g_d2_b, g_out_w, g_out_b], a1, a2


@pytest.mark.parametrize(
    "window, kernels",
    [(51, (7, 11)), (10, (3, 5)), (12, (3, 5)), (7, (3, 5))],  # pools: both, second, first, neither
)
def test_backward_masks_the_pooled_map_bit_for_bit(window, kernels):
    """backward takes each conv ReLU's gradient from the pooled map, then
    routes it through the pool; the gradients are bit-identical to routing
    first and masking by the pre-activation. The batch holds pooling ties
    (windows constant in time), exact zero pre-activations (windows of
    zeros), -0.0 ones (a filter of positive weights and a -0.0 bias over a
    window of -0.0s), exact zeros in conv2 too (a zero bias over the zero
    window's all-zero map) and negative upstream gradients. At 51 samples
    conv1's output has an odd length, so the pool drops a trailing element."""
    rng = np.random.default_rng(window)
    net = build_model(ModelSpec(kernels=kernels), window, seed=window)
    net.conv1_w[0] = np.abs(net.conv1_w[0])
    net.conv1_b[0] = -0.0
    net.conv2_b[1:] = rng.normal(0.0, 0.1, size=len(net.conv2_b) - 1)  # filter 0 stays at 0.0 on zeros
    windows = rng.normal(size=(12, window, 18))
    windows[1] = 0.0
    windows[2] = -0.0
    windows[3:6] = rng.normal(size=(3, 1, 18))  # constant in time: every pool pair ties
    classes = rng.integers(0, 5, size=12)

    want, a1, a2 = _grads_in_the_cached_pre_activation_order(net, windows, classes, np.random.default_rng(0))
    assert ((a1 == 0.0) & np.signbit(a1)).any() and ((a1 == 0.0) & ~np.signbit(a1)).any()
    assert (a2 == 0.0).any() and (a1 < 0).any() and (a2 < 0).any()
    _, got = loss_and_grads(net, windows, classes, training=True, rng=np.random.default_rng(0))
    for name, g, w in zip(param_shapes(net.spec, net.plan), got.tensors(), want, strict=True):
        assert (g.view(np.uint64) == w.view(np.uint64)).all(), name


def test_backward_empties_the_cache():
    """backward takes every array out of the cache, so no caller's
    reference keeps one alive past its last reader, and returns the
    gradients as a model of their own: the spec and plan of ``net``, in a
    flat vector that shares no memory with its parameters."""
    net = build_model(ModelSpec(), 50, seed=1)
    rng = np.random.default_rng(5)
    logits, cache = forward(net, rng.normal(size=(4, 50, 18)), training=True, rng=rng)
    grads = backward(net, cache, softmax_xent(logits, rng.integers(0, 5, size=4))[1])
    assert cache == []
    assert (grads.spec, grads.plan) == (net.spec, net.plan) and not np.shares_memory(grads.flat, net.flat)


def test_gradients_match_finite_differences_small_net():
    """Spot FD check on a thinned net; the exhaustive multi-seed sweep lives
    in the acceptance suite."""
    spec = ModelSpec(in_channels=2, conv_filters=(2, 3), kernels=(3, 5), n_classes=5)
    net = build_model(spec, 12, seed=3)
    rng = np.random.default_rng(4)
    windows = rng.normal(size=(3, 12, 2))
    classes = rng.integers(0, 5, size=3)
    _, grads = loss_and_grads(net, windows, classes)
    h = 1e-5
    for tensor, grad in zip(net.tensors(), grads.tensors()):
        flat = tensor.ravel()
        gflat = grad.ravel()
        for i in range(0, flat.size, max(1, flat.size // 5)):
            old = flat[i]
            flat[i] = old + h
            hi, _ = loss_and_grads(net, windows, classes)
            flat[i] = old - h
            lo, _ = loss_and_grads(net, windows, classes)
            flat[i] = old
            fd = (hi - lo) / (2 * h)
            assert fd == pytest.approx(gflat[i], rel=1e-4, abs=1e-7)


def test_loss_grads_scale_with_batch_mean():
    spec = ModelSpec(in_channels=2, conv_filters=(2, 3), kernels=(3, 5))
    net = build_model(spec, 12, seed=5)
    rng = np.random.default_rng(6)
    w = rng.normal(size=(1, 12, 2))
    y = np.array([1])
    loss1, grads1 = loss_and_grads(net, w, y)
    # duplicating the sample leaves the mean loss and gradients unchanged
    loss2, grads2 = loss_and_grads(net, np.repeat(w, 4, axis=0), np.repeat(y, 4))
    assert loss2 == pytest.approx(loss1, rel=1e-12)
    for g1, g2 in zip(grads1.tensors(), grads2.tensors()):
        assert np.allclose(g1, g2, rtol=1e-12, atol=1e-15)


def test_checkpoint_round_trip_is_exact(tmp_path):
    net = build_model(ModelSpec(kernels=(3, 5)), 25, seed=11)
    path = tmp_path / "model.bin"
    save_model(net, path)
    back = load_model(path)
    assert back.spec == net.spec
    assert back.plan == net.plan
    for a, b in zip(net.tensors(), back.tensors()):
        assert np.array_equal(a, b)  # bit-exact, not approx
    assert all(np.shares_memory(t, back.flat) for t in back.tensors())
    assert (back.flat.view(np.uint64) == net.flat.view(np.uint64)).all()


def test_checkpoint_bytes_are_pinned(tmp_path):
    """The HARM1 layout, byte for byte: magic, the spec header (u32 fields,
    pairs flattened, then the f64 dropout rate), the plan header (six u32
    lengths, two u8 flags), then every tensor as little-endian f64 in
    tensors() order."""
    net = build_model(ModelSpec(in_channels=2, conv_filters=(2, 3), kernels=(3, 5)), 12, seed=0)
    path = tmp_path / "model.bin"
    save_model(net, path)
    blob = path.read_bytes()
    magic = b"HARM1"
    spec_header = bytes.fromhex(
        "02000000" "02000000" "03000000" "03000000" "05000000"  # in_channels, conv_filters, kernels
        "02000000" "20000000" "18000000" "05000000"  # pool_width, dense_sizes (32, 24), n_classes
        "333333333333d33f"  # dropout_rate 0.3
    )
    plan_header = bytes.fromhex(
        "0c000000" "0a000000" "05000000" "01000000" "01000000" "03000000"  # 12, 10, 5, 1, 1, 3
        "01" "00"  # pool1 applied, pool2 skipped
    )
    tensors = b"".join(t.astype("<f8").tobytes() for t in net.tensors())
    assert blob[:5] == magic
    assert blob[5:49] == spec_header
    assert blob[49:75] == plan_header
    assert blob[75:] == tensors


def test_checkpoint_rejects_garbage(tmp_path):
    """Every damaged checkpoint is a ValueError whose message starts with
    the file's path, a header slot that the fixed layers, the spec or the
    plan reject included."""
    import struct

    path = tmp_path / "bad.bin"
    net = build_model(ModelSpec(kernels=(3, 5)), 25, seed=11)
    save_model(net, path)
    blob = path.read_bytes()

    def patched(offset, fmt, value):
        return blob[:offset] + struct.pack(fmt, value) + blob[offset + struct.calcsize(fmt) :]

    spec_at = len(b"HARM1")
    plan_at = spec_at + struct.calcsize("<9Id")
    cases = [
        (b"XXXXX" + b"\x00" * 64, "not a model checkpoint (bad magic)"),
        (blob[:-16], "truncated model checkpoint"),
        (blob + b"\x00", "trailing bytes in model checkpoint"),
        (patched(spec_at + 36, "<d", 1.5), "fixed layers differ: pool width 2, dense sizes (32, 24), dropout rate 1.5"),
        (patched(spec_at + 20, "<I", 3), "fixed layers differ: pool width 3, dense sizes (32, 24), dropout rate 0.3"),
        (patched(spec_at + 28, "<I", 25), "fixed layers differ: pool width 2, dense sizes (32, 25), dropout rate 0.3"),
        (patched(spec_at + 12, "<I", 99), "first kernel 99 does not fit"),
        (patched(plan_at, "<I", 3), "second kernel 5 does not fit in 1"),
    ]
    for damaged, message in cases:
        path.write_bytes(damaged)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: "), str(err.value)
        assert message in str(err.value)
        assert str(err.value).count(str(path)) == 1


def test_checkpoint_rejects_a_plan_its_spec_does_not_give(tmp_path):
    """The shape plan follows from the spec and window length; a stored plan
    that contradicts them fails at load, not later in forward."""
    import struct

    net = build_model(ModelSpec(), 50, seed=0)
    path = tmp_path / "model.bin"
    save_model(net, path)
    blob = path.read_bytes()
    plan_at = len(b"HARM1") + struct.calcsize("<9Id")
    window_len_patched = blob[:plan_at] + struct.pack("<I", 60) + blob[plan_at + 4 :]
    pool2_at = plan_at + struct.calcsize("<6I2B") - 1
    pool2_flipped = blob[:pool2_at] + bytes([1 - blob[pool2_at]]) + blob[pool2_at + 1 :]
    for patched in (window_len_patched, pool2_flipped):
        path.write_bytes(patched)
        with pytest.raises(ValueError, match="stored shape plan does not match its architecture"):
            load_model(path)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=-1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    assert TrainConfig(seed=0).seed == 0
    cfg = TrainConfig()
    assert (cfg.batch_size, cfg.max_epochs, cfg.patience) == (128, 3000, 100)
    assert cfg.learning_rate == 1e-3

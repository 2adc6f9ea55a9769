"""Two-conv-layer 1-D CNN: shape planning, init, forward/backward, training.

The column is conv -> ReLU -> pool -> conv -> ReLU -> pool -> dense ->
ReLU -> dropout -> dense -> ReLU -> dropout -> dense -> softmax. ``ModelSpec``
sets its channels, filters, kernels and classes; the pools (width 2), the
dense sizes and the dropout rate are fixed. The window's duration picks the
kernels (``select_kernels``), and a pool stage is skipped when its output
would starve the next layer (first pool) or be empty (second pool).
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .layers import (
    DivergenceError,
    GeometryError,
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
    softmax_xent,
)
from .dataset import ACTIVITY_CLASSES, N_CHANNELS, read_binary, write_atomic
from .preprocess import ChannelStats

EVAL_CHUNK = 512

DENSE_SIZES = (32, 24)
DROPOUT_RATE = 0.3

SHORT_WINDOW_SEC = 0.25
SHORT_KERNELS = (3, 5)
LONG_KERNELS = (7, 11)


@dataclass(frozen=True)
class ModelSpec:
    """The sizes a caller may set; shapes are derived per window length."""

    in_channels: int = N_CHANNELS
    conv_filters: tuple[int, int] = (16, 32)
    kernels: tuple[int, int] = LONG_KERNELS
    n_classes: int = len(ACTIVITY_CLASSES)

    def __post_init__(self) -> None:
        for name in ("in_channels", "n_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("conv_filters", "kernels"):
            if any(v < 1 for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be positive")


@dataclass(frozen=True)
class ShapePlan:
    """Resolved sequence lengths for one (spec, window length) pairing."""

    window_len: int
    conv1_out: int
    pool1_out: int
    conv2_out: int
    pool2_out: int
    flatten: int
    pool1_applied: bool
    pool2_applied: bool


def select_kernels(window_sec: float) -> tuple[int, int]:
    """Conv kernel sizes as a function of window duration."""
    return SHORT_KERNELS if window_sec <= SHORT_WINDOW_SEC else LONG_KERNELS


def plan_shapes(spec: ModelSpec, window_len: int) -> ShapePlan:
    """Work out every intermediate length, deciding which pools to keep.

    The first pool is applied only when the halved sequence still covers the
    second kernel; the second only when there are at least two positions to
    pool. A window shorter than the first kernel has no valid plan.
    """
    k1, k2 = spec.kernels
    if window_len < k1:
        raise GeometryError(
            f"architecture invalid for window of {window_len} samples: "
            f"first kernel {k1} does not fit"
        )
    conv1 = window_len - k1 + 1
    pool1_applied = conv1 // 2 >= k2
    pool1 = conv1 // 2 if pool1_applied else conv1
    conv2 = pool1 - k2 + 1
    if conv2 < 1:
        raise GeometryError(
            f"architecture invalid for window of {window_len} samples: "
            f"second kernel {k2} does not fit in {pool1}"
        )
    pool2_applied = conv2 >= 2
    pool2 = conv2 // 2 if pool2_applied else conv2
    return ShapePlan(
        window_len=window_len,
        conv1_out=conv1,
        pool1_out=pool1,
        conv2_out=conv2,
        pool2_out=pool2,
        flatten=spec.conv_filters[1] * pool2,
        pool1_applied=pool1_applied,
        pool2_applied=pool2_applied,
    )


@dataclass
class ModelParams:
    """Every trainable parameter in one contiguous float64 vector, ``flat``,
    plus the spec/plan it was built for. Each tensor in ``param_shapes`` is
    the attribute of its name (``conv1_w`` ... ``out_b``), a view of ``flat``."""

    spec: ModelSpec
    plan: ShapePlan
    flat: np.ndarray

    def __post_init__(self) -> None:
        shapes = param_shapes(self.spec, self.plan)
        size = sum(math.prod(shape) for shape in shapes.values())
        f = self.flat  # a strided vector would reshape into copies, not views
        if not (isinstance(f, np.ndarray) and f.dtype == np.float64 and f.shape == (size,) and f.flags.c_contiguous):
            raise ValueError(f"flat must be a contiguous float64 vector of {size} elements")
        start = 0
        for name, shape in shapes.items():
            end = start + math.prod(shape)
            setattr(self, name, f[start:end].reshape(shape))
            start = end

    def tensors(self) -> list[np.ndarray]:
        """The parameter tensors in param_shapes() order, the order of
        ``flat`` and so of Adam's vector and of the checkpoint format."""
        return [getattr(self, name) for name in param_shapes(self.spec, self.plan)]


def param_shapes(spec: ModelSpec, plan: ShapePlan) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in flat-vector order: each
    layer's weights (out, in, ...) followed by its bias (out,)."""
    f1, f2 = spec.conv_filters
    d1, d2 = DENSE_SIZES
    layers = {
        "conv1": (f1, spec.in_channels, spec.kernels[0]),
        "conv2": (f2, f1, spec.kernels[1]),
        "dense1": (d1, plan.flatten),
        "dense2": (d2, d1),
        "out": (spec.n_classes, d2),
    }
    return {f"{layer}_{part}": shape for layer, w in layers.items() for part, shape in (("w", w), ("b", w[:1]))}


def param_count(spec: ModelSpec, plan: ShapePlan) -> int:
    """Length of the flat parameter vector."""
    return sum(math.prod(shape) for shape in param_shapes(spec, plan).values())


def build_model(spec: ModelSpec, window_len: int, seed: int) -> ModelParams:
    """He-uniform weights (bound sqrt(6/fan_in), fan_in the product of all
    but the first weight dimension), zero biases, seeded rng.

    Weights are drawn in declaration order so a seed pins the full init.
    """
    plan = plan_shapes(spec, window_len)
    rng = np.random.default_rng(seed)
    model = ModelParams(spec, plan, np.zeros(param_count(spec, plan)))
    for w in model.tensors()[::2]:  # the weights; biases stay zero
        bound = np.sqrt(6.0 / math.prod(w.shape[1:]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


def _relu_pool(a: np.ndarray, pool: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """ReLU of the conv output ``a``, in place, then, when ``pool``, its
    width-2 max pool and winner mask; unpooled, the map is ``a`` itself."""
    relu(a, out=a)
    return maxpool_forward(a) if pool else (a, None)


def forward(
    model: ModelParams,
    windows: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
    keep_cache: bool = True,
) -> tuple[np.ndarray, list | None]:
    """Run a (B, window_len, 18) batch through the net; returns logits and
    the cache the backward pass needs. windows are time-major as produced by
    the windowing stage and transposed to channel-major here, which copies
    nothing for a batch from ``gather``; they are only read.

    The cache is the list ``[x, p1, first1, p2, first2, z1, h1d, mask1, z2,
    h2d, mask2]``: the channel-major input, each conv layer's pooled ReLU
    map with its pool's winner mask, and each dense layer's pre-ReLU output
    and dropped-out activation with its dropout mask. When a pool is
    skipped, its map is the ReLU output itself and its mask is None.

    Each conv layer's ReLU runs in place on its output, and the output is
    dropped once pooled. With ``keep_cache=False`` (evaluation) the cache is
    None and every activation is dropped once the next layer has read it,
    the input (``windows`` and ``x``) right after conv1, so beside a layer's
    output only the map it reads is alive; a caller that passes the windows
    as a temporary frees them there. Either way every logit gets the same
    operations in the same order, so the logits are bit-identical."""
    plan = model.plan
    if windows.ndim != 3 or windows.shape[1] != plan.window_len or windows.shape[2] != model.spec.in_channels:
        raise ValueError(
            f"expected windows of shape (B, {plan.window_len}, {model.spec.in_channels}), "
            f"got {windows.shape}"
        )
    x = np.ascontiguousarray(windows.transpose(0, 2, 1))

    a1 = conv1d_forward(x, model.conv1_w, model.conv1_b)
    if not keep_cache:
        del windows, x
    p1, first1 = _relu_pool(a1, plan.pool1_applied)
    del a1

    a2 = conv1d_forward(p1, model.conv2_w, model.conv2_b)
    if not keep_cache:
        del p1, first1
    p2, first2 = _relu_pool(a2, plan.pool2_applied)
    del a2

    z1 = dense_forward(p2.reshape(p2.shape[0], plan.flatten), model.dense1_w, model.dense1_b)
    if not keep_cache:
        del p2, first2
    h1 = relu(z1)
    h1d, mask1 = dropout(h1, DROPOUT_RATE, training, rng)

    z2 = dense_forward(h1d, model.dense2_w, model.dense2_b)
    h2 = relu(z2)
    h2d, mask2 = dropout(h2, DROPOUT_RATE, training, rng)

    logits = dense_forward(h2d, model.out_w, model.out_b)
    if not keep_cache:
        return logits, None
    return logits, [x, p1, first1, p2, first2, z1, h1d, mask1, z2, h2d, mask2]


def backward(model: ModelParams, cache: list, grad_logits: np.ndarray) -> ModelParams:
    """Backprop grad_logits through the cached pass into a fresh ModelParams
    of the model's spec and plan, each gradient in its parameter's view. The
    cache list is emptied on entry, and each of its arrays, like each
    conv-sized gradient, is dropped once its last reader has run.

    A conv layer's ReLU gradient is taken from its pooled map, before the
    pool routes it back: the pool picks from the ReLU output, so a pooled
    value is positive exactly where its winner's pre-activation is, and the
    gradients are bit-identical to masking the routed gradient by the
    pre-activation (a loser slot gets +0.0 either way)."""
    plan = model.plan
    x, p1, first1, p2, first2, z1, h1d, mask1, z2, h2d, mask2 = cache
    cache.clear()
    g = ModelParams(model.spec, plan, np.empty_like(model.flat))

    g_h2d, g.out_w[...], g.out_b[...] = dense_backward(h2d, model.out_w, grad_logits)
    g_z2 = relu_backward(z2, dropout_backward(mask2, g_h2d))
    del h2d, mask2, z2, g_h2d

    g_h1d, g.dense2_w[...], g.dense2_b[...] = dense_backward(h1d, model.dense2_w, g_z2)
    g_z1 = relu_backward(z1, dropout_backward(mask1, g_h1d))
    del h1d, mask1, z1, g_h1d, g_z2

    g_flat, g.dense1_w[...], g.dense1_b[...] = dense_backward(p2.reshape(len(p2), plan.flatten), model.dense1_w, g_z1)
    g_p2 = relu_backward(p2, g_flat.reshape(p2.shape))
    del p2, g_flat, g_z1
    g_a2 = maxpool_backward(first2, g_p2, plan.conv2_out) if plan.pool2_applied else g_p2
    del first2, g_p2
    g_p1, g.conv2_w[...], g.conv2_b[...] = conv1d_backward(p1, model.conv2_w, g_a2)
    del g_a2

    g_p1 = relu_backward(p1, g_p1)
    del p1
    g_a1 = maxpool_backward(first1, g_p1, plan.conv1_out) if plan.pool1_applied else g_p1
    del first1, g_p1
    _, g.conv1_w[...], g.conv1_b[...] = conv1d_backward(x, model.conv1_w, g_a1, input_grad=False)
    return g


def loss_and_grads(
    model: ModelParams,
    windows: np.ndarray,
    classes: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, ModelParams]:
    """Mean cross-entropy over the batch and its gradients, a ModelParams
    (``backward``). ``backward`` empties the cache, so this frame holds none
    of its arrays while the gradients are computed."""
    logits, cache = forward(model, windows, training=training, rng=rng)
    losses, grad_logits = softmax_xent(logits, classes)
    grad_logits = grad_logits / windows.shape[0]
    return float(losses.mean()), backward(model, cache, grad_logits)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    max_epochs: int = 3000
    patience: int = 100
    learning_rate: float = 1e-3
    seed: int = 42

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochStats:
    train_loss: float
    stop_loss: float


def stack_windows(samples: list) -> np.ndarray:
    return np.stack([s.window for s in samples])


def stack_labels(samples: list) -> np.ndarray:
    return np.array([s.class_index for s in samples], dtype=np.int64)


def gather(x: np.ndarray, idx: np.ndarray, stats: ChannelStats) -> np.ndarray:
    """The windows ``x[idx]`` standardized per channel, (w - mean) / std.

    The gathered copy is channel-major, (B, C, W) in memory, and comes back
    as its (B, W, C) view, so ``forward`` convolves it without another copy.
    It is standardized in place, so ``x`` itself is only read and each
    element gets the same two operations as ``apply_zscore`` applies to the
    signal."""
    # numpy lays the gathered windows out like x's own; a sliding window view
    # over a (C, T) signal is channel-major already, and nothing is copied twice
    b = np.ascontiguousarray(x.transpose(0, 2, 1)[idx])
    b -= stats.mean[:, None]
    b /= stats.std[:, None]
    return b.transpose(0, 2, 1)


def evaluate(
    model: ModelParams, x: np.ndarray, y: np.ndarray, idx: np.ndarray, stats: ChannelStats
) -> tuple[float, float]:
    """Accuracy and mean cross-entropy of the windows ``x[idx]`` (classes
    ``y[idx]``), standardized with ``stats``, in eval mode. Each chunk of
    EVAL_CHUNK windows is gathered from ``x`` on its own, so memory stays
    bounded and no fold is copied, and its forward pass keeps no backward
    cache (``keep_cache=False``) and frees the chunk right after conv1, as
    it is passed as a temporary: a chunk's peak is about 2x its gathered
    windows' bytes (1.95-2.35x at 0.5-4 s with kernels 7,11).

    Argmax ties resolve to the lowest class index (np.argmax behaviour).
    """
    if len(y) != len(x):
        raise ValueError("need one class per window")
    n = len(idx)
    if n == 0:
        raise ValueError("no samples to evaluate")
    correct = 0
    loss_sum = 0.0
    for lo in range(0, n, EVAL_CHUNK):
        chunk = idx[lo : lo + EVAL_CHUNK]
        cb = y[chunk]
        logits, _ = forward(model, gather(x, chunk, stats), keep_cache=False)
        losses, _ = softmax_xent(logits, cb)
        correct += int((logits.argmax(axis=1) == cb).sum())
        loss_sum += float(losses.sum())
    return correct / n, loss_sum / n


def train(
    model: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    fit_idx: np.ndarray,
    stop_idx: np.ndarray,
    cfg: TrainConfig,
    stats: ChannelStats,
) -> tuple[ModelParams, int, list[EpochStats]]:
    """Minibatch Adam on the (N, window_len, 18) windows ``x[fit_idx]``,
    early-stopped on the loss of ``x[stop_idx]``; ``y`` holds one class per
    window of ``x``. Each minibatch is gathered from ``x`` as it is needed
    and standardized with ``stats`` (``gather``), so neither index set is
    copied out as a whole and ``x`` is never written.

    One shuffled pass per epoch, one Adam step per minibatch. Training stops
    when the stop loss has not improved for ``patience`` epochs or the epoch
    budget runs out. The best epoch's parameters come back as a new model,
    sharing no memory with ``model``, with that epoch's 1-based index and
    the per-epoch history; Adam updates ``model`` itself in place, so it is
    left holding the last epoch's weights.
    A non-finite loss, logit or gradient, in a training step or in the
    stop-set evaluation, aborts with a DivergenceError naming the epoch.
    """
    if len(y) != len(x):
        raise ValueError("need one class per window")
    if len(fit_idx) == 0:
        raise ValueError("no training samples")
    if len(stop_idx) == 0:
        raise ValueError("no early-stopping samples")
    rng = np.random.default_rng(cfg.seed)  # drives both shuffling and dropout
    adam = init_adam(model.flat, lr=cfg.learning_rate)

    best_loss = np.inf
    best_epoch = 0
    best_flat = model.flat.copy()
    history: list[EpochStats] = []

    n = len(fit_idx)
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        batch_losses = []
        try:
            # overflow is how divergence manifests; the isfinite checks turn
            # it into a DivergenceError instead of a warning
            with np.errstate(over="ignore", invalid="ignore"):
                for lo in range(0, n, cfg.batch_size):
                    batch = fit_idx[order[lo : lo + cfg.batch_size]]
                    loss, grads = loss_and_grads(model, gather(x, batch, stats), y[batch], training=True, rng=rng)
                    if not np.isfinite(loss):
                        raise DivergenceError("non-finite loss")
                    adam_step(adam, model.flat, grads.flat)
                    batch_losses.append(loss)
                _, stop_loss = evaluate(model, x, y, stop_idx, stats)
        except DivergenceError as err:
            err.epoch = epoch
            raise
        history.append(EpochStats(train_loss=float(np.mean(batch_losses)), stop_loss=stop_loss))
        if stop_loss < best_loss:
            best_loss = stop_loss
            best_epoch = epoch
            best_flat = model.flat.copy()
        if epoch - best_epoch >= cfg.patience:
            break

    return ModelParams(model.spec, model.plan, best_flat), best_epoch, history


# ---------------------------------------------------------------------------
# Checkpoints ("HARM1"): one model in one little-endian binary file.
#
#   magic "HARM1"
#   <9Id  u32 in_channels, conv_filters[2], kernels[2], then the fixed layers' u32 pool
#         width 2 and DENSE_SIZES[2], then u32 n_classes, then f64 DROPOUT_RATE
#   <6I2B ShapePlan's fields: u32 window_len, conv1_out, pool1_out, conv2_out,
#         pool2_out, flatten, u8 pool1_applied, pool2_applied
#   f64   ModelParams.flat: every tensor, C-order, in its param_shapes() order and shape
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"HARM1"
_SPEC_HEADER = "<9Id"
_PLAN_HEADER = "<6I2B"


def save_model(model: ModelParams, path: str | Path) -> None:
    s = model.spec  # the fixed layers' slots get pool width 2 and DENSE_SIZES
    spec = (s.in_channels, *s.conv_filters, *s.kernels, 2, *DENSE_SIZES, s.n_classes, DROPOUT_RATE)
    header = CKPT_MAGIC + struct.pack(_SPEC_HEADER, *spec) + struct.pack(_PLAN_HEADER, *astuple(model.plan))
    write_atomic(path, [header, model.flat.astype("<f8", copy=False).data])


def load_model(path: str | Path) -> ModelParams:
    """Read a checkpoint written by save_model; every error names the file."""
    with read_binary(path, CKPT_MAGIC, "model checkpoint") as (unpack, array):
        in_channels, f1, f2, k1, k2, pool, d1, d2, n_classes, rate = unpack(_SPEC_HEADER)
        if (pool, (d1, d2), rate) != (2, DENSE_SIZES, DROPOUT_RATE):
            raise ValueError(f"fixed layers differ: pool width {pool}, dense sizes {(d1, d2)}, dropout rate {rate}")
        spec = ModelSpec(in_channels, (f1, f2), (k1, k2), n_classes)
        stored = unpack(_PLAN_HEADER)
        plan = plan_shapes(spec, stored[0])  # the plan is derived; the stored copy must agree
        if astuple(plan) != stored:
            raise ValueError("stored shape plan does not match its architecture")
        flat = array((param_count(spec, plan),), "<f8")
    return ModelParams(spec, plan, flat.astype(np.float64, copy=False))

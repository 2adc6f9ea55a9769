"""Neural-net primitives on float64 numpy arrays, forward and backward.

Everything here is written out by hand: valid ("same-length minus kernel")
1-D convolution, width-2 max pooling, dense layers, ReLU, softmax with
cross-entropy, inverted dropout and Adam. Every layer takes a batch:
convolution and pooling (B, C, L) arrays, dense layers and softmax (B, n)
rows. Backward passes return gradients in the same shapes as the
corresponding parameters/inputs.

The forward convolution accumulates one (input-channel, tap) product term at
a time, in channel-major order, starting from the bias. That summation order
is pinned: the output is bit-for-bit equal to a plain quadruple loop, which
the tests rely on. The work is cut into tiles of output positions, each
covering every filter, the cache blocking of Goto & van de Geijn (2008),
"Anatomy of High-Performance Matrix Multiplication". A tile copies its
input one channel at a time into a (positions * B) scratch, position-major
with the batch innermost, so one (channel, tap) term of the tile is a
single (F, n) product plus an in-place add over contiguous rows of
n = positions * B elements. A call takes the fewest tiles, of sizes that
differ by at most one position, whose accumulator and product hold at most
BLOCK elements each, unless a single position holds more (``forward_tiles``);
the pair then fits in a 2 MiB L2 cache. The tiles are summed one after
another in one scratch, and each is written back into the output as soon as
its terms are summed. Copying one channel of one tile at a time rather than
the whole input keeps that scratch near 1 MiB.

Every product is one broadcast multiply, run under a ufunc buffer of
PRODUCT_BUFSIZE elements. numpy's buffered iterator made that multiply 2-4x
slower whenever a row was shorter than about a third of its buffer, 8192
elements by default, as short windows' rows are (n = L_out * B = 1,024 for
conv1 at 0.1 s and batch 128); under the smaller buffer every row of a full
batch of 128 is long enough. The buffer size is a measured speed choice
that never changes an elementwise result, so the bits do not depend on it,
and the call restores the caller's size as it returns or raises. The
tiles decide only where an element sits in memory, never the order of one
output element's terms. The backward convolution is one GEMM pair per tap.
Its sums run in BLAS order, so it is checked against finite differences and
a per-(channel, tap) reference loop by tolerance, not bit for bit. That order
would change with the BLAS's thread count, so importing harwin pins the
bundled OpenBLAS to one thread (``pin_blas_threads``). harwin runs one
thread per process; a sweep runs its cells in worker processes instead
(``experiment.run_cells``).
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# Most elements in one forward tile's (filters, positions x batch)
# accumulator, and in its product, unless a single position holds more: the
# pair takes 1 MiB, half of a 2 MiB L2 cache.
BLOCK = 65536
# numpy's ufunc buffer size while a forward call forms its products: a
# multiple of 16, as numpy requires, and under three times the shortest row
# of a full batch (see the module docstring).
PRODUCT_BUFSIZE = 1024


class DivergenceError(RuntimeError):
    """A non-finite loss, logit or gradient: training has diverged. ``train``
    sets the 1-based ``epoch`` it diverged in and ``run_cells`` the
    ``(window_sec, fold)`` ``cell``, which the message then names."""

    epoch: int | None = None
    cell: tuple[float, int] | None = None

    def __str__(self) -> str:
        text = super().__str__() if self.epoch is None else f"training diverged at epoch {self.epoch}"
        return text if self.cell is None else f"{text} in window {self.cell[0]:g} s, fold {self.cell[1] + 1}"


class GeometryError(ValueError):
    """A window too short for its samples or for the architecture's kernels."""


class CoverageError(ValueError):
    """Too few windows to fold, or a channel constant over the training folds."""


def conv1d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid cross-correlation: x (B, C, L), weights (F, C, K), bias (F,)
    -> (B, F, L-K+1), summed tile by tile (see the module docstring)
    under the caller's error state."""
    if x.ndim != 3 or weights.ndim != 3:
        raise ValueError(f"input and weights must be 3-D, got {x.ndim}-D and {weights.ndim}-D")
    n_filters, n_in, kernel = weights.shape
    if bias.shape != (n_filters,):
        raise ValueError(f"bias has shape {bias.shape}, weights expect ({n_filters},)")
    if x.shape[1] != n_in:
        raise ValueError(f"input has {x.shape[1]} channels, weights expect {n_in}")
    length = x.shape[2]
    if length < kernel:
        raise ValueError(f"input length {length} is shorter than kernel {kernel}")
    out_len = length - kernel + 1
    batch = x.shape[0]
    out = np.empty((batch, n_filters, out_len))
    if batch == 0:
        return out
    tiles = forward_tiles(out_len, batch, n_filters)
    tile = max(q - p for p, q in tiles)  # the most positions the scratch must hold
    wt = weights.transpose(1, 2, 0)[..., None].copy()  # (C, K, F, 1): each wt[c, k] is contiguous
    # one channel of a tile, xc[j * B + b] = x[b, c, p + j], and the tile's accumulator and product
    xc_buf = np.empty((tile + kernel - 1) * batch)
    acc_buf, term_buf = np.empty(n_filters * tile * batch), np.empty(n_filters * tile * batch)
    with np.errstate():  # its exit restores the caller's buffer size too
        np.setbufsize(PRODUCT_BUFSIZE)
        for p, q in tiles:
            n = (q - p) * batch
            xc = xc_buf[: (q - p + kernel - 1) * batch]
            acc = acc_buf[: n_filters * n].reshape(n_filters, n)
            term = term_buf[: acc.size].reshape(acc.shape)
            acc[...] = bias[:, None]
            for c in range(n_in):
                xc.reshape(-1, batch)[...] = x[:, c, p : q + kernel - 1].T
                for k in range(kernel):
                    np.multiply(wt[c, k], xc[k * batch : k * batch + n], out=term)
                    acc += term
            out[:, :, p:q] = acc.reshape(n_filters, q - p, batch).transpose(2, 0, 1)
    return out


def forward_tiles(out_len: int, batch: int, n_filters: int) -> list[tuple[int, int]]:
    """The (p, q) spans, positions [p, q), of a forward call's tiles: the
    fewest of at most BLOCK // (F * B) positions, or of one, with sizes
    that differ by at most one position."""
    n_tiles = -(-out_len // max(1, BLOCK // (n_filters * batch)))
    return [(i * out_len // n_tiles, (i + 1) * out_len // n_tiles) for i in range(n_tiles)]


def openblas_function(name: str, restype=None, *argtypes):
    """The ctypes function ``openblas_<name>`` of the OpenBLAS that numpy
    bundles, with ``restype`` and ``argtypes`` declared, under the library
    names and the symbol prefixes and suffixes its builds use; None when
    there is no such library or function."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        blas = ctypes.CDLL(str(lib))  # the copy numpy has loaded already
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            fn = getattr(blas, f"{prefix}openblas_{name}{suffix}", None)
            if fn is not None:
                fn.argtypes, fn.restype = list(argtypes), restype
                return fn
    return None


def pin_blas_threads() -> None:
    """Set the bundled OpenBLAS to one thread, so that the BLAS sums in one
    order whatever its thread variable or the CPU count. A count that is
    already one is left alone: setting it again changes no result, but it
    changed the speed of later large-array loops. With a BLAS that cannot
    be pinned this way, warn naming it and change nothing."""
    get_num_threads = openblas_function("get_num_threads", ctypes.c_int)
    set_num_threads = openblas_function("set_num_threads", None, ctypes.c_int)
    if get_num_threads is not None and set_num_threads is not None:
        if get_num_threads() != 1:
            set_num_threads(1)
        return
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    warnings.warn(
        f"cannot pin the BLAS ({blas.get('name')} {blas.get('version')}) to one thread; "
        "reports may then depend on its thread variable",
        RuntimeWarning,
        stacklevel=2,
    )


def conv1d_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients for conv1d_forward: returns (grad_x, grad_w, grad_b), with
    grad_x None when input_grad is False. One GEMM pair per tap."""
    n_filters, n_in, kernel = weights.shape
    out_len = x.shape[2] - kernel + 1
    if grad_out.shape != (x.shape[0], n_filters, out_len):
        raise ValueError(f"grad_out shape {grad_out.shape} does not match forward output")
    grad_b = grad_out.sum(axis=(0, 2))
    grad_w = np.empty_like(weights)
    grad_x = np.zeros_like(x) if input_grad else None
    g2 = grad_out.transpose(1, 0, 2).reshape(n_filters, -1)  # (F, B*L_out), once rather than per tap
    for k in range(kernel):
        grad_w[:, :, k] = np.dot(g2, x[:, :, k : k + out_len].transpose(0, 2, 1).reshape(-1, n_in))
        if grad_x is not None:
            grad_x[:, :, k : k + out_len] += np.matmul(weights[:, :, k].T, grad_out)
    return grad_x, grad_w, grad_b


def maxpool_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Width-2, stride-2 max pooling over the last axis of a (B, C, L)
    array; a trailing odd element is dropped. Ties pick the earlier element.
    Returns the pooled array and, for the backward pass, a bool array of the
    same shape that is True where the first element of a pair won."""
    length = x.shape[2]
    if length < 2:
        raise ValueError(f"input length {length} is too short to pool")
    n_pairs = length // 2
    pairs = x[:, :, : 2 * n_pairs].reshape(x.shape[0], x.shape[1], n_pairs, 2)
    first_wins = pairs[..., 0] >= pairs[..., 1]
    return np.where(first_wins, pairs[..., 0], pairs[..., 1]), first_wins


def maxpool_backward(first_wins: np.ndarray, grad_out: np.ndarray, input_len: int) -> np.ndarray:
    """Route each pooled gradient back to the winner of its pair; the loser
    and a trailing odd element get zero."""
    if first_wins.shape != grad_out.shape:
        raise ValueError("first_wins and grad_out shapes must match")
    if input_len // 2 != grad_out.shape[2]:
        raise ValueError(f"{grad_out.shape[2]} pooled positions do not pool input length {input_len}")
    grad_x = np.zeros(grad_out.shape[:2] + (input_len,))
    n = 2 * grad_out.shape[2]
    grad_x[:, :, 0:n:2] = np.where(first_wins, grad_out, 0.0)
    grad_x[:, :, 1:n:2] = np.where(first_wins, 0.0, grad_out)
    return grad_x


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x (B, n_in) @ weights (n_out, n_in).T + bias (n_out,)."""
    return x @ weights.T + bias


def dense_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    grad_w = grad_out.T @ x
    grad_b = grad_out.sum(axis=0)
    grad_x = grad_out @ weights
    return grad_x, grad_w, grad_b


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), written into ``out`` when given (``out=x`` runs in place)."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # Subgradient 0 at exactly 0.
    return grad_out * (x > 0)


def softmax_xent(logits: np.ndarray, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax + cross-entropy of (B, n_classes) logits.

    Returns (losses, grad_logits): the (B,) per-row losses, and the (B,
    n_classes) gradient of each row's loss with respect to its logits (the
    softmax probabilities minus the one-hot), not yet averaged.
    """
    if not np.isfinite(logits).all():
        raise DivergenceError("non-finite logits")
    if logits.ndim != 2 or classes.shape != (logits.shape[0],):
        raise ValueError("one class index per logit row required")
    if classes.size and (classes.min() < 0 or classes.max() >= logits.shape[1]):
        raise ValueError("class index out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = exp.sum(axis=1, keepdims=True)
    grads = exp / sum_exp
    rows = np.arange(logits.shape[0])
    # log-space loss: stays finite even when the true class's probability
    # underflows to zero
    losses = np.log(sum_exp[:, 0]) - shifted[rows, classes]
    grads[rows, classes] -= 1.0
    return losses, grads


def dropout(
    x: np.ndarray, rate: float, training: bool, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: survivors are scaled by 1/(1-rate) at train time so
    evaluation is a bit-identical passthrough. Returns (output, mask); the
    mask is reused by the backward pass and None outside training."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(mask: np.ndarray | None, grad_out: np.ndarray) -> np.ndarray:
    return grad_out if mask is None else grad_out * mask


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment vectors, shaped like the parameter vector."""

    m: np.ndarray
    v: np.ndarray
    lr: float
    t: int = 0


def init_adam(params: np.ndarray, lr: float) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One bias-corrected Adam update of the parameter vector, in place, all
    elements at once. The epsilon sits outside the square root:
    p -= lr * m_hat / (sqrt(v_hat) + eps)."""
    if params.shape != state.m.shape or grads.shape != state.m.shape:
        raise ValueError("params/grads shape does not match the Adam state")
    if not np.isfinite(grads).all():
        raise DivergenceError("non-finite gradient")
    state.t += 1
    b1t = 1.0 - ADAM_BETA1**state.t
    b2t = 1.0 - ADAM_BETA2**state.t
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grads * grads
    params -= state.lr * (state.m / b1t) / (np.sqrt(state.v / b2t) + ADAM_EPS)

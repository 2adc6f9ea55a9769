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
the tests rely on. The loop runs over tiles of max(1, ROW // B) output
positions. Each tile's input is copied into a (C, positions * B) scratch,
position-major with the batch innermost, so one (channel, tap) term is a
single (F, n) product plus an in-place add over contiguous rows of n <= ROW
elements. Copying per tile rather than the whole input keeps a call's
scratch near 3 MiB. The product takes one of two paths, chosen per tile
from n. numpy runs a broadcast multiply whose rows are shorter than a
third of its ufunc buffer (3 * n < np.getbufsize(), so n <= 2,730 at the
default 8192) through its buffered iterator, which made a call about 2x
slower; short windows' tiles are that short (n = L_out * B = 1,024 for
conv1 at 0.1 s and batch 128). Those rows take the product from
np.einsum("f,n->fn"), longer rows from the broadcast multiply. Both give
the same bits with one exception: einsum writes 0.0 + w*x, so a -0.0
product comes out +0.0. That changes an output only while its running sum
is still -0.0, which needs a -0.0 bias entry, so a call whose bias holds a
-0.0 takes the broadcast path throughout. The choice reads numpy's buffer
size and changes no numpy state. The layout and the path decide only where
an element sits in memory and how a product is formed, never the order of
one output element's terms. The backward convolution is one GEMM pair per
tap. Its sums run in BLAS order, so it is checked against finite
differences and a per-(channel, tap) reference loop by tolerance, not bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Elements per row of the forward convolution's tiles (positions x batch):
# each (channel, tap) term is one (F, ROW) product plus add over contiguous
# rows. A tile whose rows are under a third of np.getbufsize() takes its
# products from einsum, unless the bias holds a -0.0 (see the module
# docstring); longer rows take a broadcast multiply.
ROW = 4096


class DivergenceError(ValueError):
    """A non-finite loss, logit or gradient: training has diverged."""


class GeometryError(ValueError):
    """A window too short for its samples or for the architecture's kernels."""


class CoverageError(ValueError):
    """Too few windows to fold, or a channel constant over the training folds."""


def conv_out_len(length: int, kernel: int) -> int:
    """Output length of a valid, stride-1 1-D convolution; may be <= 0 for a
    kernel longer than the input."""
    if length < 1 or kernel < 1:
        raise ValueError("length and kernel must be positive")
    return length - kernel + 1


def conv1d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid cross-correlation: x (B, C, L), weights (F, C, K), bias (F,)
    -> (B, F, L-K+1)."""
    n_filters, n_in, kernel = weights.shape
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
    tile = min(out_len, max(1, ROW // batch))  # output positions per tile
    wt = weights.transpose(1, 2, 0).copy()  # (C, K, F): each wt[c, k] is contiguous
    # einsum turns a -0.0 product into +0.0, which shows only in a sum still at a -0.0 bias
    einsum_ok = not (np.signbit(bias) & (bias == 0.0)).any()
    bufsize = np.getbufsize()
    xt_buf = np.empty((n_in, tile + kernel - 1, batch))
    acc_buf = np.empty((n_filters, tile * batch))
    term_buf = np.empty_like(acc_buf)
    for p in range(0, out_len, tile):
        q = min(p + tile, out_len)
        n = (q - p) * batch
        xt = xt_buf[:, : q - p + kernel - 1]
        xt[...] = x[:, :, p : q + kernel - 1].transpose(1, 2, 0)
        rows = xt.reshape(n_in, -1)  # rows[c, j * B + b] = x[b, c, p + j]
        acc, term = acc_buf[:, :n], term_buf[:, :n]
        acc[...] = bias[:, None]
        # numpy's buffered iterator would run a broadcast multiply over rows this short
        use_einsum = einsum_ok and 3 * n < bufsize
        for c in range(n_in):
            for k in range(kernel):
                row = rows[c, k * batch : k * batch + n]
                if use_einsum:
                    np.einsum("f,n->fn", wt[c, k], row, out=term)
                else:
                    np.multiply(wt[c, k, :, None], row, out=term)
                acc += term
        out[:, :, p:q] = acc.reshape(n_filters, q - p, batch).transpose(2, 0, 1)
    return out


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


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # Subgradient 0 at exactly 0.
    return grad_out * (x > 0)


def softmax_xent(logits: np.ndarray, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise softmax + cross-entropy of (B, n_classes) logits.

    Returns (probs, losses, grad_logits) where grad_logits is the gradient
    of the *per-row* loss (probs minus one-hot), not yet averaged.
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
    probs = exp / sum_exp
    rows = np.arange(logits.shape[0])
    # log-space loss: stays finite even when the true class's probability
    # underflows to zero
    losses = np.log(sum_exp[:, 0]) - shifted[rows, classes]
    grads = probs.copy()
    grads[rows, classes] -= 1.0
    return probs, losses, grads


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
    """First/second moment accumulators, one pair per parameter tensor."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    lr: float = 1e-3


def init_adam(params: list[np.ndarray], lr: float = 1e-3) -> AdamState:
    return AdamState(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params], lr=lr)


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One bias-corrected Adam update, in place. The epsilon sits outside the
    square root: p -= lr * m_hat / (sqrt(v_hat) + eps)."""
    if len(params) != len(state.m) or len(grads) != len(state.m):
        raise ValueError("params/grads count does not match the Adam state")
    for g in grads:
        if not np.isfinite(g).all():
            raise DivergenceError("non-finite gradient")
    state.t += 1
    b1t = 1.0 - ADAM_BETA1**state.t
    b2t = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)

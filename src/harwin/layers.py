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
the tests rely on. The work is cut into blocks of (filter group x position
tile), the cache blocking of Goto & van de Geijn (2008), "Anatomy of
High-Performance Matrix Multiplication". Each tile's input is copied into a
(C, positions * B) scratch, position-major with the batch innermost, so one
(channel, tap) term of one group is a single (group, n) product plus an
in-place add over contiguous rows of n = positions * B elements. A group's
accumulator and product stay within GROUP elements each, so the pair fits
in a 2 MiB L2 cache; a group is written back into the output as soon as its
terms are summed. ``conv_tiling`` picks the blocks: the fewest blocks whose
rows hold at most ROW elements and whose accumulators fit GROUP, with tiles
and groups balanced so that none is short, and among those the fewest
groups. It also keeps every row long enough to avoid numpy's buffered
iterator where the call has such rows at all (below). Copying per tile
rather than the whole input keeps a call's scratch near 2 MiB.

The product takes one of two paths, chosen per tile from n. numpy runs a
broadcast multiply whose rows are shorter than a third of its ufunc buffer
(3 * n < np.getbufsize(), so n <= 2,730 at the default 8192) through its
buffered iterator, which made a call about 2x slower; short windows' tiles
are that short (n = L_out * B = 1,024 for conv1 at 0.1 s and batch 128).
Those rows take the product from np.einsum("f,n->fn"), longer rows from the
broadcast multiply. Both give the same bits with one exception: einsum
writes 0.0 + w*x, so a -0.0 product comes out +0.0. That changes an output
only while its running sum is still -0.0, which needs a -0.0 bias entry, so
a call whose bias holds a -0.0 takes the broadcast path throughout. The
choice reads numpy's buffer size and changes no numpy state. The blocks and
the path decide only where an element sits in memory and how a product is
formed, never the order of one output element's terms. The backward
convolution is one GEMM pair per tap. Its sums run in BLAS order, so it is
checked against finite differences and a per-(channel, tap) reference loop
by tolerance, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Most elements in one row of a forward tile (positions x batch): one
# (channel, tap) term is a (group, n) product plus add over rows of n <= ROW
# elements, unless a single position holds more. Rows under a third of
# np.getbufsize() take their products from einsum, unless the bias holds a
# -0.0 (see the module docstring); longer rows take a broadcast multiply.
ROW = 8192
# Most elements in one filter group's (group, n) accumulator, and in its
# product: the pair takes 1 MiB, half of a 2 MiB L2 cache.
GROUP = 65536


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
    n_tiles, n_groups = conv_tiling(out_len, batch, n_filters)
    tile_edges = [i * out_len // n_tiles for i in range(n_tiles + 1)]
    group_edges = [i * n_filters // n_groups for i in range(n_groups + 1)]
    tile = -(-out_len // n_tiles)  # the largest tile and group size the scratch must hold
    group = -(-n_filters // n_groups)
    wt = weights.transpose(1, 2, 0).copy()  # (C, K, F): each wt[c, k] is contiguous
    # einsum turns a -0.0 product into +0.0, which shows only in a sum still at a -0.0 bias
    einsum_ok = not (np.signbit(bias) & (bias == 0.0)).any()
    bufsize = np.getbufsize()
    xt_buf = np.empty((n_in, tile + kernel - 1, batch))
    acc_buf = np.empty(group * tile * batch)
    term_buf = np.empty_like(acc_buf)
    for p, q in zip(tile_edges, tile_edges[1:]):
        n = (q - p) * batch
        xt = xt_buf[:, : q - p + kernel - 1]
        xt[...] = x[:, :, p : q + kernel - 1].transpose(1, 2, 0)
        rows = xt.reshape(n_in, -1)  # rows[c, j * B + b] = x[b, c, p + j]
        # numpy's buffered iterator would run a broadcast multiply over rows this short
        use_einsum = einsum_ok and 3 * n < bufsize
        for f0, f1 in zip(group_edges, group_edges[1:]):
            acc = acc_buf[: (f1 - f0) * n].reshape(f1 - f0, n)
            term = term_buf[: acc.size].reshape(acc.shape)
            w = wt[:, :, f0:f1] if use_einsum else wt[:, :, f0:f1, None]
            acc[...] = bias[f0:f1, None]
            for c in range(n_in):
                for k in range(kernel):
                    row = rows[c, k * batch : k * batch + n]
                    if use_einsum:
                        np.einsum("f,n->fn", w[c, k], row, out=term)
                    else:
                        np.multiply(w[c, k], row, out=term)
                    acc += term
            out[:, f0:f1, p:q] = acc.reshape(f1 - f0, q - p, batch).transpose(2, 0, 1)
    return out


def conv_tiling(out_len: int, batch: int, n_filters: int) -> tuple[int, int]:
    """(n_tiles, n_groups) of the forward convolution's blocks for a batch of
    ``batch`` windows with ``out_len`` output positions and ``n_filters``
    filters. Tiles split the positions, and groups the filters, into parts
    whose sizes differ by at most one. Of the splits whose largest row
    (positions x batch) holds at most ROW elements, or a single position, and
    whose largest (group, row) block at most GROUP elements, or a single
    filter, it takes the one with the fewest blocks, and among those the
    fewest groups. A split whose shortest row would fall under a third of
    np.getbufsize() is passed over when a split with fewer tiles exists."""
    bufsize = np.getbufsize()
    n_tiles = -(-out_len // max(1, ROW // batch))
    best = (out_len * n_filters + 1, 0, 0)
    while n_tiles <= min(out_len, best[0]):
        if best[1] and 3 * (out_len // n_tiles) * batch < bufsize:
            break
        n_groups = -(-n_filters // max(1, GROUP // (-(-out_len // n_tiles) * batch)))
        if n_tiles * n_groups <= best[0]:
            best = (n_tiles * n_groups, n_tiles, n_groups)
        n_tiles += 1
    return best[1], best[2]


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

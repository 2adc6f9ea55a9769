"""Training-loop behaviour: convergence, early stopping, divergence,
determinism, evaluation."""

import numpy as np
import pytest

from harwin.layers import DivergenceError, softmax_xent
from harwin.model import EVAL_CHUNK, ModelParams, ModelSpec, TrainConfig, build_model, evaluate, forward, gather, train
from harwin.preprocess import ChannelStats

# (w - 0) / 1 is w bit for bit: the blobs are trained on as they are
IDENTITY = ChannelStats(np.zeros(2), np.ones(2))


def _blobs(n_per_class, window_len=12, channels=2, n_classes=3, seed=0, sep=3.0):
    """Trivially separable clusters: class c lives at offset (c-1)*sep.
    Returns (N, window_len, channels) windows and their (N,) classes."""
    rng = np.random.default_rng(seed)
    windows = [
        rng.normal(size=(window_len, channels)) * 0.1 + (c - 1) * sep
        for c in range(n_classes)
        for _ in range(n_per_class)
    ]
    return np.stack(windows), np.repeat(np.arange(n_classes), n_per_class)


def _small_spec(n_classes=3):
    return ModelSpec(in_channels=2, conv_filters=(2, 3), kernels=(3, 5), n_classes=n_classes)


def test_train_solves_separable_blobs():
    x, y = _blobs(12)
    every = np.arange(len(y))
    net = build_model(_small_spec(), 12, seed=0)
    cfg = TrainConfig(batch_size=16, max_epochs=100, patience=100, seed=0)
    best, best_epoch, history = train(net, x, y, every, every, cfg, IDENTITY)
    acc, loss = evaluate(best, x, y, every, IDENTITY)
    assert acc == 1.0
    assert loss < 0.3
    assert 1 <= best_epoch <= len(history)
    # the returned model really is the best epoch's snapshot
    assert history[best_epoch - 1].stop_loss == min(h.stop_loss for h in history)


def test_train_loss_decreases():
    x, y = _blobs(10, seed=3)
    every = np.arange(len(y))
    net = build_model(_small_spec(), 12, seed=1)
    cfg = TrainConfig(batch_size=8, max_epochs=25, patience=25, seed=1)
    _, _, history = train(net, x, y, every, every, cfg, IDENTITY)
    assert history[-1].train_loss < history[0].train_loss


def test_early_stopping_patience_bound():
    """Training never runs more than patience epochs past the best one."""
    x, y = _blobs(8, seed=5)
    every = np.arange(len(y))
    net = build_model(_small_spec(), 12, seed=2)
    cfg = TrainConfig(batch_size=8, max_epochs=400, patience=5, seed=2)
    _, best_epoch, history = train(net, x, y, every, every, cfg, IDENTITY)
    assert len(history) <= best_epoch + 5
    if len(history) < 400:  # stopped by patience, not the cap
        assert len(history) == best_epoch + 5


def test_train_returns_a_snapshot_and_leaves_the_last_epoch_in_its_input():
    """The best model shares no memory with the one passed in, which Adam
    updated in place and so holds the last epoch's weights: evaluating
    each on the stop set gives that epoch's recorded stop loss exactly."""
    x, y = _blobs(8, seed=5)
    every = np.arange(len(y))
    net = build_model(_small_spec(), 12, seed=2)
    cfg = TrainConfig(batch_size=8, max_epochs=400, patience=5, seed=2)
    best, best_epoch, history = train(net, x, y, every, every, cfg, IDENTITY)
    assert best_epoch < len(history)
    assert not np.shares_memory(best.flat, net.flat)
    assert not np.array_equal(best.flat, net.flat)
    assert evaluate(net, x, y, every, IDENTITY)[1] == history[-1].stop_loss
    assert evaluate(best, x, y, every, IDENTITY)[1] == history[best_epoch - 1].stop_loss


def test_patience_zero_stops_after_first_epoch():
    x, y = _blobs(6)
    every = np.arange(len(y))
    net = build_model(_small_spec(), 12, seed=0)
    cfg = TrainConfig(batch_size=8, max_epochs=50, patience=0, seed=0)
    _, best_epoch, history = train(net, x, y, every, every, cfg, IDENTITY)
    assert len(history) == 1
    assert best_epoch == 1


def test_a_stop_loss_that_only_ties_is_no_new_best(monkeypatch):
    """Only a strictly lower stop loss makes a new best epoch: with a
    constant one, epoch 1 stays the best and patience 3 stops training after
    epoch 4, well before the epoch budget of 10."""
    monkeypatch.setattr("harwin.model.evaluate", lambda *args: (0.5, 1.0))
    x, y = _blobs(4)
    every = np.arange(len(y))
    net = build_model(_small_spec(), 12, seed=0)
    cfg = TrainConfig(batch_size=8, max_epochs=10, patience=3, seed=0)
    _, best_epoch, history = train(net, x, y, every, every, cfg, IDENTITY)
    assert best_epoch == 1
    assert len(history) == 4


def test_epoch_train_loss_is_the_mean_of_its_batch_losses_in_order(monkeypatch):
    """An epoch's train loss is np.mean of its batch losses in batch order.
    Summed in that order, 1.0 absorbs each 1e-16 on its own; summed in
    reverse, their 3e-16 moves 1.0 by one ulp."""
    losses = [1.0, 1e-16, 1e-16, 1e-16]
    batches = iter(losses)

    def fake_loss_and_grads(model, *args, **kwargs):
        return next(batches), ModelParams(model.spec, model.plan, np.zeros_like(model.flat))

    monkeypatch.setattr("harwin.model.loss_and_grads", fake_loss_and_grads)
    x, y = _blobs(4)  # 12 windows: four batches of 3
    every = np.arange(len(y))
    net = build_model(_small_spec(), 12, seed=0)
    cfg = TrainConfig(batch_size=3, max_epochs=1, seed=0)
    _, _, history = train(net, x, y, every, every, cfg, IDENTITY)
    assert np.mean(losses) != np.mean(losses[::-1])
    assert history[0].train_loss == float(np.mean(losses))


def test_epoch_indices_are_one_based():
    x, y = _blobs(6)
    every = np.arange(len(y))
    net = build_model(_small_spec(), 12, seed=4)
    cfg = TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=4)
    _, best_epoch, history = train(net, x, y, every, every, cfg, IDENTITY)
    assert len(history) == 3
    assert best_epoch >= 1


def test_train_is_deterministic_per_seed():
    x, y = _blobs(8, seed=7)
    every = np.arange(len(y))
    cfg = TrainConfig(batch_size=8, max_epochs=10, patience=10, seed=12)
    run = []
    for _ in range(2):
        net = build_model(_small_spec(), 12, seed=6)
        best, best_epoch, history = train(net, x, y, every, every, cfg, IDENTITY)
        run.append((best, best_epoch, [h.train_loss for h in history]))
    assert run[0][1] == run[1][1]
    assert run[0][2] == run[1][2]
    for a, b in zip(run[0][0].tensors(), run[1][0].tensors()):
        assert np.array_equal(a, b)

    net = build_model(_small_spec(), 12, seed=6)
    _, _, other = train(net, x, y, every, every, TrainConfig(batch_size=8, max_epochs=10, patience=10, seed=13), IDENTITY)
    assert [h.train_loss for h in other] != run[0][2]


def test_divergence_raises_with_epoch_number():
    x, y = _blobs(8, sep=50.0, seed=9)
    every = np.arange(len(y))
    net = build_model(_small_spec(), 12, seed=3)
    # an absurd learning rate drives the activations past float64 range
    cfg = TrainConfig(batch_size=8, max_epochs=50, patience=50, seed=3, learning_rate=1e150)
    with pytest.raises(DivergenceError) as info:
        train(net, x, y, every, every, cfg, IDENTITY)
    assert isinstance(info.value, RuntimeError) and info.value.cell is None
    assert 1 <= info.value.epoch <= cfg.max_epochs
    assert str(info.value) == f"training diverged at epoch {info.value.epoch}"


def test_finite_logits_that_span_more_than_the_float_range_are_a_non_finite_loss():
    """Every row's logits are (1e308, -1e308, 0): finite, so softmax_xent
    takes them, but a class-1 row's loss is 0 - (-2e308), infinite."""
    x, y = _blobs(4)
    every = np.arange(len(y))
    net = build_model(_small_spec(), 12, seed=0)
    net.out_w[...] = 0.0
    net.out_b[...] = [1e308, -1e308, 0.0]
    cfg = TrainConfig(batch_size=16, max_epochs=3, patience=3, seed=0)
    with pytest.raises(DivergenceError) as info:
        train(net, x, y, every, every, cfg, IDENTITY)
    assert info.value.args == ("non-finite loss",) and info.value.epoch == 1
    assert str(info.value) == "training diverged at epoch 1"


def test_train_rejects_empty_inputs():
    x, y = _blobs(4)
    every = np.arange(len(y))
    net = build_model(_small_spec(), 12, seed=0)
    cfg = TrainConfig(max_epochs=1, seed=0)
    with pytest.raises(ValueError, match="training"):
        train(net, x, y, every[:0], every, cfg, IDENTITY)
    with pytest.raises(ValueError, match="stopping"):
        train(net, x, y, every, every[:0], cfg, IDENTITY)


def test_train_and_evaluate_reject_mismatched_classes():
    x, y = _blobs(4)
    net = build_model(_small_spec(), 12, seed=0)
    cfg = TrainConfig(max_epochs=1, seed=0)
    for windows, classes in ((x, y[1:]), (x[1:], y)):
        some = np.arange(len(classes) // 2)  # valid in both arrays
        with pytest.raises(ValueError, match="one class per window"):
            train(net, windows, classes, some, some, cfg, IDENTITY)
        with pytest.raises(ValueError, match="one class per window"):
            evaluate(net, windows, classes, some, IDENTITY)


def test_evaluate_breaks_argmax_ties_toward_lowest_class():
    net = build_model(_small_spec(), 12, seed=0)
    zeroed = ModelParams(net.spec, net.plan, np.zeros_like(net.flat))
    # all logits identical => every prediction is class 0
    x, y = _blobs(5, seed=1)
    every = np.arange(len(y))
    acc, loss = evaluate(zeroed, x, y, every, IDENTITY)
    n_class0 = int((y == 0).sum())
    assert acc == pytest.approx(n_class0 / len(y))
    assert loss == pytest.approx(np.log(3.0), rel=1e-12)


def test_evaluate_rejects_empty():
    net = build_model(_small_spec(), 12, seed=0)
    x, y = _blobs(1)
    with pytest.raises(ValueError, match="no samples"):
        evaluate(net, x, y, np.arange(0), IDENTITY)


def test_evaluate_chunking_is_seamless():
    """Results are identical whether or not the batch spans chunk borders."""
    from harwin import model as model_mod

    x, y = _blobs(20, seed=11)
    net = build_model(_small_spec(), 12, seed=5)
    every = np.arange(len(y))
    acc1, loss1 = evaluate(net, x, y, every, IDENTITY)
    old = model_mod.EVAL_CHUNK
    model_mod.EVAL_CHUNK = 7
    try:
        acc2, loss2 = evaluate(net, x, y, every, IDENTITY)
    finally:
        model_mod.EVAL_CHUNK = old
    assert acc1 == acc2
    assert loss1 == pytest.approx(loss2, rel=1e-12)


def test_evaluate_gathers_indexed_windows_like_a_copy():
    """Evaluating x[perm] through the index array equals evaluating a copy
    of those windows, bit for bit, across an EVAL_CHUNK boundary."""
    x, y = _blobs(EVAL_CHUNK // 3 + 30, seed=13)
    perm = np.random.default_rng(2).permutation(len(y))[: EVAL_CHUNK + 40]
    net = build_model(_small_spec(), 12, seed=8)
    assert evaluate(net, x, y, perm, IDENTITY) == evaluate(net, x[perm], y[perm], np.arange(len(perm)), IDENTITY)


@pytest.mark.parametrize("seed", range(8))
def test_evaluate_loss_adds_the_sums_of_512_window_chunks_in_order(seed):
    """The mean loss is the sum of each 512-window chunk's losses, added
    chunk by chunk in index order, over the count, bit for bit. The windows'
    scales are drawn log-normally, so their losses span orders of magnitude
    and another chunk size or summation order rounds differently."""
    rng = np.random.default_rng(seed)
    x, y = _blobs(1000, seed=seed)  # six chunks
    x = x * rng.lognormal(sigma=3.0, size=(len(x), 1, 1))
    idx = rng.permutation(len(y))
    net = build_model(_small_spec(), 12, seed=seed)
    total = 0.0
    for lo in range(0, len(idx), 512):
        chunk = idx[lo : lo + 512]
        logits, _ = forward(net, gather(x, chunk, IDENTITY), keep_cache=False)
        total += float(softmax_xent(logits, y[chunk])[0].sum())
    assert evaluate(net, x, y, idx, IDENTITY)[1] == total / len(idx)

import pytest

from harwin import layers


@pytest.fixture
def share_counts(monkeypatch):
    """The set of share counts of every forward convolution call made in the
    test from here on."""
    seen = set()

    def counting(work, items, n_shares, run=layers.run_shares):
        seen.add(n_shares)
        run(work, items, n_shares)

    monkeypatch.setattr(layers, "run_shares", counting)
    return seen

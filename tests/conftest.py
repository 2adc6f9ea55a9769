import pytest

from harwin import experiment, layers


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


@pytest.fixture
def worker_slices(monkeypatch):
    """The CPU slices that ``worker_cpus`` gave each ``run_cells`` call made
    in the test from here on: an empty list for cells run in this process."""
    seen = []

    def recording(n_cells, real=experiment.worker_cpus):
        seen.append(real(n_cells))
        return seen[-1]

    monkeypatch.setattr(experiment, "worker_cpus", recording)
    return seen

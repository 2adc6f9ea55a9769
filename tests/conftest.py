import pytest

from harwin import experiment


@pytest.fixture
def worker_counts(monkeypatch):
    """The pool size that ``worker_count`` gave each ``run_cells`` call made
    in the test from here on: 0 for cells run in this process."""
    seen = []

    def recording(n_cells, real=experiment.worker_count):
        seen.append(real(n_cells))
        return seen[-1]

    monkeypatch.setattr(experiment, "worker_count", recording)
    return seen

import numpy as np
import pytest
from hypothesis import settings

from whitebench import Dataset, LabelSet
from whitebench.datatypes import random_orthogonal

# every run draws fresh examples; no example database is replayed or written
settings.register_profile("fresh", database=None)
settings.load_profile("fresh")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def one_hot_labels(rng, classes, n):
    return LabelSet.from_class_ids(rng.integers(0, classes, size=n), classes)


def random_dataset(rng, d, n):
    return Dataset(rng.standard_normal((d, n)))


def spaced_dataset(rng, d, n, rank, offset=False):
    """A d x n X = U diag(s) V^T of the given rank, singular values at least 0.25 apart in [0.5, 0.75 + rank / 2].

    offset=True makes V orthogonal to the ones vector (rank < n) and adds a random mean to every
    column, so that centering gives back U diag(s) V^T with the same spacing.
    """
    s = 0.5 + 0.5 * np.arange(rank) + rng.uniform(0.0, 0.25, rank)
    U = random_orthogonal(d, rng)[:, :rank]
    V = random_orthogonal(n, rng)[:, :rank]
    if not offset:
        return Dataset((U * s) @ V.T)
    V = np.linalg.qr(V - V.mean(axis=0))[0]
    return Dataset((U * s) @ V.T + rng.standard_normal((d, 1)))

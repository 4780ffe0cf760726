import numpy as np
import pytest
from hypothesis import settings

from whitebench import Dataset, LabelSet

# every run draws fresh examples; no example database is replayed or written
settings.register_profile("fresh", database=None)
settings.load_profile("fresh")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def one_hot_labels(rng, classes, n):
    return LabelSet.from_class_ids(rng.integers(0, classes, size=n), classes)


def random_dataset(rng, d, n, split_tag="train"):
    return Dataset(rng.standard_normal((d, n)), split_tag=split_tag)

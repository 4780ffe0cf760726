import numpy as np
import pytest

from whitebench import Dataset, LabelSet


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def one_hot_labels(rng, classes, n):
    return LabelSet.from_class_ids(rng.integers(0, classes, size=n), classes)


def random_dataset(rng, d, n, split_tag="train"):
    return Dataset(rng.standard_normal((d, n)), split_tag=split_tag)

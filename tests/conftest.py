import numpy as np
import pytest

from mlembed.dataset import Dataset, default_synthetic_spec, generate_synthetic


def make_dataset(label_specs, label_count, dim=4):
    """Tiny hand-built dataset: label_specs is a list of (id, labels); the
    features are all zero."""
    ids = [ex_id for ex_id, _ in label_specs]
    labels = [labels for _, labels in label_specs]
    return Dataset(ids, np.zeros((len(ids), dim)), labels, label_count)


@pytest.fixture(scope="session")
def default_splits():
    """The desk-scale synthetic dataset used across sampler/trainer tests."""
    return generate_synthetic(default_synthetic_spec())


@pytest.fixture(scope="session")
def default_spec():
    return default_synthetic_spec()

import hashlib
import io
import json

import numpy as np
import pytest

from mlembed.dataset import Dataset, SyntheticSpec, generate_synthetic, labels_to_matrix


def make_dataset(label_specs, label_count, dim=4):
    """Tiny hand-built dataset: label_specs is a list of (id, labels); the
    features are all zero."""
    ids = [ex_id for ex_id, _ in label_specs]
    labels = [labels for _, labels in label_specs]
    L = labels_to_matrix(ids, labels, label_count)
    return Dataset(ids, np.zeros((len(ids), dim)), L)


def forge_binary(directory, split, data=None, **arrays):
    """Replace ``split``'s binary file with ``data``, or with its arrays
    where ``arrays`` overrides some of them (None drops one), and record
    its SHA-256 in the manifest, as only a hand-made manifest would."""
    path = directory / f"{split}.npz"
    if data is None:
        with np.load(path, allow_pickle=False) as npz:
            merged = {key: npz[key] for key in npz.files}
        merged.update(arrays)
        buffer = io.BytesIO()
        np.savez(buffer, **{key: value for key, value in merged.items() if value is not None})
        data = buffer.getvalue()
    path.write_bytes(data)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"][path.name] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


@pytest.fixture(scope="session")
def default_splits():
    """The desk-scale synthetic dataset used across sampler/trainer tests."""
    return generate_synthetic(SyntheticSpec())


@pytest.fixture(scope="session")
def default_spec():
    return SyntheticSpec()

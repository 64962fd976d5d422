import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlembed.dataset import (
    Dataset,
    Example,
    SyntheticSpec,
    default_synthetic_spec,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
)
from mlembed.errors import ConfigError, DataFormatError
from oracles import generator_marginals, nearest_prototype_label


def small_spec(**overrides):
    kwargs = dict(
        label_count=4,
        feature_dim=6,
        noise_sigma=0.1,
        train_examples=200,
        val_examples=50,
        test_examples=50,
        seed=11,
    )
    kwargs.update({k: v for k, v in overrides.items() if k in kwargs})
    spec = default_synthetic_spec(**kwargs)
    for key, value in overrides.items():
        if key not in kwargs:
            setattr(spec, key, value)
    return spec


class TestSyntheticGenerator:
    def test_zero_noise_single_label_is_prototype(self):
        spec = small_spec(noise_sigma=0.0)
        splits = generate_synthetic(spec)
        found = 0
        for ex in splits.train.examples:
            if len(ex.labels) == 1:
                (label,) = ex.labels
                assert np.array_equal(ex.features, spec.prototypes[label])
                found += 1
        assert found > 0

    def test_deterministic_given_seed(self, tmp_path):
        spec_a, spec_b = small_spec(), small_spec()
        a = generate_synthetic(spec_a)
        b = generate_synthetic(spec_b)
        save_jsonl(a.train, tmp_path / "a.jsonl")
        save_jsonl(b.train, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_certain_cooccurrence_propagates(self):
        spec = small_spec()
        co = np.zeros((4, 4))
        np.fill_diagonal(co, 0.25)
        co[2, 3] = co[3, 2] = 1.0
        spec.cooccurrence = co
        splits = generate_synthetic(spec)
        for ds in (splits.train, splits.val, splits.test):
            for ex in ds.examples:
                if 2 in ex.labels:
                    assert 3 in ex.labels, ex.id

    def test_exclusive_label_never_cooccurs(self):
        splits = generate_synthetic(small_spec())
        for ds in (splits.train, splits.val, splits.test):
            for ex in ds.examples:
                if 0 in ex.labels:
                    assert ex.labels == frozenset({0})

    def test_splits_disjoint_ids(self):
        splits = generate_synthetic(small_spec())
        ids = [set(ds.ids()) for ds in (splits.train, splits.val, splits.test)]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])

    def test_marginals_match_within_three_standard_errors(self):
        spec = small_spec(train_examples=10_000, val_examples=0, test_examples=0)
        splits = generate_synthetic(spec)
        n = len(splits.train)
        expected = generator_marginals(spec.cooccurrence)
        for label in range(spec.label_count):
            observed = len(splits.train.positions_with_label(label)) / n
            se = np.sqrt(expected[label] * (1 - expected[label]) / n)
            assert abs(observed - expected[label]) <= 3 * se, (label, observed, expected[label])

    def test_nearest_prototype_recovers_single_labels(self, default_splits, default_spec):
        total = correct = 0
        for ex in default_splits.train.examples:
            if len(ex.labels) == 1:
                total += 1
                if nearest_prototype_label(ex.features, default_spec.prototypes) in ex.labels:
                    correct += 1
        assert total > 0
        assert correct / total >= 0.99

    def test_prototype_shape_mismatch(self):
        spec = small_spec()
        spec.prototypes = np.zeros((4, 7))
        with pytest.raises(ConfigError, match="prototypes shape"):
            generate_synthetic(spec)

    def test_cooccurrence_entry_out_of_range_named(self):
        spec = small_spec()
        co = spec.cooccurrence.copy()
        co[1, 2] = co[2, 1] = 1.5
        spec.cooccurrence = co
        with pytest.raises(ConfigError, match=r"cooccurrence\[1\]\[2\]"):
            generate_synthetic(spec)

    def test_asymmetric_cooccurrence_rejected(self):
        spec = small_spec()
        co = spec.cooccurrence.copy()
        co[1, 2] = 0.9
        spec.cooccurrence = co
        with pytest.raises(ConfigError, match="symmetric"):
            generate_synthetic(spec)

    def test_exclusive_violation_rejected(self):
        spec = small_spec()
        co = spec.cooccurrence.copy()
        co[0, 1] = co[1, 0] = 0.2
        spec.cooccurrence = co
        with pytest.raises(ConfigError, match="exclusive"):
            generate_synthetic(spec)


class TestJsonlRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        splits = generate_synthetic(small_spec())
        path = tmp_path / "train.jsonl"
        save_jsonl(splits.train, path)
        loaded = load_jsonl(path, label_count=4)
        assert loaded.ids() == splits.train.ids()
        for orig, back in zip(splits.train.examples, loaded.examples):
            assert orig.labels == back.labels
            assert np.array_equal(orig.features, back.features)

    def _write(self, tmp_path, records):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def test_empty_label_set_rejected(self, tmp_path):
        path = self._write(tmp_path, [{"id": "r0", "features": [1.0], "labels": []}])
        with pytest.raises(DataFormatError, match="r0"):
            load_jsonl(path, label_count=3)

    def test_out_of_range_label_rejected(self, tmp_path):
        path = self._write(tmp_path, [{"id": "r1", "features": [1.0], "labels": [3]}])
        with pytest.raises(DataFormatError, match="r1"):
            load_jsonl(path, label_count=3)

    def test_ragged_features_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                {"id": "a", "features": [1.0, 2.0], "labels": [0]},
                {"id": "b", "features": [1.0], "labels": [0]},
            ],
        )
        with pytest.raises(DataFormatError, match="b"):
            load_jsonl(path, label_count=3)

    def test_duplicate_labels_rejected(self, tmp_path):
        path = self._write(tmp_path, [{"id": "dup", "features": [1.0], "labels": [1, 1]}])
        with pytest.raises(DataFormatError, match="dup"):
            load_jsonl(path, label_count=3)

    def test_label_count_inferred(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                {"id": "a", "features": [1.0], "labels": [0]},
                {"id": "b", "features": [2.0], "labels": [4]},
            ],
        )
        assert load_jsonl(path).label_count == 5


class TestJsonlBoundary:
    """Every malformed file raises DataFormatError, never another exception."""

    def _write(self, tmp_path, data: bytes):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(data)
        return path

    def test_non_object_line_rejected(self, tmp_path):
        path = self._write(tmp_path, b'{"id": "a", "features": [1.0], "labels": [0]}\n5\n')
        with pytest.raises(DataFormatError, match="bad.jsonl:2"):
            load_jsonl(path)

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = self._write(tmp_path, b'{"id": "a", "features": [1.0], "labels": [0]}\n\xff\xfe\n')
        with pytest.raises(DataFormatError, match="bad.jsonl:2"):
            load_jsonl(path)

    def test_deeply_nested_line_rejected(self, tmp_path):
        path = self._write(tmp_path, b"[" * 100_000 + b"\n")
        with pytest.raises(DataFormatError, match="bad.jsonl:1"):
            load_jsonl(path)

    def test_feature_too_large_for_float_rejected(self, tmp_path):
        record = b'{"id": "big", "features": [1' + b"0" * 400 + b'], "labels": [0]}\n'
        with pytest.raises(DataFormatError, match="big"):
            load_jsonl(self._write(tmp_path, record))

    @pytest.mark.parametrize("labels", [b"[[1]]", b'["a", 1, "a"]', b"[{}]"])
    def test_non_integer_labels_rejected(self, tmp_path, labels):
        record = b'{"id": "odd", "features": [1.0], "labels": ' + labels + b"}\n"
        with pytest.raises(DataFormatError, match="odd"):
            load_jsonl(self._write(tmp_path, record), label_count=3)

    @pytest.mark.parametrize(
        "features", [b'["1.5", 2.0]', b"[1.5, true]", b"[false]", b"[null]", b"[[1.0]]", b"[{}]"]
    )
    def test_non_number_features_rejected(self, tmp_path, features):
        record = b'{"id": "odd", "features": ' + features + b', "labels": [0]}\n'
        with pytest.raises(DataFormatError, match="odd"):
            load_jsonl(self._write(tmp_path, record), label_count=3)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=300))
    def test_any_bytes_load_or_raise_data_format_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "f.jsonl"
        path.write_bytes(data)
        try:
            ds = load_jsonl(path)
        except DataFormatError:
            return
        assert isinstance(ds, Dataset)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_json_records_load_or_raise_data_format_error(self, tmp_path_factory, data):
        # JSON lines shaped like records reach further into the reader than random bytes
        scalars = st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats() | st.text(max_size=4)
        values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
        record = st.fixed_dictionaries(
            {}, optional={"id": st.text(max_size=3) | values, "features": values, "labels": values}
        )
        lines = data.draw(st.lists(record | values, max_size=4))
        path = tmp_path_factory.mktemp("fuzz") / "r.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines))
        try:
            load_jsonl(path, label_count=data.draw(st.none() | st.integers(1, 4)))
        except DataFormatError:
            return
        # a file that loads holds only records, and their features are numbers
        assert all(type(x) in (int, float) for line in lines for x in line["features"])


class TestDatasetInvariants:
    def test_label_index_consistent(self, default_splits):
        ds = default_splits.train
        for label in range(ds.label_count):
            for pos in ds.positions_with_label(label):
                assert label in ds.examples[pos].labels
        indexed = {(label, pos) for label in range(ds.label_count)
                   for pos in ds.positions_with_label(label)}
        for pos, ex in enumerate(ds.examples):
            for label in ex.labels:
                assert (label, pos) in indexed

    def test_single_label_index(self, default_splits):
        ds = default_splits.train
        for label in range(ds.label_count):
            for pos in ds.single_label_positions(label):
                assert ds.examples[pos].labels == frozenset({label})

    def test_every_label_covered_in_train(self, default_splits):
        ds = default_splits.train
        assert all(ds.positions_with_label(k) for k in range(ds.label_count))

    def test_duplicate_id_rejected(self):
        ex = Example("x", np.zeros(2), frozenset({0}))
        with pytest.raises(DataFormatError, match="duplicate example id"):
            Dataset([ex, ex], 1)

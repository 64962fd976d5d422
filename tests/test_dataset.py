import io
import json
import shutil
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlembed import dataset as dataset_mod
from mlembed.dataset import (
    SPLITS,
    Dataset,
    DatasetSplits,
    SyntheticSpec,
    generate_synthetic,
    labels_to_matrix,
    load_dataset_dir,
    save_dataset_dir,
    save_jsonl,
)
from mlembed.errors import ConfigError, ContractError, DataFormatError
from mlembed.evaluation import label_set_clusters, recall_at_k
from conftest import forge_binary
from oracles import (
    brute_force_recall_at_k,
    frozen_label_set_clusters,
    generator_marginals,
    nearest_prototype_label,
)


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
    return SyntheticSpec(**{**kwargs, **overrides})


def small_cooccurrence(*entries):
    """small_spec's co-occurrence table with each (i, j, value) of ``entries`` set."""
    co = small_spec().cooccurrence.copy()
    for i, j, value in entries:
        co[i, j] = value
    return co


def label_pool(ds, label, single=False):
    """The positions of ``label``'s pool in ``ds.label_pools``: its
    single-label examples, then (unless ``single``) the rest."""
    positions, bounds = ds.label_pools
    start, single_count, count = bounds[label]
    return positions[start : start + (single_count if single else count)].tolist()


class TestSyntheticGenerator:
    def test_zero_noise_single_label_is_prototype(self):
        spec = small_spec(noise_sigma=0.0)
        splits = generate_synthetic(spec)
        found = 0
        for features, labels in zip(splits.train.X, splits.train.labels):
            if len(labels) == 1:
                (label,) = labels
                assert np.array_equal(features, spec.prototypes[label])
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
        co = np.zeros((4, 4))
        np.fill_diagonal(co, 0.25)
        co[2, 3] = co[3, 2] = 1.0
        splits = generate_synthetic(small_spec(cooccurrence=co))
        for ds in (splits.train, splits.val, splits.test):
            for ex_id, labels in zip(ds.ids, ds.labels):
                if 2 in labels:
                    assert 3 in labels, ex_id

    def test_exclusive_label_never_cooccurs(self):
        splits = generate_synthetic(small_spec())
        for ds in (splits.train, splits.val, splits.test):
            for labels in ds.labels:
                if 0 in labels:
                    assert labels == frozenset({0})

    def test_splits_disjoint_ids(self):
        splits = generate_synthetic(small_spec())
        ids = [set(ds.ids) for ds in (splits.train, splits.val, splits.test)]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])

    def test_marginals_match_within_three_standard_errors(self):
        spec = small_spec(train_examples=10_000, val_examples=0, test_examples=0)
        splits = generate_synthetic(spec)
        n = len(splits.train)
        expected = generator_marginals(spec.cooccurrence)
        for label in range(spec.label_count):
            observed = splits.train.label_matrix[:, label].sum() / n
            se = np.sqrt(expected[label] * (1 - expected[label]) / n)
            assert abs(observed - expected[label]) <= 3 * se, (label, observed, expected[label])

    def test_nearest_prototype_recovers_single_labels(self, default_splits, default_spec):
        total = correct = 0
        for features, labels in zip(default_splits.train.X, default_splits.train.labels):
            if len(labels) == 1:
                total += 1
                if nearest_prototype_label(features, default_spec.prototypes) in labels:
                    correct += 1
        assert total > 0
        assert correct / total >= 0.99

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_prototype_rejected(self, value):
        prototypes = np.eye(4, 6)
        prototypes[2, 3] = value
        with pytest.raises(ConfigError, match="^prototypes contain non-finite values$"):
            small_spec(prototypes=prototypes)

    def test_prototype_shape_mismatch(self):
        with pytest.raises(ConfigError, match="prototypes shape"):
            small_spec(prototypes=np.zeros((4, 7)))

    def test_cooccurrence_entry_out_of_range_named(self):
        co = small_cooccurrence((1, 2, 1.5), (2, 1, 1.5))
        with pytest.raises(ConfigError, match=r"cooccurrence\[1\]\[2\]"):
            small_spec(cooccurrence=co)

    def test_asymmetric_cooccurrence_rejected(self):
        with pytest.raises(ConfigError, match="symmetric"):
            small_spec(cooccurrence=small_cooccurrence((1, 2, 0.9)))

    def test_exclusive_violation_rejected(self):
        co = small_cooccurrence((0, 1, 0.2), (1, 0, 0.2))
        with pytest.raises(ConfigError, match="exclusive"):
            small_spec(cooccurrence=co)

    def test_label_never_drawn_named(self):
        # label 3 co-occurs with nothing in this table; with marginal weight 0
        # it is never drawn
        co = small_cooccurrence((3, 3, 0.0))
        with pytest.raises(ConfigError, match="^train_examples: label 3 has no training examples"):
            generate_synthetic(small_spec(cooccurrence=co))

    def test_spec_and_its_tables_are_read_only(self):
        prototypes = np.eye(4, 6)
        spec = small_spec(prototypes=prototypes)
        with pytest.raises(AttributeError):
            spec.noise_sigma = 1.0
        for table in (spec.prototypes, spec.cooccurrence):
            with pytest.raises(ValueError):
                table[0, 0] = 0.5
        prototypes[0, 0] = 0.5  # the spec keeps a copy of its own
        assert spec.prototypes[0, 0] == 1.0


def load_train(directory, label_count=None):
    """The train split of ``directory``, whose ``train.jsonl`` a test wrote,
    beside a manifest holding only ``label_count`` when one is given."""
    if label_count is not None:
        (directory / "manifest.json").write_text(json.dumps({"label_count": label_count}))
    return load_dataset_dir(directory, ("train",)).train


class TestJsonlRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        splits = generate_synthetic(small_spec())
        save_jsonl(splits.train, tmp_path / "train.jsonl")
        loaded = load_train(tmp_path, label_count=4)
        assert loaded.ids == splits.train.ids
        assert loaded.labels == splits.train.labels
        assert np.array_equal(loaded.X, splits.train.X)

    def _write(self, tmp_path, records):
        (tmp_path / "train.jsonl").write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return tmp_path

    def test_empty_label_set_rejected(self, tmp_path):
        directory = self._write(tmp_path, [{"id": "r0", "features": [1.0], "labels": []}])
        with pytest.raises(DataFormatError, match="r0"):
            load_train(directory, label_count=3)

    def test_out_of_range_label_rejected(self, tmp_path):
        directory = self._write(tmp_path, [{"id": "r1", "features": [1.0], "labels": [3]}])
        with pytest.raises(DataFormatError, match="r1"):
            load_train(directory, label_count=3)

    def test_ragged_features_rejected(self, tmp_path):
        directory = self._write(
            tmp_path,
            [
                {"id": "a", "features": [1.0, 2.0], "labels": [0]},
                {"id": "b", "features": [1.0], "labels": [0]},
            ],
        )
        with pytest.raises(DataFormatError, match="b"):
            load_train(directory, label_count=3)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        (tmp_path / "train.jsonl").write_text('{"id": "a", "features": [1.0], "labels": [0]}\n'
                        f'{{"id": "nf", "features": [{value}], "labels": [0]}}\n')
        with pytest.raises(DataFormatError, match="'nf': non-finite"):
            load_train(tmp_path, label_count=3)

    def test_duplicate_labels_rejected(self, tmp_path):
        directory = self._write(tmp_path, [{"id": "dup", "features": [1.0], "labels": [1, 1]}])
        with pytest.raises(DataFormatError, match="dup"):
            load_train(directory, label_count=3)

    def test_label_count_inferred(self, tmp_path):
        directory = self._write(
            tmp_path,
            [
                {"id": "a", "features": [1.0], "labels": [0]},
                {"id": "b", "features": [2.0], "labels": [4]},
            ],
        )
        assert load_train(directory).label_count == 5


class TestJsonlBoundary:
    """Every malformed file raises DataFormatError, never another exception."""

    def _write(self, tmp_path, data: bytes):
        (tmp_path / "train.jsonl").write_bytes(data)
        return tmp_path

    def test_non_object_line_rejected(self, tmp_path):
        directory = self._write(tmp_path, b'{"id": "a", "features": [1.0], "labels": [0]}\n5\n')
        with pytest.raises(DataFormatError, match="train.jsonl:2"):
            load_train(directory)

    def test_non_utf8_bytes_rejected(self, tmp_path):
        directory = self._write(tmp_path, b'{"id": "a", "features": [1.0], "labels": [0]}\n\xff\xfe\n')
        with pytest.raises(DataFormatError, match="train.jsonl:2"):
            load_train(directory)

    @pytest.mark.parametrize("pad", [b" ", b"\t", b"\r", b"\x0b", b"\x0c"])
    def test_line_padded_with_ascii_whitespace_loads(self, tmp_path, pad):
        record = b'{"id": "a", "features": [1.0], "labels": [0]}'
        directory = self._write(tmp_path, pad + record + pad + b"\n" + pad + b"\n")
        assert load_train(directory).ids == ["a"]

    @pytest.mark.parametrize("pad", ["\u00a0", "\u2028", "\u3000", "\x1c"])
    @pytest.mark.parametrize("blank", [False, True], ids=["padded-record", "padding-only"])
    def test_line_padded_with_other_whitespace_rejected(self, tmp_path, pad, blank):
        # JSON allows only ASCII whitespace around a value; str.strip would remove these too
        record = "" if blank else '{"id": "a", "features": [1.0], "labels": [0]}'
        directory = self._write(tmp_path, (pad + record + "\n").encode("utf-8"))
        with pytest.raises(DataFormatError, match="train.jsonl:1: invalid JSON"):
            load_train(directory)

    @pytest.mark.parametrize("label", [2**63 - 1, 2**70])
    def test_inferred_label_count_beyond_any_array_rejected(self, tmp_path, label):
        # a label matrix this wide could not be indexed; one label beyond int64 is the extreme
        record = b'{"id": "a", "features": [1.0], "labels": [%d]}\n' % label
        with pytest.raises(DataFormatError, match="label_count must lie in"):
            load_train(self._write(tmp_path, record))

    def test_deeply_nested_line_rejected(self, tmp_path):
        directory = self._write(tmp_path, b"[" * 100_000 + b"\n")
        with pytest.raises(DataFormatError, match="train.jsonl:1"):
            load_train(directory)

    def test_feature_too_large_for_float_rejected(self, tmp_path):
        record = b'{"id": "big", "features": [1' + b"0" * 400 + b'], "labels": [0]}\n'
        with pytest.raises(DataFormatError, match="big"):
            load_train(self._write(tmp_path, record))

    @pytest.mark.parametrize("labels", [b"[[1]]", b'["a", 1, "a"]', b"[{}]"])
    def test_non_integer_labels_rejected(self, tmp_path, labels):
        record = b'{"id": "odd", "features": [1.0], "labels": ' + labels + b"}\n"
        with pytest.raises(DataFormatError, match="odd"):
            load_train(self._write(tmp_path, record), label_count=3)

    @pytest.mark.parametrize(
        "features", [b'["1.5", 2.0]', b"[1.5, true]", b"[false]", b"[null]", b"[[1.0]]", b"[{}]"]
    )
    def test_non_number_features_rejected(self, tmp_path, features):
        record = b'{"id": "odd", "features": ' + features + b', "labels": [0]}\n'
        with pytest.raises(DataFormatError, match="odd"):
            load_train(self._write(tmp_path, record), label_count=3)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=300))
    def test_any_bytes_load_or_raise_data_format_error(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("fuzz")
        (directory / "train.jsonl").write_bytes(data)
        try:
            ds = load_train(directory)
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
        directory = tmp_path_factory.mktemp("fuzz")
        (directory / "train.jsonl").write_text("\n".join(json.dumps(line) for line in lines))
        try:
            load_train(directory, label_count=data.draw(st.none() | st.integers(1, 4)))
        except DataFormatError:
            return
        # a file that loads holds only records, and their features are numbers
        assert all(type(x) in (int, float) for line in lines for x in line["features"])


def bare_spec(label_count, feature_dim):
    """The seven fields of a spec that the manifest records, for saving
    hand-built splits; a 1-label split has no valid SyntheticSpec."""
    return SimpleNamespace(
        label_count=label_count,
        feature_dim=feature_dim,
        noise_sigma=0.0,
        seed=0,
        exclusive_labels=(),
        cooccurrence=np.eye(label_count),
        prototypes=np.zeros((label_count, feature_dim)),
    )


def loaded(directory):
    """Each split a load of ``directory`` gives, as values that compare."""
    return {
        name: (
            ds.ids, ds.X.shape, ds.X.tobytes(), ds.label_matrix.shape, ds.label_matrix.tobytes(),
            ds.label_count, ds.X.flags.writeable, ds.label_matrix.flags.writeable,
            ds.X.flags.c_contiguous, ds.label_matrix.flags.c_contiguous,
        )
        for name, ds in load_dataset_dir(directory).named().items()
    }


def binary_reads(directory):
    """The splits of ``directory`` and how many of them came from a binary file."""
    with mock.patch.object(dataset_mod, "_read_binary", wraps=dataset_mod._read_binary) as spy:
        return loaded(directory), spy.call_count


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


# Ids the binary file must keep exactly: a numpy string array drops the
# trailing "\x00", and a lone surrogate is not valid UTF-8.
AWKWARD_IDS = ["a\x00", "\x00", "é\x00", "\ud800", "日本", ""]


class TestBinarySplits:
    """gen-data writes each split also as a binary file; the loader reads it
    only when the manifest's SHA-256 of both files match, and checks it."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_equal_with_and_without_binary_files(self, tmp_path_factory, data):
        label_count = data.draw(st.integers(1, 5))
        used = data.draw(st.integers(1, label_count))  # labels from here on never occur
        width = data.draw(st.integers(1, 3))
        ids = st.text(max_size=4) | st.sampled_from(AWKWARD_IDS)
        features = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=width,
                            max_size=width)
        splits = {}
        for name in SPLITS:
            n = data.draw(st.integers(0, 5))  # 0 rows included
            rows = data.draw(st.lists(features, min_size=n, max_size=n))
            split_ids = data.draw(st.lists(ids, min_size=n, max_size=n, unique=True))
            labels = data.draw(st.lists(st.sets(st.integers(0, used - 1), min_size=1),
                                        min_size=n, max_size=n))
            splits[name] = Dataset(
                split_ids,
                np.array(rows, dtype=np.float64).reshape(n, width),
                labels_to_matrix(split_ids, labels, label_count),
            )
        with_binary, without = tmp_path_factory.mktemp("with"), tmp_path_factory.mktemp("without")
        save_dataset_dir(with_binary, bare_spec(label_count, width), DatasetSplits(**splits))
        for path in with_binary.iterdir():
            if path.suffix != ".npz":
                shutil.copy(path, without)
        (a, from_binary), (b, from_jsonl) = binary_reads(with_binary), binary_reads(without)
        assert (from_binary, from_jsonl) == (3, 0)
        assert a == b
        for name, ds in splits.items():
            ids, _, X, _, L, count, *flags = a[name]
            assert (ids, X, L, count) == (ds.ids, ds.X.tobytes(), ds.label_matrix.tobytes(),
                                          label_count)
            assert flags == [False, False, True, True]

    def test_awkward_ids_round_trip_exactly(self, tmp_path):
        ds = Dataset(AWKWARD_IDS, np.zeros((6, 2)), np.tile([True, False], (6, 1)))
        save_dataset_dir(tmp_path, bare_spec(2, 2), DatasetSplits(train=ds, val=ds, test=ds))
        splits, from_binary = binary_reads(tmp_path)
        assert from_binary == 3
        assert splits["train"][0] == AWKWARD_IDS

    def test_fortran_ordered_features_load_as_a_c_ordered_copy(self, tmp_path):
        spec = small_spec()
        save_dataset_dir(tmp_path, spec, generate_synthetic(spec))
        expected = load_dataset_dir(tmp_path).test
        forge_binary(tmp_path, "test", X=np.asfortranarray(expected.X))
        ds = load_dataset_dir(tmp_path).test
        assert ds.X.flags.c_contiguous and ds.X.flags.owndata and not ds.X.flags.writeable
        assert ds.X.tobytes() == expected.X.tobytes()

    @pytest.mark.parametrize(
        "forge, message",
        [
            (lambda a: {"X": a["X"].astype(np.float32)}, "X has dtype <f4, not <f8"),
            (lambda a: {"X": a["X"].astype(">f8")}, "X has dtype >f8, not <f8"),
            (lambda a: {"label_matrix": a["label_matrix"].astype(np.int8)},
             "label_matrix has dtype |i1, not |b1"),
            (lambda a: {"id_ends": a["id_ends"].astype(np.int32)}, "id_ends has dtype"),
            (lambda a: {"label_matrix": np.pad(a["label_matrix"], ((0, 0), (0, 1)))},
             "label_matrix of shape (50, 5) is not 4 labels wide"),
            (lambda a: {"label_matrix": a["label_matrix"][:, :3]}, "not 4 labels wide"),
            (lambda a: {"label_matrix": a["label_matrix"][0]}, "not 4 labels wide"),
            (lambda a: {"X": np.where(np.arange(6) == 2, np.inf, a["X"])},
             "record 'test-00000': non-finite feature value"),
            (lambda a: {"label_matrix": np.vstack([a["label_matrix"][:1] & False,
                                                    a["label_matrix"][1:]])},
             "record 'test-00000': label set is empty"),
            (lambda a: {"id_bytes": np.tile(a["id_bytes"][:10], 50)},
             "duplicate example id 'test-00000'"),
            (lambda a: {"id_ends": a["id_ends"] + 1}, "id_ends do not cut id_bytes into ids"),
            (lambda a: {"id_ends": a["id_ends"][::-1].copy()}, "id_ends do not cut"),
            (lambda a: {"id_bytes": a["id_bytes"].reshape(50, 10)}, "must be 1-D"),
            (lambda a: {"id_bytes": np.full_like(a["id_bytes"], 0xFF)}, "an id is not UTF-8"),
            (lambda a: {"X": a["X"][1:]}, "50 ids, 50 label sets and features of shape (49, 6)"),
            (lambda a: {"label_matrix": None}, "holds ['X', 'id_bytes', 'id_ends'], not"),
            (lambda a: {"extra": np.zeros(1)}, "holds ['X', 'extra', 'id_bytes'"),
            (lambda a: {"id_bytes": np.array(["t"], dtype=object)}, "unreadable"),
        ],
        ids=["X-float32", "X-big-endian", "labels-int8", "ends-int32", "labels-wider",
             "labels-narrower", "labels-1d", "non-finite", "empty-label-row", "duplicate-ids",
             "ends-past-bytes", "ends-decreasing", "bytes-2d", "ids-not-utf8", "rows-disagree",
             "array-missing", "array-extra", "pickled-array"],
    )
    def test_verified_binary_failing_a_check_names_the_file(self, tmp_path, forge, message):
        # only a hand-made manifest can vouch for such a file
        spec = small_spec()
        save_dataset_dir(tmp_path, spec, generate_synthetic(spec))
        with np.load(tmp_path / "test.npz") as npz:
            forge_binary(tmp_path, "test", **forge({key: npz[key] for key in npz.files}))
        with pytest.raises(DataFormatError, match=f"{tmp_path / 'test.npz'}: .*") as excinfo:
            load_dataset_dir(tmp_path, ("test",))
        assert message in str(excinfo.value)

    @pytest.mark.parametrize(
        "data", [b"", b"PK\x03\x04", b"\x93NUMPY", b"not a binary split", npy_bytes(np.zeros(3))],
        ids=["empty", "zip-magic-only", "npy-magic-only", "text", "npy-file"],
    )
    def test_verified_bytes_that_are_no_archive_name_the_file(self, tmp_path, data):
        spec = small_spec()
        save_dataset_dir(tmp_path, spec, generate_synthetic(spec))
        forge_binary(tmp_path, "test", data=data)
        with pytest.raises(DataFormatError, match="test.npz: unreadable"):
            load_dataset_dir(tmp_path, ("test",))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_verified_binary_loads_or_raises_data_format_error(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("forged")
        L = np.array([[True, False], [False, True], [True, True]])
        ds = Dataset(["a", "b\x00", "ü"], np.eye(3), L)
        save_dataset_dir(directory, bare_spec(2, 3), DatasetSplits(train=ds, val=ds, test=ds))
        original = (directory / "test.npz").read_bytes()
        forged = bytearray(original[: data.draw(st.integers(0, len(original)))])
        for _ in range(data.draw(st.integers(0, 4))):
            if forged:
                forged[data.draw(st.integers(0, len(forged) - 1))] = data.draw(st.integers(0, 255))
        forge_binary(directory, "test", data=bytes(forged))
        try:
            loaded = load_dataset_dir(directory, ("test",)).test
        except DataFormatError as exc:
            assert "test.npz" in str(exc)
            return
        assert isinstance(loaded, Dataset)


class TestDatasetInvariants:
    def test_label_index_consistent(self, default_splits):
        ds = default_splits.train
        for label in range(ds.label_count):
            for pos in label_pool(ds, label):
                assert label in ds.labels[pos]
        indexed = {(label, pos) for label in range(ds.label_count)
                   for pos in label_pool(ds, label)}
        for pos, labels in enumerate(ds.labels):
            for label in labels:
                assert (label, pos) in indexed

    def test_single_label_index(self, default_splits):
        ds = default_splits.train
        for label in range(ds.label_count):
            for pos in label_pool(ds, label, single=True):
                assert ds.labels[pos] == frozenset({label})

    def test_every_label_covered_in_train(self, default_splits):
        ds = default_splits.train
        assert all(label_pool(ds, k) for k in range(ds.label_count))

    def test_duplicate_id_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate example id"):
            Dataset(["x", "x"], np.zeros((2, 2)), np.ones((2, 1), dtype=bool))

    @pytest.mark.parametrize(
        "ids, X, L",
        [
            (["a"], np.zeros((2, 3)), np.ones((1, 1), dtype=bool)),
            (["a", "b"], np.zeros((2, 3)), np.ones((1, 1), dtype=bool)),
            (["a"], np.zeros(3), np.ones((1, 1), dtype=bool)),
            ([], np.zeros((2, 3)), np.ones((0, 1), dtype=bool)),
        ],
    )
    def test_mismatched_rows_rejected(self, ids, X, L):
        with pytest.raises(ContractError, match="ids, .* label sets and features of shape"):
            Dataset(ids, X, L)

    @pytest.mark.parametrize(
        "L",
        [
            np.ones((2, 1), dtype=np.int64),
            np.ones(2, dtype=bool),
            np.ones((2, 1, 1), dtype=bool),
            np.ones((2, 0), dtype=bool),
            [{0}, {0}],
        ],
        ids=["int", "1-d", "3-d", "no-labels", "label-sets"],
    )
    def test_label_matrix_not_two_d_bool_rejected(self, L):
        with pytest.raises(ContractError, match="label matrix must be bool, 2-D and at least"):
            Dataset(["a", "b"], np.zeros((2, 1)), L)

    @pytest.mark.parametrize(
        "ids, message",
        [
            (["a", "b", "a", "c"], "record 'b': label set is empty"),
            (["a", "a", "b", "b"], "duplicate example id 'a'"),
        ],
    )
    def test_first_bad_matrix_row_named(self, ids, message):
        # row 1 is empty and an id repeats; the error names whichever comes first
        L = np.array([[True], [False], [True], [False]])
        with pytest.raises(DataFormatError) as excinfo:
            Dataset(ids, np.zeros((4, 1)), L)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([], "label set is empty"),
            ([True], "label True is not an integer"),
            ([1.0], "label 1.0 is not an integer"),
            (["1"], "label '1' is not an integer"),
            ([[1]], "label [1] is not an integer"),
            ([3], "label 3 outside [0, 3)"),
            ([-1], "label -1 outside [0, 3)"),
            ([2**70], f"label {2**70} outside [0, 3)"),
            ([2, 0, 2], "duplicate labels in [0, 2, 2]"),
        ],
    )
    def test_first_bad_record_named(self, bad, message):
        # record "d" is bad as well; the error names the first, "c"
        labels = [[0], [1, 2], bad, [5]]
        with pytest.raises(DataFormatError) as excinfo:
            labels_to_matrix(["a", "b", "c", "d"], labels, 3)
        assert str(excinfo.value) == f"record 'c': {message}"

    @pytest.mark.parametrize(
        "ids, labels, message",
        [
            (["a", "b", "a"], [[0], [0], [9]], "duplicate example id 'a'"),
            (["a", "b", "b"], [[0], [9], [0]], "record 'b': label 9 outside [0, 3)"),
        ],
    )
    def test_first_error_in_row_order(self, ids, labels, message):
        with pytest.raises(DataFormatError) as excinfo:
            labels_to_matrix(ids, labels, 3)
        assert str(excinfo.value) == message

    def test_label_lists_become_the_matrix(self):
        L = labels_to_matrix(["a", "b", "c"], [[2, 0], (1,), {np.int64(0)}], 3)
        assert L.dtype == bool
        assert L.tolist() == [[True, False, True], [False, True, False], [True, False, False]]
        assert labels_to_matrix([], [], 3).shape == (0, 3)

    def test_features_copied_and_read_only(self):
        X = np.zeros((2, 3))
        ds = Dataset(["a", "b"], X, np.ones((2, 1), dtype=bool))
        X[0, 0] = 1.0
        assert ds.X[0, 0] == 0.0
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1.0

    def test_label_matrix_read_only(self):
        L = np.array([[True, False], [False, True]])
        ds = Dataset(["a", "b"], np.zeros((2, 1)), L)
        L[0, 1] = True
        assert ds.label_matrix.tolist() == [[True, False], [False, True]]
        assert ds.label_count == 2
        with pytest.raises(ValueError):
            ds.label_matrix[0, 1] = True


class TestOneLabelForm:
    """Every label form a split offers is derived from its label matrix and
    equals the form built from the label sets it was given."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_derived_forms_match_the_label_sets(self, data):
        # 70 labels: past any 64-bit label bitmask
        label_count = data.draw(st.sampled_from([1, 3, 9, 70]))
        # labels never drawn leave all-False columns in the matrix
        absent = data.draw(
            st.frozensets(st.integers(0, label_count - 1), max_size=label_count - 1)
        )
        present = st.sampled_from([k for k in range(label_count) if k not in absent])
        sets = data.draw(st.lists(st.frozensets(present, min_size=1, max_size=4), max_size=12))
        n = len(sets)
        ids = [f"r{i}" for i in range(n)]
        L = labels_to_matrix(ids, [list(s) for s in sets], label_count)
        ds = Dataset(ids, np.zeros((n, 2)), L)

        assert ds.label_matrix.shape == (n, label_count)
        assert ds.labels == sets
        for k in range(label_count):
            singles = [i for i, s in enumerate(sets) if s == {k}]
            others = [i for i, s in enumerate(sets) if k in s and s != {k}]
            assert label_pool(ds, k) == singles + others
            assert label_pool(ds, k, single=True) == singles

        clusters, count = label_set_clusters(ds.label_matrix)
        want, want_count = frozen_label_set_clusters(sets)
        assert clusters.dtype == want.dtype and clusters.tolist() == want.tolist()
        assert count == want_count

        ks = [k for k in (1, 2, 4) if k < n]
        if ks:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            E = rng.integers(0, 3, size=(n, 2)).astype(np.float64)  # many tied distances
            expected = {k: brute_force_recall_at_k(E, sets, k) for k in ks}
            assert recall_at_k(E, ds.label_matrix, ks) == expected

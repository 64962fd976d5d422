"""Multi-labelled examples: data model, synthetic generator, dataset directory.

Every example carries a non-empty set of label indices. Label 0 plays the
role of the "normal" class in the synthetic generator: it is mutually
exclusive with every other label, so normal examples are ordinary
single-label examples and participate in sampling like any other.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataFormatError
from .model import MAX_ARRAY_ELEMENTS, check_size, read_json_object, write_atomic, write_json

SPLITS = ("train", "val", "test")


def validate_labels(labels, label_count: int) -> list:
    """Check a raw label collection and return its labels as a list."""
    items = list(labels)
    if not items:
        raise DataFormatError("label set is empty")
    for lab in items:
        if not isinstance(lab, (int, np.integer)) or isinstance(lab, bool):
            raise DataFormatError(f"label {lab!r} is not an integer")
        if lab < 0 or lab >= label_count:
            raise DataFormatError(f"label {lab} outside [0, {label_count})")
    if len(items) != len(set(items)):
        raise DataFormatError(f"duplicate labels in {sorted(items)}")
    return items


def labels_to_matrix(ids: list[str], labels: list, label_count: int) -> np.ndarray:
    """The (n, label_count) bool matrix of ``labels``, one label collection
    per id in ``ids``. Records are checked in row order, each for a repeated
    id and then by :func:`validate_labels`, so the DataFormatError names the
    first bad record; this is the only check of label collections."""
    limit = MAX_ARRAY_ELEMENTS // max(len(labels), 1)  # values in the label matrix
    if not 1 <= label_count <= limit:
        raise DataFormatError(f"label_count must lie in [1, {limit}], got {label_count}")
    seen, sizes, columns = set(), [], []
    for rid, labs in zip(ids, labels):
        if rid in seen:
            raise DataFormatError(f"duplicate example id {rid!r}")
        try:
            labs = validate_labels(labs, label_count)
        except DataFormatError as exc:
            raise DataFormatError(f"record {rid!r}: {exc}") from exc
        seen.add(rid)
        sizes.append(len(labs))
        columns.extend(labs)
    L = np.zeros((len(labels), label_count), dtype=bool)
    L[np.repeat(np.arange(len(sizes)), sizes), np.array(columns, dtype=np.intp)] = True
    return L


class Dataset:
    """Immutable split: example ids, one feature matrix and one label matrix.

    ``X`` is a read-only (n, w) float64 matrix and ``label_matrix`` a
    read-only (n, label_count) bool matrix, row i marking the labels of
    example i; both are copied once here and are the only stored data. The
    other label forms (the sampler's label pools, the label sets) are
    derived from ``label_matrix`` on first use and cached, so a caller pays
    only for the ones it reads.
    """

    def __init__(self, ids: list[str], X, label_matrix: np.ndarray):
        """``label_matrix`` is the split's bool label matrix, at least one
        label wide (:func:`labels_to_matrix` builds one from label
        collections); ``label_count`` is its width."""
        ids = list(ids)
        X = np.array(X, dtype=np.float64, order="C")
        if not ids and X.shape[:1] == (0,):  # an empty split has no width
            X = X.reshape(0, 0)
        L = np.array(label_matrix, order="C")
        if L.dtype != bool or L.ndim != 2 or L.shape[1] < 1:
            raise ContractError(
                f"label matrix must be bool, 2-D and at least 1 label wide, got {L.dtype} "
                f"of shape {L.shape}"
            )
        if X.ndim != 2 or X.shape[0] != len(ids) or len(L) != len(ids):
            raise ContractError(
                f"{len(ids)} ids, {len(L)} label sets and features of shape {X.shape}"
            )
        empty = ~L.any(axis=1)
        if empty.any() or len(set(ids)) != len(ids):
            seen = set()  # find the first bad record, so the error names it
            for rid, bad in zip(ids, empty.tolist()):
                if rid in seen:
                    raise DataFormatError(f"duplicate example id {rid!r}")
                if bad:
                    raise DataFormatError(f"record {rid!r}: label set is empty")
                seen.add(rid)
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            rid = ids[int(np.argmin(finite))]
            raise DataFormatError(f"record {rid!r}: non-finite feature value")
        X.flags.writeable = False
        L.flags.writeable = False
        self.ids = ids
        self.X = X
        self.label_matrix = L
        self.label_count = L.shape[1]
        self.feature_dim = X.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def labels(self) -> list[frozenset[int]]:
        """Each row's label set, for the writers of JSONL and CSV files."""
        sizes = self.label_matrix.sum(axis=1).tolist()
        columns = iter(np.nonzero(self.label_matrix)[1].tolist())  # row by row
        return [frozenset(itertools.islice(columns, size)) for size in sizes]

    @cached_property
    def label_pools(self) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, bounds)``, read-only, for the sampler: label k's
        pool is the ``bounds[k, 2]`` positions from ``bounds[k, 0]`` on,
        its ``bounds[k, 1]`` single-label ones first, each part ascending."""
        L = self.label_matrix
        single = L.sum(axis=1) == 1
        label, pos = np.nonzero(L.T)  # label-major, positions ascending
        positions = pos[np.lexsort((~single[pos], label))]  # a stable sort
        bounds = np.zeros((self.label_count, 3), dtype=np.intp)
        bounds[:, 1] = L[single].sum(axis=0)
        bounds[:, 2] = L.sum(axis=0)
        bounds[1:, 0] = np.cumsum(bounds[:-1, 2])
        positions.flags.writeable = bounds.flags.writeable = False
        return positions, bounds

    def feature_matrix(self) -> np.ndarray:
        return self.X


@dataclass(frozen=True)
class DatasetSplits:
    """The three splits; a loader that reads only some leaves the rest None."""

    train: Dataset | None = None
    val: Dataset | None = None
    test: Dataset | None = None

    def named(self) -> dict[str, Dataset | None]:
        return {name: getattr(self, name) for name in SPLITS}


@dataclass(frozen=True)
class SyntheticSpec:
    """Controls the synthetic multi-label generator; the fields are the keys
    of the config's ``data`` section, and a spec checks itself when built.

    ``cooccurrence`` is an l x l symmetric table. Its diagonal holds the
    relative weights used to draw each example's primary label; entry (i, j)
    off the diagonal is the probability that label j is added to an example
    whose primary label is i. Exclusive labels must have zero co-occurrence
    with everything, which makes them single-label by construction. Without
    ``prototypes``, unit-norm random prototypes drawn from ``seed``; without
    ``cooccurrence``, label 0 exclusive and consecutive abnormal labels
    paired with moderate co-occurrence. Both tables are kept as read-only
    float64 arrays.
    """

    label_count: int = 5
    feature_dim: int = 32
    noise_sigma: float = 0.15
    train_examples: int = 2000
    val_examples: int = 500
    test_examples: int = 500
    seed: int = 7
    prototypes: list[list[float]] | None = None
    cooccurrence: list[list[float]] | None = None
    exclusive_labels: tuple[int, ...] = (0,)

    def __post_init__(self):
        l, w = self.label_count, self.feature_dim
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if w < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {w}")
        if l < 2:
            raise ConfigError(f"label_count must be >= 2, got {l}")
        check_size("label_count", l * l)
        check_size("feature_dim", l * w)
        prototypes, cooccurrence = self.prototypes, self.cooccurrence
        if prototypes is None:
            prototypes = np.random.default_rng(self.seed).standard_normal((l, w))
            prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
        if cooccurrence is None:
            cooccurrence = np.zeros((l, l))
            cooccurrence[0, 0] = 0.30
            for k in range(1, l):
                cooccurrence[k, k] = 0.70 / (l - 1)
            for a in range(1, l - 1, 2):
                cooccurrence[a, a + 1] = cooccurrence[a + 1, a] = 0.40
        resolve = object.__setattr__  # how a frozen dataclass sets its own fields
        resolve(self, "prototypes", _table("prototypes", prototypes))
        resolve(self, "noise_sigma", float(self.noise_sigma))
        resolve(self, "cooccurrence", _table("cooccurrence", cooccurrence))
        resolve(self, "exclusive_labels", tuple(self.exclusive_labels))

        proto, co = self.prototypes, self.cooccurrence
        if proto.shape != (l, w):
            raise ConfigError(f"prototypes shape {proto.shape} != ({l}, {w})")
        if not np.all(np.isfinite(proto)):
            raise ConfigError("prototypes contain non-finite values")
        if co.shape != (l, l):
            raise ConfigError(f"cooccurrence shape {co.shape} != ({l}, {l})")
        if np.any(co < 0.0) or np.any(co > 1.0):
            bad = np.argwhere((co < 0.0) | (co > 1.0))[0]
            raise ConfigError(f"cooccurrence[{bad[0]}][{bad[1]}] outside [0, 1]")
        if not np.allclose(co, co.T):
            raise ConfigError("cooccurrence is not symmetric")
        if np.sum(np.diag(co)) <= 0.0:
            raise ConfigError("cooccurrence diagonal (marginal weights) sums to zero")
        for e in self.exclusive_labels:
            if e < 0 or e >= l:
                raise ConfigError(f"exclusive_labels entry {e} outside [0, {l})")
            row = np.delete(co[e], e)
            if np.any(row != 0.0):
                j = [k for k in range(l) if k != e][int(np.argmax(row != 0.0))]
                raise ConfigError(f"cooccurrence[{e}][{j}] must be 0 for exclusive label {e}")
        if self.noise_sigma < 0.0:
            raise ConfigError("noise_sigma must be >= 0")
        for name in ("train_examples", "val_examples", "test_examples"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
            check_size(name, getattr(self, name) * max(w, l))  # its feature and label matrices


def _table(name: str, rows) -> np.ndarray:
    """``rows`` as a read-only float64 array of its own."""
    try:
        table = np.array(rows, dtype=np.float64)
    except ValueError as exc:  # rows of unequal length
        raise ConfigError(f"{name} rows must all have the same length") from exc
    table.flags.writeable = False
    return table


def _draw_label_row(spec: SyntheticSpec, primary_probs: np.ndarray, rng, row: np.ndarray) -> None:
    """Mark one example's drawn labels in its all-False label ``row``."""
    l = spec.label_count
    primary = int(rng.choice(l, p=primary_probs))
    row[primary] = True
    co = spec.cooccurrence
    for j in range(l):
        if j == primary or co[primary, j] == 0.0:
            continue
        if rng.random() < co[primary, j]:
            row[j] = True


def generate_synthetic(spec: SyntheticSpec) -> DatasetSplits:
    """Draw train/val/test splits from one seeded stream.

    Features are the sum of the prototypes of the active labels plus
    isotropic Gaussian noise. A feature past the float range is a
    ConfigError naming ``prototypes`` when the summed prototypes overflow,
    else ``noise_sigma``.
    """
    rng = np.random.default_rng(spec.seed)
    proto = spec.prototypes
    weights = np.diag(spec.cooccurrence)
    primary_probs = weights / weights.sum()

    splits = {}
    counts = {
        "train": spec.train_examples,
        "val": spec.val_examples,
        "test": spec.test_examples,
    }
    for split, count in counts.items():
        X = np.empty((count, spec.feature_dim))
        L = np.zeros((count, spec.label_count), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below, by key
            for i in range(count):
                _draw_label_row(spec, primary_probs, rng, L[i])
                X[i] = proto[L[i]].sum(axis=0)
                X[i] += rng.normal(0.0, spec.noise_sigma, size=spec.feature_dim)
            finite = np.isfinite(X).all(axis=1)
            if not finite.all():
                row = L[int(np.argmin(finite))]
                key = "noise_sigma" if np.isfinite(proto[row].sum(axis=0)).all() else "prototypes"
                raise ConfigError(f"{key} carries a generated feature past the float range")
        ids = [f"{split}-{i:05d}" for i in range(count)]
        splits[split] = Dataset(ids, X, L)

    missing = np.flatnonzero(~splits["train"].label_matrix.any(axis=0))
    if spec.train_examples > 0 and missing.size:
        raise ConfigError(
            f"train_examples: label {missing[0]} has no training examples; raise "
            f"train_examples or its marginal weight"
        )
    return DatasetSplits(**splits)


# A split's binary copy is an uncompressed .npz of these arrays (name: dtype).
# Each id is stored as its UTF-8 bytes, cut from one blob by ``id_ends``: a
# numpy string array would drop an id's trailing "\x00".
_BINARY_ARRAYS = {"X": "<f8", "label_matrix": "|b1", "id_bytes": "|u1", "id_ends": "<i8"}


def save_jsonl(ds: Dataset, path: str | Path) -> bytes:
    """One JSON record per line: {"id", "features", "labels"}. The file is
    moved into place whole (see :func:`~mlembed.model.write_atomic`);
    returns the bytes written."""
    lines = []
    for rid, features, labels in zip(ds.ids, ds.X, ds.labels):
        record = {
            "id": rid,
            "features": [float(x) for x in features],
            "labels": sorted(labels),
        }
        lines.append(json.dumps(record) + "\n")
    data = "".join(lines).encode("utf-8")
    write_atomic(Path(path), data)
    return data


def _save_binary(ds: Dataset, path: Path) -> bytes:
    """The split's :data:`_BINARY_ARRAYS`, written whole; returns the bytes written."""
    encoded = [rid.encode("utf-8", "surrogatepass") for rid in ds.ids]
    arrays = {
        "X": ds.X,
        "label_matrix": ds.label_matrix,
        "id_bytes": np.frombuffer(b"".join(encoded), dtype=np.uint8),
        "id_ends": np.cumsum([len(e) for e in encoded]),
    }
    buffer = io.BytesIO()
    np.savez(buffer, **{key: np.asarray(arrays[key], dtype=_BINARY_ARRAYS[key]) for key in arrays})
    data = buffer.getvalue()
    write_atomic(path, data)
    return data


def _read_jsonl(data: bytes, name: str) -> tuple[list[str], list[np.ndarray], list[list]]:
    """Parse the JSONL bytes ``data`` of the file ``name`` into ids, feature
    rows and raw label lists.

    Only the record format is checked here; :func:`labels_to_matrix` checks
    the ids and the labels, and :class:`Dataset` that every feature is finite.
    """
    # Features become arrays as each line is read: a list of Python floats
    # takes several times the memory, and every split is held at once.
    ids: list[str] = []
    rows: list[np.ndarray] = []
    labels: list[list] = []
    for lineno, line in enumerate(io.BytesIO(data), start=1):  # lines end at b"\n" only
        line = line.strip()  # ASCII whitespace: JSON allows no other around a value
        if not line:
            continue
        record = read_json_object(line, f"{name}:{lineno}")
        for key in ("id", "features", "labels"):
            if key not in record:
                raise DataFormatError(f"{name}:{lineno}: missing key {key!r}")
        rid = record["id"]
        if not isinstance(rid, str):
            raise DataFormatError(f"{name}:{lineno}: id must be a string")
        if not isinstance(record["features"], list) or not record["features"]:
            raise DataFormatError(f"record {rid!r}: features must be a non-empty list")
        if not isinstance(record["labels"], list):
            raise DataFormatError(f"record {rid!r}: labels must be a list")
        # float64 conversion would take strings and booleans as numbers
        if not set(map(type, record["features"])) <= {int, float}:
            bad = next(x for x in record["features"] if type(x) not in (int, float))
            raise DataFormatError(f"record {rid!r}: feature {bad!r} is not a number")
        if rows and len(record["features"]) != len(rows[0]):
            raise DataFormatError(
                f"record {rid!r}: feature length {len(record['features'])} != {len(rows[0])}"
            )
        try:
            rows.append(np.asarray(record["features"], dtype=np.float64))
        except OverflowError as exc:
            raise DataFormatError(f"record {rid!r}: feature too large for a float") from exc
        ids.append(rid)
        labels.append(record["labels"])
    return ids, rows, labels


def _read_binary(data: bytes, path: Path, label_count: int) -> Dataset:
    """The split in the binary bytes ``data`` of the file ``path``: its own
    dtype and shape checks, then those of :class:`Dataset`, as for a JSONL
    file. A failed check raises DataFormatError naming ``path``."""
    try:
        npz = np.load(io.BytesIO(data), allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with npz:
            arrays = {key: npz[key] for key in npz.files}
    except (OSError, ValueError, EOFError, RuntimeError, MemoryError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise DataFormatError(f"{path}: unreadable: {exc}") from exc
    if sorted(arrays) != sorted(_BINARY_ARRAYS):
        raise DataFormatError(f"{path}: holds {sorted(arrays)}, not {sorted(_BINARY_ARRAYS)}")
    for key, dtype in _BINARY_ARRAYS.items():
        if arrays[key].dtype != np.dtype(dtype):
            raise DataFormatError(f"{path}: {key} has dtype {arrays[key].dtype.str}, not {dtype}")
    X, L, blob, ends = (arrays[key] for key in _BINARY_ARRAYS)
    if L.ndim != 2 or L.shape[1] != label_count:
        raise DataFormatError(
            f"{path}: label_matrix of shape {L.shape} is not {label_count} labels wide"
        )
    if blob.ndim != 1 or ends.ndim != 1:
        raise DataFormatError(f"{path}: id_bytes and id_ends must be 1-D")
    starts = np.concatenate(([0], ends[:-1]))
    if np.any(ends < starts) or len(blob) != ends[-1:].sum():
        raise DataFormatError(f"{path}: id_ends do not cut id_bytes into ids")
    blob, starts, ends = blob.tobytes(), starts.tolist(), ends.tolist()
    try:
        ids = [blob[a:b].decode("utf-8", "surrogatepass") for a, b in zip(starts, ends)]
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: an id is not UTF-8: {exc}") from exc
    try:
        return Dataset(ids, X, L)
    except (ContractError, DataFormatError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _digest_matches(digests: dict, name: str, data: bytes) -> bool:
    return name in digests and digests[name] == hashlib.sha256(data).hexdigest()


def load_dataset_dir(path: str | Path, names: tuple[str, ...] = SPLITS) -> DatasetSplits:
    """Load the splits in ``names`` (the others are None).

    A split is read from its binary file when the manifest records
    label_count and the SHA-256 of both the split's files, and both match
    their bytes; otherwise from its JSONL file, the source of truth. Each
    file is read once, and hashed as read. label_count comes from the
    manifest, or without one is inferred once across the splits read.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"dataset directory {directory} does not exist")
    label_count, digests = None, {}
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        manifest = read_json_object(manifest_path.read_bytes(), manifest_path)
        label_count = manifest.get("label_count")
        if label_count is not None and (
            type(label_count) is not int or not 1 <= label_count <= MAX_ARRAY_ELEMENTS
        ):
            raise DataFormatError(
                f"{manifest_path}: label_count must be an int in [1, {MAX_ARRAY_ELEMENTS}], "
                f"got {label_count!r}"
            )
        if label_count is not None and isinstance(manifest.get("files"), dict):
            digests = manifest["files"]
    read = [split for split in SPLITS if split in names]
    splits, records = {}, {}
    for split in read:
        jsonl, binary = f"{split}.jsonl", f"{split}.npz"
        data = (directory / jsonl).read_bytes()
        if _digest_matches(digests, jsonl, data):
            try:
                binary_data = (directory / binary).read_bytes()
            except OSError:  # a missing binary file, like an empty one, matches no digest
                binary_data = b""
            if _digest_matches(digests, binary, binary_data):
                splits[split] = _read_binary(binary_data, directory / binary, label_count)
                continue
        records[split] = _read_jsonl(data, jsonl)
    if label_count is None:  # JSON labels are ints; a bool is not one
        label_count = 1 + max(
            (lab for _, _, labels in records.values() for labs in labels for lab in labs
             if type(lab) is int and lab > 0),
            default=0,
        )
    for split, (ids, rows, labels) in records.items():
        splits[split] = Dataset(ids, rows, labels_to_matrix(ids, labels, label_count))
    # an empty split has no width; commands that read one reject it by name
    widths = [(f"{split}.jsonl", splits[split].feature_dim) for split in read if len(splits[split])]
    for name, width in widths[1:]:
        if width != widths[0][1]:
            raise DataFormatError(
                f"{directory / name}: feature width {width} != {widths[0][1]} of {widths[0][0]}"
            )
    return DatasetSplits(**splits)


def save_dataset_dir(out: Path, spec: SyntheticSpec, splits: DatasetSplits) -> None:
    """Write each split's JSONL file and binary copy, then a manifest of
    ``spec`` that records the SHA-256 of each of those files, into ``out``,
    each file whole. The manifest goes last, so a write that fails leaves
    no recorded digest that matches a file it changed."""
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, split in splits.named().items():
        for file, save in ((f"{name}.jsonl", save_jsonl), (f"{name}.npz", _save_binary)):
            digests[file] = hashlib.sha256(save(split, out / file)).hexdigest()
    manifest = {
        "label_count": spec.label_count,
        "feature_dim": spec.feature_dim,
        "noise_sigma": spec.noise_sigma,
        "seed": spec.seed,
        "counts": {name: len(split) for name, split in splits.named().items()},
        "exclusive_labels": list(spec.exclusive_labels),
        "cooccurrence": spec.cooccurrence.tolist(),
        "prototypes": spec.prototypes.tolist(),
        "files": digests,
    }
    write_json(out / "manifest.json", manifest)

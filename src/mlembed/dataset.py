"""Multi-labelled examples: data model, synthetic generator, JSONL ingestion.

Every example carries a non-empty set of label indices. Label 0 plays the
role of the "normal" class in the synthetic generator: it is mutually
exclusive with every other label, so normal examples are ordinary
single-label examples and participate in sampling like any other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError


def validate_labels(labels, label_count: int) -> frozenset[int]:
    """Check a raw label collection and return it as a frozenset."""
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
    return frozenset(int(x) for x in items)


@dataclass(frozen=True, eq=False)
class Example:
    id: str
    features: np.ndarray
    labels: frozenset[int]


class Dataset:
    """Immutable collection of examples.

    The arrays the training hot path reads (feature matrix, label bitmasks,
    label matrix, per-label positions) are built on first use and cached.
    """

    def __init__(self, examples: list[Example], label_count: int):
        if label_count < 1:
            raise DataFormatError("label_count must be >= 1")
        feature_dim = None
        positions: dict[str, int] = {}
        for pos, ex in enumerate(examples):
            if ex.id in positions:
                raise DataFormatError(f"duplicate example id {ex.id!r}")
            if feature_dim is None:
                feature_dim = ex.features.shape[0]
            elif ex.features.shape[0] != feature_dim:
                raise DataFormatError(
                    f"record {ex.id!r}: feature length {ex.features.shape[0]} != {feature_dim}"
                )
            if not np.all(np.isfinite(ex.features)):
                raise DataFormatError(f"record {ex.id!r}: non-finite feature value")
            validate_labels(ex.labels, label_count)
            positions[ex.id] = pos
        self.examples = list(examples)
        self.label_count = label_count
        self.feature_dim = feature_dim if feature_dim is not None else 0
        self._positions = positions

    def __len__(self) -> int:
        return len(self.examples)

    def by_id(self, example_id: str) -> Example:
        return self.examples[self._positions[example_id]]

    def position(self, example_id: str) -> int:
        return self._positions[example_id]

    @cached_property
    def X(self) -> np.ndarray:
        """Read-only (n, w) feature matrix, rows in example order."""
        X = np.stack([ex.features for ex in self.examples])
        X.flags.writeable = False
        return X

    @cached_property
    def label_masks(self) -> list[int]:
        """Per-row label bitmask: bit k is set when the row carries label k.

        Python ints, so any label count fits and the sampler's per-draw
        overlap test (``mask_a & mask_b``) stays a scalar operation.
        """
        return [sum(1 << lab for lab in ex.labels) for ex in self.examples]

    @cached_property
    def label_matrix(self) -> np.ndarray:
        """Read-only (n, label_count) bool matrix of label membership."""
        L = np.zeros((len(self.examples), self.label_count), dtype=bool)
        for pos, ex in enumerate(self.examples):
            L[pos, list(ex.labels)] = True
        L.flags.writeable = False
        return L

    @cached_property
    def _label_positions(self) -> list[list[int]]:
        # Lists rather than arrays: the sampler reads one element per draw.
        index: list[list[int]] = [[] for _ in range(self.label_count)]
        for pos, ex in enumerate(self.examples):
            for lab in ex.labels:
                index[lab].append(pos)
        return index

    @cached_property
    def _single_label_positions(self) -> list[list[int]]:
        return [
            [i for i in pool if len(self.examples[i].labels) == 1]
            for pool in self._label_positions
        ]

    def positions_with_label(self, label: int) -> list[int]:
        """Ascending positions of examples carrying ``label``."""
        return self._label_positions[label]

    def single_label_positions(self, label: int) -> list[int]:
        """Ascending positions of examples whose label set is exactly {label}."""
        return self._single_label_positions[label]

    def ids(self) -> list[str]:
        return [ex.id for ex in self.examples]

    def feature_matrix(self) -> np.ndarray:
        return self.X

    def distinct_label_sets(self) -> list[frozenset[int]]:
        """Distinct label sets in first-appearance order."""
        seen: dict[frozenset[int], None] = {}
        for ex in self.examples:
            seen.setdefault(ex.labels, None)
        return list(seen)


@dataclass(frozen=True)
class DatasetSplits:
    train: Dataset
    val: Dataset
    test: Dataset

    def named(self) -> dict[str, Dataset]:
        return {"train": self.train, "val": self.val, "test": self.test}


@dataclass
class SyntheticSpec:
    """Controls the synthetic multi-label generator.

    ``cooccurrence`` is an l x l symmetric table. Its diagonal holds the
    relative weights used to draw each example's primary label; entry (i, j)
    off the diagonal is the probability that label j is added to an example
    whose primary label is i. Exclusive labels must have zero co-occurrence
    with everything, which makes them single-label by construction.
    """

    label_count: int
    feature_dim: int
    prototypes: np.ndarray
    noise_sigma: float
    cooccurrence: np.ndarray
    train_examples: int
    val_examples: int
    test_examples: int
    seed: int
    exclusive_labels: tuple[int, ...] = (0,)

    def validate(self) -> None:
        l, w = self.label_count, self.feature_dim
        proto = np.asarray(self.prototypes, dtype=np.float64)
        if proto.shape != (l, w):
            raise ConfigError(f"prototypes shape {proto.shape} != ({l}, {w})")
        if not np.all(np.isfinite(proto)):
            raise ConfigError("prototypes contain non-finite values")
        co = np.asarray(self.cooccurrence, dtype=np.float64)
        if co.shape != (l, l):
            raise ConfigError(f"cooccurrence shape {co.shape} != ({l}, {l})")
        if np.any(co < 0.0) or np.any(co > 1.0):
            bad = np.argwhere((co < 0.0) | (co > 1.0))[0]
            raise ConfigError(f"cooccurrence[{bad[0]}][{bad[1]}] outside [0, 1]")
        if not np.allclose(co, co.T):
            raise ConfigError("cooccurrence table is not symmetric")
        if np.sum(np.diag(co)) <= 0.0:
            raise ConfigError("cooccurrence diagonal (marginal weights) sums to zero")
        for e in self.exclusive_labels:
            if e < 0 or e >= l:
                raise ConfigError(f"exclusive label {e} outside [0, {l})")
            row = np.delete(co[e], e)
            if np.any(row != 0.0):
                j = [k for k in range(l) if k != e][int(np.argmax(row != 0.0))]
                raise ConfigError(f"cooccurrence[{e}][{j}] must be 0 for exclusive label {e}")
        if self.noise_sigma < 0.0:
            raise ConfigError("noise_sigma must be >= 0")
        for name in ("train_examples", "val_examples", "test_examples"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


def default_synthetic_spec(
    label_count: int = 5,
    feature_dim: int = 32,
    noise_sigma: float = 0.15,
    train_examples: int = 2000,
    val_examples: int = 500,
    test_examples: int = 500,
    seed: int = 7,
) -> SyntheticSpec:
    """Desk-scale default: unit-norm random prototypes, label 0 exclusive,
    consecutive abnormal labels paired with moderate co-occurrence."""
    if label_count < 2:
        raise ConfigError("default spec needs at least 2 labels")
    rng = np.random.default_rng(seed)
    proto = rng.standard_normal((label_count, feature_dim))
    proto /= np.linalg.norm(proto, axis=1, keepdims=True)

    co = np.zeros((label_count, label_count))
    co[0, 0] = 0.30
    for k in range(1, label_count):
        co[k, k] = 0.70 / (label_count - 1)
    for a in range(1, label_count - 1, 2):
        co[a, a + 1] = co[a + 1, a] = 0.40
    return SyntheticSpec(
        label_count=label_count,
        feature_dim=feature_dim,
        prototypes=proto,
        noise_sigma=noise_sigma,
        cooccurrence=co,
        train_examples=train_examples,
        val_examples=val_examples,
        test_examples=test_examples,
        seed=seed,
    )


def _draw_label_set(spec: SyntheticSpec, primary_probs: np.ndarray, rng) -> frozenset[int]:
    l = spec.label_count
    primary = int(rng.choice(l, p=primary_probs))
    labels = {primary}
    co = spec.cooccurrence
    for j in range(l):
        if j == primary or co[primary, j] == 0.0:
            continue
        if rng.random() < co[primary, j]:
            labels.add(j)
    return frozenset(labels)


def generate_synthetic(spec: SyntheticSpec) -> DatasetSplits:
    """Draw train/val/test splits from one seeded stream.

    Features are the sum of the prototypes of the active labels plus
    isotropic Gaussian noise.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    proto = np.asarray(spec.prototypes, dtype=np.float64)
    weights = np.diag(np.asarray(spec.cooccurrence, dtype=np.float64))
    primary_probs = weights / weights.sum()

    splits = {}
    counts = {
        "train": spec.train_examples,
        "val": spec.val_examples,
        "test": spec.test_examples,
    }
    for split, count in counts.items():
        examples = []
        for i in range(count):
            labels = _draw_label_set(spec, primary_probs, rng)
            features = proto[sorted(labels)].sum(axis=0)
            features = features + rng.normal(0.0, spec.noise_sigma, size=spec.feature_dim)
            examples.append(Example(f"{split}-{i:05d}", features, labels))
        splits[split] = Dataset(examples, spec.label_count)

    train = splits["train"]
    if spec.train_examples > 0:
        for k in range(spec.label_count):
            if not train.positions_with_label(k):
                raise ConfigError(
                    f"label {k} has no training examples; raise train_examples "
                    f"or its marginal weight"
                )
    return DatasetSplits(train=train, val=splits["val"], test=splits["test"])


def save_jsonl(ds: Dataset, path: str | Path) -> None:
    """One JSON record per line: {"id", "features", "labels"}."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for ex in ds.examples:
            record = {
                "id": ex.id,
                "features": [float(x) for x in ex.features],
                "labels": sorted(ex.labels),
            }
            fh.write(json.dumps(record) + "\n")


def load_jsonl(path: str | Path, label_count: int | None = None) -> Dataset:
    """Load a JSONL dataset; infers label_count as max index + 1 when not given."""
    return load_jsonl_files([path], label_count)[0]


def load_jsonl_files(paths, label_count: int | None = None) -> list[Dataset]:
    """Load JSONL datasets that share one label_count.

    When ``label_count`` is not given it is inferred once, as max index + 1
    over the records of every file, so a split that lacks the top label
    still agrees with the others.
    """
    records = [_read_jsonl(Path(path)) for path in paths]
    if label_count is None:
        top = -1
        for _, _, labels in (rec for recs in records for rec in recs):
            for lab in labels:
                if isinstance(lab, int) and not isinstance(lab, bool):
                    top = max(top, lab)
        label_count = top + 1 if top >= 0 else 1
    return [_dataset_from_records(recs, label_count) for recs in records]


def _read_jsonl(path: Path) -> list[tuple[str, np.ndarray, list]]:
    # Features become arrays as each line is read: a list of Python floats
    # takes several times the memory, and every split is held at once.
    raw: list[tuple[str, np.ndarray, list]] = []
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{path.name}:{lineno}: not UTF-8 text") from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise DataFormatError(f"{path.name}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise DataFormatError(f"{path.name}:{lineno}: record is not a JSON object")
            for key in ("id", "features", "labels"):
                if key not in record:
                    raise DataFormatError(f"{path.name}:{lineno}: missing key {key!r}")
            rid = record["id"]
            if not isinstance(rid, str):
                raise DataFormatError(f"{path.name}:{lineno}: id must be a string")
            if not isinstance(record["features"], list) or not record["features"]:
                raise DataFormatError(f"record {rid!r}: features must be a non-empty list")
            if not isinstance(record["labels"], list):
                raise DataFormatError(f"record {rid!r}: labels must be a list")
            # float64 conversion would take strings and booleans as numbers
            if not set(map(type, record["features"])) <= {int, float}:
                bad = next(x for x in record["features"] if type(x) not in (int, float))
                raise DataFormatError(f"record {rid!r}: feature {bad!r} is not a number")
            try:
                feats = np.asarray(record["features"], dtype=np.float64)
            except OverflowError as exc:
                raise DataFormatError(f"record {rid!r}: feature too large for a float") from exc
            if not np.all(np.isfinite(feats)):
                raise DataFormatError(f"record {rid!r}: features must be finite")
            raw.append((rid, feats, record["labels"]))
    return raw


def _dataset_from_records(raw, label_count: int) -> Dataset:
    examples = []
    for rid, feats, labels in raw:
        try:
            label_set = validate_labels(labels, label_count)
        except DataFormatError as exc:
            raise DataFormatError(f"record {rid!r}: {exc}") from exc
        examples.append(Example(rid, feats, label_set))
    return Dataset(examples, label_count)

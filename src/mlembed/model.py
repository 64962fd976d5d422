"""Embedding encoder: a small rectifier MLP trunk, an affine projection to
the embedding space, and L2 normalization onto the unit sphere.

Optional per-label two-way classifier heads share the trunk and are used by
the classification pre-training phase. Forward passes are batched: inputs
are (n, w) matrices, outputs (n, m).
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataFormatError, DegenerateInputError
from .numeric import EPS_NORM, ParamStore

CHECKPOINT_MAGIC = b"MLEMBED\x01"
CHECKPOINT_VERSION = 1


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` and move it into
    place with ``os.replace``, so ``path`` holds either its old bytes or all
    of the new ones. The temporary file is removed when the write fails."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path, payload) -> None:
    """``payload`` as indented JSON plus a newline, via :func:`write_atomic`."""
    write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def read_json_object(data: bytes, where, error=DataFormatError) -> dict:
    """The JSON object in the UTF-8 bytes ``data``; else ``error`` naming ``where``."""
    try:
        value = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{where}: not a JSON object")
    return value


MAX_ARRAY_ELEMENTS = sys.maxsize // 8  # so that a float64 array's byte count fits an index


def check_size(name: str, elements: int) -> None:
    """Raise ConfigError naming ``name`` before it makes an array too large to index."""
    if elements > MAX_ARRAY_ELEMENTS:
        raise ConfigError(f"{name} is too large: {elements} values exceed {MAX_ARRAY_ELEMENTS}")


# Accepted value types per annotation name; bool is only accepted for "bool".
_FIELD_TYPES = {
    "str": str, "int": numbers.Integral, "float": numbers.Real, "bool": bool, "None": type(None)
}


def check_type(name: str, value, annotation: str) -> None:
    """Raise ConfigError unless ``value`` fits ``annotation``: a union
    (``" | "``) of str, int, float, bool, None, and ``list[...]`` or
    ``tuple[..., ...]`` of those, either of which takes a list or a tuple.
    Ints are accepted for floats, bool only where declared, and a float
    must be finite."""
    if not _fits(value, annotation):
        raise ConfigError(f"{name} must be {annotation}, got {value!r}")


def _fits(value, annotation: str) -> bool:
    for kind in annotation.split(" | "):
        if kind.startswith(("list[", "tuple[")):
            item = kind[kind.index("[") + 1 : -1].removesuffix(", ...")
            if isinstance(value, (list, tuple)) and all(_fits(x, item) for x in value):
                return True
        elif isinstance(value, _FIELD_TYPES[kind]) and isinstance(value, bool) == (kind == "bool"):
            # false for inf, nan and an int too large to convert to a float
            if kind != "float" or abs(value) <= sys.float_info.max:
                return True
    return False


def check_fields(obj) -> None:
    """:func:`check_type` on every field of the dataclass instance ``obj``,
    against the field's annotation and named by the field."""
    for field in dataclasses.fields(obj):
        check_type(field.name, getattr(obj, field.name), field.type)


def _param_count(input_dim: int, hidden_sizes, embedding_dim: int, label_count: int) -> int:
    dims = [input_dim, *hidden_sizes, embedding_dim]
    heads = 2 * (hidden_sizes[-1] + 1) * label_count
    return sum((a + 1) * b for a, b in zip(dims, dims[1:])) + heads


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden_sizes: tuple[int, ...] = (64, 64)
    embedding_dim: int = 64
    label_count: int | None = None  # set to enable classifier heads
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if self.embedding_dim < 2:
            raise ConfigError("embedding_dim must be >= 2")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be non-empty positive ints")
        if self.label_count is not None and self.label_count < 1:
            raise ConfigError("label_count must be >= 1 when heads are enabled")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        # The parameters are one flat buffer. Each bound takes one more key at
        # its value, the keys after it at their least, so it names its key.
        hidden, labels = self.hidden_sizes, self.label_count or 0
        check_size("hidden_sizes", _param_count(1, hidden, 2, 0))
        check_size("input_dim", _param_count(self.input_dim, hidden, 2, 0))
        check_size("label_count", _param_count(self.input_dim, hidden, 2, labels))
        check_size("embedding_dim", self.param_count)

    @property
    def hidden_out(self) -> int:
        return self.hidden_sizes[-1]

    @property
    def param_count(self) -> int:
        """Number of float64 values in the parameter slots of this config."""
        return _param_count(
            self.input_dim, self.hidden_sizes, self.embedding_dim, self.label_count or 0
        )

    def as_dict(self) -> dict:
        """JSON-ready fields, in declaration order."""
        return dataclasses.asdict(self) | {"hidden_sizes": list(self.hidden_sizes)}

    @classmethod
    def from_dict(cls, raw) -> "EncoderConfig":
        """Inverse of :meth:`as_dict`; raises DataFormatError for a missing,
        unknown or ill-typed key."""
        names = [f.name for f in dataclasses.fields(cls)]
        keys = sorted(raw) if isinstance(raw, dict) else None
        if keys != sorted(names):
            raise DataFormatError(f"encoder config keys {keys} are not {names}")
        try:
            return cls(**raw)
        except ConfigError as exc:
            raise DataFormatError(f"encoder config: {exc}") from exc


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _bias_init(rng, fan_in: int, fan_out: int) -> np.ndarray:
    # Same uniform limit as the layer's weights. A nonzero bias keeps the
    # pre-normalization vector away from zero when a whole rectifier layer
    # is dead for some input.
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=fan_out)


@dataclass
class EmbedCache:
    inputs: list[np.ndarray]       # layer inputs: [X, h_1, ..., h_L]
    pre_activations: list[np.ndarray]
    embeddings: np.ndarray         # normalized outputs (n, m)
    norms: np.ndarray              # pre-normalization norms (n,)


@dataclass
class ClassifyCache:
    inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]


class EmbeddingModel:
    """Holds the parameter store and implements forward/backward passes."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        self.params = ParamStore()
        rng = np.random.default_rng(config.seed)
        dims = [config.input_dim, *config.hidden_sizes]
        for i in range(len(dims) - 1):
            self.params.add(f"W{i}", _glorot(rng, dims[i], dims[i + 1]))
            self.params.add(f"c{i}", _bias_init(rng, dims[i], dims[i + 1]))
        self.params.add("proj_W", _glorot(rng, config.hidden_out, config.embedding_dim))
        self.params.add("proj_b", _bias_init(rng, config.hidden_out, config.embedding_dim))
        if config.label_count is not None:
            for k in range(config.label_count):
                self.params.add(f"head{k}_W", _glorot(rng, config.hidden_out, 2))
                self.params.add(f"head{k}_b", _bias_init(rng, config.hidden_out, 2))

    @property
    def has_heads(self) -> bool:
        return self.config.label_count is not None

    def _trunk_forward(self, X: np.ndarray):
        inputs = [X]
        pre = []
        h = X
        for i in range(len(self.config.hidden_sizes)):
            z = h @ self.params.value(f"W{i}") + self.params.value(f"c{i}")
            h = np.maximum(z, 0.0)
            pre.append(z)
            inputs.append(h)
        return inputs, pre

    def _trunk_backward(self, inputs, pre, g_hidden: np.ndarray) -> None:
        g = g_hidden
        for i in reversed(range(len(self.config.hidden_sizes))):
            g = g * (pre[i] > 0.0)
            self.params.grad(f"W{i}")[...] += inputs[i].T @ g
            self.params.grad(f"c{i}")[...] += g.sum(axis=0)
            if i:  # nothing reads the gradient of the input features
                g = g @ self.params.value(f"W{i}").T

    def _check_input(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.config.input_dim:
            raise ContractError(
                f"expected inputs of dim {self.config.input_dim}, got shape {X.shape}"
            )
        if not np.all(np.isfinite(X)):
            raise DegenerateInputError("input contains non-finite values")
        return X

    def embed(self, X) -> tuple[np.ndarray, EmbedCache]:
        """Unit-norm embeddings for a batch of feature rows."""
        X = self._check_input(X)
        inputs, pre = self._trunk_forward(X)
        raw = inputs[-1] @ self.params.value("proj_W") + self.params.value("proj_b")
        norms = np.linalg.norm(raw, axis=1)
        if np.any(norms < EPS_NORM):
            row = int(np.argmax(norms < EPS_NORM))
            raise DegenerateInputError(
                f"pre-normalization activation for row {row} has norm {norms[row]:.3e}"
            )
        E = raw / norms[:, None]
        return E, EmbedCache(inputs, pre, E, norms)

    def backward_embed(self, cache: EmbedCache, G: np.ndarray) -> None:
        """Accumulate parameter gradients given upstream grads on embeddings.

        The normalization Jacobian (I - f f^T) / norm projects each upstream
        row onto the tangent space of the sphere before the affine layers.
        """
        G = np.asarray(G, dtype=np.float64)
        E, norms = cache.embeddings, cache.norms
        if G.shape != E.shape:
            raise ContractError(f"upstream grad shape {G.shape} != {E.shape}")
        g_raw = (G - E * np.sum(E * G, axis=1, keepdims=True)) / norms[:, None]
        h_last = cache.inputs[-1]
        self.params.grad("proj_W")[...] += h_last.T @ g_raw
        self.params.grad("proj_b")[...] += g_raw.sum(axis=0)
        g_hidden = g_raw @ self.params.value("proj_W").T
        self._trunk_backward(cache.inputs, cache.pre_activations, g_hidden)

    def _heads(self, buffer: np.ndarray) -> np.ndarray:
        """The head slots, which end the store, as one (l, h + 1, 2) block of
        ``buffer``: rows :h of head k are its weights and row h its bias."""
        l, h = self.config.label_count, self.config.hidden_out
        return buffer[buffer.size - l * (h + 1) * 2 :].reshape(l, h + 1, 2)

    def classify(self, X) -> tuple[np.ndarray, ClassifyCache]:
        """Per-label log-softmax pairs, shape (n, label_count, 2)."""
        if not self.has_heads:
            raise ConfigError("model was built without classifier heads")
        X = self._check_input(X)
        inputs, pre = self._trunk_forward(X)
        heads, h = self._heads(self.params.values), self.config.hidden_out
        logits = (inputs[-1] @ heads[:, :h]).transpose(1, 0, 2) + heads[:, h]
        shift = logits.max(axis=2, keepdims=True)
        log_probs = logits - shift - np.log(np.exp(logits - shift).sum(axis=2, keepdims=True))
        return log_probs, ClassifyCache(inputs, pre)

    def backward_classify(self, cache: ClassifyCache, G_logits: np.ndarray) -> None:
        """Accumulate gradients given upstream grads on the head logits."""
        if not self.has_heads:
            raise ConfigError("model was built without classifier heads")
        hidden = cache.inputs[-1]
        l, h = self.config.label_count, self.config.hidden_out
        G_logits = np.asarray(G_logits, dtype=np.float64)
        if G_logits.shape != (hidden.shape[0], l, 2):
            raise ContractError(f"logit grad shape {G_logits.shape} != {(hidden.shape[0], l, 2)}")
        G = G_logits.transpose(1, 0, 2)  # (l, n, 2): one matrix per head
        grads = self._heads(self.params.grads)
        grads[:, :h] += hidden.T @ G
        grads[:, h] += G_logits.sum(axis=0)
        # Summed over heads in head order: the order fixes the last bits.
        g_hidden = (G @ self._heads(self.params.values)[:, :h].transpose(0, 2, 1)).sum(axis=0)
        self._trunk_backward(cache.inputs, cache.pre_activations, g_hidden)

    def reinit_projection(self, seed: int) -> None:
        """Fresh Glorot projection weights and zero bias; momentum cleared.

        Used when switching from the classification pre-training phase to
        the metric phase while keeping the trunk.
        """
        rng = np.random.default_rng(seed)
        np.copyto(
            self.params.value("proj_W"),
            _glorot(rng, self.config.hidden_out, self.config.embedding_dim),
        )
        np.copyto(
            self.params.value("proj_b"),
            _bias_init(rng, self.config.hidden_out, self.config.embedding_dim),
        )
        self.params.momentum("proj_W").fill(0.0)
        self.params.momentum("proj_b").fill(0.0)

    # -- checkpoint io ------------------------------------------------------

    def _header_arrays(self) -> list[dict]:
        """The checkpoint's slot list: every slot's name and shape, in store
        order, which is also the order of the array data."""
        names = self.params.names()
        return [{"name": n, "shape": list(self.params.value(n).shape)} for n in names]

    def save(self, path: str | Path) -> None:
        """Versioned header plus the value buffer as little-endian float64,
        written whole or not at all (:func:`write_atomic`)."""
        header = {
            "format_version": CHECKPOINT_VERSION,
            "config": self.config.as_dict(),
            "arrays": self._header_arrays(),
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        data = np.ascontiguousarray(self.params.values, dtype="<f8").tobytes()
        write_atomic(Path(path), CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + data)

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingModel":
        path = Path(path)
        with path.open("rb") as fh:
            magic = fh.read(len(CHECKPOINT_MAGIC))
            if magic != CHECKPOINT_MAGIC:
                raise DataFormatError(f"{path.name}: not a checkpoint file")
            length = fh.read(8)
            if len(length) != 8:
                raise DataFormatError(f"{path.name}: truncated header")
            (blob_len,) = struct.unpack("<Q", length)
            # A length past the end of the file is truncation; reading it
            # as asked would try to allocate that many bytes.
            blob = fh.read(min(blob_len, path.stat().st_size))
            if len(blob) != blob_len:
                raise DataFormatError(f"{path.name}: truncated header")
            header = read_json_object(blob, f"{path.name} header")
            if header.get("format_version") != CHECKPOINT_VERSION:
                raise DataFormatError(
                    f"{path.name}: unsupported format version {header.get('format_version')}"
                )
            config = EncoderConfig.from_dict(header.get("config"))
            # Check the size before building the model, so that a header
            # naming huge layers cannot make the reader allocate them.
            data_len = path.stat().st_size - fh.tell()
            if data_len < 8 * config.param_count:
                raise DataFormatError(f"{path.name}: truncated array data")
            if data_len > 8 * config.param_count:
                raise DataFormatError(f"{path.name}: trailing bytes after the last array")
            model = cls(config)
            if header.get("arrays") != model._header_arrays():
                raise DataFormatError(
                    f"{path.name}: arrays do not list the slots of the encoder config in order"
                )
            data = np.frombuffer(fh.read(8 * config.param_count), dtype="<f8")
            finite = np.isfinite(data)
            if not finite.all():
                name, _ = model.params.locate(int(np.argmin(finite)))
                raise DataFormatError(f"{path.name}: non-finite value in array {name!r}")
            np.copyto(model.params.values, data)
        return model

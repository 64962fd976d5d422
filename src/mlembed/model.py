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


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden_sizes: tuple[int, ...] = (64, 64)
    embedding_dim: int = 64
    label_count: int | None = None  # set to enable classifier heads
    seed: int = 0

    def __post_init__(self):
        for name in ("input_dim", "embedding_dim", "label_count", "seed"):
            value = getattr(self, name)
            if not (_is_int(value) or (value is None and name == "label_count")):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        sizes = self.hidden_sizes
        if not isinstance(sizes, (list, tuple)) or not all(map(_is_int, sizes)):
            raise ConfigError(f"hidden_sizes must be a list of integers, got {sizes!r}")
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

    @property
    def hidden_out(self) -> int:
        return self.hidden_sizes[-1]

    @property
    def param_count(self) -> int:
        """Number of float64 values in the parameter slots of this config."""
        dims = [self.input_dim, *self.hidden_sizes, self.embedding_dim]
        heads = 2 * (self.hidden_out + 1) * (self.label_count or 0)
        return sum((a + 1) * b for a, b in zip(dims, dims[1:])) + heads

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
    probs: np.ndarray              # softmax per head (n, l, 2)


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

    def classify(self, X) -> tuple[np.ndarray, ClassifyCache]:
        """Per-label log-softmax pairs, shape (n, label_count, 2)."""
        if not self.has_heads:
            raise ConfigError("model was built without classifier heads")
        X = self._check_input(X)
        inputs, pre = self._trunk_forward(X)
        h = inputs[-1]
        l = self.config.label_count
        logits = np.empty((X.shape[0], l, 2))
        for k in range(l):
            logits[:, k, :] = h @ self.params.value(f"head{k}_W") + self.params.value(f"head{k}_b")
        shift = logits.max(axis=2, keepdims=True)
        log_probs = logits - shift - np.log(np.exp(logits - shift).sum(axis=2, keepdims=True))
        return log_probs, ClassifyCache(inputs, pre, np.exp(log_probs))

    def backward_classify(self, cache: ClassifyCache, G_logits: np.ndarray) -> None:
        """Accumulate gradients given upstream grads on the head logits."""
        if not self.has_heads:
            raise ConfigError("model was built without classifier heads")
        h = cache.inputs[-1]
        l = self.config.label_count
        G_logits = np.asarray(G_logits, dtype=np.float64)
        if G_logits.shape != (h.shape[0], l, 2):
            raise ContractError(f"logit grad shape {G_logits.shape} != {(h.shape[0], l, 2)}")
        g_hidden = np.zeros_like(h)
        for k in range(l):
            gk = G_logits[:, k, :]
            self.params.grad(f"head{k}_W")[...] += h.T @ gk
            self.params.grad(f"head{k}_b")[...] += gk.sum(axis=0)
            g_hidden += gk @ self.params.value(f"head{k}_W").T
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

    def save(self, path: str | Path) -> None:
        """Versioned header plus named little-endian float64 arrays, written
        whole or not at all (:func:`write_atomic`)."""
        path = Path(path)
        names = self.params.names()
        header = {
            "format_version": CHECKPOINT_VERSION,
            "config": self.config.as_dict(),
            "arrays": [
                {"name": name, "shape": list(self.params.value(name).shape)}
                for name in names
            ],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        parts = [CHECKPOINT_MAGIC, struct.pack("<Q", len(blob)), blob]
        for name in names:
            parts.append(np.ascontiguousarray(self.params.value(name), dtype="<f8").tobytes())
        write_atomic(path, b"".join(parts))

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
            try:
                header = json.loads(blob.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise DataFormatError(f"{path.name}: header is not valid JSON") from exc
            if not isinstance(header, dict):
                raise DataFormatError(f"{path.name}: header is not a JSON object")
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
            names = model.params.names()
            expected = [{"name": n, "shape": list(model.params.value(n).shape)} for n in names]
            if header.get("arrays") != expected:
                raise DataFormatError(
                    f"{path.name}: arrays do not list the slots of the encoder config in order"
                )
            for name in names:
                value = model.params.value(name)
                data = np.frombuffer(fh.read(value.size * 8), dtype="<f8")
                if not np.all(np.isfinite(data)):
                    raise DataFormatError(f"{path.name}: non-finite value in array {name!r}")
                np.copyto(value, data.reshape(value.shape))
        return model

"""SGD training loop: optional classification pre-training, metric phase
with the configured loss regime, periodic validation, and model selection
by the best validation NMI.

The whole run is a pure function of (dataset, config): sampling, parameter
initialization and k-means seeding all derive from the config seed, so two
runs with the same inputs produce bit-identical checkpoints.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, DatasetSplits
from .errors import ConfigError, SamplingError, TrainingAbort
from .evaluation import kmeans, label_set_clusters, nmi, recall_at_k
from .losses import (
    LossConfig,
    contrastive_batch_loss,
    ml2_batch_loss,
    pretrain_batch_loss,
    triplet_batch_loss,
)

# The benchmark's tracer (bench/tracer.py) hooks these names here. Training
# no longer calls them: every regime and pre-training use the batched kernels.
from .losses import contrastive_loss, ml2plus_loss, pretrain_loss  # noqa: F401
from .model import EmbeddingModel, EncoderConfig, write_atomic
from .numeric import ParamStore
from .sampler import REGIMES, build_minibatch

CHECKPOINT_SUFFIX = ".ckpt"

# Accepted value types per annotation name; bool is only accepted for "bool".
_FIELD_TYPES = {
    "str": str, "int": numbers.Integral, "float": numbers.Real, "bool": bool, "None": type(None)
}


def check_type(name: str, value, annotation: str) -> None:
    """Raise ConfigError unless ``value`` fits ``annotation``: a union
    (``" | "``) of str, int, float, bool, None and ``list[...]`` of those.
    Ints are accepted for floats, bool only where declared, and a float
    must be finite."""
    if not _fits(value, annotation):
        raise ConfigError(f"{name} must be {annotation}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")


def _fits(value, annotation: str) -> bool:
    for kind in annotation.split(" | "):
        if kind.startswith("list["):
            if isinstance(value, list) and all(_fits(item, kind[5:-1]) for item in value):
                return True
        elif isinstance(value, _FIELD_TYPES[kind]) and isinstance(value, bool) == (kind == "bool"):
            return True
    return False


@dataclass
class TrainConfig:
    loss: str = "ml2plus"
    batch_size: int | None = None  # defaults to 36 for pair/triplet, 10 otherwise
    iterations: int = 3000
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay_factor: float = 0.1
    lr_decay_period: int = 1000
    margin: float = 0.2
    eval_every: int = 100
    seed: int = 0
    pretrain: bool = False
    pretrain_iterations: int = 1000

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            check_type(field.name, getattr(self, field.name), field.type)
        if self.loss not in REGIMES:
            raise ConfigError(f"unknown loss {self.loss!r}; expected one of {REGIMES}")
        if self.batch_size is None:
            self.batch_size = 36 if self.loss in ("contrastive", "triplet") else 10
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.weight_decay < 0.0:
            raise ConfigError("weight_decay must be >= 0")
        if self.lr_decay_period < 1:
            raise ConfigError("lr_decay_period must be >= 1")
        if self.lr_decay_factor <= 0.0 or self.lr_decay_factor > 1.0:
            raise ConfigError("lr_decay_factor must be in (0, 1]")
        if self.margin <= 0.0:
            raise ConfigError("margin must be > 0")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.pretrain_iterations < 0:
            raise ConfigError("pretrain_iterations must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class EvalPoint:
    iteration: int
    phase: str  # "pretrain" | "metric"
    train_loss: float  # mean loss over the window since the previous point
    val_nmi: float | None
    val_recall1: float | None

    def as_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "phase": self.phase,
            "train_loss": self.train_loss,
            "val_nmi": self.val_nmi,
            "val_recall1": self.val_recall1,
        }


@dataclass
class TrainReport:
    points: list[EvalPoint]
    best_checkpoint: str | None
    best_iteration: int | None
    best_val_nmi: float | None
    wall_clock_seconds: float

    def report_dict(self) -> dict:
        """Deterministic content only; wall clock stays in the manifest."""
        return {
            "points": [pt.as_dict() for pt in self.points],
            "best_checkpoint": self.best_checkpoint,
            "best_iteration": self.best_iteration,
            "best_val_nmi": self.best_val_nmi,
        }


def lr_schedule(iteration: int, base_lr: float, factor: float, period: int) -> float:
    """Step decay: base_lr * factor ** (iteration // period)."""
    if iteration < 0:
        raise ConfigError("iteration must be >= 0")
    return base_lr * factor ** (iteration // period)


def sgd_step(params: ParamStore, lr: float, momentum: float, weight_decay: float) -> None:
    """v <- momentum * v + (grad + weight_decay * theta); theta <- theta - lr * v."""
    for name, value, grad, mom in params.items():
        if not np.all(np.isfinite(grad)):
            raise TrainingAbort(f"non-finite gradient in slot {name!r}")
        np.multiply(mom, momentum, out=mom)
        mom += grad
        if weight_decay:
            mom += weight_decay * value
        value -= lr * mom


def _validation_scores(model: EmbeddingModel, ds: Dataset, kmeans_seed: int):
    E, _ = model.embed(ds.feature_matrix())
    label_sets = [ex.labels for ex in ds.examples]
    truth, k_truth = label_set_clusters(label_sets)
    predicted = kmeans(E, k_truth, seed=kmeans_seed).assignment
    return nmi(predicted, truth), recall_at_k(E, label_sets, 1)


def _metric_batch_step(model, train_ds, cfg, lcfg, rng) -> float:
    """One optimizer step: forward the whole batch at once, take the loss
    gradients back to the stacked rows, take the SGD step."""
    batch = build_minibatch(train_ds, cfg.batch_size, cfg.loss, rng)
    E, cache = model.embed(train_ds.X[batch.rows.ravel()])
    embedded = E.reshape(*batch.rows.shape, -1)
    if cfg.loss == "contrastive":
        values, G = contrastive_batch_loss(embedded, batch.p == 1, lcfg)
    elif cfg.loss == "triplet":
        values, G = triplet_batch_loss(embedded, lcfg)
    else:
        values, G = ml2_batch_loss(embedded, batch.p, batch.taus, lcfg)
    model.params.zero_grads()
    model.backward_embed(cache, G.reshape(E.shape) / cfg.batch_size)
    return _batch_mean(values)


def _pretrain_batch_step(model, train_ds, cfg, rng) -> float:
    if cfg.batch_size > len(train_ds):
        raise SamplingError(
            f"batch size {cfg.batch_size} exceeds split size {len(train_ds)}"
        )
    idx = rng.choice(len(train_ds), size=cfg.batch_size, replace=False)
    log_probs, cache = model.classify(train_ds.X[idx])
    values, G = pretrain_batch_loss(log_probs, train_ds.label_matrix[idx])
    model.params.zero_grads()
    model.backward_classify(cache, G / cfg.batch_size)
    return _batch_mean(values)


def _batch_mean(values) -> float:
    """Mean of the per-item losses, summed left to right in batch order.

    The order fixes the last bits of every reported loss, and so the bytes
    of report.json for a given seed; a pairwise ``np.sum`` would change them.
    """
    total = 0.0
    for value in values:
        total += float(value)
    return total / len(values)


def train(
    splits: DatasetSplits,
    cfg: TrainConfig,
    encoder_cfg: EncoderConfig,
    run_dir: str | Path | None = None,
    manifest_extra: dict | None = None,
) -> tuple[EmbeddingModel, TrainReport]:
    """Run the configured training protocol and return the best model.

    "Best" is the checkpoint with the highest validation NMI among the
    periodic evaluation points (earliest iteration wins ties). When
    ``run_dir`` is given, the best checkpoint, the report and a manifest
    are written there.
    """
    cfg.validate()
    train_ds = splits.train
    if len(train_ds) == 0:
        raise ConfigError("training split is empty")

    if cfg.pretrain:
        if encoder_cfg.label_count is None:
            encoder_cfg = dataclasses.replace(encoder_cfg, label_count=train_ds.label_count)
        elif encoder_cfg.label_count != train_ds.label_count:
            raise ConfigError(
                f"encoder label_count {encoder_cfg.label_count} != dataset "
                f"label_count {train_ds.label_count}"
            )

    started = time.perf_counter()
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_pretrain = np.random.default_rng(seeds[0])
    rng_metric = np.random.default_rng(seeds[1])
    proj_seed = int(seeds[2].generate_state(1)[0])
    kmeans_seed = int(seeds[3].generate_state(1)[0])

    model = EmbeddingModel(encoder_cfg)
    lcfg = LossConfig(margin=cfg.margin)
    points: list[EvalPoint] = []
    best_nmi: float | None = None
    best_iter: int | None = None
    best_snapshot = None

    def report_so_far() -> TrainReport:
        return TrainReport(
            points=points,
            best_checkpoint=None if best_iter is None else f"iter-{best_iter:06d}",
            best_iteration=best_iter,
            best_val_nmi=best_nmi,
            wall_clock_seconds=time.perf_counter() - started,
        )

    # Pre-training phase: per-label binary heads on the shared trunk.
    if cfg.pretrain and cfg.pretrain_iterations > 0:
        window: list[float] = []
        for it in range(cfg.pretrain_iterations):
            lr = lr_schedule(it, cfg.learning_rate, cfg.lr_decay_factor, cfg.lr_decay_period)
            try:
                loss = _pretrain_batch_step(model, train_ds, cfg, rng_pretrain)
            except SamplingError as exc:
                raise TrainingAbort(
                    f"pre-training sampler exhausted: {exc}", report=report_so_far()
                ) from exc
            if not np.isfinite(loss):
                raise TrainingAbort(
                    f"non-finite pre-training loss at iteration {it}", report=report_so_far()
                )
            sgd_step(model.params, lr, cfg.momentum, cfg.weight_decay)
            window.append(loss)
            if (it + 1) % cfg.eval_every == 0 or it + 1 == cfg.pretrain_iterations:
                points.append(
                    EvalPoint(it + 1, "pretrain", float(np.mean(window)), None, None)
                )
                window = []
        model.reinit_projection(proj_seed)

    # Metric phase.
    window = []
    for it in range(cfg.iterations):
        lr = lr_schedule(it, cfg.learning_rate, cfg.lr_decay_factor, cfg.lr_decay_period)
        try:
            loss = _metric_batch_step(model, train_ds, cfg, lcfg, rng_metric)
        except SamplingError as exc:
            raise TrainingAbort(f"sampler exhausted: {exc}", report=report_so_far()) from exc
        if not np.isfinite(loss):
            raise TrainingAbort(
                f"non-finite loss at iteration {it}", report=report_so_far()
            )
        sgd_step(model.params, lr, cfg.momentum, cfg.weight_decay)
        window.append(loss)

        if (it + 1) % cfg.eval_every == 0 or it + 1 == cfg.iterations:
            val_nmi, val_r1 = _validation_scores(model, splits.val, kmeans_seed)
            points.append(
                EvalPoint(it + 1, "metric", float(np.mean(window)), val_nmi, val_r1)
            )
            window = []
            if best_nmi is None or val_nmi > best_nmi:
                best_nmi = val_nmi
                best_iter = it + 1
                best_snapshot = model.params.snapshot()

    if best_snapshot is not None:
        model.params.restore(best_snapshot)
    report = report_so_far()

    if run_dir is not None:
        emit_run(Path(run_dir), model, report, cfg, encoder_cfg, manifest_extra)
    return model, report


def emit_run(
    run_dir: Path,
    model: EmbeddingModel,
    report: TrainReport,
    cfg: TrainConfig,
    encoder_cfg: EncoderConfig,
    manifest_extra: dict | None = None,
) -> None:
    """Write checkpoint, deterministic report.json, and manifest.json, each
    moved into place whole (see :func:`~mlembed.model.write_atomic`)."""
    run_dir.mkdir(parents=True, exist_ok=True)
    ckpt_name = (report.best_checkpoint or "final") + CHECKPOINT_SUFFIX
    model.save(run_dir / ckpt_name)
    write_atomic(run_dir / "report.json", _json_bytes(report.report_dict()))
    manifest = {
        "train_config": dataclasses.asdict(cfg),
        "encoder_config": encoder_cfg.as_dict(),
        "checkpoint": ckpt_name,
        "history": [pt.as_dict() for pt in report.points],
        "best_checkpoint": report.best_checkpoint,
        "best_iteration": report.best_iteration,
        "best_val_nmi": report.best_val_nmi,
        "wall_clock_seconds": report.wall_clock_seconds,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    write_atomic(run_dir / "manifest.json", _json_bytes(manifest))


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")

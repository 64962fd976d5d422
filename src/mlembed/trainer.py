"""SGD training loop: optional classification pre-training, metric phase
with the configured loss regime, periodic validation, and model selection
by the best validation NMI.

The whole run is a pure function of (dataset, config): sampling, parameter
initialization and k-means seeding all derive from the config seed, so two
runs with the same inputs produce bit-identical checkpoints.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, DatasetSplits
from .errors import ConfigError, SamplingError, TrainingAbort
from .evaluation import kmeans, label_set_clusters, nmi, recall_at_k
from .losses import LossConfig, contrastive_batch_loss, ml2_batch_loss, pretrain_batch_loss

# The benchmark's tracer (bench/tracer.py) hooks these names here. Training
# no longer calls them: every regime and pre-training use the batched kernels.
from .losses import contrastive_loss, ml2plus_loss, pretrain_loss  # noqa: F401
from .model import EmbeddingModel, EncoderConfig, check_fields, write_json
from .numeric import ParamStore
from .sampler import REGIMES, SAMPLER_STREAM, GroupBatch, build_minibatch

CHECKPOINT_SUFFIX = ".ckpt"

# The anchors one sampler call draws for the metric phase: a block of
# max(1, DRAW_ANCHORS // batch_size) steps (see _metric_batches).
DRAW_ANCHORS = 640


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
        check_fields(self)
        if self.loss not in REGIMES:
            raise ConfigError(f"loss must be one of {REGIMES}, got {self.loss!r}")
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


@dataclass
class TrainReport:
    points: list[EvalPoint]
    best_checkpoint: str | None
    best_iteration: int | None
    best_val_nmi: float | None
    wall_clock_seconds: float

    def report_dict(self) -> dict:
        """Deterministic content only; wall clock stays in the manifest."""
        fields = dataclasses.asdict(self)
        del fields["wall_clock_seconds"]
        return fields


def lr_schedule(iteration: int, base_lr: float, factor: float, period: int) -> float:
    """Step decay: base_lr * factor ** (iteration // period)."""
    if iteration < 0:
        raise ConfigError("iteration must be >= 0")
    return base_lr * factor ** (iteration // period)


def sgd_step(params: ParamStore, lr: float, momentum: float, weight_decay: float) -> None:
    """v <- momentum * v + (grad + weight_decay * theta); theta <- theta - lr * v.

    Raises TrainingAbort, naming the first slot with a non-finite gradient,
    before any value or momentum changes."""
    finite = np.isfinite(params.grads)
    if not finite.all():
        name, _ = params.locate(int(np.argmin(finite)))
        raise TrainingAbort(f"non-finite gradient in slot {name!r}")
    mom = params.momenta
    np.multiply(mom, momentum, out=mom)
    mom += params.grads
    if weight_decay:
        mom += weight_decay * params.values
    params.values -= lr * mom


def _validation_scores(model: EmbeddingModel, ds: Dataset, clusters, kmeans_seed: int):
    """Validation NMI and Recall@1; ``clusters`` is
    :func:`~mlembed.evaluation.label_set_clusters` of ``ds``."""
    E, _ = model.embed(ds.X)
    truth, k_truth = clusters
    predicted = kmeans(E, k_truth, seed=kmeans_seed).assignment
    return nmi(predicted, truth), recall_at_k(E, ds.label_matrix, [1])[1]


def _metric_batches(train_ds: Dataset, cfg: TrainConfig, rng):
    """Every metric step's batch, in order, sliced from blocks of
    ``max(1, DRAW_ANCHORS // b)`` steps, each drawn by one
    :func:`~mlembed.sampler.build_minibatch` call.

    Blocks are always drawn whole, so the batch of step t depends only on
    the split, the regime, b, the seed and t, not on ``iterations`` or
    ``eval_every``. The block bounds the sampler's largest array, the
    label rows of the candidates in ``_passes``: about DRAW_ANCHORS *
    CANDIDATES * l**2 bytes, 2 MB at 14 labels. When step j of a block
    cannot be filled, the steps before it are yielded and its
    SamplingError is raised in its place.
    """
    b = cfg.batch_size
    steps = max(1, DRAW_ANCHORS // b)
    while True:
        try:
            block, error = build_minibatch(train_ds, b, cfg.loss, rng, steps), None
        except SamplingError as exc:
            if exc.batch is None:
                raise
            block, error = exc.batch, exc
        for t in range(0, len(block.p), b):
            yield GroupBatch(block.rows[t : t + b], block.p[t : t + b], block.taus[t : t + b])
        if error is not None:
            raise error


def _metric_batch_step(model, train_ds, cfg, lcfg, batches) -> float:
    """One optimizer step on the next batch of ``batches``: forward the
    whole batch at once, take the loss gradients back to the stacked rows,
    take the SGD step."""
    batch = next(batches)
    E, cache = model.embed(train_ds.X[batch.rows.ravel()])
    embedded = E.reshape(*batch.rows.shape, -1)
    if cfg.loss == "contrastive":
        values, G = contrastive_batch_loss(embedded, batch.p == 1, lcfg)
    else:  # a triplet row is an ML2 group with p = 1 and tau = 0
        values, G = ml2_batch_loss(embedded, batch.p, batch.taus, lcfg)
    model.params.zero_grads()
    model.backward_embed(cache, G.reshape(E.shape) / cfg.batch_size)
    return float(np.mean(values))


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
    return float(np.mean(values))


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
    if len(splits.val) == 0:
        raise ConfigError("validation split is empty")
    if len(splits.val) < 2:  # Recall@1 needs a neighbour for every row
        raise ConfigError("validation split has 1 example; Recall@1 needs at least 2")

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
    batches = _metric_batches(train_ds, cfg, rng_metric)
    val_clusters = label_set_clusters(splits.val.label_matrix)
    points: list[EvalPoint] = []
    best_nmi: float | None = None
    best_iter: int | None = None
    best_values = None

    def report_so_far() -> TrainReport:
        return TrainReport(
            points=points,
            best_checkpoint=None if best_iter is None else f"iter-{best_iter:06d}",
            best_iteration=best_iter,
            best_val_nmi=best_nmi,
            wall_clock_seconds=time.perf_counter() - started,
        )

    # Each phase: its name, its iteration count, its step (the batch's mean
    # loss, gradients left for sgd_step) and its scores at an eval point.
    # Pre-training fits per-label binary heads on the shared trunk.
    phases = []
    if cfg.pretrain and cfg.pretrain_iterations > 0:
        phases.append((
            "pretrain",
            cfg.pretrain_iterations,
            lambda: _pretrain_batch_step(model, train_ds, cfg, rng_pretrain),
            lambda: (None, None),
        ))
    phases.append((
        "metric",
        cfg.iterations,
        lambda: _metric_batch_step(model, train_ds, cfg, lcfg, batches),
        lambda: _validation_scores(model, splits.val, val_clusters, kmeans_seed),
    ))

    for phase, iterations, step, score in phases:
        window = []
        for it in range(iterations):
            lr = lr_schedule(it, cfg.learning_rate, cfg.lr_decay_factor, cfg.lr_decay_period)
            try:
                loss = step()
            except SamplingError as exc:
                raise TrainingAbort(
                    f"{phase} phase: sampler exhausted: {exc}", report=report_so_far()
                ) from exc
            if not np.isfinite(loss):
                raise TrainingAbort(
                    f"{phase} phase: non-finite loss at iteration {it}", report=report_so_far()
                )
            sgd_step(model.params, lr, cfg.momentum, cfg.weight_decay)
            window.append(loss)
            if (it + 1) % cfg.eval_every == 0 or it + 1 == iterations:
                val_nmi, val_r1 = score()
                points.append(EvalPoint(it + 1, phase, float(np.mean(window)), val_nmi, val_r1))
                window = []
                if val_nmi is not None and (best_nmi is None or val_nmi > best_nmi):
                    best_nmi = val_nmi
                    best_iter = it + 1
                    best_values = model.params.values.copy()
        if phase == "pretrain":
            model.reinit_projection(proj_seed)

    if best_values is not None:
        np.copyto(model.params.values, best_values)
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
    write_json(run_dir / "report.json", report.report_dict())
    manifest = {
        "train_config": dataclasses.asdict(cfg),
        "encoder_config": encoder_cfg.as_dict(),
        "checkpoint": ckpt_name,
        "history": [dataclasses.asdict(pt) for pt in report.points],
        "best_checkpoint": report.best_checkpoint,
        "best_iteration": report.best_iteration,
        "best_val_nmi": report.best_val_nmi,
        "wall_clock_seconds": report.wall_clock_seconds,
        "sampler_stream": SAMPLER_STREAM,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    write_json(run_dir / "manifest.json", manifest)

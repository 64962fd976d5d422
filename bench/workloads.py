"""Workloads of the mlembed benchmark: set-up, timed operations, and the
checks that decide whether each operation's outputs are correct.

An operation is one ``train()`` run or one in-process ``mlembed eval`` call.
It fails when it raises, exits non-zero or fails an output check; a failed
operation is counted and the benchmark goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mlembed.cli
import mlembed.trainer
from mlembed.model import EmbeddingModel, EncoderConfig

# The default synthetic data of the README; the data seed comes from --seed.
DEFAULT_DATA = {
    "label_count": 5,
    "feature_dim": 32,
    "train_examples": 2000,
    "val_examples": 500,
    "test_examples": 500,
    "noise_sigma": 0.15,
}
SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
MIN_OPS = 2  # so that every run compares two outputs of one seed
WARMUP_EVALS = 1
EVALS_PER_TRAIN = 3  # eval calls per trained checkpoint, so eval_ms_p50 has samples enough
MAX_TRAIN_EVALS = 9  # per run; fewer than 11, so eval_ms_tail stays the largest call
ML2PLUS_NMI_FLOOR = 0.60  # README acceptance floor for ML2+ test NMI


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train: dict  # "train" config section; the seed is added per run
    timed: str  # "train": train() runs, each then evaluated; "eval": eval calls
    nmi_floor: float = 0.0
    data: dict = field(default_factory=lambda: dict(DEFAULT_DATA))


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="ml2plus-pretrain",
            why="paper headline: 1000 pre-training then 3000 ML2+ steps; sampler group path, per-group loss calls and trainer glue",
            train={
                "loss": "ml2plus",
                "batch_size": 10,
                "iterations": 3000,
                "eval_every": 100,
                "pretrain": True,
                "pretrain_iterations": 1000,
            },
            timed="train",
            nmi_floor=ML2PLUS_NMI_FLOOR,
        ),
        Workload(
            name="contrastive",
            why="baseline: 3000 pair steps of 72 rows bypass the group sampler and ML2 losses; encoder and validation weigh more",
            train={"loss": "contrastive", "batch_size": 36, "iterations": 3000, "eval_every": 100},
            timed="train",
        ),
        Workload(
            name="eval",
            why="repeated mlembed eval of a set-up checkpoint on the test split: JSONL and checkpoint reads, k-means, NMI, Recall@K, probe; no training is timed",
            train={"loss": "ml2plus", "batch_size": 10, "iterations": 1000, "eval_every": 100},
            timed="eval",
        ),
    )
}


class SetupError(RuntimeError):
    """Set-up could not produce the inputs the timed region needs."""


@dataclass
class Measurement:
    """Raw samples of one benchmark run; times in seconds."""

    workload: str
    seed: int
    setup_s: list[float] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    best_val_nmi: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    eval_json: str | None = None  # first successful timed eval output
    report_digest: str | None = None  # sha256 of the first report.json
    op_s: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    timed_runs: set[str] = field(default_factory=set)
    attempted: int = 0
    failed: int = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {what}: {problem}", file=sys.stderr)
        return not problems


@dataclass
class Reference:
    """Outputs of the first run of a seed; later runs must match byte for byte."""

    report: bytes | None = None
    checkpoint: bytes | None = None
    eval_json: str | None = None


@dataclass
class Inputs:
    data_dir: Path
    splits: object
    train_cfg: object
    encoder_cfg: EncoderConfig
    checkpoint: Path | None = None


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``mlembed`` in process; return its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = mlembed.cli.main(argv)
    return code, err.getvalue().strip()


def _in_unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def train_run(inputs: Inputs, run_dir: Path, ref: Reference):
    """One timed ``train()`` call writing into ``run_dir``, then its checks.

    Returns (seconds, report or None, checkpoint path or None, problems).
    """
    started = time.perf_counter()
    try:
        model, report = mlembed.trainer.train(
            inputs.splits, inputs.train_cfg, inputs.encoder_cfg, run_dir=run_dir
        )
    except Exception as exc:  # a failed operation, not a benchmark crash
        return time.perf_counter() - started, None, None, [f"train() raised {exc!r}"]
    seconds = time.perf_counter() - started

    problems = []
    if not _in_unit_interval(report.best_val_nmi):
        problems.append(f"best_val_nmi {report.best_val_nmi!r} is not in [0, 1]")
    checkpoint = run_dir / f"{report.best_checkpoint or 'final'}{mlembed.trainer.CHECKPOINT_SUFFIX}"
    try:
        report_bytes = (run_dir / "report.json").read_bytes()
        ckpt_bytes = checkpoint.read_bytes()
        reloaded = EmbeddingModel.load(checkpoint)
    except Exception as exc:
        return seconds, report, None, problems + [f"run outputs unreadable: {exc!r}"]
    if ref.report is None:
        ref.report, ref.checkpoint = report_bytes, ckpt_bytes
    if report_bytes != ref.report:
        problems.append("report.json differs from the first run of this seed")
    if ckpt_bytes != ref.checkpoint:
        problems.append("checkpoint bytes differ from the first run of this seed")
    X = inputs.splits.test.feature_matrix()
    if not np.array_equal(reloaded.embed(X)[0], model.embed(X)[0]):
        problems.append("reloaded checkpoint embeds the test split differently")
    return seconds, report, checkpoint, problems


def eval_call(inputs: Inputs, checkpoint: Path, out: Path, ref: Reference, nmi_floor: float):
    """One timed ``mlembed eval`` call on the test split, then its checks.

    Returns (seconds, metrics JSON text or None, problems).
    """
    out.unlink(missing_ok=True)
    argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(inputs.data_dir), "--out", str(out)]
    started = time.perf_counter()
    try:
        code, stderr = _quiet_cli(argv)
    except Exception as exc:
        return time.perf_counter() - started, None, [f"mlembed eval raised {exc!r}"]
    seconds = time.perf_counter() - started
    if code != 0:
        return seconds, None, [f"mlembed eval exited {code}: {stderr}"]
    try:
        text = out.read_text(encoding="utf-8")
        metrics = json.loads(text)
        quality = {
            "nmi": metrics["nmi"],
            **{f"recall@{k}": v for k, v in metrics["recall_at"].items()},
            **metrics["classification"],
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return seconds, None, [f"unreadable eval output: {exc!r}"]

    problems = [f"{k} = {v!r} is not in [0, 1]" for k, v in quality.items() if not _in_unit_interval(v)]
    if "recall@1" not in quality:
        problems.append("no Recall@1 in the eval output")
    if _in_unit_interval(quality["nmi"]) and quality["nmi"] < nmi_floor:
        problems.append(f"test NMI {quality['nmi']:.4f} is below the floor {nmi_floor}")
    if ref.eval_json is None:
        ref.eval_json = text
    elif text != ref.eval_json:
        problems.append("eval output differs from the first eval call of this run")
    return seconds, text, problems


def set_up(wl: Workload, seed: int, workdir: Path, m: Measurement, ref: Reference, tracer, index: int) -> Inputs:
    """Generate the data, write and read it back as JSONL, build the configs,
    train the eval workload's checkpoint and warm the eval path. The caller
    times the whole call."""
    workdir.mkdir(parents=True)
    config = workdir / "config.json"
    config.write_text(json.dumps({"data": {**wl.data, "seed": seed}}), encoding="utf-8")
    data_dir = workdir / "data"
    with _traced(tracer, f"setup-{index}"):
        code, stderr = _quiet_cli(["gen-data", "--config", str(config), "--out", str(data_dir)])
        if code != 0:
            raise SetupError(f"mlembed gen-data exited {code}: {stderr}")
        splits = mlembed.cli.load_dataset_dir(data_dir)
        train_cfg = mlembed.trainer.TrainConfig(**wl.train, seed=seed)
        train_cfg.validate()
        encoder_cfg = EncoderConfig(input_dim=splits.train.feature_dim, seed=seed)
        inputs = Inputs(data_dir, splits, train_cfg, encoder_cfg)
        if wl.timed == "eval":
            seconds, report, checkpoint, problems = train_run(inputs, workdir / "run", ref)
            if m.record(f"setup-{index} train", problems):
                m.train_s.append(seconds)
                m.best_val_nmi.append(report.best_val_nmi)
            if checkpoint is None:
                raise SetupError("the eval workload's checkpoint could not be trained")
            inputs.checkpoint = checkpoint
            warmup_ref, warmup_floor = ref, wl.nmi_floor
        else:
            # Training runs are evaluated too; warm the eval path on the
            # untrained encoder, whose output is checked but not compared.
            checkpoint = workdir / f"init{mlembed.trainer.CHECKPOINT_SUFFIX}"
            EmbeddingModel(encoder_cfg).save(checkpoint)
            warmup_ref, warmup_floor = Reference(), 0.0
        for w in range(WARMUP_EVALS):
            _, _, problems = eval_call(inputs, checkpoint, workdir / "warmup.json", warmup_ref, warmup_floor)
            m.record(f"setup-{index} warm-up eval {w}", problems)
    return inputs


def _traced(tracer, run_id: str):
    return tracer.active(run_id) if tracer is not None else contextlib.nullcontext()


def measure(wl: Workload, seed: int, seconds: float, workdir: Path, tracer=None, after_setup=None) -> Measurement:
    """Set up ``SETUP_REPEATS`` times, then run operations for ``seconds``.

    Operations start until ``seconds`` have passed, and at least
    ``MIN_OPS`` run, so the last one may end later. With a ``tracer``, odd
    operations are traced and even ones are not, which gives the tracing
    overhead. ``after_setup(inputs)`` runs once before the timed region.
    """
    m = Measurement(wl.name, seed)
    ref = Reference()
    inputs = None
    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        inputs = set_up(wl, seed, workdir / f"setup-{i}", m, ref, tracer, i)
        m.setup_s.append(time.perf_counter() - started)
    if after_setup is not None:
        after_setup(inputs)

    timed_started = time.perf_counter()
    i = train_evals = 0
    while i < MIN_OPS or time.perf_counter() - timed_started < seconds:
        traced = tracer is not None and i % 2 == 1
        run_id = f"op-{i}"
        m.timed_runs.add(run_id)
        with _traced(tracer if traced else None, run_id):
            if wl.timed == "eval":
                checkpoint = inputs.checkpoint
                op_seconds = None
            else:
                run_dir = workdir / run_id
                op_seconds, report, checkpoint, problems = train_run(inputs, run_dir, ref)
                if m.record(f"{run_id} train", problems):
                    m.train_s.append(op_seconds)
                    m.best_val_nmi.append(report.best_val_nmi)
                    if m.report_digest is None:
                        m.report_digest = hashlib.sha256(ref.report).hexdigest()
            if checkpoint is None:
                evals = 0
            elif wl.timed == "eval":
                evals = 1
            else:
                evals = min(EVALS_PER_TRAIN, MAX_TRAIN_EVALS - train_evals)
                train_evals += evals
            for e in range(evals):
                eval_seconds, text, problems = eval_call(
                    inputs, checkpoint, workdir / "eval.json", ref, wl.nmi_floor
                )
                if m.record(f"{run_id} eval {e}", problems):
                    m.eval_s.append(eval_seconds)
                    m.eval_json = m.eval_json or text
                op_seconds = eval_seconds if op_seconds is None else op_seconds
        m.op_s[traced].append(op_seconds)
        if wl.timed != "eval":
            shutil.rmtree(workdir / run_id, ignore_errors=True)
        i += 1
    return m


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, which is the 11th largest sample. With fewer than
    eleven samples: the largest, at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n < 11:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(m: Measurement) -> dict:
    """End-to-end metrics: name -> (value, unit, note)."""
    quality = json.loads(m.eval_json) if m.eval_json else None
    eval_ms = [1e3 * s for s in m.eval_s]
    tail_ms, tail_pct = tail(eval_ms)
    train_from = "set-up train() runs" if WORKLOADS[m.workload].timed == "eval" else "train() runs"
    return {
        "setup_s": (median(m.setup_s), "s", f"median of {len(m.setup_s)} set-ups"),
        "train_s": (median(m.train_s), "s", f"median of {len(m.train_s)} {train_from}"),
        "best_val_nmi": (median(m.best_val_nmi), "1", f"median of {len(m.best_val_nmi)} runs"),
        "eval_ms_p50": (median(eval_ms), "ms", f"median of {len(eval_ms)} eval calls"),
        "eval_ms_tail": (tail_ms, "ms", f"p{tail_pct:.1f} of {len(eval_ms)} eval calls"),
        "test_nmi": (quality["nmi"] if quality else 0.0, "1", "k-means NMI on the test split"),
        "test_recall1": (quality["recall_at"]["1"] if quality else 0.0, "1", "Recall@1 on the test split"),
        "probe_f1": (quality["classification"]["f1"] if quality else 0.0, "1", "normal-vs-abnormal probe F1"),
        "ok_ratio": (
            (m.attempted - m.failed) / m.attempted if m.attempted else 0.0,
            "1",
            f"failed_ratio {m.failed}/{m.attempted} operations",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
            "peak resident memory of this process",
        ),
    }

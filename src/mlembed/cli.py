"""Command-line entry point: gen-data, train, eval, embed, project.

Every command reads one JSON config file (all sections optional, unknown
keys rejected) and a handful of flags that override config keys. Exit codes:
0 success, 1 usage or configuration error, 2 runtime failure (out of memory
included).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import SPLITS, Dataset, DatasetSplits, SyntheticSpec, generate_synthetic
from .dataset import load_dataset_dir, save_dataset_dir
from .errors import ConfigError, DataFormatError, MlembedError
from .evaluation import abnormal_labels, evaluate_embeddings, probe, project_2d
from .model import EmbeddingModel, EncoderConfig, check_type, read_json_object, write_atomic
from .sampler import REGIMES
from .trainer import TrainConfig, train

RUN_DIR_ENV = "MLEMBED_RUN_DIR"


@dataclass(frozen=True)
class EvalConfig:
    """What ``mlembed eval`` reports, and on which split."""

    recall_ks: tuple[int, ...] = (1, 2, 4, 8)
    kmeans_seed: int = 0
    normal_label: int = 0  # must lie in [0, label_count) of the dataset
    split: str = "test"

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ConfigError(f"split must be one of {SPLITS}, got {self.split!r}")
        if any(k < 1 for k in self.recall_ks):
            raise ConfigError(f"recall_ks must hold ints >= 1, got {list(self.recall_ks)}")
        if self.kmeans_seed < 0:
            raise ConfigError(f"kmeans_seed must be >= 0, got {self.kmeans_seed}")


@dataclass(frozen=True)
class PathsConfig:
    dataset_dir: str | None = None
    run_dir: str | None = None  # None: $MLEMBED_RUN_DIR/<loss>-seed<seed>, or ./runs/...


def _schema(configured, *excluded: str) -> dict[str, str]:
    """Key -> annotation of the keyword parameters of ``configured``."""
    parameters = inspect.signature(configured).parameters.values()
    return {p.name: p.annotation for p in parameters if p.name not in excluded}


# Each section's keys, types and defaults are the parameters of what it configures.
_SECTIONS = {
    "data": _schema(SyntheticSpec),
    "encoder": _schema(EncoderConfig, "input_dim", "label_count"),  # both from the dataset
    "train": _schema(TrainConfig),
    "eval": _schema(EvalConfig),
    "paths": _schema(PathsConfig),
}


def load_config(args) -> dict:
    """The sections of the config file ``args.config`` (empty when there is
    none), each value checked against its key's annotation, and then every
    flag of ``args`` whose dest is ``section.key`` and which was given."""
    config: dict = {section: {} for section in _SECTIONS}
    path = args.config
    if path is not None:
        raw = read_json_object(Path(path).read_bytes(), path, ConfigError)
        for section, body in raw.items():
            if section not in _SECTIONS:
                raise ConfigError(f"{path}: unknown section {section!r}")
            if not isinstance(body, dict):
                raise ConfigError(f"{path}: section {section!r} must be an object")
            for key, value in body.items():
                if key not in _SECTIONS[section]:
                    raise ConfigError(f"{path}: unknown key {section}.{key}")
                check_type(f"{section}.{key}", value, _SECTIONS[section][key])
            config[section].update(body)
    for dest, value in vars(args).items():
        section, _, key = dest.partition(".")
        if key and value is not None:
            config[section][key] = value
    return config


@contextlib.contextmanager
def _section(name: str):
    """Prefix ``name.`` to a ConfigError raised in the block: what a section
    configures names the key, this adds the section."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc}") from exc


def _nonempty(splits: DatasetSplits, name: str) -> Dataset:
    split = splits.named()[name]
    if len(split) == 0:
        raise ConfigError(f"{name} split is empty")
    return split


def _embedded_split(args) -> tuple[Dataset, np.ndarray]:
    """The ``--split`` of ``--data`` and its embeddings under ``--checkpoint``."""
    ds = _nonempty(load_dataset_dir(args.data, (args.split,)), args.split)
    E, _ = EmbeddingModel.load(args.checkpoint).embed(ds.X)
    return ds, E


def _write_csv(path: Path, ds: Dataset, columns: list[str], values: np.ndarray) -> None:
    """Write a CSV of header ``id, columns..., labels`` and one row per
    record of ``ds``: its id, its row of ``values`` and its labels joined by
    ``|``, moved into place whole (see :func:`~mlembed.model.write_atomic`).
    An id that UTF-8 cannot encode (a lone surrogate) is a DataFormatError,
    raised before anything is written."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["id", *columns, "labels"])
    for rid, row, labels in zip(ds.ids, values.tolist(), ds.labels):
        writer.writerow([rid, *map(repr, row), "|".join(str(x) for x in sorted(labels))])
    try:
        data = buffer.getvalue().encode("utf-8")
    except UnicodeEncodeError as exc:
        # the first id holding the character is the first row that fails
        rid = next(rid for rid in ds.ids if exc.object[exc.start] in rid)
        raise DataFormatError(f"record {rid!a}: id is not encodable as UTF-8") from None
    write_atomic(path, data)


# -- commands ----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    config = load_config(args)
    with _section("data"):
        spec = SyntheticSpec(**config["data"])
        splits = generate_synthetic(spec)
    out = Path(args.out)
    save_dataset_dir(out, spec, splits)
    print(f"wrote {len(splits.train)}/{len(splits.val)}/{len(splits.test)} examples to {out}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args)
    with _section("train"):
        cfg = TrainConfig(**config["train"])
        cfg.validate()
    paths = PathsConfig(**config["paths"])
    if not paths.dataset_dir:
        raise ConfigError("no dataset directory; pass --data or set paths.dataset_dir")
    splits = load_dataset_dir(paths.dataset_dir, ("train", "val"))
    with _section("encoder"):
        encoder_cfg = EncoderConfig(input_dim=splits.train.feature_dim, **config["encoder"])

    default_run_dir = Path(os.environ.get(RUN_DIR_ENV, "runs")) / f"{cfg.loss}-seed{cfg.seed}"
    run_dir = Path(paths.run_dir or default_run_dir)
    _, report = train(
        splits,
        cfg,
        encoder_cfg,
        run_dir=run_dir,
        manifest_extra={"dataset_dir": paths.dataset_dir},
    )
    print(f"run dir: {run_dir}")
    if report.best_checkpoint is None:
        print("no validation point was scored; wrote the final weights")
    else:
        print(f"best checkpoint: {report.best_checkpoint} (val NMI {report.best_val_nmi:.4f})")
    return 0


def cmd_eval(args) -> int:
    """Report on one split. This is the only code that opens a thread: one
    worker embeds the train split and then fits the :func:`probe` on it,
    while the calling thread embeds the eval split and runs
    :func:`evaluate_embeddings` on it. Output and errors are those of the
    stages run one after another: eval embedding, train embedding,
    clustering and retrieval, probe."""
    config = load_config(args)
    with _section("eval"):
        eval_cfg = EvalConfig(**config["eval"])

    splits = load_dataset_dir(config["paths"]["dataset_dir"], ("train", eval_cfg.split))
    eval_ds = _nonempty(splits, eval_cfg.split)
    if not 0 <= eval_cfg.normal_label < eval_ds.label_count:
        raise ConfigError(
            f"eval.normal_label must lie in [0, {eval_ds.label_count}), got {eval_cfg.normal_label}"
        )
    train_ds = _nonempty(splits, "train")
    model = EmbeddingModel.load(args.checkpoint)  # embed checks its input width
    train_y = abnormal_labels(train_ds, eval_cfg.normal_label)

    # train_E holds embed's cache until the block ends: dropped on the worker
    # mid-call, its pages were returned and faulted in again by every call's
    # worker (about 1,500 faults, 2 ms).
    with ThreadPoolExecutor(max_workers=1) as worker:
        train_E = worker.submit(model.embed, train_ds.X)
        eval_E, _ = model.embed(eval_ds.X)
        classification = worker.submit(
            lambda: probe(train_E.result()[0], train_y, eval_E, eval_ds, eval_cfg.normal_label)
        )
        try:
            report = evaluate_embeddings(
                eval_E, eval_ds, recall_ks=eval_cfg.recall_ks, kmeans_seed=eval_cfg.kmeans_seed
            )
        except Exception:
            train_E.result()  # a failed train embedding is reported first
            raise
        report.classification = classification.result()
    payload = json.dumps(report.as_dict(), indent=2) + "\n"
    if args.out:
        write_atomic(Path(args.out), payload.encode("utf-8"))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def cmd_embed(args) -> int:
    ds, E = _embedded_split(args)
    _write_csv(Path(args.out), ds, [f"e{i}" for i in range(E.shape[1])], E)
    print(f"wrote {E.shape[0]} embeddings to {args.out}")
    return 0


def cmd_project(args) -> int:
    ds, E = _embedded_split(args)
    result = project_2d(E)
    if result.degenerate:
        print("warning: zero-variance embeddings; projection is all zeros", file=sys.stderr)
    _write_csv(Path(args.out), ds, ["x", "y"], result.coords)
    print(f"wrote {result.coords.shape[0]} projected points to {args.out}")
    return 0


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlembed",
        description="Multi-label metric learning: data generation, training, evaluation.",
        epilog=(
            "Command-line flags override config-file keys. The default run "
            f"directory is $<{RUN_DIR_ENV}>/<loss>-seed<seed> (or ./runs)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # An override flag's dest is the section.key it sets; load_config applies it.
    p = sub.add_parser("gen-data", help="generate synthetic dataset splits")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", dest="data.seed", type=int)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train an embedding model")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--data", dest="paths.dataset_dir", help="dataset directory")
    p.add_argument("--run-dir", dest="paths.run_dir", help="run directory")
    p.add_argument("--loss", dest="train.loss", choices=REGIMES)
    p.add_argument("--iterations", dest="train.iterations", type=int)
    p.add_argument("--batch-size", dest="train.batch_size", type=int)
    p.add_argument("--seed", dest="train.seed", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pretrain", dest="train.pretrain", action="store_true", default=None)
    group.add_argument("--no-pretrain", dest="train.pretrain", action="store_false")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="clustering/retrieval/classification report")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", dest="paths.dataset_dir", required=True, help="dataset directory")
    p.add_argument("--split", dest="eval.split", choices=SPLITS)
    p.add_argument("--out", help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("embed", help="export embeddings as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("project", help="export a 2-d principal-component view as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, FileNotFoundError) as exc:
        print(f"mlembed: error: {exc}", file=sys.stderr)
        return 1
    except (MlembedError, OSError) as exc:
        print(f"mlembed: failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a config size far beyond the machine
        print(f"mlembed: failure: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: gen-data, train, eval, embed, project.

Every command reads one JSON config file (all sections optional, unknown
keys rejected) and a handful of flags that override config keys. Exit codes:
0 success, 1 usage or configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from .dataset import DatasetSplits, SyntheticSpec, generate_synthetic, load_jsonl_files, save_jsonl
from .errors import ConfigError, ContractError, DataFormatError, SamplingError, TrainingAbort
from .evaluation import abnormal_labels, evaluate_embeddings, project_2d
from .model import EmbeddingModel, EncoderConfig
from .trainer import TrainConfig, check_type, train

RUN_DIR_ENV = "MLEMBED_RUN_DIR"

# The data, eval and paths values are used as read, so their types are
# checked here; TrainConfig and EncoderConfig check the train and encoder ones.
_DATA_TYPES = {
    "label_count": "int",
    "feature_dim": "int",
    "train_examples": "int",
    "val_examples": "int",
    "test_examples": "int",
    "noise_sigma": "float",
    "seed": "int",
    "prototypes": "list[list[float]] | None",
    "cooccurrence": "list[list[float]] | None",
    "exclusive_labels": "list[int] | None",
}
_ENCODER_KEYS = {"hidden_sizes", "embedding_dim", "seed"}
_TRAIN_KEYS = {
    "loss",
    "batch_size",
    "iterations",
    "learning_rate",
    "momentum",
    "weight_decay",
    "lr_decay_factor",
    "lr_decay_period",
    "margin",
    "eval_every",
    "seed",
    "pretrain",
    "pretrain_iterations",
}
_EVAL_TYPES = {"recall_ks": "list[int]", "kmeans_seed": "int", "normal_label": "int", "split": "str"}
_PATH_TYPES = {"dataset_dir": "str", "run_dir": "str"}
# A dict names the type of each key, which load_config checks; a set only the keys.
_SECTIONS = {
    "data": _DATA_TYPES,
    "encoder": _ENCODER_KEYS,
    "train": _TRAIN_KEYS,
    "eval": _EVAL_TYPES,
    "paths": _PATH_TYPES,
}


def load_config(path: str | None) -> dict:
    """Parse and validate the config file; returns {} sections when absent."""
    config: dict = {section: {} for section in _SECTIONS}
    if path is None:
        return config
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for section, body in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        keys = _SECTIONS[section]
        for key, value in body.items():
            if key not in keys:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            if isinstance(keys, dict):
                check_type(f"{section}.{key}", value, keys[key])
        config[section].update(body)
    return config


def synthetic_spec_from_config(data_cfg: dict) -> SyntheticSpec:
    """Build a generator spec, filling prototypes/co-occurrence defaults.
    Values must already have their types (see :func:`load_config`)."""
    if data_cfg.get("seed", 0) < 0:
        raise ConfigError(f"data.seed must be >= 0, got {data_cfg['seed']}")
    if data_cfg.get("feature_dim", 1) < 1:
        raise ConfigError(f"data.feature_dim must be >= 1, got {data_cfg['feature_dim']}")
    base = ds_mod.default_synthetic_spec(
        label_count=data_cfg.get("label_count", 5),
        feature_dim=data_cfg.get("feature_dim", 32),
        noise_sigma=float(data_cfg.get("noise_sigma", 0.15)),
        train_examples=data_cfg.get("train_examples", 2000),
        val_examples=data_cfg.get("val_examples", 500),
        test_examples=data_cfg.get("test_examples", 500),
        seed=data_cfg.get("seed", 7),
    )
    if data_cfg.get("prototypes") is not None:
        base.prototypes = np.asarray(data_cfg["prototypes"], dtype=np.float64)
    if data_cfg.get("cooccurrence") is not None:
        base.cooccurrence = np.asarray(data_cfg["cooccurrence"], dtype=np.float64)
    if data_cfg.get("exclusive_labels") is not None:
        base.exclusive_labels = tuple(data_cfg["exclusive_labels"])
    base.validate()
    return base


def load_dataset_dir(path: str | Path) -> DatasetSplits:
    """Load train/val/test JSONL files; label_count comes from the manifest,
    or without one is inferred once across all three splits."""
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"dataset directory {directory} does not exist")
    label_count = None
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        label_count = manifest.get("label_count")
    files = [directory / f"{split}.jsonl" for split in ("train", "val", "test")]
    for file in files:
        if not file.exists():
            raise FileNotFoundError(f"missing dataset file {file}")
    train, val, test = load_jsonl_files(files, label_count=label_count)
    return DatasetSplits(train=train, val=val, test=test)


def _labels_field(labels) -> str:
    return "|".join(str(x) for x in sorted(labels))


# -- commands ----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    config = load_config(args.config)
    data_cfg = dict(config["data"])
    if args.seed is not None:
        data_cfg["seed"] = args.seed
    spec = synthetic_spec_from_config(data_cfg)
    splits = generate_synthetic(spec)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, split in splits.named().items():
        save_jsonl(split, out / f"{name}.jsonl")
    manifest = {
        "label_count": spec.label_count,
        "feature_dim": spec.feature_dim,
        "noise_sigma": spec.noise_sigma,
        "seed": spec.seed,
        "counts": {
            "train": spec.train_examples,
            "val": spec.val_examples,
            "test": spec.test_examples,
        },
        "exclusive_labels": list(spec.exclusive_labels),
        "cooccurrence": np.asarray(spec.cooccurrence).tolist(),
        "prototypes": np.asarray(spec.prototypes).tolist(),
        "files": {name: f"{name}.jsonl" for name in ("train", "val", "test")},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(splits.train)}/{len(splits.val)}/{len(splits.test)} examples to {out}")
    return 0


def _resolve_run_dir(args, config, loss: str, seed: int) -> Path:
    if args.run_dir:
        return Path(args.run_dir)
    if config["paths"].get("run_dir"):
        return Path(config["paths"]["run_dir"])
    base = Path(os.environ.get(RUN_DIR_ENV, "runs"))
    return base / f"{loss}-seed{seed}"


def cmd_train(args) -> int:
    config = load_config(args.config)
    train_cfg_raw = dict(config["train"])
    for key in ("loss", "iterations", "seed", "batch_size"):
        value = getattr(args, key, None)
        if value is not None:
            train_cfg_raw[key] = value
    if args.pretrain is not None:
        train_cfg_raw["pretrain"] = args.pretrain
    cfg = TrainConfig(**train_cfg_raw)
    cfg.validate()

    data_dir = args.data or config["paths"].get("dataset_dir")
    if not data_dir:
        raise ConfigError("no dataset directory; pass --data or set paths.dataset_dir")
    splits = load_dataset_dir(data_dir)

    enc_cfg_raw = config["encoder"]
    encoder_cfg = EncoderConfig(
        input_dim=splits.train.feature_dim,
        hidden_sizes=enc_cfg_raw.get("hidden_sizes", (64, 64)),
        embedding_dim=enc_cfg_raw.get("embedding_dim", 64),
        seed=enc_cfg_raw.get("seed", 0),
    )

    run_dir = _resolve_run_dir(args, config, cfg.loss, cfg.seed)
    _, report = train(
        splits,
        cfg,
        encoder_cfg,
        run_dir=run_dir,
        manifest_extra={"dataset_dir": str(data_dir)},
    )
    print(f"run dir: {run_dir}")
    print(f"best checkpoint: {report.best_checkpoint} (val NMI {report.best_val_nmi:.4f})")
    return 0


def _load_model_for(splits: DatasetSplits, checkpoint: str) -> EmbeddingModel:
    model = EmbeddingModel.load(checkpoint)
    if model.config.input_dim != splits.train.feature_dim:
        raise ContractError(
            f"checkpoint expects feature dim {model.config.input_dim}, "
            f"dataset has {splits.train.feature_dim}"
        )
    return model


def cmd_eval(args) -> int:
    config = load_config(args.config)
    eval_cfg = config["eval"]
    split_name = args.split or eval_cfg.get("split", "test")
    if split_name not in ("train", "val", "test"):
        raise ConfigError(f"unknown split {split_name!r}")
    recall_ks = tuple(eval_cfg.get("recall_ks", (1, 2, 4, 8)))
    if any(k < 1 for k in recall_ks):
        raise ConfigError(f"eval.recall_ks must hold ints >= 1, got {list(recall_ks)}")
    kmeans_seed = eval_cfg.get("kmeans_seed", 0)
    if kmeans_seed < 0:
        raise ConfigError(f"eval.kmeans_seed must be >= 0, got {kmeans_seed}")

    splits = load_dataset_dir(args.data)
    model = _load_model_for(splits, args.checkpoint)
    eval_ds = splits.named()[split_name]

    eval_E, _ = model.embed(eval_ds.feature_matrix())
    train_E, _ = model.embed(splits.train.feature_matrix())
    normal_label = eval_cfg.get("normal_label", 0)
    report = evaluate_embeddings(
        eval_E,
        eval_ds,
        recall_ks=recall_ks,
        kmeans_seed=kmeans_seed,
        probe_train=(train_E, abnormal_labels(splits.train, normal_label)),
        normal_label=normal_label,
    )
    payload = json.dumps(report.as_dict(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def cmd_embed(args) -> int:
    splits = load_dataset_dir(args.data)
    model = _load_model_for(splits, args.checkpoint)
    eval_ds = splits.named()[args.split]
    E, _ = model.embed(eval_ds.feature_matrix())
    with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *[f"e{i}" for i in range(E.shape[1])], "labels"])
        for ex, row in zip(eval_ds.examples, E):
            writer.writerow([ex.id, *[repr(float(v)) for v in row], _labels_field(ex.labels)])
    print(f"wrote {E.shape[0]} embeddings to {args.out}")
    return 0


def cmd_project(args) -> int:
    splits = load_dataset_dir(args.data)
    model = _load_model_for(splits, args.checkpoint)
    eval_ds = splits.named()[args.split]
    E, _ = model.embed(eval_ds.feature_matrix())
    result = project_2d(E)
    if result.degenerate:
        print("warning: zero-variance embeddings; projection is all zeros", file=sys.stderr)
    with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x", "y", "labels"])
        for ex, (x, y) in zip(eval_ds.examples, result.coords):
            writer.writerow([ex.id, repr(float(x)), repr(float(y)), _labels_field(ex.labels)])
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

    p = sub.add_parser("gen-data", help="generate synthetic dataset splits")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override data.seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train an embedding model")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--data", help="dataset directory (overrides paths.dataset_dir)")
    p.add_argument("--run-dir", help="run directory (overrides paths.run_dir)")
    p.add_argument("--loss", choices=("contrastive", "triplet", "ml2", "ml2plus"))
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seed", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pretrain", dest="pretrain", action="store_true", default=None)
    group.add_argument("--no-pretrain", dest="pretrain", action="store_false")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="clustering/retrieval/classification report")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"))
    p.add_argument("--out", help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("embed", help="export embeddings as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("project", help="export a 2-d principal-component view as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
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
    except (SamplingError, TrainingAbort, ContractError, OSError) as exc:
        print(f"mlembed: failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import csv
import hashlib
import json
import re
import shutil
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import forge_binary
from mlembed import cli, errors, evaluation, model, trainer
from mlembed.cli import build_parser, load_config, load_dataset_dir, main
from mlembed.dataset import SPLITS, SyntheticSpec
from mlembed.errors import ConfigError, DataFormatError, MlembedError
from mlembed.model import CHECKPOINT_MAGIC, EmbeddingModel
from oracles import sequential_eval_json

README = Path(__file__).resolve().parents[1] / "README.md"

TINY_CONFIG = {
    "data": {
        "label_count": 3,
        "feature_dim": 8,
        "train_examples": 80,
        "val_examples": 30,
        "test_examples": 30,
        "noise_sigma": 0.15,
        "seed": 19,
    },
    "encoder": {"hidden_sizes": [12], "embedding_dim": 6, "seed": 3},
    "train": {
        "loss": "ml2plus",
        "batch_size": 4,
        "iterations": 30,
        "eval_every": 10,
        "lr_decay_period": 10,
        "seed": 5,
        "pretrain_iterations": 20,
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture
def data_dir(tmp_path, config_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", config_path, "--out", str(out)]) == 0
    return out


@pytest.fixture
def run_dir(tmp_path, config_path, data_dir):
    out = tmp_path / "run"
    code = main(
        ["train", "--config", config_path, "--data", str(data_dir), "--run-dir", str(out)]
    )
    assert code == 0
    return out


def checkpoint_in(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    return run_dir / manifest["checkpoint"]


class TestGenData:
    def test_writes_three_splits_and_manifest(self, data_dir):
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
            assert (data_dir / name).exists()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["label_count"] == 3
        assert manifest["counts"] == {"train": 80, "val": 30, "test": 30}

    def test_same_seed_identical_files(self, tmp_path, config_path, monkeypatch):
        # the binary files, and with them the manifest's digests, do not
        # depend on when gen-data ran
        a, b = tmp_path / "d1", tmp_path / "d2"
        assert main(["gen-data", "--config", config_path, "--out", str(a)]) == 0
        later = time.time() + 400 * 86400.0
        monkeypatch.setattr(time, "time", lambda: later)
        assert main(["gen-data", "--config", config_path, "--out", str(b)]) == 0
        names = [f"{split}.{kind}" for split in SPLITS for kind in ("jsonl", "npz")]
        for name in [*names, "manifest.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_cooccurrence_names_key(self, tmp_path, capsys):
        bad = dict(TINY_CONFIG)
        bad["data"] = dict(TINY_CONFIG["data"])
        bad["data"]["cooccurrence"] = [
            [0.4, 0.0, 0.0],
            [0.0, 0.3, 1.7],
            [0.0, 1.7, 0.3],
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "cooccurrence[1][2]" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"data": {"sigma": 0.3}}))
        code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "data.sigma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("label_count", "abc"),
            ("label_count", 1.5),
            ("train_examples", 80.5),
            ("feature_dim", True),
            ("feature_dim", 0),
            ("feature_dim", -1),
            ("noise_sigma", "0.15"),
            ("seed", [19]),
            ("seed", -1),
            ("exclusive_labels", ["0"]),
            ("prototypes", "abc"),
            ("cooccurrence", [[0.3, "x"]]),
            pytest.param("prototypes", [[0.0] * 8, [0.0] * 8, [0.0]], id="prototypes-ragged"),
            pytest.param("noise_sigma", 10**400, id="noise_sigma-int-beyond-float"),
            ("label_count", 1),
            pytest.param("cooccurrence", [[0.5, 0.0], [0.0, 0.5]], id="cooccurrence-shape"),
            pytest.param("cooccurrence", [[0.0] * 3] * 3, id="cooccurrence-diagonal-zero"),
            ("exclusive_labels", [3]),
            ("noise_sigma", -0.1),
            ("train_examples", -1),
            ("val_examples", -1),
            ("test_examples", -1),
        ],
    )
    def test_ill_typed_data_value_exits_one(self, tmp_path, capsys, key, value):
        bad = json.loads(json.dumps(TINY_CONFIG))
        bad["data"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        code = main(["gen-data", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert f"data.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"prototypes": [[1e308] * 32] * 3}, "prototypes"),
            ({"noise_sigma": 1e308}, "noise_sigma"),
        ],
        ids=["prototypes", "noise_sigma"],
    )
    def test_features_past_the_float_range_name_the_data_key(
        self, tmp_path, capsys, overrides, key
    ):
        data = {"label_count": 3, "train_examples": 40, "val_examples": 10, "test_examples": 10}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"data": {**data, **overrides}}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning fails the test
            code = main(["gen-data", "--config", str(path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mlembed: error: data.{key}")
        assert "record" not in err
        assert not out.exists()


    def test_out_of_memory_exits_two(self, tmp_path, config_path, monkeypatch, capsys):
        def exhausted(spec):
            raise MemoryError("Unable to allocate 233. TiB for an array")

        monkeypatch.setattr(cli, "generate_synthetic", exhausted)
        code = main(["gen-data", "--config", config_path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "mlembed: failure: out of memory: Unable to allocate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["train_examples", "val_examples", "test_examples", "feature_dim", "label_count"]
    )
    def test_size_beyond_any_array_exits_one(self, tmp_path, capsys, key):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"data": {key: 10**30}}))
        out = tmp_path / "out"
        code = main(["gen-data", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert f"mlembed: error: data.{key} is too large" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_out_of_memory_exits_two(self, tmp_path, config_path, data_dir, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError("Unable to allocate 58.2 TiB for an array")

        monkeypatch.setattr(trainer, "EmbeddingModel", exhausted)
        run = tmp_path / "run"
        code = main(
            ["train", "--config", config_path, "--data", str(data_dir), "--run-dir", str(run)]
        )
        assert code == 2
        assert "mlembed: failure: out of memory: Unable to allocate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("hidden_sizes", [10**30]), ("hidden_sizes", [64, 10**30]), ("embedding_dim", 10**30)],
    )
    def test_size_beyond_any_array_exits_one(
        self, tmp_path, config_path, data_dir, capsys, key, value
    ):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"encoder": {key: value}}))
        run = tmp_path / "run"
        code = main(["train", "--config", str(path), "--data", str(data_dir), "--run-dir", str(run)])
        assert code == 1
        assert f"mlembed: error: encoder.{key} is too large" in capsys.readouterr().err
        assert not run.exists()

    def test_run_artifacts(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        report = json.loads((run_dir / "report.json").read_text())
        assert checkpoint_in(run_dir).exists()
        assert report["best_checkpoint"] == manifest["best_checkpoint"]
        assert manifest["checkpoint"] == report["best_checkpoint"] + ".ckpt"
        best = max(
            (p for p in report["points"] if p["val_nmi"] is not None),
            key=lambda p: p["val_nmi"],
        )
        assert report["best_val_nmi"] == best["val_nmi"]
        assert manifest["sampler_stream"] == 3

    @pytest.mark.parametrize("flags", [[], ["--pretrain"]], ids=["metric", "pretrain"])
    def test_zero_iterations_reports_no_validation_point(
        self, tmp_path, data_dir, capsys, flags
    ):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"train": {"iterations": 0}}))
        run = tmp_path / "run"
        args = ["train", "--config", str(path), "--data", str(data_dir), "--run-dir", str(run)]
        assert main(args + flags) == 0
        out = capsys.readouterr().out
        assert "no validation point was scored" in out
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["best_checkpoint"] is None
        assert (run / manifest["checkpoint"]).exists()

    def test_missing_dataset_path(self, config_path, tmp_path, capsys):
        code = main(
            [
                "train",
                "--config",
                config_path,
                "--data",
                str(tmp_path / "nowhere"),
                "--run-dir",
                str(tmp_path / "r"),
            ]
        )
        assert code == 1
        assert "nowhere" in capsys.readouterr().err

    def test_no_dataset_directory_exits_one(self, tmp_path, config_path, capsys):
        code = main(["train", "--config", config_path, "--run-dir", str(tmp_path / "r")])
        assert code == 1
        assert "mlembed: error: no dataset directory; pass --data or set paths.dataset_dir" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "r").exists()

    def test_pretrain_flag_adds_phase(self, tmp_path, config_path, data_dir):
        out = tmp_path / "run-pre"
        code = main(
            [
                "train",
                "--config",
                config_path,
                "--data",
                str(data_dir),
                "--run-dir",
                str(out),
                "--pretrain",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        phases = [p["phase"] for p in report["points"]]
        assert phases.index("metric") > 0
        assert phases[0] == "pretrain"

    def test_loss_flag_overrides_config(self, tmp_path, config_path, data_dir):
        out = tmp_path / "run-tri"
        code = main(
            [
                "train",
                "--config",
                config_path,
                "--data",
                str(data_dir),
                "--run-dir",
                str(out),
                "--loss",
                "triplet",
                "--batch-size",
                "8",
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["train_config"]["loss"] == "triplet"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "iterations", "abc"),
            ("encoder", "embedding_dim", "abc"),
            ("encoder", "hidden_sizes", "12"),
            ("encoder", "seed", 1.5),
            ("paths", "dataset_dir", 5),
            ("paths", "run_dir", ["run"]),
            ("train", "batch_size", 0),
            ("train", "iterations", -1),
            ("train", "learning_rate", 0.0),
            ("train", "weight_decay", -1e-4),
            ("train", "lr_decay_period", 0),
            ("train", "lr_decay_factor", 0.0),
            ("train", "lr_decay_factor", 1.5),
            ("train", "margin", 0.0),
            ("train", "eval_every", 0),
            ("train", "pretrain_iterations", -1),
        ],
    )
    def test_ill_typed_config_value_exits_one(
        self, tmp_path, data_dir, capsys, section, key, value
    ):
        bad = json.loads(json.dumps(TINY_CONFIG))
        bad.setdefault(section, {})[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        run_dir = str(tmp_path / "run")
        code = main(["train", "--config", str(path), "--data", str(data_dir), "--run-dir", run_dir])
        assert code == 1
        assert f"mlembed: error: {section}.{key}" in capsys.readouterr().err

    def test_manifest_encoder_config_keys(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert list(manifest["encoder_config"]) == [
            "input_dim", "hidden_sizes", "embedding_dim", "label_count", "seed"
        ]
        assert manifest["encoder_config"]["hidden_sizes"] == [12]

    def test_manifest_records_dataset_dir(self, run_dir, data_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["dataset_dir"] == str(data_dir)

    def test_env_var_default_run_dir(self, tmp_path, config_path, data_dir, monkeypatch):
        base = tmp_path / "envruns"
        monkeypatch.setenv("MLEMBED_RUN_DIR", str(base))
        code = main(["train", "--config", config_path, "--data", str(data_dir)])
        assert code == 0
        expected = base / "ml2plus-seed5"
        assert (expected / "report.json").exists()

    def test_reproducible_runs_bit_identical(self, tmp_path, config_path, data_dir):
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "train",
                        "--config",
                        config_path,
                        "--data",
                        str(data_dir),
                        "--run-dir",
                        str(out),
                    ]
                )
                == 0
            )
            outputs.append(out)
        a, b = outputs
        assert checkpoint_in(a).read_bytes() == checkpoint_in(b).read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


class TestEval:
    def test_report_schema(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "metrics.json"
        code = main(
            [
                "eval",
                "--checkpoint",
                str(checkpoint_in(run_dir)),
                "--data",
                str(data_dir),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"nmi", "recall_at", "classification", "distinct_label_sets"}
        assert set(payload["recall_at"]) == {"1", "2", "4", "8"}
        assert set(payload["classification"]) == {
            "precision",
            "sensitivity",
            "specificity",
            "f1",
        }

    def test_report_without_out_goes_to_stdout(self, tmp_path, data_dir, run_dir, capsys):
        argv = ["eval", "--checkpoint", str(checkpoint_in(run_dir)), "--data", str(data_dir)]
        out = tmp_path / "metrics.json"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_unknown_split_in_config_exits_one(self, tmp_path, data_dir, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"eval": {"split": "holdout"}}))
        code = main(["eval", "--config", str(path), "--checkpoint", "c", "--data", str(data_dir)])
        assert code == 1
        assert (
            "mlembed: error: eval.split must be one of ('train', 'val', 'test'), got 'holdout'"
            in capsys.readouterr().err
        )

    def test_unsupported_checkpoint_version_exits_one_naming_the_file(
        self, tmp_path, data_dir, capsys
    ):
        blob = json.dumps({"format_version": 99}).encode()
        bad = tmp_path / "future.ckpt"
        bad.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob)
        out = tmp_path / "metrics.json"
        argv = ["eval", "--checkpoint", str(bad), "--data", str(data_dir), "--out", str(out)]
        assert main(argv) == 1
        assert "mlembed: error: future.ckpt: unsupported format version 99" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_eval_twice_identical(self, tmp_path, data_dir, run_dir):
        files = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "eval",
                        "--checkpoint",
                        str(checkpoint_in(run_dir)),
                        "--data",
                        str(data_dir),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_mismatched_feature_dims(self, tmp_path, run_dir, capsys):
        other_cfg = json.loads(json.dumps(TINY_CONFIG))
        other_cfg["data"]["feature_dim"] = 16
        path = tmp_path / "other.json"
        path.write_text(json.dumps(other_cfg))
        other_data = tmp_path / "other-data"
        assert main(["gen-data", "--config", str(path), "--out", str(other_data)]) == 0
        code = main(
            [
                "eval",
                "--checkpoint",
                str(checkpoint_in(run_dir)),
                "--data",
                str(other_data),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "8" in err and "16" in err

    @pytest.mark.parametrize("command", ["eval", "embed", "project"])
    def test_width_mismatch_exits_two_before_any_output(
        self, tmp_path, data_dir, run_dir, capsys, command
    ):
        # only the model checks a checkpoint's input width, at its first embed
        for split in ("train", "test"):
            path = data_dir / f"{split}.jsonl"
            records = [json.loads(line) for line in path.read_text().splitlines()]
            path.write_text(
                "".join(json.dumps({**r, "features": r["features"][:4]}) + "\n" for r in records)
            )
        out = tmp_path / "out"
        argv = [command, "--checkpoint", str(checkpoint_in(run_dir)), "--data", str(data_dir)]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "mlembed: failure: expected inputs of dim 8, got shape (30, 4)" in err
        assert not out.exists()


    def test_truncated_checkpoint_header_exits_one(self, tmp_path, data_dir, run_dir, capsys):
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(checkpoint_in(run_dir).read_bytes()[:20])
        code = main(["eval", "--checkpoint", str(bad), "--data", str(data_dir)])
        assert code == 1
        assert "truncated header" in capsys.readouterr().err


    def test_checkpoint_without_config_exits_one(self, tmp_path, data_dir, capsys):
        blob = json.dumps({"format_version": 1}).encode()
        bad = tmp_path / "noconfig.ckpt"
        bad.write_bytes(b"MLEMBED\x01" + len(blob).to_bytes(8, "little") + blob)
        code = main(["eval", "--checkpoint", str(bad), "--data", str(data_dir)])
        assert code == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("recall_ks", "1"),
            ("recall_ks", [0]),
            ("recall_ks", [1.5]),
            ("recall_ks", [True]),
            ("kmeans_seed", "0"),
            ("kmeans_seed", -1),
            ("normal_label", 0.5),
            ("split", 3),
        ],
    )
    def test_ill_typed_eval_value_exits_one(self, tmp_path, data_dir, run_dir, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"eval": {key: value}}))
        code = main(
            ["eval", "--config", str(path), "--checkpoint", str(checkpoint_in(run_dir)),
             "--data", str(data_dir)]
        )
        assert code == 1
        assert f"eval.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [99, 3, -1])
    def test_normal_label_outside_label_range_exits_one(
        self, tmp_path, data_dir, run_dir, capsys, value
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"eval": {"normal_label": value}}))
        code = main(
            ["eval", "--config", str(path), "--checkpoint", str(checkpoint_in(run_dir)),
             "--data", str(data_dir)]
        )
        assert code == 1
        assert "eval.normal_label" in capsys.readouterr().err

    def test_non_object_jsonl_line_exits_one(self, tmp_path, data_dir, run_dir, capsys):
        (data_dir / "test.jsonl").write_text("5\n")
        code = main(["eval", "--checkpoint", str(checkpoint_in(run_dir)), "--data", str(data_dir)])
        assert code == 1
        assert "test.jsonl:1" in capsys.readouterr().err



class TestEvalWorker:
    """``mlembed eval`` embeds the train split and fits the probe on one
    worker thread; its output and its errors are those of the stages run
    one after another: eval embedding, train embedding, clustering and
    retrieval, probe."""

    # Each failing stage waits its delay (s) and raises. The delays make the
    # reported error finish last, so raising errors as they complete fails.
    @pytest.mark.parametrize(
        "delays, reported",
        [
            ({}, None),
            ({"eval_embed": 0.1, "train_embed": 0, "kmeans": 0, "probe": 0}, "eval_embed"),
            ({"train_embed": 0.1, "kmeans": 0, "probe": 0}, "train_embed"),
            ({"kmeans": 0.1, "probe": 0}, "kmeans"),
            ({"train_embed": 0}, "train_embed"),
            ({"probe": 0}, "probe"),
        ],
    )
    def test_first_error_in_sequential_order_and_worker_joined(
        self, monkeypatch, data_dir, run_dir, capsys, delays, reported
    ):
        splits = load_dataset_dir(data_dir, ("train", "test"))
        trained = EmbeddingModel.load(checkpoint_in(run_dir))
        expected = sequential_eval_json(
            trained.embed(splits.test.X)[0],
            splits.test,
            trained.embed(splits.train.X)[0],
            evaluation.abnormal_labels(splits.train),
        )
        train_rows = len(splits.train)

        def failing(fn, stage_of):
            def stage(*args, **kwargs):
                name = stage_of(*args)
                if name in delays:
                    time.sleep(delays[name])
                    raise errors.EvaluationError(f"{name} failed")
                return fn(*args, **kwargs)

            return stage

        embed_stage = lambda _, X: "train_embed" if len(X) == train_rows else "eval_embed"
        monkeypatch.setattr(EmbeddingModel, "embed", failing(EmbeddingModel.embed, embed_stage))
        monkeypatch.setattr(evaluation, "kmeans", failing(evaluation.kmeans, lambda *_: "kmeans"))
        monkeypatch.setattr(
            evaluation, "logistic_probe", failing(evaluation.logistic_probe, lambda *_: "probe")
        )
        threads = threading.active_count()
        code = main(["eval", "--checkpoint", str(checkpoint_in(run_dir)), "--data", str(data_dir)])
        assert threading.active_count() == threads
        out, err = capsys.readouterr()
        if reported is None:
            assert (code, out, err) == (0, expected, "")
        else:
            assert code == 2
            assert err == f"mlembed: failure: {reported} failed\n"


class TestEmptySplit:
    """A split with no records ends in a typed error that names it."""

    @pytest.mark.parametrize(
        "command, split",
        [("eval", "test"), ("eval", "train"), ("embed", "test"), ("project", "test")],
    )
    def test_empty_split_file_exits_one(self, tmp_path, data_dir, run_dir, capsys, command, split):
        (data_dir / f"{split}.jsonl").write_text("")
        argv = [command, "--checkpoint", str(checkpoint_in(run_dir)), "--data", str(data_dir)]
        if command != "eval":
            argv += ["--out", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        assert f"{split} split is empty" in capsys.readouterr().err

    def test_train_with_empty_val_file_exits_one(self, tmp_path, config_path, data_dir, capsys):
        (data_dir / "val.jsonl").write_text("")
        run = tmp_path / "run"
        code = main(
            ["train", "--config", config_path, "--data", str(data_dir), "--run-dir", str(run)]
        )
        assert code == 1
        assert "validation split is empty" in capsys.readouterr().err
        assert not run.exists()

    def test_train_with_one_val_row_exits_one_before_training(
        self, tmp_path, config_path, data_dir, capsys
    ):
        # Recall@1 needs a neighbour for every row: a config error, found before training
        path = data_dir / "val.jsonl"
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        run = tmp_path / "run"
        code = main(
            ["train", "--config", config_path, "--data", str(data_dir), "--run-dir", str(run)]
        )
        assert code == 1
        assert "mlembed: error: validation split has 1 example" in capsys.readouterr().err
        assert not run.exists()

    def test_train_on_generated_data_without_val_exits_one(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["data"]["val_examples"] = 0
        path = tmp_path / "noval.json"
        path.write_text(json.dumps(cfg))
        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(path), "--out", str(data)]) == 0
        run = tmp_path / "run"
        code = main(["train", "--config", str(path), "--data", str(data), "--run-dir", str(run)])
        assert code == 1
        assert "validation split is empty" in capsys.readouterr().err


class TestLoadDatasetDir:
    def test_label_count_shared_across_splits_without_manifest(self, tmp_path, data_dir):
        # drop the manifest and every val/test record carrying the top label
        for split in ("val", "test"):
            path = data_dir / f"{split}.jsonl"
            kept = [
                line
                for line in path.read_text().splitlines()
                if 2 not in json.loads(line)["labels"]
            ]
            path.write_text("\n".join(kept) + "\n")
        (data_dir / "manifest.json").unlink()
        splits = load_dataset_dir(data_dir)
        assert [ds.label_count for ds in (splits.train, splits.val, splits.test)] == [3, 3, 3]

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_split_narrower_than_train_exits_one(self, tmp_path, data_dir, run_dir, capsys, split):
        path = data_dir / f"{split}.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text(
            "".join(json.dumps({**r, "features": r["features"][:4]}) + "\n" for r in records)
        )
        code = main(
            ["eval", "--checkpoint", str(checkpoint_in(run_dir)), "--data", str(data_dir),
             "--split", split]
        )
        assert code == 1
        assert f"{split}.jsonl: feature width 4 != 8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "embed", "project"])
    def test_commands_read_through_the_cli_binding(
        self, tmp_path, config_path, data_dir, run_dir, monkeypatch, command
    ):
        # the benchmark's tracer times dataset reads by rebinding this name in cli
        calls = []

        def counted(*args):
            calls.append(args)
            return load_dataset_dir(*args)

        monkeypatch.setattr(cli, "load_dataset_dir", counted)
        out = str(tmp_path / "out")
        if command == "train":
            argv = ["--config", config_path, "--run-dir", out]
        else:
            argv = ["--checkpoint", str(checkpoint_in(run_dir)), "--out", out]
        assert main([command, *argv, "--data", str(data_dir)]) == 0
        assert len(calls) == 1

    def test_reads_only_the_named_splits(self, data_dir):
        (data_dir / "val.jsonl").write_text("not json\n")
        splits = load_dataset_dir(data_dir, ("test", "train"))
        assert splits.val is None
        assert (len(splits.train), len(splits.test)) == (80, 30)

    @pytest.mark.parametrize(
        "command, unread",
        [("eval", "val"), ("embed", "train"), ("embed", "val"), ("project", "train")],
    )
    def test_unread_split_cannot_change_the_output(
        self, tmp_path, data_dir, run_dir, command, unread
    ):
        # a command on the test split writes the same bytes whatever the
        # file of a split it does not read holds
        argv = [command, "--checkpoint", str(checkpoint_in(run_dir)), "--data", str(data_dir),
                "--split", "test"]
        outputs = []
        for corrupt in (False, True):
            if corrupt:
                (data_dir / f"{unread}.jsonl").write_bytes(b"\xff{not json\n")
            out = tmp_path / f"out-{corrupt}"
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("manifest", [True, False], ids=["manifest", "no-manifest"])
    def test_train_cannot_read_the_test_split(self, tmp_path, config_path, data_dir, manifest):
        # training reads train and val only: a corrupt test.jsonl leaves the
        # run's bytes as they were, and the inferred label_count with them
        if not manifest:
            (data_dir / "manifest.json").unlink()
        runs = []
        for corrupt in (False, True):
            if corrupt:
                (data_dir / "test.jsonl").write_bytes(b"\xff{not json\n")
            run = tmp_path / f"run-{corrupt}"
            argv = ["train", "--config", config_path, "--data", str(data_dir), "--run-dir", str(run)]
            assert main(argv) == 0
            runs.append(run)
        a, b = runs
        assert checkpoint_in(a).read_bytes() == checkpoint_in(b).read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    @pytest.mark.parametrize(
        "manifest",
        [
            b'{"label_count": 3',
            b"\xff\xfe",
            b"[1]",
            b'{"label_count": "5"}',
            b'{"label_count": true}',
            b'{"label_count": 0}',
            b'{"label_count": 1000000000000000000000000000000}',
        ],
        ids=["truncated-json", "not-utf8", "not-an-object", "string-count", "bool-count", "zero",
             "beyond-any-array"],
    )
    def test_malformed_manifest_exits_one(self, tmp_path, config_path, data_dir, capsys, manifest):
        (data_dir / "manifest.json").write_bytes(manifest)
        code = main(
            ["train", "--config", config_path, "--data", str(data_dir),
             "--run-dir", str(tmp_path / "run")]
        )
        assert code == 1
        assert "manifest.json" in capsys.readouterr().err


def eval_output(data_dir, run_dir, out):
    """The bytes ``mlembed eval`` writes for the run's checkpoint on ``data_dir``."""
    argv = ["eval", "--checkpoint", str(checkpoint_in(run_dir)), "--data", str(data_dir)]
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def other_seed_binaries(tmp_path, config_path, data_dir):
    other = tmp_path / "other-seed"
    assert main(["gen-data", "--config", config_path, "--seed", "20", "--out", str(other)]) == 0
    for split in SPLITS:
        assert (other / f"{split}.npz").read_bytes() != (data_dir / f"{split}.npz").read_bytes()
        shutil.copy(other / f"{split}.npz", data_dir)


def rewrite_manifest(data_dir, **changes):
    path = data_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest.update(changes)
    path.write_text(json.dumps({k: v for k, v in manifest.items() if v is not None}))


def truncate_binaries(tmp_path, config_path, data_dir):
    for split in SPLITS:
        path = data_dir / f"{split}.npz"
        path.write_bytes(path.read_bytes()[:-100])


def remove_binaries(tmp_path, config_path, data_dir):
    for split in SPLITS:
        (data_dir / f"{split}.npz").unlink()


def manifest_without_digests(tmp_path, config_path, data_dir):
    # as every dataset directory made before the binary files; binaries
    # from another seed show whether they were read
    other_seed_binaries(tmp_path, config_path, data_dir)
    rewrite_manifest(data_dir, files=None)


def manifest_naming_files_only(tmp_path, config_path, data_dir):
    other_seed_binaries(tmp_path, config_path, data_dir)
    rewrite_manifest(data_dir, files={split: f"{split}.jsonl" for split in SPLITS})


def manifest_without_label_count(tmp_path, config_path, data_dir):
    other_seed_binaries(tmp_path, config_path, data_dir)
    for split in SPLITS:  # digests that match the other seed's binaries
        forge_binary(data_dir, split, data=(data_dir / f"{split}.npz").read_bytes())
    rewrite_manifest(data_dir, label_count=None)


class TestBinarySplitFiles:
    """A split's binary file is read only when the manifest's digests of it
    and of its JSONL file both match; otherwise the JSONL file is."""

    @pytest.mark.parametrize(
        "damage",
        [other_seed_binaries, truncate_binaries, remove_binaries, manifest_without_digests,
         manifest_naming_files_only, manifest_without_label_count],
        ids=["other-seed", "truncated", "missing", "no-digests", "files-named-only",
             "no-label-count"],
    )
    def test_unverified_binary_falls_back_to_jsonl(
        self, tmp_path, config_path, data_dir, run_dir, damage
    ):
        expected = eval_output(data_dir, run_dir, tmp_path / "expected.json")
        damage(tmp_path, config_path, data_dir)
        assert eval_output(data_dir, run_dir, tmp_path / "out.json") == expected

    def test_jsonl_edited_after_gen_data_is_what_eval_reads(self, tmp_path, data_dir, run_dir):
        before = eval_output(data_dir, run_dir, tmp_path / "before.json")
        path = data_dir / "test.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        record["features"][0] += 3.0
        lines[0] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
        assert load_dataset_dir(data_dir, ("test",)).test.X[0, 0] == record["features"][0]
        jsonl_only = tmp_path / "jsonl-only"
        shutil.copytree(data_dir, jsonl_only, ignore=shutil.ignore_patterns("*.npz"))
        after = eval_output(data_dir, run_dir, tmp_path / "after.json")
        assert after != before
        assert after == eval_output(jsonl_only, run_dir, tmp_path / "jsonl-only.json")

    @pytest.mark.parametrize(
        "forge, message",
        [
            (lambda npz: {"X": npz["X"].astype(np.float32)}, "X has dtype <f4, not <f8"),
            (lambda npz: {"label_matrix": np.pad(npz["label_matrix"], ((0, 0), (0, 1)))},
             "label_matrix of shape (30, 4) is not 3 labels wide"),
        ],
        ids=["wrong-dtype", "label-width"],
    )
    @pytest.mark.parametrize("command", ["eval", "embed", "project"])
    def test_verified_binary_failing_a_check_exits_one_naming_the_file(
        self, tmp_path, data_dir, run_dir, capsys, command, forge, message
    ):
        with np.load(data_dir / "test.npz") as npz:
            forge_binary(data_dir, "test", **forge(npz))
        out = tmp_path / "out"
        argv = [command, "--checkpoint", str(checkpoint_in(run_dir)), "--data", str(data_dir)]
        assert main([*argv, "--out", str(out)]) == 1
        assert f"mlembed: error: {data_dir / 'test.npz'}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_write_failing_before_the_manifest_leaves_no_matching_digest(
        self, tmp_path, config_path, data_dir, monkeypatch
    ):
        # the old manifest survives a failed gen-data of another seed into
        # the same directory; none of its digests may vouch for a new file
        real = model.write_atomic

        def failing(path, data):
            if path.name == "manifest.json":
                raise OSError("no space left on device")
            real(path, data)

        monkeypatch.setattr(model, "write_atomic", failing)
        argv = ["gen-data", "--config", config_path, "--seed", "20", "--out", str(data_dir)]
        assert main(argv) == 2
        monkeypatch.undo()
        digests = json.loads((data_dir / "manifest.json").read_text())["files"]
        split_files = sorted(p.name for p in data_dir.iterdir() if p.name != "manifest.json")
        assert sorted(digests) == split_files
        for name, digest in digests.items():
            assert hashlib.sha256((data_dir / name).read_bytes()).hexdigest() != digest
        fresh = tmp_path / "fresh"
        assert main(["gen-data", "--config", config_path, "--seed", "20", "--out", str(fresh)]) == 0
        for split in SPLITS:
            a, b = load_dataset_dir(data_dir).named()[split], load_dataset_dir(fresh).named()[split]
            assert a.ids == b.ids and a.X.tobytes() == b.X.tobytes()


class TestConfigFile:
    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b'{"data": {"seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}}", b"[1]"],
        ids=["not-utf8", "nested-too-deep", "not-an-object"],
    )
    def test_unreadable_config_exits_one_naming_the_file(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert any(line.startswith("mlembed: error:") and str(path) in line for line in lines)

    @pytest.mark.parametrize(
        "content, message",
        [
            ({"dta": {}}, "unknown section 'dta'"),
            ({"data": [1]}, "section 'data' must be an object"),
        ],
        ids=["unknown-section", "section-not-an-object"],
    )
    def test_bad_section_exits_one_naming_the_file(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(content))
        code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"mlembed: error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "argv, section, key, value",
        [
            (["gen-data", "--out", "o", "--seed", "3"], "data", "seed", 3),
            (["train", "--data", "d"], "paths", "dataset_dir", "d"),
            (["train", "--run-dir", "r"], "paths", "run_dir", "r"),
            (["train", "--loss", "ml2"], "train", "loss", "ml2"),
            (["train", "--iterations", "5"], "train", "iterations", 5),
            (["train", "--batch-size", "4"], "train", "batch_size", 4),
            (["train", "--seed", "2"], "train", "seed", 2),
            (["train", "--pretrain"], "train", "pretrain", True),
            (["train", "--no-pretrain"], "train", "pretrain", False),
            (["eval", "--checkpoint", "c", "--data", "d"], "paths", "dataset_dir", "d"),
            (["eval", "--checkpoint", "c", "--data", "d", "--split", "val"],
             "eval", "split", "val"),
        ],
    )
    def test_flag_sets_its_key(self, argv, section, key, value):
        config = load_config(build_parser().parse_args(argv))
        assert config[section] == {key: value}

    def test_data_section_and_its_defaults_pinned(self):
        assert list(cli._SECTIONS["data"].items()) == [
            ("label_count", "int"),
            ("feature_dim", "int"),
            ("noise_sigma", "float"),
            ("train_examples", "int"),
            ("val_examples", "int"),
            ("test_examples", "int"),
            ("seed", "int"),
            ("prototypes", "list[list[float]] | None"),
            ("cooccurrence", "list[list[float]] | None"),
            ("exclusive_labels", "tuple[int, ...]"),
        ]
        spec = SyntheticSpec()
        assert {key: getattr(spec, key) for key in cli._SECTIONS["data"]
                if key not in ("prototypes", "cooccurrence")} == {
            "label_count": 5, "feature_dim": 32, "noise_sigma": 0.15, "train_examples": 2000,
            "val_examples": 500, "test_examples": 500, "seed": 7, "exclusive_labels": (0,),
        }
        assert spec.cooccurrence.tolist() == [
            [0.3, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.175, 0.4, 0.0, 0.0],
            [0.0, 0.4, 0.175, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.175, 0.4],
            [0.0, 0.0, 0.0, 0.4, 0.175],
        ]
        # unit-norm rows drawn from seed 7
        assert spec.prototypes.shape == (5, 32) and spec.prototypes.dtype == np.float64
        assert hashlib.sha256(spec.prototypes.tobytes()).hexdigest() == (
            "1bf79f95a947b82665a575317e42b2463924a10339931f4a7e8e6b31f2982f80"
        )

    def test_readme_config_lists_every_key_at_its_default(self, tmp_path):
        readme = README.read_text(encoding="utf-8")
        after = readme.split("A config file with every supported key", 1)[1]
        block = after.split("```json\n", 1)[1].split("```", 1)[0]
        listed = json.loads(block)
        assert {s: set(body) for s, body in listed.items()} == {
            s: set(schema) for s, schema in cli._SECTIONS.items()
        }
        config = tmp_path / "readme.json"
        config.write_text(block)
        outputs = []
        for name, flags in (("readme", ["--config", str(config)]), ("none", [])):
            root = tmp_path / name
            data, run = root / "data", root / "run"
            assert main(["gen-data", *flags, "--out", str(data)]) == 0
            argv = ["train", *flags, "--data", str(data), "--run-dir", str(run)]
            assert main([*argv, "--iterations", "20"]) == 0
            argv = ["eval", *flags, "--checkpoint", str(checkpoint_in(run)), "--data", str(data)]
            assert main([*argv, "--out", str(root / "eval.json")]) == 0
            files = sorted(p for p in root.rglob("*") if p.is_file() and p != run / "manifest.json")
            outputs.append({p.relative_to(root): p.read_bytes() for p in files})
        # three JSONL and three binary files, the manifest, checkpoint, report and eval output
        assert len(outputs[0]) == 10
        assert outputs[0] == outputs[1]


MALFORMED_JSON = {
    "not-utf8": b"\xff\xfe{}",
    "truncated": b'{"label_count": 3',
    "nested-too-deep": b"[" * 100_000 + b"]" * 100_000,
    "not-an-object": b"[1]",
}


class TestJsonReaders:
    """The config, the manifest, a checkpoint header and a JSONL line are
    each decoded by one reader: a payload that is not a JSON object raises
    the reader's typed error naming the file, and the command exits 1."""

    @pytest.mark.parametrize("payload", MALFORMED_JSON.values(), ids=MALFORMED_JSON.keys())
    @pytest.mark.parametrize("reader", ["config", "manifest", "checkpoint", "jsonl"])
    def test_malformed_payload_raises_typed_error_and_exits_one(
        self, tmp_path, config_path, data_dir, capsys, reader, payload
    ):
        if reader == "config":
            path = tmp_path / "bad.json"
            path.write_bytes(payload)
            argv = ["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]
            error, where = ConfigError, str(path)
            read = lambda: load_config(build_parser().parse_args(argv))  # noqa: E731
        elif reader == "checkpoint":
            path = tmp_path / "bad.ckpt"
            path.write_bytes(CHECKPOINT_MAGIC + len(payload).to_bytes(8, "little") + payload)
            argv = ["eval", "--checkpoint", str(path), "--data", str(data_dir)]
            error, where = DataFormatError, "bad.ckpt header"
            read = lambda: EmbeddingModel.load(path)  # noqa: E731
        else:
            path = data_dir / ("manifest.json" if reader == "manifest" else "val.jsonl")
            path.write_bytes(payload + b"\n")
            argv = ["train", "--config", config_path, "--data", str(data_dir),
                    "--run-dir", str(tmp_path / "run")]
            error = DataFormatError
            where = str(path) if reader == "manifest" else "val.jsonl:1"
            read = lambda: load_dataset_dir(data_dir, ("train", "val"))  # noqa: E731
        with pytest.raises(error, match=re.escape(f"{where}: ")):
            read()
        assert main(argv) == 1
        assert f"mlembed: error: {where}: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()


class TestErrorExitCodes:
    def test_every_error_class_has_the_package_base(self):
        classes = [c for c in vars(errors).values() if isinstance(c, type)]
        assert len(classes) == 11
        for c in classes:
            assert issubclass(c, MlembedError)
            assert c is MlembedError or issubclass(c, (ValueError, RuntimeError))

    @pytest.mark.parametrize("command", ["eval", "embed", "project"])
    def test_degenerate_checkpoint_exits_two(self, tmp_path, data_dir, run_dir, capsys, command):
        # a well-formed checkpoint whose projection maps every row to zero
        model = EmbeddingModel.load(checkpoint_in(run_dir))
        model.params.value("proj_W").fill(0.0)
        model.params.value("proj_b").fill(0.0)
        zero = tmp_path / "zero.ckpt"
        model.save(zero)
        out = tmp_path / "out"
        assert main([command, "--checkpoint", str(zero), "--data", str(data_dir),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "mlembed: failure: pre-normalization activation for row 0" in err
        assert not out.exists()


class TestEmbedAndProject:
    def test_embed_rows_and_norms(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "emb.csv"
        code = main(
            [
                "embed",
                "--checkpoint",
                str(checkpoint_in(run_dir)),
                "--data",
                str(data_dir),
                "--split",
                "test",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert len(body) == TINY_CONFIG["data"]["test_examples"]
        assert header[0] == "id" and header[-1] == "labels"
        for row in body:
            vec = np.array([float(x) for x in row[1:-1]])
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-6

    def test_project_schema(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "proj.csv"
        code = main(
            [
                "project",
                "--checkpoint",
                str(checkpoint_in(run_dir)),
                "--data",
                str(data_dir),
                "--split",
                "val",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "x", "y", "labels"]
        assert len(rows) - 1 == TINY_CONFIG["data"]["val_examples"]

    def test_constant_embeddings_project_to_zeros_with_a_warning(
        self, tmp_path, data_dir, run_dir, capsys
    ):
        # a zero projection plus a bias maps every row to the same unit vector
        model = EmbeddingModel.load(checkpoint_in(run_dir))
        model.params.value("proj_W").fill(0.0)
        model.params.value("proj_b")[...] = np.eye(1, model.config.embedding_dim)[0]
        constant = tmp_path / "constant.ckpt"
        model.save(constant)
        out = tmp_path / "proj.csv"
        argv = ["project", "--checkpoint", str(constant), "--data", str(data_dir)]
        assert main([*argv, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == "warning: zero-variance embeddings; projection is all zeros\n"
        with out.open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == TINY_CONFIG["data"]["test_examples"]
        assert all(float(x) == 0.0 and float(y) == 0.0 for _, x, y, _ in rows)

    @pytest.mark.parametrize("command", ["embed", "project"])
    def test_id_with_a_lone_surrogate_exits_one_and_writes_nothing(
        self, tmp_path, data_dir, run_dir, capsys, command
    ):
        # JSON admits a lone surrogate in a string; UTF-8 cannot encode it
        path = data_dir / "test.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[3])
        record["id"] = "\ud800x"
        lines[3] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
        out = tmp_path / "out.csv"
        argv = [command, "--checkpoint", str(checkpoint_in(run_dir)), "--data", str(data_dir)]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.isascii()
        assert err.startswith("mlembed: error: ") and repr("\ud800x") in err
        assert list(tmp_path.glob("out.csv*")) == []


class TestUsageErrors:
    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen-data", "--frobnicate"])
        assert excinfo.value.code == 1

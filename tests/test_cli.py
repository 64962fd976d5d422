import csv
import json

import numpy as np
import pytest

from mlembed.cli import load_dataset_dir, main

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

    def test_same_seed_identical_files(self, tmp_path, config_path):
        a, b = tmp_path / "d1", tmp_path / "d2"
        assert main(["gen-data", "--config", config_path, "--out", str(a)]) == 0
        assert main(["gen-data", "--config", config_path, "--out", str(b)]) == 0
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
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


class TestTrain:
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
        assert key in capsys.readouterr().err

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

    def test_non_object_jsonl_line_exits_one(self, tmp_path, data_dir, run_dir, capsys):
        (data_dir / "test.jsonl").write_text("5\n")
        code = main(["eval", "--checkpoint", str(checkpoint_in(run_dir)), "--data", str(data_dir)])
        assert code == 1
        assert "test.jsonl:1" in capsys.readouterr().err


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


class TestUsageErrors:
    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen-data", "--frobnicate"])
        assert excinfo.value.code == 1

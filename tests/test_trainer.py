import errno
import json
from pathlib import Path

import numpy as np
import pytest

from mlembed.dataset import default_synthetic_spec, generate_synthetic
from mlembed.errors import ConfigError, TrainingAbort
from mlembed.model import EmbeddingModel, EncoderConfig
from mlembed.numeric import ParamStore
from mlembed import trainer
from mlembed.trainer import TrainConfig, lr_schedule, sgd_step, train
from oracles import frozen_metric_batch_step, frozen_pretrain_batch_step, momentum_recurrence


def tiny_splits(seed=21):
    spec = default_synthetic_spec(
        label_count=3,
        feature_dim=8,
        train_examples=80,
        val_examples=40,
        test_examples=40,
        seed=seed,
    )
    return generate_synthetic(spec)


def tiny_config(**overrides):
    base = dict(
        loss="ml2plus",
        batch_size=4,
        iterations=30,
        eval_every=10,
        lr_decay_period=10,
        seed=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


TINY_ENCODER = EncoderConfig(input_dim=8, hidden_sizes=(12,), embedding_dim=6, seed=2)


class TestSgdStep:
    def test_plain_gradient_descent(self):
        ps = ParamStore()
        ps.add("w", np.array([1.0, -2.0]))
        ps.grad("w")[...] = np.array([0.5, 0.5])
        sgd_step(ps, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert np.allclose(ps.value("w"), [0.95, -2.05])

    def test_zero_gradient_leaves_params(self):
        ps = ParamStore()
        ps.add("w", np.array([3.0]))
        sgd_step(ps, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert np.array_equal(ps.value("w"), [3.0])

    def test_quadratic_bowl_matches_recurrence(self):
        lr, momentum, steps = 0.1, 0.9, 10
        ps = ParamStore()
        ps.add("theta", np.array([2.0]))
        expected = momentum_recurrence(2.0, lr, momentum, steps)
        for step in range(steps):
            ps.zero_grads()
            ps.grad("theta")[...] = ps.value("theta")  # grad of theta^2/2
            sgd_step(ps, lr=lr, momentum=momentum, weight_decay=0.0)
            assert abs(ps.value("theta")[0] - expected[step]) <= 1e-15

    def test_weight_decay_shrinks_norm(self):
        ps = ParamStore()
        ps.add("w", np.array([1.0, -1.0, 2.0]))
        norms = [float(np.linalg.norm(ps.value("w")))]
        for _ in range(5):
            ps.zero_grads()
            sgd_step(ps, lr=0.1, momentum=0.0, weight_decay=0.01)
            norms.append(float(np.linalg.norm(ps.value("w"))))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_non_finite_gradient_aborts(self):
        ps = ParamStore()
        ps.add("w", np.array([1.0]))
        ps.grad("w")[...] = np.array([np.nan])
        with pytest.raises(TrainingAbort, match="non-finite"):
            sgd_step(ps, lr=0.1, momentum=0.0, weight_decay=0.0)


class TestLrSchedule:
    def test_initial_value(self):
        assert lr_schedule(0, 0.01, 0.1, 25_000) == 0.01

    def test_first_decay(self):
        assert lr_schedule(25_000, 0.01, 0.1, 25_000) == pytest.approx(0.001)

    def test_second_decay(self):
        assert lr_schedule(50_000, 0.01, 0.1, 25_000) == pytest.approx(0.0001)

    def test_piecewise_constant_non_increasing(self):
        values = [lr_schedule(i, 0.01, 0.1, 7) for i in range(50)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert len(set(values)) == len(set(i // 7 for i in range(50)))


class TestTrain:
    def test_zero_iterations_returns_initial_model(self):
        splits = tiny_splits()
        cfg = tiny_config(iterations=0)
        model, report = train(splits, cfg, TINY_ENCODER)
        fresh_params = EmbeddingModel(TINY_ENCODER).params
        for name in model.params.names():
            assert np.array_equal(model.params.value(name), fresh_params.value(name))
        assert report.points == []
        assert report.best_checkpoint is None

    def test_deterministic_given_seed(self, tmp_path):
        splits = tiny_splits()
        results = []
        for run in ("a", "b"):
            model, report = train(splits, tiny_config(), TINY_ENCODER, run_dir=tmp_path / run)
            results.append((model, report))
        (m1, r1), (m2, r2) = results
        assert r1.report_dict() == r2.report_dict()
        for name in m1.params.names():
            assert np.array_equal(m1.params.value(name), m2.params.value(name))
        ckpt = r1.best_checkpoint + ".ckpt"
        assert (tmp_path / "a" / ckpt).read_bytes() == (tmp_path / "b" / ckpt).read_bytes()
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_best_checkpoint_is_argmax_with_earliest_tie(self):
        splits = tiny_splits()
        _, report = train(splits, tiny_config(), TINY_ENCODER)
        scored = [p for p in report.points if p.val_nmi is not None]
        best = max(scored, key=lambda p: p.val_nmi)
        firsts = [p for p in scored if p.val_nmi == best.val_nmi]
        assert report.best_iteration == firsts[0].iteration
        assert report.best_val_nmi == best.val_nmi
        assert report.best_checkpoint == f"iter-{firsts[0].iteration:06d}"

    def test_pretrain_phase_precedes_metric(self):
        splits = tiny_splits()
        cfg = tiny_config(pretrain=True, pretrain_iterations=20)
        _, report = train(splits, cfg, TINY_ENCODER)
        phases = [p.phase for p in report.points]
        assert "pretrain" in phases and "metric" in phases
        switch = phases.index("metric")
        assert all(ph == "pretrain" for ph in phases[:switch])
        assert all(ph == "metric" for ph in phases[switch:])
        for p in report.points:
            if p.phase == "pretrain":
                assert p.val_nmi is None
            else:
                assert p.val_nmi is not None

    def test_pretrain_loss_decreases(self):
        splits = tiny_splits()
        cfg = tiny_config(pretrain=True, pretrain_iterations=60, iterations=10)
        _, report = train(splits, cfg, TINY_ENCODER)
        pre = [p.train_loss for p in report.points if p.phase == "pretrain"]
        assert pre[-1] < pre[0]

    def test_run_dir_artifacts(self, tmp_path):
        splits = tiny_splits()
        run_dir = tmp_path / "run"
        _, report = train(splits, tiny_config(), TINY_ENCODER, run_dir=run_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        report_file = json.loads((run_dir / "report.json").read_text())
        assert manifest["best_iteration"] == report.best_iteration
        assert manifest["train_config"]["loss"] == "ml2plus"
        assert "wall_clock_seconds" in manifest
        assert "wall_clock_seconds" not in report_file
        assert (run_dir / manifest["checkpoint"]).exists()

    def test_every_regime_trains(self):
        splits = tiny_splits()
        for regime, batch in (("contrastive", 8), ("triplet", 8), ("ml2", 4), ("ml2plus", 4)):
            cfg = tiny_config(loss=regime, batch_size=batch, iterations=10, eval_every=5)
            _, report = train(splits, cfg, TINY_ENCODER)
            assert report.best_val_nmi is not None
            assert all(np.isfinite(p.train_loss) for p in report.points)

    def test_sampler_exhaustion_aborts_with_report(self):
        splits = tiny_splits()
        cfg = tiny_config(batch_size=len(splits.train) + 1)
        with pytest.raises(TrainingAbort, match="sampler") as excinfo:
            train(splits, cfg, TINY_ENCODER)
        assert excinfo.value.report is not None
        assert excinfo.value.report.points == []

    def test_invalid_config_rejected(self):
        splits = tiny_splits()
        with pytest.raises(ConfigError):
            train(splits, tiny_config(loss="nope"), TINY_ENCODER)
        with pytest.raises(ConfigError):
            train(splits, tiny_config(momentum=1.5), TINY_ENCODER)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("iterations", "abc"),
            ("iterations", 2.5),
            ("iterations", True),
            ("batch_size", "4"),
            ("learning_rate", "0.1"),
            ("learning_rate", float("nan")),
            ("margin", float("inf")),
            ("momentum", None),
            ("loss", 3),
            ("pretrain", 1),
            ("seed", -1),
            ("eval_every", [10]),
        ],
    )
    def test_ill_typed_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            tiny_config(**{key: value}).validate()

    def test_int_accepted_for_float_field(self):
        cfg = tiny_config(learning_rate=1, margin=1)
        cfg.validate()

    def test_mismatched_head_count_rejected(self):
        splits = tiny_splits()
        enc = EncoderConfig(
            input_dim=8, hidden_sizes=(12,), embedding_dim=6, label_count=7, seed=2
        )
        with pytest.raises(ConfigError, match="label_count"):
            train(splits, tiny_config(pretrain=True), enc)


class _HalfWriter:
    """A file that takes half of what it is given, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestAtomicRunFiles:
    """A run-dir write that fails partway leaves no partial file at its
    target and no temporary file; a file already there keeps its bytes."""

    @pytest.mark.parametrize("target", ["checkpoint", "report.json", "manifest.json"])
    def test_failed_write_leaves_no_partial_or_temp_file(self, tmp_path, monkeypatch, target):
        cfg = tiny_config()
        model, report = train(tiny_splits(), cfg, TINY_ENCODER)
        name = report.best_checkpoint + ".ckpt" if target == "checkpoint" else target
        real_open = Path.open

        def failing_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return _HalfWriter(fh) if "w" in mode and name in path.name else fh

        def emit_failing(run_dir):
            with monkeypatch.context() as patch:
                patch.setattr(Path, "open", failing_open)
                with pytest.raises(OSError, match="No space"):
                    trainer.emit_run(run_dir, model, report, cfg, TINY_ENCODER)

        emit_failing(tmp_path / "fresh")
        assert name not in {p.name for p in (tmp_path / "fresh").iterdir()}
        assert not [p for p in (tmp_path / "fresh").iterdir() if p.name.endswith(".tmp")]

        trainer.emit_run(tmp_path / "done", model, report, cfg, TINY_ENCODER)
        before = {p.name: p.read_bytes() for p in (tmp_path / "done").iterdir()}
        emit_failing(tmp_path / "done")
        assert {p.name: p.read_bytes() for p in (tmp_path / "done").iterdir()} == before


class TestArrayPathMatchesPerItemPath:
    """Training through the array path and through the frozen per-item
    steps gives the same report and the same parameter bytes."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(loss="ml2plus", pretrain=True, pretrain_iterations=40),
            dict(loss="ml2"),
            dict(loss="contrastive"),
            dict(loss="triplet"),
        ],
    )
    @pytest.mark.parametrize("data", ["tiny", "default"])
    def test_identical_parameters(self, monkeypatch, default_splits, overrides, data):
        if data == "tiny":
            splits, encoder = tiny_splits(), TINY_ENCODER
        else:
            splits = default_splits
            encoder = EncoderConfig(input_dim=32, hidden_sizes=(16,), embedding_dim=8, seed=4)
        settings = dict(iterations=80, eval_every=40, batch_size=10, **overrides)
        model, report = train(splits, tiny_config(**settings), encoder)
        monkeypatch.setattr(trainer, "_metric_batch_step", frozen_metric_batch_step)
        monkeypatch.setattr(trainer, "_pretrain_batch_step", frozen_pretrain_batch_step)
        ref_model, ref_report = train(splits, tiny_config(**settings), encoder)
        assert report.report_dict() == ref_report.report_dict()
        for name in ref_model.params.names():
            assert model.params.value(name).tobytes() == ref_model.params.value(name).tobytes()

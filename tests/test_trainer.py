import errno
import json
from pathlib import Path

import numpy as np
import pytest

from mlembed.dataset import (
    Dataset, DatasetSplits, SyntheticSpec, generate_synthetic, labels_to_matrix,
)
from mlembed.errors import ConfigError, SamplingError, TrainingAbort
from mlembed.evaluation import label_set_clusters
from mlembed.losses import pretrain_batch_loss
from mlembed.model import EmbeddingModel, EncoderConfig
from mlembed.numeric import ParamStore
from mlembed import trainer
from mlembed.cli import main
from mlembed.sampler import build_minibatch
from mlembed.trainer import TrainConfig, lr_schedule, sgd_step, train
from oracles import momentum_recurrence


def tiny_splits(seed=21):
    spec = SyntheticSpec(
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

    def test_non_finite_gradient_in_later_slot_leaves_every_slot_untouched(self):
        model = EmbeddingModel(TINY_ENCODER)
        params = model.params
        rng = np.random.default_rng(3)
        params.grads[:] = rng.standard_normal(params.grads.size)
        sgd_step(params, lr=0.1, momentum=0.9, weight_decay=1e-4)  # nonzero momentum
        params.grads[:] = rng.standard_normal(params.grads.size)
        params.grad("proj_W")[2, 1] = np.nan
        values, momenta = params.values.tobytes(), params.momenta.tobytes()
        with pytest.raises(TrainingAbort, match="'proj_W'"):
            sgd_step(params, lr=0.1, momentum=0.9, weight_decay=1e-4)
        assert params.values.tobytes() == values
        assert params.momenta.tobytes() == momenta


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

    def test_returns_and_saves_best_weights_not_last(self, tmp_path):
        splits = tiny_splits()
        # precondition: the last point scores below the best one; the first
        # training seed from 5 on that gives such a run
        for seed in range(5, 25):
            cfg = tiny_config(seed=seed)
            model, report = train(splits, cfg, TINY_ENCODER, run_dir=tmp_path)
            if report.points[-1].val_nmi < report.best_val_nmi:
                break
        else:
            pytest.fail("no training seed in 5..24 ends below its best point")
        assert report.best_iteration < cfg.iterations
        kmeans_seed = int(np.random.SeedSequence(cfg.seed).spawn(4)[3].generate_state(1)[0])
        loaded = EmbeddingModel.load(tmp_path / (report.best_checkpoint + ".ckpt"))
        clusters = label_set_clusters(splits.val.label_matrix)
        for scored in (model, loaded):
            val_nmi, _ = trainer._validation_scores(scored, splits.val, clusters, kmeans_seed)
            assert val_nmi == report.best_val_nmi

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

    def test_batches_do_not_depend_on_iterations(self):
        # the metric phase draws whole blocks of DRAW_ANCHORS // 4 = 160
        # steps, so a 150-step run trains on the first steps of a 300-step one
        splits = tiny_splits()
        short, long = (train(splits, tiny_config(iterations=n, eval_every=50), TINY_ENCODER)[1]
                       for n in (150, 300))
        assert len(short.points) == 3 and len(long.points) == 6
        assert short.points == long.points[:3]

    def test_step_that_cannot_be_filled_aborts_at_that_step(self):
        # batch size 1 on ML2PLUS_P12: a step fails when both n0a and n0b
        # are rejected, about one step in nine, part way through the block
        ids, label_sets = ["p1a", "p1b", "p12", "n0a", "n0b"], [{1}, {1}, {1, 2}, {0}, {0}]
        ds = Dataset(ids, np.random.default_rng(4).standard_normal((5, 8)),
                     labels_to_matrix(ids, label_sets, 3))
        cfg = tiny_config(batch_size=1, iterations=2 * trainer.DRAW_ANCHORS, eval_every=1)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[1])
        with pytest.raises(SamplingError) as drawn:
            build_minibatch(ds, 1, "ml2plus", rng, trainer.DRAW_ANCHORS)
        stop = len(drawn.value.batch.p)
        assert 2 <= stop < trainer.DRAW_ANCHORS  # the precondition for seed 5
        with pytest.raises(TrainingAbort) as excinfo:
            train(DatasetSplits(train=ds, val=ds), cfg, TINY_ENCODER)
        assert str(excinfo.value) == f"metric phase: sampler exhausted: {drawn.value}"
        points = excinfo.value.report.points
        assert [p.iteration for p in points] == list(range(1, stop + 1))
        assert all(np.isfinite(p.train_loss) for p in points)

    def test_pretrain_batch_beyond_split_aborts_with_report(self):
        splits = tiny_splits()
        cfg = tiny_config(pretrain=True, batch_size=len(splits.train) + 1)
        with pytest.raises(TrainingAbort, match="pretrain phase: sampler exhausted") as excinfo:
            train(splits, cfg, TINY_ENCODER)
        assert excinfo.value.report.points == []

    def test_non_finite_pretrain_loss_aborts_with_report(self, monkeypatch):
        calls = []

        def poisoned(log_probs, labels):
            values, G = pretrain_batch_loss(log_probs, labels)
            calls.append(None)
            return (values * np.nan if len(calls) > 12 else values), G

        monkeypatch.setattr(trainer, "pretrain_batch_loss", poisoned)
        cfg = tiny_config(pretrain=True, pretrain_iterations=20)
        with pytest.raises(
            TrainingAbort, match="pretrain phase: non-finite loss at iteration 12"
        ) as excinfo:
            train(tiny_splits(), cfg, TINY_ENCODER)
        report = excinfo.value.report
        assert [(p.phase, p.iteration) for p in report.points] == [("pretrain", 10)]
        assert report.best_checkpoint is None

    @pytest.mark.parametrize("slot", ["anchor", "positive", "negative"])
    @pytest.mark.parametrize("regime", ["triplet", "ml2", "ml2plus"])
    def test_nan_embedding_aborts_at_the_loss_check(self, monkeypatch, regime, slot):
        # The group kernel keeps a NaN embedding in the loss value, so the
        # run stops at its loss check, not at sgd_step's gradient check.
        splits = tiny_splits()
        width = 3 if regime == "triplet" else 1 + splits.train.label_count
        row = {"anchor": 0, "positive": 1, "negative": width - 1}[slot]
        embed = EmbeddingModel.embed

        def poisoned(model, X):
            E, cache = embed(model, X)
            E[row] = np.nan
            return E, cache

        monkeypatch.setattr(EmbeddingModel, "embed", poisoned)
        with pytest.raises(TrainingAbort, match="metric phase: non-finite loss at iteration 0"):
            train(splits, tiny_config(loss=regime), TINY_ENCODER)

    def test_invalid_config_rejected(self):
        splits = tiny_splits()
        with pytest.raises(ConfigError):
            train(splits, tiny_config(loss="nope"), TINY_ENCODER)
        with pytest.raises(ConfigError):
            train(splits, tiny_config(momentum=1.5), TINY_ENCODER)

    def test_empty_training_split_rejected(self):
        splits = tiny_splits()
        empty = Dataset([], np.zeros((0, 8)), np.zeros((0, 3), dtype=bool))
        with pytest.raises(ConfigError, match="^training split is empty$"):
            train(DatasetSplits(train=empty, val=splits.val), tiny_config(), TINY_ENCODER)

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
            ("batch_size", 0),
            ("iterations", -1),
            ("learning_rate", 0.0),
            ("weight_decay", -1e-4),
            ("lr_decay_period", 0),
            ("lr_decay_factor", 0.0),
            ("lr_decay_factor", 1.5),
            ("margin", 0.0),
            ("eval_every", 0),
            ("pretrain_iterations", -1),
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

    @pytest.mark.parametrize("target", ["train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"])
    def test_failed_gen_data_write_leaves_no_partial_or_temp_file(
        self, tmp_path, monkeypatch, target
    ):
        config = tmp_path / "config.json"
        data = {"label_count": 3, "feature_dim": 4, "train_examples": 40, "val_examples": 10}
        config.write_text(json.dumps({"data": data}))
        real_open = Path.open

        def failing_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return _HalfWriter(fh) if "w" in mode and target in path.name else fh

        def gen_data_failing(out):
            with monkeypatch.context() as patch:
                patch.setattr(Path, "open", failing_open)
                assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 2

        gen_data_failing(tmp_path / "fresh")
        assert target not in {p.name for p in (tmp_path / "fresh").iterdir()}
        assert not [p for p in (tmp_path / "fresh").iterdir() if p.name.endswith(".tmp")]

        assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "done")]) == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "done").iterdir()}
        gen_data_failing(tmp_path / "done")
        assert {p.name: p.read_bytes() for p in (tmp_path / "done").iterdir()} == before


    @pytest.mark.parametrize("command", ["eval", "embed", "project"])
    def test_failed_command_output_write_leaves_no_partial_or_temp_file(
        self, tmp_path, monkeypatch, command
    ):
        config = tmp_path / "config.json"
        data = {"label_count": 3, "feature_dim": 4, "train_examples": 40, "val_examples": 10,
                "test_examples": 10}
        config.write_text(json.dumps({"data": data, "train": {"iterations": 10, "batch_size": 4}}))
        data_dir, run_dir = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--config", str(config), "--out", str(data_dir)]) == 0
        assert main(["train", "--config", str(config), "--data", str(data_dir),
                     "--run-dir", str(run_dir)]) == 0
        checkpoint = run_dir / json.loads((run_dir / "manifest.json").read_text())["checkpoint"]
        out = tmp_path / "out" / f"{command}.out"
        out.parent.mkdir()
        args = [command, "--checkpoint", str(checkpoint), "--data", str(data_dir), "--out", str(out)]
        real_open = Path.open

        def failing_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return _HalfWriter(fh) if "w" in mode and out.name in path.name else fh

        def command_failing():
            with monkeypatch.context() as patch:
                patch.setattr(Path, "open", failing_open)
                assert main(args) == 2

        command_failing()
        assert list(out.parent.iterdir()) == []

        assert main(args) == 0
        before = out.read_bytes()
        command_failing()
        assert [p.name for p in out.parent.iterdir()] == [out.name]
        assert out.read_bytes() == before

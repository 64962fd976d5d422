"""Acceptance suite: one test per criterion, each printing a PASS line.

Desk-scale calibration (recorded here and in the README):

* Synthetic default: 5 labels (label 0 exclusive "normal"), 32 features,
  2000/500/500 splits, noise sigma 0.15, co-occurring pairs (1,2) and (3,4).
* Raw-feature oracles computed first: nearest-label-set-prototype NMI must
  reach >= 0.90 on the test split and a raw-feature logistic probe must
  reach F1 >= 0.97; the trained-model thresholds (test NMI >= 0.6, probe
  F1 >= 0.95) only bind when the oracles certify the data is separable.
* Training analogue: 5 seeds, 3000 iterations, batch 10 (overlap losses)
  or 36 (pair/triplet baselines), lr 0.01 decayed 10x every 1000, momentum
  0.9, weight decay 1e-4, margin 0.2, model selection by validation NMI.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import json
import math
import time

import numpy as np
import pytest

from mlembed.cli import main as cli_main
from mlembed.errors import GroupRejected
from mlembed.evaluation import (
    kmeans,
    label_set_clusters,
    logistic_probe,
    nmi,
    recall_at_k,
)
from mlembed.losses import (
    LossConfig,
    contrastive_loss,
    group_loss,
    max_negative,
    ml2_loss,
    ml2plus_loss,
    overlap_tau,
    pretrain_loss,
    smooth_max_negative,
    triplet_loss,
)
from mlembed.model import EmbeddingModel, EncoderConfig
from mlembed.numeric import ParamStore, check_gradient
from mlembed.sampler import build_minibatch, sample_group_ml2, sample_group_ml2plus
from mlembed.trainer import TrainConfig, train
from oracles import (
    brute_force_group_loss,
    brute_force_recall_at_k,
    log_softmax_pairs,
    nearest_label_set_partition,
    random_unit,
)

CFG = LossConfig(margin=0.2)
SEEDS = (0, 1, 2, 3, 4)

# thresholds pinned by the acceptance contract
ORACLE_NMI_FLOOR = 0.90
MODEL_TEST_NMI_FLOOR = 0.60
ORACLE_F1_FLOOR = 0.97
MODEL_F1_FLOOR = 0.95
PRETRAIN_TOLERANCE = 0.02
MAX_SECONDS_PER_RUN = 600.0


def _train_runs(splits, loss, batch_size, pretrain=False):
    runs = []
    for seed in SEEDS:
        cfg = TrainConfig(
            loss=loss,
            batch_size=batch_size,
            iterations=3000,
            eval_every=100,
            lr_decay_period=1000,
            seed=seed,
            pretrain=pretrain,
            pretrain_iterations=1000,
        )
        enc = EncoderConfig(input_dim=32, hidden_sizes=(64, 64), embedding_dim=64, seed=seed)
        model, report = train(splits, cfg, enc)
        assert report.wall_clock_seconds <= MAX_SECONDS_PER_RUN
        runs.append((model, report))
    return runs


@pytest.fixture(scope="session")
def ml2plus_runs(default_splits):
    return _train_runs(default_splits, "ml2plus", 10)


@pytest.fixture(scope="session")
def contrastive_runs(default_splits):
    return _train_runs(default_splits, "contrastive", 36)


@pytest.fixture(scope="session")
def ml2plus_pretrained_runs(default_splits):
    return _train_runs(default_splits, "ml2plus", 10, pretrain=True)


def _best_point(report):
    return next(p for p in report.points if p.iteration == report.best_iteration
                and p.phase == "metric")


def _test_nmi(model, ds):
    E, _ = model.embed(ds.feature_matrix())
    truth, k = label_set_clusters(ex.labels for ex in ds.examples)
    return nmi(kmeans(E, k, seed=0).assignment, truth)


def test_criterion_1_formula_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        p, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = random_unit(rng, 8)
        P = np.stack([random_unit(rng, 8) for _ in range(p)])
        N = np.stack([random_unit(rng, 8) for _ in range(n)])
        value = group_loss(a, P, N, CFG).value
        assert abs(value - brute_force_group_loss(a, P, N, CFG.margin)) <= 1e-12

    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        a = random_unit(rng, 6)
        N = np.stack([random_unit(rng, 6) for _ in range(n)])
        lower = max_negative(a, N, CFG)
        smooth = smooth_max_negative(a, N, CFG).value
        assert lower - 1e-12 <= smooth <= lower + math.log(n) + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: formula oracles exact to 1e-12 ({elapsed:.1f}s)")


def _grad_check(fn, arrays, step=1e-5):
    ps = ParamStore()
    for name, arr in arrays.items():
        ps.add(name, arr)

    def f(store):
        value, grads = fn({name: store.value(name) for name in arrays})
        for name, g in grads.items():
            store.grad(name)[...] += g
        return value

    return check_gradient(f, ps, step)


def _non_kink_draw(rng, dim, p, n, margin):
    while True:
        a = random_unit(rng, dim)
        P = np.stack([random_unit(rng, dim) for _ in range(p)])
        N = np.stack([random_unit(rng, dim) for _ in range(n)])
        taus = rng.uniform(0, 1, size=p)
        d_p = np.linalg.norm(a - P, axis=1)
        d_n = np.linalg.norm(a - N, axis=1)
        if d_p.min() < 1e-3 or d_n.min() < 1e-3:
            continue
        lse = math.log(np.sum(np.exp(margin - d_n)))
        if np.abs(d_p - margin * taus + lse).min() < 1e-3:
            continue
        if np.abs(d_p[:, None] - d_n[None, :] + margin).min() < 1e-3:
            continue
        return a, P, N, taus


def _check_triplet(rng):
    a, P, N, _ = _non_kink_draw(rng, 4, 1, 1, CFG.margin)

    def fn(vals):
        out = triplet_loss(vals["a"], vals["p"], vals["n"], CFG)
        return out.value, {"a": out.anchor_grad, "p": out.positive_grad, "n": out.negative_grad}

    return _grad_check(fn, {"a": a, "p": P[0], "n": N[0]})


def _check_group(rng):
    a, P, N, _ = _non_kink_draw(rng, 4, 2, 2, CFG.margin)

    def fn(vals):
        out = group_loss(vals["a"], vals["P"], vals["N"], CFG)
        return out.value, {"a": out.anchor_grad, "P": out.positive_grads, "N": out.negative_grads}

    return _grad_check(fn, {"a": a, "P": P, "N": N})


def _check_smooth_max(rng):
    a, _, N, _ = _non_kink_draw(rng, 4, 1, 3, CFG.margin)

    def fn(vals):
        out = smooth_max_negative(vals["a"], vals["N"], CFG)
        return out.value, {"a": out.anchor_grad, "N": out.negative_grads}

    return _grad_check(fn, {"a": a, "N": N})


def _check_ml2(rng):
    a, P, N, taus = _non_kink_draw(rng, 4, 2, 2, CFG.margin)

    def fn(vals):
        out = ml2_loss(vals["a"], vals["P"], vals["N"], taus, CFG)
        return out.value, {"a": out.anchor_grad, "P": out.positive_grads, "N": out.negative_grads}

    return _grad_check(fn, {"a": a, "P": P, "N": N})


def _check_ml2plus(rng):
    # anchor {1, 2}, single-label positives {1} and {2}, so tau = 1/2
    while True:
        a, P, N, _ = _non_kink_draw(rng, 4, 2, 2, CFG.margin)
        lse = math.log(np.sum(np.exp(CFG.margin - np.linalg.norm(a - N, axis=1))))
        hinges = np.linalg.norm(a - P, axis=1) - CFG.margin * 0.5 + lse
        if np.abs(hinges).min() > 1e-3:
            break

    def fn(vals):
        out = ml2plus_loss(vals["a"], vals["P"], vals["N"], CFG)
        return out.value, {"a": out.anchor_grad, "P": out.positive_grads, "N": out.negative_grads}

    return _grad_check(fn, {"a": a, "P": P, "N": N})


def _check_contrastive(rng, same):
    cfg = CFG if same else LossConfig(margin=1.5)
    while True:
        x1, x2 = random_unit(rng, 4), random_unit(rng, 4)
        d = float(np.linalg.norm(x1 - x2))
        if d < 1e-3 or (not same and abs(cfg.margin - d) < 1e-3):
            continue
        break

    def fn(vals):
        out = contrastive_loss(vals["x1"], vals["x2"], same, cfg)
        return out.value, {"x1": out.grad_first, "x2": out.grad_second}

    return _grad_check(fn, {"x1": x1, "x2": x2})


def _check_pretrain(rng):
    logits = rng.standard_normal((3, 2))
    labels = {int(rng.integers(3))}

    def fn(vals):
        out = pretrain_loss(log_softmax_pairs(vals["z"]), labels, 3)
        return out.value, {"z": out.logit_grads}

    return _grad_check(fn, {"z": logits})


def _check_encoder_embed(rng):
    enc = EncoderConfig(input_dim=4, hidden_sizes=(5, 4), embedding_dim=3,
                        seed=int(rng.integers(2**31)))
    model = EmbeddingModel(enc)
    taus = rng.uniform(0, 1, size=1)
    while True:
        X = rng.standard_normal((4, 4))
        E, _ = model.embed(X)
        d_p = np.linalg.norm(E[0] - E[1])
        d_n = np.linalg.norm(E[0] - E[2:4], axis=1)
        if d_p < 1e-3 or d_n.min() < 1e-3:
            continue
        lse = math.log(np.sum(np.exp(CFG.margin - d_n)))
        if abs(d_p - CFG.margin * taus[0] + lse) > 1e-3:
            break

    def f(_store):
        E, cache = model.embed(X)
        out = ml2_loss(E[0], E[1:2], E[2:4], taus, CFG)
        G = np.zeros_like(E)
        G[0] = out.anchor_grad
        G[1:2] = out.positive_grads
        G[2:4] = out.negative_grads
        model.backward_embed(cache, G)
        return out.value

    return check_gradient(f, model.params)


def _check_encoder_classify(rng):
    enc = EncoderConfig(input_dim=4, hidden_sizes=(5,), embedding_dim=3,
                        label_count=2, seed=int(rng.integers(2**31)))
    model = EmbeddingModel(enc)
    X = rng.standard_normal((3, 4))
    label_sets = [{0}, {1}, {0, 1}]

    def f(_store):
        lp, cache = model.classify(X)
        G = np.zeros_like(lp)
        total = 0.0
        for row, labels in enumerate(label_sets):
            out = pretrain_loss(lp[row], labels, 2)
            total += out.value
            G[row] = out.logit_grads
        model.backward_classify(cache, G)
        return total

    return check_gradient(f, model.params)


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    checks = {
        "triplet": _check_triplet,
        "group": _check_group,
        "smooth_max_negative": _check_smooth_max,
        "ml2": _check_ml2,
        "ml2plus": _check_ml2plus,
        "contrastive_same": lambda rng: _check_contrastive(rng, True),
        "contrastive_diff": lambda rng: _check_contrastive(rng, False),
        "pretrain": _check_pretrain,
        "encoder_embed": _check_encoder_embed,
        "encoder_classify": _check_encoder_classify,
    }
    worst = {}
    for index, (name, check) in enumerate(checks.items()):
        rng = np.random.default_rng(1000 + index)
        errs = [check(rng) for _ in range(100)]
        worst[name] = max(errs)
        assert worst[name] <= 1e-4, f"{name}: max rel error {worst[name]:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    summary = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    print(f"\nACCEPTANCE 2 PASS: gradient suite <= 1e-4 ({elapsed:.1f}s; {summary})")


def test_criterion_3_tau_properties(default_splits):
    rng = np.random.default_rng(103)
    for _ in range(10_000):
        size_a = int(rng.integers(1, 8))
        size_b = int(rng.integers(1, 8))
        a = set(int(x) for x in rng.choice(10, size=size_a, replace=False))
        b = set(int(x) for x in rng.choice(10, size=size_b, replace=False))
        tau = overlap_tau(a, b)
        assert 0.0 <= tau <= 1.0
        assert tau == overlap_tau(b, a)
        assert (tau == 0.0) == (a == b)
        assert (tau == 1.0) == (not a & b)
        assert abs(tau - (1.0 - len(a & b) / len(a | b))) <= 1e-15

    ds = default_splits.train
    checked = 0
    for pos in rng.permutation(len(ds))[:300]:
        try:
            _, p, taus = sample_group_ml2plus(ds, int(pos), rng)
        except GroupRejected:
            continue
        assert p == len(ds.examples[int(pos)].labels)
        assert taus == [(p - 1) / p] * p + [0.0] * (ds.label_count - p)
        checked += 1
    assert checked >= 200
    print(f"\nACCEPTANCE 3 PASS: tau properties on 10k pairs; {checked} ML2+ groups exact")


def test_criterion_4_sampler_contract(default_splits):
    ds = default_splits.train
    l = ds.label_count

    def one_epoch(seed):
        rng = np.random.default_rng(seed)
        signatures = []
        for pos in rng.permutation(len(ds)):
            anchor = ds.examples[int(pos)]
            for regime, sample in (("ml2", sample_group_ml2), ("ml2plus", sample_group_ml2plus)):
                try:
                    row, p, _ = sample(ds, int(pos), rng)
                except GroupRejected:
                    signatures.append((regime, anchor.id, None))
                    continue
                assert row[0] == pos and len(row) == 1 + l
                ids = [ds.examples[i].id for i in row[1:]]
                assert anchor.id not in ids and len(ids) == len(set(ids))
                for pos_ex in (ds.examples[i] for i in row[1 : 1 + p]):
                    assert pos_ex.labels & anchor.labels
                    if regime == "ml2plus":
                        assert len(pos_ex.labels) == 1
                for neg_ex in (ds.examples[i] for i in row[1 + p :]):
                    assert not (neg_ex.labels & anchor.labels)
                signatures.append((regime, anchor.id, tuple(ids)))
        return signatures

    first = one_epoch(104)
    second = one_epoch(104)
    assert first == second
    assert len(first) == 2 * len(ds)
    print(f"\nACCEPTANCE 4 PASS: sampler contract over a full epoch ({len(ds)} anchors, both regimes)")


def test_criterion_5_training_analogue(default_splits, default_spec, ml2plus_runs, contrastive_runs):
    # Oracle first: raw features must make the label sets recoverable.
    test_ds = default_splits.test
    assignment, _ = nearest_label_set_partition(test_ds, default_spec.prototypes)
    truth, _ = label_set_clusters(ex.labels for ex in test_ds.examples)
    oracle_nmi = nmi(np.array(assignment), truth)
    assert oracle_nmi >= ORACLE_NMI_FLOOR, f"oracle NMI {oracle_nmi:.3f}"

    ml2plus_val_nmi = np.mean([r.best_val_nmi for _, r in ml2plus_runs])
    ml2plus_val_r1 = np.mean([_best_point(r).val_recall1 for _, r in ml2plus_runs])
    contrastive_val_nmi = np.mean([r.best_val_nmi for _, r in contrastive_runs])
    contrastive_val_r1 = np.mean([_best_point(r).val_recall1 for _, r in contrastive_runs])
    assert ml2plus_val_nmi >= contrastive_val_nmi
    assert ml2plus_val_r1 >= contrastive_val_r1

    test_nmis = [_test_nmi(model, test_ds) for model, _ in ml2plus_runs]
    mean_test_nmi = float(np.mean(test_nmis))
    assert mean_test_nmi >= MODEL_TEST_NMI_FLOOR

    print(
        f"\nACCEPTANCE 5 PASS: oracle NMI {oracle_nmi:.3f} >= {ORACLE_NMI_FLOOR}; "
        f"ML2+ val NMI {ml2plus_val_nmi:.3f} vs contrastive {contrastive_val_nmi:.3f}; "
        f"ML2+ val R@1 {ml2plus_val_r1:.3f} vs contrastive {contrastive_val_r1:.3f}; "
        f"ML2+ test NMI {mean_test_nmi:.3f} >= {MODEL_TEST_NMI_FLOOR}"
    )


def test_criterion_6_pretraining_analogue(ml2plus_runs, ml2plus_pretrained_runs):
    scratch = float(np.mean([r.best_val_nmi for _, r in ml2plus_runs]))
    pretrained = float(np.mean([r.best_val_nmi for _, r in ml2plus_pretrained_runs]))
    assert pretrained >= scratch - PRETRAIN_TOLERANCE
    print(
        f"\nACCEPTANCE 6 PASS: pretrained ML2+ val NMI {pretrained:.3f} "
        f">= scratch {scratch:.3f} - {PRETRAIN_TOLERANCE}"
    )


def test_criterion_7_classification_probe(default_splits, ml2plus_runs):
    train_ds, test_ds = default_splits.train, default_splits.test
    train_y = np.array([0.0 if 0 in ex.labels else 1.0 for ex in train_ds.examples])
    test_y = np.array([0.0 if 0 in ex.labels else 1.0 for ex in test_ds.examples])

    # Oracle first: raw features must support the normal-vs-abnormal task.
    raw = logistic_probe(train_ds.feature_matrix(), train_y, test_ds.feature_matrix(), test_y)
    assert raw.f1 >= ORACLE_F1_FLOOR, f"raw-feature oracle F1 {raw.f1:.3f}"

    f1s = []
    for model, _ in ml2plus_runs:
        train_E, _ = model.embed(train_ds.feature_matrix())
        test_E, _ = model.embed(test_ds.feature_matrix())
        f1s.append(logistic_probe(train_E, train_y, test_E, test_y).f1)
    mean_f1 = float(np.mean(f1s))
    assert mean_f1 >= MODEL_F1_FLOOR
    print(
        f"\nACCEPTANCE 7 PASS: raw oracle F1 {raw.f1:.3f} >= {ORACLE_F1_FLOOR}; "
        f"ML2+ embedding probe F1 {mean_f1:.3f} >= {MODEL_F1_FLOOR}"
    )


def test_criterion_8_evaluation_correctness():
    # NMI hand-computed contingency: all four cells equal, information zero.
    pred = np.array([0, 0, 1, 1])
    truth = np.array([0, 1, 0, 1])
    assert abs(nmi(pred, truth) - 0.0) <= 1e-12
    ident = np.array([0, 0, 1, 1])
    assert abs(nmi(pred, ident) - 1.0) <= 1e-12

    rng = np.random.default_rng(108)
    X = rng.standard_normal((200, 8))
    labels = [
        set(int(x) for x in rng.choice(5, size=rng.integers(1, 3), replace=False))
        for _ in range(200)
    ]
    for k in (1, 2, 4, 8):
        assert recall_at_k(X, labels, k) == brute_force_recall_at_k(X, labels, k)

    for seed in range(10):
        data = rng.standard_normal((80, 6))
        hist = kmeans(data, k=6, seed=seed).objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    print("\nACCEPTANCE 8 PASS: NMI exact, Recall@K == brute force on 200 points, k-means monotone")


def test_criterion_9_reproducibility(tmp_path):
    config = {
        "data": {
            "label_count": 4,
            "feature_dim": 16,
            "train_examples": 300,
            "val_examples": 100,
            "test_examples": 100,
            "noise_sigma": 0.15,
            "seed": 23,
        },
        "encoder": {"hidden_sizes": [24, 24], "embedding_dim": 16, "seed": 6},
        "train": {
            "loss": "ml2plus",
            "batch_size": 8,
            "iterations": 300,
            "eval_every": 50,
            "lr_decay_period": 100,
            "seed": 9,
            "pretrain": True,
            "pretrain_iterations": 100,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    data_dir = tmp_path / "data"
    assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0

    artifacts = []
    for name in ("run-a", "run-b"):
        run_dir = tmp_path / name
        code = cli_main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--data",
                str(data_dir),
                "--run-dir",
                str(run_dir),
            ]
        )
        assert code == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        artifacts.append(
            (
                (run_dir / manifest["checkpoint"]).read_bytes(),
                (run_dir / "report.json").read_bytes(),
            )
        )
    assert artifacts[0][0] == artifacts[1][0], "checkpoints differ"
    assert artifacts[0][1] == artifacts[1][1], "reports differ"
    print("\nACCEPTANCE 9 PASS: seeded cmd_train runs produce bit-identical checkpoints and reports")

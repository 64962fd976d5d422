import math

import numpy as np
import pytest

from mlembed.errors import ContractError
from mlembed.evaluation import (
    evaluate_embeddings,
    kmeans,
    label_set_clusters,
    logistic_probe,
    nmi,
    project_2d,
    recall_at_k,
)
from oracles import brute_force_recall_at_k, frozen_nmi


class TestKMeans:
    def test_one_point_per_cluster_zero_objective(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        result = kmeans(X, k=6, seed=1)
        assert result.objective_history[-1] <= 1e-20
        assert sorted(result.assignment.tolist()) == list(range(6))

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(2)
        blob_a = rng.normal(0.0, 0.05, size=(40, 4))
        blob_b = rng.normal(0.0, 0.05, size=(40, 4)) + 10.0
        X = np.vstack([blob_a, blob_b])
        result = kmeans(X, k=2, seed=3)
        first = set(result.assignment[:40].tolist())
        second = set(result.assignment[40:].tolist())
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            X = rng.standard_normal((60, 5))
            hist = kmeans(X, k=7, seed=seed).objective_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 4))
        a = kmeans(X, k=5, seed=11)
        b = kmeans(X, k=5, seed=11)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.objective_history == b.objective_history

    def test_duplicate_points_and_large_k(self):
        # more centers than distinct values: empty-cluster re-seeding must
        # still terminate with a valid partition and monotone objective
        X = np.array([[0.0, 0.0]] * 5 + [[1.0, 0.0]] * 5)
        result = kmeans(X, k=3, seed=7)
        hist = result.objective_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        assert result.assignment.shape == (10,)
        assert set(result.assignment.tolist()) <= {0, 1, 2}

    def test_invalid_k(self):
        X = np.zeros((3, 2))
        with pytest.raises(ContractError):
            kmeans(X, k=0, seed=0)
        with pytest.raises(ContractError):
            kmeans(X, k=4, seed=0)


class TestNmi:
    def test_identical_partitions(self):
        p = np.array([0, 1, 0])
        q = np.array([1, 0, 1])  # same up to relabeling
        assert nmi(p, p) == 1.0
        assert nmi(p, q) == 1.0

    def test_single_cluster_prediction_is_zero(self):
        pred = np.array([0, 0, 0, 0])
        truth = np.array([0, 0, 1, 1])
        assert nmi(pred, truth) == 0.0

    def test_four_point_hand_contingency(self):
        # pred {a,b},{c,d} vs truth {a,c},{b,d}: all cells n_ij = 1, so
        # I = sum (1/4) log(1*4 / (2*2)) = 0 exactly.
        pred = np.array([0, 0, 1, 1])
        truth = np.array([0, 1, 0, 1])
        assert abs(nmi(pred, truth)) <= 1e-12

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = rng.integers(0, 4, size=30)
            q = rng.integers(0, 3, size=30)
            forward, backward = nmi(p, q), nmi(q, p)
            assert abs(forward - backward) <= 1e-12
            assert 0.0 <= forward <= 1.0

    def test_relabeling_invariance(self):
        p = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2])
        relabeled = (p + 1) % 3
        truth = np.arange(12) % 2
        assert nmi(p, truth) == nmi(relabeled, truth)

    def test_id_mismatch_rejected(self):
        # partitions of different example sets: here, of different sizes
        with pytest.raises(ContractError):
            nmi(np.array([0]), np.array([0, 0]))
        with pytest.raises(ContractError):
            nmi(np.array([0, -1]), np.array([0, 0]))

    def test_bitwise_equal_to_frozen_contingency_loop(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            pred = rng.integers(0, rng.integers(1, 12), size=n)
            truth = rng.integers(0, rng.integers(1, 12), size=n)
            assert nmi(pred, truth) == frozen_nmi(pred.tolist(), truth.tolist())

    def test_both_single_cluster_is_one(self):
        p = np.array([0, 0])
        assert nmi(p, p) == 1.0


class TestLabelSetClusters:
    def test_first_appearance_order(self):
        clusters, k = label_set_clusters([{2}, {0, 1}, {2}, {1, 0}, {3}])
        assert clusters.tolist() == [0, 1, 0, 1, 2]
        assert k == 3

    def test_empty(self):
        clusters, k = label_set_clusters([])
        assert clusters.shape == (0,) and k == 1


class TestRecallAtK:
    def test_duplicate_embeddings_hit(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels = [{0}, {0}, {1}]
        assert recall_at_k(X, labels, 1) == pytest.approx(2 / 3)

    def test_non_decreasing_in_k(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 4))
        labels = [{int(rng.integers(3))} for _ in range(30)]
        values = [recall_at_k(X, labels, k) for k in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_four_points_on_line_matches_brute_force(self):
        X = np.array([[0.0], [1.0], [2.5], [2.6]])
        labels = [{0}, {1}, {0}, {1}]
        for k in (1, 2, 3):
            assert recall_at_k(X, labels, k) == brute_force_recall_at_k(X, labels, k)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 6))
        labels = [
            set(int(x) for x in rng.choice(4, size=rng.integers(1, 3), replace=False))
            for _ in range(50)
        ]
        for k in (1, 2, 4, 8):
            assert recall_at_k(X, labels, k) == brute_force_recall_at_k(X, labels, k)

    def test_isometry_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 6))
        labels = [{int(rng.integers(3))} for _ in range(40)]
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        shifted = X @ Q + rng.standard_normal(6)
        for k in (1, 2, 4):
            assert recall_at_k(X, labels, k) == recall_at_k(shifted, labels, k)

    def test_too_few_examples(self):
        with pytest.raises(ContractError):
            recall_at_k(np.zeros((3, 2)), [{0}] * 3, 3)

    def test_invalid_k(self):
        with pytest.raises(ContractError):
            recall_at_k(np.zeros((3, 2)), [{0}] * 3, 0)


class TestLogisticProbe:
    def test_separable_blobs(self):
        rng = np.random.default_rng(10)
        pos = rng.normal(0, 0.3, size=(100, 4)) + np.array([3.0, 0, 0, 0])
        neg = rng.normal(0, 0.3, size=(100, 4)) - np.array([3.0, 0, 0, 0])
        X = np.vstack([pos, neg])
        y = np.array([1.0] * 100 + [0.0] * 100)
        test_X = np.vstack(
            [
                rng.normal(0, 0.3, size=(50, 4)) + np.array([3.0, 0, 0, 0]),
                rng.normal(0, 0.3, size=(50, 4)) - np.array([3.0, 0, 0, 0]),
            ]
        )
        test_y = np.array([1.0] * 50 + [0.0] * 50)
        metrics = logistic_probe(X, y, test_X, test_y)
        assert metrics.f1 >= 0.99
        assert metrics.specificity >= 0.95

    def test_independent_labels_near_majority_baseline(self):
        rng = np.random.default_rng(11)
        n = 400
        X = rng.standard_normal((n, 5))
        y = (rng.random(n) < 0.7).astype(float)  # labels carry no signal
        test_X = rng.standard_normal((200, 5))
        test_y = (rng.random(200) < 0.7).astype(float)
        metrics = logistic_probe(X, y, test_X, test_y)
        # majority predictor says "positive" everywhere
        rate = test_y.mean()
        majority_f1 = 2 * rate / (1 + rate)
        assert abs(metrics.f1 - majority_f1) <= 0.1

    def test_f1_identity(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((60, 3))
        y = (X[:, 0] + 0.3 * rng.standard_normal(60) > 0).astype(float)
        test_X = rng.standard_normal((60, 3))
        test_y = (test_X[:, 0] > 0).astype(float)
        m = logistic_probe(X, y, test_X, test_y)
        if m.precision + m.sensitivity > 0:
            expected = 2 * m.precision * m.sensitivity / (m.precision + m.sensitivity)
            assert m.f1 == pytest.approx(expected, abs=1e-12)

    def test_single_class_rejected(self):
        X = np.zeros((10, 2))
        with pytest.raises(ContractError, match="single class"):
            logistic_probe(X, np.ones(10), X, np.ones(10))

    def test_non_binary_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ContractError, match="binary"):
            logistic_probe(X, np.array([0.0, 1.0, 2.0, 1.0]), X, np.zeros(4))


class TestProject2d:
    def test_planar_points_reconstruct_exactly(self):
        rng = np.random.default_rng(13)
        basis = np.linalg.qr(rng.standard_normal((8, 2)))[0].T  # (2, 8)
        coords = rng.standard_normal((40, 2)) * np.array([3.0, 1.5])
        X = coords @ basis + rng.standard_normal(8) * 0.0
        result = project_2d(X)
        reconstructed = result.coords @ result.components + result.mean
        assert np.abs(reconstructed - X).max() <= 1e-9
        assert not result.degenerate

    def test_variance_ordering(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((100, 6)) * np.array([5.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        result = project_2d(X)
        assert result.explained_variance[0] >= result.explained_variance[1]
        assert np.var(result.coords[:, 0]) >= np.var(result.coords[:, 1])

    def test_isotropic_cloud_explains_about_two_over_m(self):
        rng = np.random.default_rng(15)
        m = 16
        X = rng.standard_normal((4000, m))
        result = project_2d(X)
        total = float(np.var(X, axis=0, ddof=1).sum())
        ratio = float(result.explained_variance.sum()) / total
        # top-2 sample eigenvalues sit slightly above 2/m at this n/m
        assert 2 / m * 0.8 <= ratio <= 2 / m * 1.5

    def test_zero_variance_degenerate(self):
        X = np.ones((5, 3))
        result = project_2d(X)
        assert result.degenerate
        assert not result.coords.any()

    def test_sign_convention(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((30, 4))
        result = project_2d(X)
        for row in result.components:
            nz = row[np.abs(row) > 1e-12]
            if nz.size:
                assert nz[0] > 0

    def test_too_few_points(self):
        with pytest.raises(ContractError):
            project_2d(np.zeros((1, 3)))


class TestEvaluateEmbeddings:
    def test_full_report_schema(self, default_splits):
        rng = np.random.default_rng(17)
        ds = default_splits.test
        E = rng.standard_normal((len(ds), 8))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        train_E = rng.standard_normal((len(default_splits.train), 8))
        train_y = np.array(
            [0.0 if 0 in ex.labels else 1.0 for ex in default_splits.train.examples]
        )
        report = evaluate_embeddings(E, ds, probe_train=(train_E, train_y))
        payload = report.as_dict()
        assert set(payload) == {"nmi", "recall_at", "classification", "distinct_label_sets"}
        assert 0.0 <= payload["nmi"] <= 1.0
        ks = sorted(int(k) for k in payload["recall_at"])
        values = [payload["recall_at"][str(k)] for k in ks]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert set(payload["classification"]) == {
            "precision",
            "sensitivity",
            "specificity",
            "f1",
        }

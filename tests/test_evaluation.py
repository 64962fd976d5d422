import json
import math
import threading

import numpy as np
import pytest

from mlembed import evaluation
from mlembed.errors import ContractError
from mlembed.evaluation import (
    _fit_probe,
    evaluate_embeddings,
    kmeans,
    label_set_clusters,
    logistic_probe,
    nmi,
    probe,
    project_2d,
    recall_at_k,
)
from oracles import (
    brute_force_logistic_weights,
    brute_force_recall_at_k,
    frozen_broadcast_kmeans,
    frozen_nmi,
    label_matrix_of,
    sequential_eval_json,
)


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

    @pytest.mark.parametrize("kind", ["random", "lattice", "duplicates", "large-norm"])
    def test_matches_broadcast_assignment(self, kind):
        # the GEMM assignment with its certified fallback gives the broadcast's
        # assignment and objective bits; lattice and duplicate points tie
        # exactly, and offsets up to 1e8 make the GEMM form cancel most digits
        rng = np.random.default_rng(["random", "lattice", "duplicates", "large-norm"].index(kind))
        for _ in range(25):
            n, m = int(rng.integers(5, 150)), int(rng.integers(1, 40))
            if kind == "random":
                X = rng.standard_normal((n, m))
            elif kind == "lattice":
                X = rng.integers(0, 3, size=(n, m)).astype(np.float64)
            elif kind == "duplicates":
                X = np.repeat(rng.standard_normal((n // 5 + 1, m)), 5, axis=0)[:n]
            else:
                X = 10.0 ** rng.integers(2, 9) + rng.standard_normal((n, m))
            k = int(rng.integers(1, min(n, 12) + 1))
            for seed in range(3):
                result = kmeans(X, k, seed)
                assignment, history = frozen_broadcast_kmeans(X, k, seed)
                assert np.array_equal(result.assignment, assignment)
                assert result.objective_history == history

    def test_equidistant_point_takes_the_lowest_center(self):
        X = np.array([[0.5, 0.0], [0.0, 0.0], [1.0, 0.0]])
        sq = (X**2).sum(axis=1)
        for centers in (X[1:], X[:0:-1]):
            assert evaluation._nearest_center(X, sq, centers).tolist()[0] == 0

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
        clusters, k = label_set_clusters(label_matrix_of([{2}, {0, 1}, {2}, {1, 0}, {3}], 4))
        assert clusters.tolist() == [0, 1, 0, 1, 2]
        assert k == 3

    def test_empty(self):
        clusters, k = label_set_clusters(np.zeros((0, 3), dtype=bool))
        assert clusters.shape == (0,) and k == 1


class TestRecallAtK:
    def test_duplicate_embeddings_hit(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels = [{0}, {0}, {1}]
        L = label_matrix_of(labels, 4)
        assert recall_at_k(X, L, [1]) == {1: pytest.approx(2 / 3)}

    def test_non_decreasing_in_k(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 4))
        labels = [{int(rng.integers(3))} for _ in range(30)]
        L = label_matrix_of(labels, 4)
        values = list(recall_at_k(X, L, (1, 2, 4, 8)).values())
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_four_points_on_line_matches_brute_force(self):
        X = np.array([[0.0], [1.0], [2.5], [2.6]])
        labels = [{0}, {1}, {0}, {1}]
        L = label_matrix_of(labels, 4)
        expected = {k: brute_force_recall_at_k(X, labels, k) for k in (1, 2, 3)}
        assert recall_at_k(X, L, (1, 2, 3)) == expected

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 6))
        labels = [
            set(int(x) for x in rng.choice(4, size=rng.integers(1, 3), replace=False))
            for _ in range(50)
        ]
        L = label_matrix_of(labels, 4)
        expected = {k: brute_force_recall_at_k(X, labels, k) for k in (1, 2, 4, 8)}
        assert recall_at_k(X, L, (1, 2, 4, 8)) == expected

    def test_matches_brute_force_with_ties(self):
        # points on a small integer grid: many exact distance ties, which
        # both sides break by row order; every k up to 12 is checked
        rng = np.random.default_rng(18)
        X = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
        labels = [{int(rng.integers(4))} for _ in range(60)]
        L = label_matrix_of(labels, 4)
        ks = range(1, 13)
        expected = {k: brute_force_recall_at_k(X, labels, k) for k in ks}
        assert recall_at_k(X, L, ks) == expected
        assert len(set(expected.values())) > 3  # the ks do not all agree

    @pytest.mark.parametrize("data", ["grid", "random"])
    def test_query_blocks_match_brute_force(self, monkeypatch, data):
        # blocks of 7 queries: rows split across blocks, many tied at the
        # k-th distance on the grid
        monkeypatch.setattr(evaluation, "RECALL_BLOCK", 7)
        rng = np.random.default_rng(19)
        if data == "grid":
            X = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
        else:
            X = rng.standard_normal((60, 5))
        labels = [{int(rng.integers(4))} for _ in range(60)]
        L = label_matrix_of(labels, 4)
        ks = range(1, 13)
        expected = {k: brute_force_recall_at_k(X, labels, k) for k in ks}
        assert recall_at_k(X, L, ks) == expected

    @pytest.mark.parametrize("data", ["grid", "random"])
    def test_neighbors_in_stable_sort_order(self, data):
        rng = np.random.default_rng(20)
        if data == "grid":
            X = rng.integers(0, 3, size=(40, 2)).astype(np.float64)
        else:
            X = rng.standard_normal((40, 3))
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        for k in range(1, 13):
            stable = np.argsort(d2, axis=1, kind="stable")[:, :k]
            assert np.array_equal(evaluation._nearest(d2, k), stable)

    def test_recall_at_1_with_ties_matches_brute_force(self):
        # k = 1 alone takes the argmin, whose first minimum is the sort's
        rng = np.random.default_rng(21)
        X = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
        labels = [{int(rng.integers(4))} for _ in range(60)]
        L = label_matrix_of(labels, 4)
        assert recall_at_k(X, L, [1]) == {1: brute_force_recall_at_k(X, labels, 1)}

    def test_recall_at_1_with_a_nan_embedding_keeps_the_sort_order(self):
        # a NaN row puts a NaN in every row of the distances: argmin would
        # pick its column, the stable sort puts it last
        rng = np.random.default_rng(22)
        X = rng.integers(0, 3, size=(30, 2)).astype(np.float64)
        X[7] = np.nan
        labels = [{int(rng.integers(3))} for _ in range(30)]
        L = label_matrix_of(labels, 4)
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        stable = np.argsort(d2, axis=1, kind="stable")[:, :1]
        assert np.array_equal(evaluation._nearest(d2, 1), stable)
        assert recall_at_k(X, L, [1]) == {1: recall_at_k(X, L, [1, 2])[1]}
        assert recall_at_k(X, L, [1]) == {1: 12 / 30}  # as the partition search gives it

    def test_isometry_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 6))
        labels = [{int(rng.integers(3))} for _ in range(40)]
        L = label_matrix_of(labels, 4)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        shifted = X @ Q + rng.standard_normal(6)
        assert recall_at_k(X, L, (1, 2, 4)) == recall_at_k(shifted, L, (1, 2, 4))

    def test_too_few_examples(self):
        with pytest.raises(ContractError):
            recall_at_k(np.zeros((3, 2)), np.ones((3, 1), dtype=bool), [1, 3])

    def test_invalid_k(self):
        for ks in ([0], [1, 0], []):
            with pytest.raises(ContractError):
                recall_at_k(np.zeros((3, 2)), np.ones((3, 1), dtype=bool), ks)

    @pytest.mark.parametrize("shape", [(2, 1), (4, 1), (3,)])
    def test_label_matrix_not_one_row_per_embedding(self, shape):
        with pytest.raises(ContractError, match="label matrix of shape"):
            recall_at_k(np.zeros((3, 2)), np.ones(shape, dtype=bool), [1])


def separable_blobs():
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
    return X, y, test_X, test_y


def independent_labels():
    rng = np.random.default_rng(11)
    n = 400
    X = rng.standard_normal((n, 5))
    y = (rng.random(n) < 0.7).astype(float)  # labels carry no signal
    test_X = rng.standard_normal((200, 5))
    test_y = (rng.random(200) < 0.7).astype(float)
    return X, y, test_X, test_y


def noisy_first_coordinate():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((60, 3))
    y = (X[:, 0] + 0.3 * rng.standard_normal(60) > 0).astype(float)
    test_X = rng.standard_normal((60, 3))
    test_y = (test_X[:, 0] > 0).astype(float)
    return X, y, test_X, test_y


def perfectly_separable():
    # the labels are the side of a hyperplane through the origin
    rng = np.random.default_rng(13)
    normal = np.array([1.0, -2.0, 0.5])
    X = rng.standard_normal((40, 3))
    test_X = rng.standard_normal((40, 3))
    return X, (X @ normal > 0).astype(float), test_X, (test_X @ normal > 0).astype(float)


PROBE_CASES = {
    "separable-blobs": separable_blobs,
    "independent-labels": independent_labels,
    "noisy-first-coordinate": noisy_first_coordinate,
    "perfectly-separable": perfectly_separable,
}


class TestLogisticProbe:
    def test_separable_blobs(self):
        X, y, test_X, test_y = separable_blobs()
        metrics = logistic_probe(X, y, test_X, test_y)
        assert metrics.f1 >= 0.99
        assert metrics.specificity >= 0.95

    def test_independent_labels_near_majority_baseline(self):
        X, y, test_X, test_y = independent_labels()
        metrics = logistic_probe(X, y, test_X, test_y)
        # majority predictor says "positive" everywhere
        rate = test_y.mean()
        majority_f1 = 2 * rate / (1 + rate)
        assert abs(metrics.f1 - majority_f1) <= 0.1

    def test_f1_identity(self):
        X, y, test_X, test_y = noisy_first_coordinate()
        m = logistic_probe(X, y, test_X, test_y)
        if m.precision + m.sensitivity > 0:
            expected = 2 * m.precision * m.sensitivity / (m.precision + m.sensitivity)
            assert m.f1 == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("case", PROBE_CASES)
    def test_weights_meet_gradient_tolerance(self, case):
        X, y, _, _ = PROBE_CASES[case]()
        w = _fit_probe(X, y)
        A = np.hstack([X, np.ones((len(X), 1))])
        grad = A.T @ (1.0 / (1.0 + np.exp(-(A @ w))) - y) / len(X)
        grad[:-1] += 1e-3 * w[:-1]
        assert np.abs(grad).max() < 1e-7

    @pytest.mark.parametrize("case", PROBE_CASES)
    def test_matches_gradient_descent_oracle(self, case):
        X, y, test_X, _ = PROBE_CASES[case]()
        w = _fit_probe(X, y)
        reference = brute_force_logistic_weights(X, y, l2=1e-3, tol=1e-9)
        assert np.abs(w - reference).max() <= 1e-4
        test_A = np.hstack([test_X, np.ones((len(test_X), 1))])
        assert np.array_equal(test_A @ w > 0, test_A @ reference > 0)

    def test_perfectly_separable_training_rows_all_classified(self):
        X, y, _, _ = perfectly_separable()
        assert 0 < y.sum() < len(y)
        assert logistic_probe(X, y, X, y).f1 == 1.0

    def test_no_descending_step_raises(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_probe_objective", lambda z, y, w, l2: 0.0)
        X, y, _, _ = separable_blobs()
        with pytest.raises(ContractError, match="no Newton step lowers"):
            _fit_probe(X, y)

    def test_unconverged_fit_raises(self, monkeypatch):
        monkeypatch.setattr(evaluation, "PROBE_MAX_NEWTON", 2)
        X, y, _, _ = separable_blobs()
        with pytest.raises(ContractError, match="did not converge"):
            _fit_probe(X, y)

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
        train_y = np.array([0.0 if 0 in labels else 1.0 for labels in default_splits.train.labels])
        report = evaluate_embeddings(E, ds)
        assert report.classification is None
        report.classification = probe(train_E, train_y, E, ds)
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

    @pytest.mark.parametrize("single_class", [False, True])
    def test_report_is_the_sequential_composition(self, default_splits, single_class):
        test, train = default_splits.test, default_splits.train
        train_y = evaluation.abnormal_labels(train)
        if single_class:
            train_y = np.ones_like(train_y)
        threads = threading.active_count()
        report = evaluate_embeddings(test.X, test)
        report.classification = probe(train.X, train_y, test.X, test)
        assert threading.active_count() == threads
        assert (report.classification is None) == single_class
        payload = json.dumps(report.as_dict(), indent=2) + "\n"
        assert payload == sequential_eval_json(test.X, test, train.X, train_y)


class TestProbe:
    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_single_class_train_labels_give_none(self, default_splits, label):
        train, test = default_splits.train, default_splits.test
        assert probe(train.X, np.full(len(train), label), test.X, test) is None

    @pytest.mark.parametrize("normal_label", [0, 1])
    def test_equals_logistic_probe_of_the_same_inputs(self, default_splits, normal_label):
        train, test = default_splits.train, default_splits.test
        train_y = evaluation.abnormal_labels(train, normal_label)
        test_y = evaluation.abnormal_labels(test, normal_label)
        expected = logistic_probe(train.X, train_y, test.X, test_y)
        assert probe(train.X, train_y, test.X, test, normal_label) == expected

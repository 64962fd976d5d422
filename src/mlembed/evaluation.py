"""Clustering, retrieval and classification metrics over frozen embeddings.

Ground truth for clustering is the partition of examples by their exact
label set; k-means is run with k equal to the number of distinct sets.
Retrieval relevance is "shares at least one label" with the query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

KMEANS_MAX_ITER = 100


def label_set_clusters(label_sets) -> tuple[np.ndarray, int]:
    """Ground-truth clusters: one per distinct label set, numbered in order
    of first appearance. Returns the cluster of each example and their count."""
    cluster_of: dict[frozenset, int] = {}
    clusters = [cluster_of.setdefault(frozenset(s), len(cluster_of)) for s in label_sets]
    return np.array(clusters, dtype=np.intp), max(len(cluster_of), 1)


@dataclass
class KMeansResult:
    assignment: np.ndarray  # (n,) cluster of each point, in [0, k)
    objective_history: list[float]  # post-assignment objective per sweep


def _squared_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def kmeans(X: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Lloyd iterations from greedy D^2-weighted seeding.

    Runs until the assignment reaches a fixpoint or the sweep cap; empty
    clusters are re-seeded from the point farthest from its current center,
    which keeps the objective non-increasing.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if k > n:
        raise ContractError(f"k={k} exceeds point count {n}")

    rng = np.random.default_rng(seed)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    closest = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            pick = int(rng.integers(n))  # all remaining points coincide with a center
        else:
            pick = int(rng.choice(n, p=closest / total))
        centers[j] = X[pick]
        closest = np.minimum(closest, ((X - centers[j]) ** 2).sum(axis=1))

    assign = None
    history: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        d2 = _squared_distances(X, centers)
        new_assign = d2.argmin(axis=1)
        point_cost = d2[np.arange(n), new_assign]
        history.append(float(point_cost.sum()))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign

        taken = set()
        for j in range(k):
            members = X[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
        for j in range(k):
            if np.any(assign == j):
                continue
            # Re-seed from the farthest point not already claimed this sweep.
            order = np.argsort(-point_cost, kind="stable")
            pick = next(int(i) for i in order if int(i) not in taken)
            taken.add(pick)
            centers[j] = X[pick]

    return KMeansResult(assign, history)


def _entropy(counts: np.ndarray, n: int) -> float:
    probs = counts[counts > 0] / n
    return float(-(probs * np.log(probs)).sum())


def nmi(pred, truth) -> float:
    """Normalized mutual information of two partitions given as int arrays
    of cluster ids, one per example: 2 I(pred; truth) / (H(pred) + H(truth)).

    0 log 0 counts as 0. When both partitions are single-cluster they are
    identical up to relabeling, so the 0/0 case resolves to 1.
    """
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.ndim != 1 or pred.shape != truth.shape:
        raise ContractError(f"partitions of shapes {pred.shape} and {truth.shape}")
    n = len(pred)
    if n == 0:
        raise ContractError("empty partitions")
    if pred.min() < 0 or truth.min() < 0:
        raise ContractError("cluster ids must be >= 0")

    k_pred, k_truth = int(pred.max()) + 1, int(truth.max()) + 1
    table = np.bincount(pred * k_truth + truth, minlength=k_pred * k_truth)
    table = table.reshape(k_pred, k_truth).astype(np.float64)
    row = table.sum(axis=1)
    col = table.sum(axis=0)

    info = 0.0
    for i, j in zip(*np.nonzero(table)):  # row-major, as the sum has always run
        nij = table[i, j]
        info += (nij / n) * math.log(nij * n / (row[i] * col[j]))
    h_pred = _entropy(row, n)
    h_truth = _entropy(col, n)
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    return float(min(1.0, max(0.0, 2.0 * info / (h_pred + h_truth))))


def recall_at_k(embeddings: np.ndarray, label_sets, k: int) -> float:
    """Fraction of queries with a label-sharing example among the k nearest
    neighbors (self excluded, ties broken by row order)."""
    X = np.asarray(embeddings, dtype=np.float64)
    n = X.shape[0]
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if n < k + 1:
        raise ContractError(f"need at least {k + 1} examples, got {n}")
    sets = [frozenset(s) for s in label_sets]
    if len(sets) != n:
        raise ContractError(f"{len(sets)} label sets for {n} embeddings")
    column = {label: c for c, label in enumerate(set().union(*sets))}
    members = np.zeros((n, len(column)), dtype=bool)  # the label matrix
    for i, labels in enumerate(sets):
        members[i, [column[label] for label in labels]] = True

    sq = (X**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, np.inf)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]
    hits = (members[neighbors] & members[:, None, :]).any(axis=(1, 2))
    return int(np.count_nonzero(hits)) / n


@dataclass
class ClassificationMetrics:
    precision: float
    sensitivity: float
    specificity: float
    f1: float

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "f1": self.f1,
        }


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def logistic_probe(
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    test_y: np.ndarray,
    l2: float = 1e-3,
    tol: float = 1e-7,
    max_iter: int = 20000,
) -> ClassificationMetrics:
    """L2-regularized logistic regression fit by gradient descent.

    The fixed step 1 / L (L a Lipschitz bound on the gradient) guarantees
    monotone convergence; iteration stops when the gradient is below ``tol``
    in infinity norm. Metrics are reported at threshold 0.5, with y=1 the
    positive class.
    """
    train_X = np.asarray(train_X, dtype=np.float64)
    test_X = np.asarray(test_X, dtype=np.float64)
    y = np.asarray(train_y, dtype=np.float64)
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ContractError("training labels must be binary 0/1")
    if len(np.unique(y)) < 2:
        raise ContractError("training data contains a single class")

    n = train_X.shape[0]
    A = np.hstack([train_X, np.ones((n, 1))])  # bias column, unregularized
    w = np.zeros(A.shape[1])
    lipschitz = 0.25 * float(np.linalg.norm(A, ord=2)) ** 2 / n + l2
    step = 1.0 / lipschitz
    for _ in range(max_iter):
        resid = _sigmoid(A @ w) - y
        grad = A.T @ resid / n
        grad[:-1] += l2 * w[:-1]
        if float(np.abs(grad).max()) < tol:
            break
        w -= step * grad

    scores = np.hstack([test_X, np.ones((test_X.shape[0], 1))]) @ w
    pred = scores > 0.0  # sigmoid(z) > 0.5 iff z > 0
    actual = np.asarray(test_y, dtype=np.float64) > 0.5
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    tn = int(np.sum(~pred & ~actual))
    fn = int(np.sum(~pred & actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    sensitivity = tp / (tp + fn) if tp + fn else 0.0
    specificity = tn / (tn + fp) if tn + fp else 0.0
    f1 = 2 * precision * sensitivity / (precision + sensitivity) if precision + sensitivity else 0.0
    return ClassificationMetrics(precision, sensitivity, specificity, f1)


@dataclass
class ProjectionResult:
    coords: np.ndarray              # (n, 2)
    components: np.ndarray          # (2, m)
    mean: np.ndarray                # (m,)
    explained_variance: np.ndarray  # (2,)
    degenerate: bool


def project_2d(embeddings: np.ndarray) -> ProjectionResult:
    """Top-2 principal components of the centered embeddings.

    Component signs follow a fixed convention (first nonzero loading is
    positive). Zero-variance input yields all-zero coordinates with the
    ``degenerate`` flag set instead of an error.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ContractError("need at least 2 points to project")
    mean = X.mean(axis=0)
    centered = X - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)

    if svals.size == 0 or svals[0] < 1e-12:
        m = X.shape[1]
        comp = np.zeros((2, m))
        return ProjectionResult(
            np.zeros((X.shape[0], 2)), comp, mean, np.zeros(2), degenerate=True
        )

    take = min(2, vt.shape[0])
    components = np.zeros((2, X.shape[1]))
    components[:take] = vt[:take]
    for row in components:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    coords = centered @ components.T
    variance = np.zeros(2)
    variance[:take] = (svals[:take] ** 2) / (X.shape[0] - 1)
    return ProjectionResult(coords, components, mean, variance, degenerate=False)


@dataclass
class MetricsReport:
    nmi: float
    recall_at: dict[int, float]
    classification: ClassificationMetrics | None
    distinct_label_sets: int

    def as_dict(self) -> dict:
        return {
            "nmi": self.nmi,
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "classification": None if self.classification is None else self.classification.as_dict(),
            "distinct_label_sets": self.distinct_label_sets,
        }


def evaluate_embeddings(
    eval_embeddings: np.ndarray,
    eval_ds,
    recall_ks=(1, 2, 4, 8),
    kmeans_seed: int = 0,
    probe_train: tuple[np.ndarray, np.ndarray] | None = None,
    normal_label: int = 0,
) -> MetricsReport:
    """Full clustering/retrieval/classification report on one split.

    ``probe_train`` supplies (embeddings, features-agnostic binary labels)
    for fitting the normal-vs-abnormal logistic probe; when omitted or
    single-class, the classification block is left empty.
    """
    label_sets = [ex.labels for ex in eval_ds.examples]
    truth, k_truth = label_set_clusters(label_sets)
    predicted = kmeans(eval_embeddings, k_truth, seed=kmeans_seed).assignment
    score = nmi(predicted, truth)

    recall = {}
    for k in recall_ks:
        if len(eval_ds) >= k + 1:
            recall[k] = recall_at_k(eval_embeddings, label_sets, k)

    classification = None
    if probe_train is not None:
        train_E, train_y = probe_train
        test_y = abnormal_labels(eval_ds, normal_label)
        if len(np.unique(train_y)) == 2:
            classification = logistic_probe(train_E, train_y, eval_embeddings, test_y)
    return MetricsReport(score, recall, classification, k_truth)


def abnormal_labels(ds, normal_label: int = 0) -> np.ndarray:
    """Binary target for the probe: 1 when the example lacks the normal label."""
    return np.array([0.0 if normal_label in ex.labels else 1.0 for ex in ds.examples])

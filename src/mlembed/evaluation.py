"""Clustering, retrieval and classification metrics over frozen embeddings.

Ground truth for clustering is the partition of examples by their exact
label set; k-means is run with k equal to the number of distinct sets.
Retrieval relevance is "shares at least one label" with the query.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

KMEANS_MAX_ITER = 100
# Query rows per Recall@K distance block: peak memory is O(RECALL_BLOCK * n).
RECALL_BLOCK = 1024
# The probe's L2 penalty on the weights (not the bias), and the gradient
# infinity norm at which its Newton iteration stops.
PROBE_L2 = 1e-3
PROBE_TOL = 1e-7
# Newton steps before the probe gives up; it converges in under ten.
PROBE_MAX_NEWTON = 100
# Smallest fraction of a Newton step tried before the probe gives up.
PROBE_MIN_SCALE = 2.0**-40


def label_set_clusters(L) -> tuple[np.ndarray, int]:
    """Ground-truth clusters of the (n, l) label matrix ``L``: one per
    distinct row (label set), numbered in order of first appearance. Returns
    the cluster of each example and their count."""
    packed = np.packbits(np.asarray(L, dtype=bool), axis=1)
    # each row's packed bytes as one opaque key, so np.unique sorts rows
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse], max(len(first), 1)


@dataclass
class KMeansResult:
    assignment: np.ndarray  # (n,) cluster of each point, in [0, k)
    objective_history: list[float]  # post-assignment objective per sweep


def _nearest_center(X: np.ndarray, sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each row's nearest center, ties to the lowest index: the argmin of the
    (n, k, m) broadcast ``((x - c)**2).sum()``, computed by GEMM.

    ``‖x‖² − 2xcᵀ + ‖c‖²`` rounds differently, but by far less than
    ``1e-9·(1 + ‖x‖² + max‖c‖²)``. A row whose best two centers are closer
    than that (or not finite) is assigned by the broadcast itself.
    """
    if len(centers) == 1:
        return np.zeros(len(X), dtype=np.intp)
    csq = (centers**2).sum(axis=1)
    d2 = sq[:, None] - 2.0 * (X @ centers.T) + csq
    assign = d2.argmin(axis=1)
    best, second = np.partition(d2, 1, axis=1)[:, :2].T
    near = ~(second - best > 1e-9 * (1.0 + sq + csq.max()))
    if near.any():
        close = X[near][:, None, :] - centers[None, :, :]
        assign[near] = (close**2).sum(axis=2).argmin(axis=1)
    return assign


def kmeans(X: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Lloyd iterations from k-means++ seeding: the first center is a
    uniform draw, and each further center is one draw weighted by the
    squared distance to the nearest center chosen so far.

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

    sq = (X**2).sum(axis=1)
    assign = None
    history: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        new_assign = _nearest_center(X, sq, centers)
        point_cost = ((X - centers[new_assign]) ** 2).sum(axis=1)
        history.append(float(point_cost.sum()))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign

        # Each mean is taken over its members' rows in order, one contiguous
        # slice of the sorted rows, so its bits are those of X[assign == j].
        counts = np.bincount(assign, minlength=k)
        ends = np.cumsum(counts)
        members = X[np.argsort(assign, kind="stable")]
        for j in np.flatnonzero(counts):
            centers[j] = members[ends[j] - counts[j] : ends[j]].mean(axis=0)
        # Empty clusters are re-seeded, in index order, from the farthest points.
        empty = np.flatnonzero(counts == 0)
        centers[empty] = X[np.argsort(-point_cost, kind="stable")[: len(empty)]]

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


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` smallest entries' columns of each row of ``d2``, in the order
    of a stable sort: ascending distance, ties by column.

    For k = 1 that is ``argmin``, which takes the first of tied minima, except
    on a row holding a NaN: ``argmin`` picks the NaN, the sort puts it last.
    Otherwise ``np.partition`` finds each row's k-th distance. A row with
    exactly k candidates at or below it sorts only those; a row with a tie at
    that boundary (or a NaN) falls back to the stable sort of the whole row.
    """
    if k == 1:
        nearest = d2.argmin(axis=1)
        nan = np.isnan(d2[np.arange(len(d2)), nearest])
        nearest[nan] = np.argsort(d2[nan], axis=1, kind="stable")[:, 0]
        return nearest[:, None]
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    candidates = d2 <= kth[:, None]
    exact = np.count_nonzero(candidates, axis=1) == k
    neighbors = np.empty((d2.shape[0], k), dtype=np.intp)
    # nonzero runs row-major, so each row's candidates come in column order
    rows, cols = np.nonzero(candidates & exact[:, None])
    order = np.argsort(d2[rows, cols].reshape(-1, k), axis=1, kind="stable")
    neighbors[exact] = np.take_along_axis(cols.reshape(-1, k), order, axis=1)
    tied = ~exact
    neighbors[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return neighbors


def recall_at_k(embeddings: np.ndarray, L, ks) -> dict[int, float]:
    """Recall@K for each k in ``ks``: the fraction of queries with a
    label-sharing example among the k nearest neighbors (self excluded, ties
    broken by row order), labels given as the (n, l) bool label matrix
    ``L``. One neighbor search serves every k; queries are taken
    ``RECALL_BLOCK`` rows at a time, so memory grows with n, not n²."""
    X = np.asarray(embeddings, dtype=np.float64)
    n = X.shape[0]
    ks = list(ks)
    if not ks or min(ks) < 1:
        raise ContractError(f"ks must be ints >= 1, got {ks}")
    k_max = max(ks)
    if n < k_max + 1:
        raise ContractError(f"need at least {k_max + 1} examples, got {n}")
    members = np.asarray(L, dtype=bool)
    if members.ndim != 2 or len(members) != n:
        raise ContractError(f"label matrix of shape {members.shape} for {n} embeddings")

    sq = (X**2).sum(axis=1)
    found = np.empty((n, k_max), dtype=bool)
    for start in range(0, n, RECALL_BLOCK):
        stop = min(start + RECALL_BLOCK, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (X[start:stop] @ X.T)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        neighbors = _nearest(d2, k_max)
        hits = (members[neighbors] & members[start:stop, None, :]).any(axis=2)
        # found[i, j]: one of the j + 1 nearest neighbors of query i shares a label
        found[start:stop] = np.logical_or.accumulate(hits, axis=1)
    return {k: int(np.count_nonzero(found[:, k - 1])) / n for k in ks}


@dataclass
class ClassificationMetrics:
    precision: float
    sensitivity: float
    specificity: float
    f1: float


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _probe_objective(z: np.ndarray, y: np.ndarray, w: np.ndarray, l2: float) -> float:
    """The objective at weights ``w`` whose scores ``A @ w`` are ``z``."""
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return loss + 0.5 * l2 * float(w[:-1] @ w[:-1])


def _fit_probe(train_X: np.ndarray, train_y: np.ndarray) -> np.ndarray:
    """Weights, bias last, of L2-regularized logistic regression (the bias
    unpenalized), fit by Newton's method.

    Each step solves with the (w + 1) x (w + 1) Hessian and is halved while
    it does not lower the objective, so every step descends, also on
    separable data. Stops when the gradient is below ``PROBE_TOL`` in
    infinity norm; raises :class:`ContractError` after ``PROBE_MAX_NEWTON`` steps
    rather than return an unconverged fit.
    """
    X = np.asarray(train_X, dtype=np.float64)
    y = np.asarray(train_y, dtype=np.float64)
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ContractError("training labels must be binary 0/1")
    if len(np.unique(y)) < 2:
        raise ContractError("training data contains a single class")

    n = X.shape[0]
    A = np.hstack([X, np.ones((n, 1))])  # bias column, unregularized
    penalty = np.full(A.shape[1], PROBE_L2)
    penalty[-1] = 0.0
    w = np.zeros(A.shape[1])
    z = A @ w
    objective = _probe_objective(z, y, w, PROBE_L2)
    for _ in range(PROBE_MAX_NEWTON):
        p = _sigmoid(z)
        grad = A.T @ (p - y) / n + penalty * w
        if float(np.abs(grad).max()) < PROBE_TOL:
            return w
        hessian = (A.T * (p * (1.0 - p))) @ A / n + np.diag(penalty)
        step = np.linalg.solve(hessian, grad)
        scale = 1.0
        while True:
            trial = w - scale * step
            trial_z = A @ trial
            trial_objective = _probe_objective(trial_z, y, trial, PROBE_L2)
            if not trial_objective >= objective:  # a NaN ends the search too
                break
            scale *= 0.5
            if scale < PROBE_MIN_SCALE:
                raise ContractError("logistic probe: no Newton step lowers the objective")
        w, z, objective = trial, trial_z, trial_objective  # the next step starts from them
    raise ContractError(f"logistic probe did not converge in {PROBE_MAX_NEWTON} Newton steps")


def logistic_probe(
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    test_y: np.ndarray,
) -> ClassificationMetrics:
    """L2-regularized logistic regression (see :func:`_fit_probe`) fit on the
    training rows. Metrics are reported on the test rows at threshold 0.5,
    with y=1 the positive class."""
    w = _fit_probe(train_X, train_y)
    test_X = np.asarray(test_X, dtype=np.float64)
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
        """JSON-ready fields, with the recall_at keys as strings in ascending order."""
        recall_at = {str(k): v for k, v in sorted(self.recall_at.items())}
        return dataclasses.asdict(self) | {"recall_at": recall_at}


def evaluate_embeddings(
    eval_embeddings: np.ndarray,
    eval_ds,
    recall_ks=(1, 2, 4, 8),
    kmeans_seed: int = 0,
) -> MetricsReport:
    """Clustering and retrieval report on one split: label-set clusters,
    k-means, NMI and Recall@K, in that order. Its ``classification`` is
    left empty; :func:`probe` computes it, and ``mlembed eval``'s
    ``cmd_eval``, the only owner of a worker thread, runs the two side by
    side."""
    truth, k_truth = label_set_clusters(eval_ds.label_matrix)
    predicted = kmeans(eval_embeddings, k_truth, seed=kmeans_seed).assignment
    score = nmi(predicted, truth)

    ks = [k for k in recall_ks if len(eval_ds) >= k + 1]
    recall = recall_at_k(eval_embeddings, eval_ds.label_matrix, ks) if ks else {}
    return MetricsReport(score, recall, None, k_truth)


def probe(train_E, train_y, eval_E, eval_ds, normal_label: int = 0) -> ClassificationMetrics | None:
    """The normal-vs-abnormal :func:`logistic_probe` fit on the training
    embeddings ``train_E`` and binary labels ``train_y``, and scored on the
    eval split's embeddings against its :func:`abnormal_labels`; ``None``
    when ``train_y`` holds one class."""
    if len(np.unique(train_y)) != 2:
        return None
    return logistic_probe(train_E, train_y, eval_E, abnormal_labels(eval_ds, normal_label))


def abnormal_labels(ds, normal_label: int = 0) -> np.ndarray:
    """Binary target for the probe: 1 when the example lacks the normal label."""
    return np.where(ds.label_matrix[:, normal_label], 0.0, 1.0)

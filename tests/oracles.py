"""Independent reference implementations used to check the library.

Everything here is written against the mathematical definitions with plain
loops and ``math`` calls, deliberately avoiding the code paths under test,
except the frozen per-item implementations at the end, which are bitwise
references for the array path.
"""

import json
import math

import numpy as np

from mlembed import evaluation
from mlembed.errors import ContractError, DegenerateGroupError
from mlembed.losses import EPSILON_DIST


def brute_force_group_loss(anchor, positives, negatives, margin):
    """Double loop over all positive x negative triplets."""
    total = 0.0
    p, n = len(positives), len(negatives)
    for i in range(p):
        d_pos = math.dist(anchor, positives[i])
        for j in range(n):
            d_neg = math.dist(anchor, negatives[j])
            total += max(0.0, d_pos - d_neg + margin)
    return total / (p * n)


def brute_force_ml2(anchor, positives, negatives, taus, margin):
    """ML2 from the definition: per-positive hinge with a log-sum-exp
    negative term, no max-shift."""
    lse = math.log(
        sum(math.exp(margin - math.dist(anchor, neg)) for neg in negatives)
    )
    total = 0.0
    for i, pos in enumerate(positives):
        total += max(0.0, math.dist(anchor, pos) - margin * taus[i] + lse)
    return total / len(positives)


def brute_force_recall_at_k(embeddings, label_sets, k):
    """All-pairs exact distances, (distance, index) sort per query."""
    n = len(embeddings)
    hits = 0
    for i in range(n):
        order = sorted(
            (math.dist(embeddings[i], embeddings[j]), j) for j in range(n) if j != i
        )
        if any(set(label_sets[i]) & set(label_sets[j]) for _, j in order[:k]):
            hits += 1
    return hits / n


def label_matrix_of(label_sets, label_count):
    """The (n, label_count) bool label matrix, one cell set at a time."""
    L = np.zeros((len(label_sets), label_count), dtype=bool)
    for i, labels in enumerate(label_sets):
        for label in labels:
            L[i, label] = True
    return L


def frozen_label_set_clusters(label_sets):
    """Ground-truth clusters as the frozenset-keyed implementation numbered
    them: one per distinct label set, in order of first appearance. Returns
    (cluster of each example, cluster count, at least 1)."""
    cluster_of = {}
    clusters = [cluster_of.setdefault(frozenset(s), len(cluster_of)) for s in label_sets]
    return np.array(clusters, dtype=np.intp), max(len(cluster_of), 1)


def brute_force_logistic_weights(X, y, l2, tol, max_steps=200_000):
    """Weights, bias last, of the probe objective (mean logistic loss plus
    l2 / 2 times the squared weights, the bias unpenalized), by fixed-step
    gradient descent: the step 1 / L, with L a Lipschitz bound on the
    gradient, descends monotonically. Runs until the gradient is below
    ``tol`` in infinity norm."""
    A = np.hstack([np.asarray(X, dtype=float), np.ones((len(X), 1))])
    y = np.asarray(y, dtype=float)
    penalty = np.append(np.full(A.shape[1] - 1, l2), 0.0)
    step = 1.0 / (0.25 * np.linalg.norm(A, ord=2) ** 2 / len(A) + l2)
    w = np.zeros(A.shape[1])
    for _ in range(max_steps):
        p = 0.5 * (1.0 + np.tanh(0.5 * (A @ w)))  # the logistic function
        grad = A.T @ (p - y) / len(A) + penalty * w
        if np.abs(grad).max() < tol:
            return w
        w = w - step * grad
    raise AssertionError(f"gradient descent did not reach {tol} in {max_steps} steps")


def frozen_nmi(pred, truth):
    """NMI exactly as the id-keyed implementation summed it: a float
    contingency table filled one example at a time, then a row-major loop
    over its nonzero cells."""
    n = len(pred)
    k_pred, k_truth = max(pred) + 1, max(truth) + 1
    table = np.zeros((k_pred, k_truth))
    for a, b in zip(pred, truth):
        table[a, b] += 1.0
    row, col = table.sum(axis=1), table.sum(axis=0)
    info = 0.0
    for i in range(k_pred):
        for j in range(k_truth):
            nij = table[i, j]
            if nij > 0:
                info += (nij / n) * math.log(nij * n / (row[i] * col[j]))

    def entropy(counts):
        probs = counts[counts > 0] / n
        return float(-(probs * np.log(probs)).sum())

    h_pred, h_truth = entropy(row), entropy(col)
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    return float(min(1.0, max(0.0, 2.0 * info / (h_pred + h_truth))))


def frozen_broadcast_kmeans(X, k, seed):
    """k-means exactly as it assigned by the (n, k, m) broadcast: the same
    seeding, sweeps and re-seeding as ``evaluation.kmeans``, with every
    distance taken as ``((x - c)**2).sum()``. Returns (assignment, history)."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    closest = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centers[j] = X[pick]
        closest = np.minimum(closest, ((X - centers[j]) ** 2).sum(axis=1))

    assign = None
    history = []
    for _ in range(100):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
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
            order = np.argsort(-point_cost, kind="stable")
            pick = next(int(i) for i in order if int(i) not in taken)
            taken.add(pick)
            centers[j] = X[pick]
    return assign, history


def unit_at_distance(d, dim=2):
    """A unit vector at exact chord distance d from e1 (0 <= d <= 2)."""
    theta = 2.0 * math.asin(d / 2.0)
    v = np.zeros(dim)
    v[0] = math.cos(theta)
    v[1] = math.sin(theta)
    return v


def random_unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def generator_marginals(cooccurrence):
    """P(label j present) from the generator's definition:
    P(primary = j) + sum_{i != j} P(primary = i) * co[i, j]."""
    co = np.asarray(cooccurrence, dtype=float)
    weights = np.diag(co)
    primary = weights / weights.sum()
    l = co.shape[0]
    out = primary.copy()
    for j in range(l):
        for i in range(l):
            if i != j:
                out[j] += primary[i] * co[i, j]
    return out


def nearest_prototype_label(features, prototypes):
    """Index of the closest prototype row (single-label classification)."""
    d = [math.dist(features, proto) for proto in prototypes]
    return int(np.argmin(d))


def nearest_label_set_partition(dataset, prototypes):
    """Assign each example to the nearest label-set prototype sum.

    The candidate sets are the distinct label sets present in the dataset;
    returns (assignments aligned with dataset order, number of candidates).
    """
    proto = np.asarray(prototypes, dtype=float)
    candidate_sets = list(dict.fromkeys(dataset.labels))  # first-appearance order
    sums = np.stack([proto[sorted(s)].sum(axis=0) for s in candidate_sets])
    assignment = []
    for features in dataset.X:
        d = ((sums - features) ** 2).sum(axis=1)
        assignment.append(int(np.argmin(d)))
    return assignment, len(candidate_sets)


def momentum_recurrence(theta0, lr, momentum, steps):
    """Hand-rolled SGD-with-momentum iterates on f(theta) = theta^2 / 2."""
    theta, v = theta0, 0.0
    history = []
    for _ in range(steps):
        v = momentum * v + theta  # gradient of the bowl is theta itself
        theta = theta - lr * v
        history.append(theta)
    return history


def log_softmax_pairs(logits):
    """Row-wise log-softmax for an (l, 2) array, plain math."""
    out = np.empty_like(logits, dtype=float)
    for i, (a, b) in enumerate(logits):
        m = max(a, b)
        z = math.log(math.exp(a - m) + math.exp(b - m)) + m
        out[i] = (a - z, b - z)
    return out


# -- frozen per-item implementations -----------------------------------------
#
# The per-group and per-item loss kernels as they were before the batched
# kernels replaced them. They are kept verbatim in behaviour, so the batched
# kernels can be checked against them: bit for bit where the arithmetic is
# the same, and to 1e-14 where the masked ML2 kernel sums in another order.


def _frozen_dists_and_grads(anchor, others, eps):
    diffs = anchor[None, :] - others
    d = np.linalg.norm(diffs, axis=1)
    grads = diffs / (d + eps)[:, None]
    return d, grads


def _frozen_as_matrix(vectors, name):
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DegenerateGroupError(f"{name} set is empty")
    return arr


def frozen_smooth_max_negative(anchor, negatives, cfg):
    anchor = np.asarray(anchor, dtype=np.float64)
    N = _frozen_as_matrix(negatives, "negative")
    d, g = _frozen_dists_and_grads(anchor, N, EPSILON_DIST)
    terms = cfg.margin - d
    shift = float(np.max(terms))
    exps = np.exp(terms - shift)
    total = float(np.sum(exps))
    value = shift + float(np.log(total))
    weights = exps / total
    return value, -(weights @ g), weights[:, None] * g


def frozen_ml2_loss(anchor, positives, negatives, taus, cfg):
    """Returns (value, anchor grad, positive grads, negative grads)."""
    anchor = np.asarray(anchor, dtype=np.float64)
    P = _frozen_as_matrix(positives, "positive")
    taus = np.asarray(taus, dtype=np.float64)
    p = P.shape[0]
    if taus.shape != (p,):
        raise ContractError(f"expected {p} tau values, got shape {taus.shape}")
    if np.any(taus < 0.0) or np.any(taus > 1.0):
        raise ContractError("tau values must lie in [0, 1]")

    neg_value, neg_anchor_grad, neg_grads = frozen_smooth_max_negative(anchor, negatives, cfg)
    d_p, g_p = _frozen_dists_and_grads(anchor, P, EPSILON_DIST)
    hinges = d_p - cfg.margin * taus + neg_value
    active = (hinges > 0.0).astype(np.float64)
    n_active = int(np.count_nonzero(active))
    value = float(np.sum(hinges * active)) / p

    anchor_grad = (active @ g_p) / p + (n_active / p) * neg_anchor_grad
    positive_grads = -(active[:, None] * g_p) / p
    negative_grads = (n_active / p) * neg_grads
    return value, anchor_grad, positive_grads, negative_grads


def frozen_pretrain_loss(log_probs, labels, label_count):
    """Returns (value, logit grads)."""
    lp = np.asarray(log_probs, dtype=np.float64)
    probs = np.exp(lp)
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ContractError("not a log-softmax pair")
    present = np.zeros(label_count, dtype=bool)
    for lab in labels:
        present[lab] = True
    truth_col = np.where(present, 0, 1)
    value = -float(np.mean(lp[np.arange(label_count), truth_col]))
    onehot = np.zeros_like(lp)
    onehot[np.arange(label_count), truth_col] = 1.0
    return value, (probs - onehot) / label_count


def frozen_triplet_loss(anchor, positive, negative, cfg):
    """Returns (value, anchor grad, positive grad, negative grad)."""
    anchor = np.asarray(anchor, dtype=np.float64)
    d, g = _frozen_dists_and_grads(anchor, np.stack([positive, negative]), EPSILON_DIST)
    raw = d[0] - d[1] + cfg.margin
    if raw <= 0.0:
        zero = np.zeros_like(anchor)
        return 0.0, zero, zero.copy(), zero.copy()
    return float(raw), g[0] - g[1], -g[0], g[1]


def frozen_contrastive_loss(x1, x2, same, cfg):
    """Returns (value, first grad, second grad)."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    diff = x1 - x2
    if same:
        return float(diff @ diff), 2.0 * diff, -2.0 * diff
    d = float(np.linalg.norm(diff))
    slack = cfg.margin - d
    if slack <= 0.0:
        zero = np.zeros_like(x1)
        return 0.0, zero, zero.copy()
    g = (2.0 * slack / (d + EPSILON_DIST)) * diff
    return float(slack * slack), -g, g


def sequential_eval_json(eval_E, eval_ds, train_E, train_y, recall_ks=(1, 2, 4, 8), normal_label=0):
    """The ``mlembed eval`` payload, k-means seed 0, as its stages compose
    one after another on one thread: the reference for ``mlembed eval``,
    which overlaps the probe with clustering and retrieval."""
    truth, k_truth = evaluation.label_set_clusters(eval_ds.label_matrix)
    score = evaluation.nmi(evaluation.kmeans(eval_E, k_truth, seed=0).assignment, truth)
    recall = evaluation.recall_at_k(eval_E, eval_ds.label_matrix, recall_ks)
    classification = None
    if len(np.unique(train_y)) == 2:
        test_y = evaluation.abnormal_labels(eval_ds, normal_label)
        metrics = evaluation.logistic_probe(train_E, train_y, eval_E, test_y)
        classification = vars(metrics)
    payload = {
        "nmi": score,
        "recall_at": {str(k): recall[k] for k in sorted(recall_ks)},
        "classification": classification,
        "distinct_label_sets": k_truth,
    }
    return json.dumps(payload, indent=2) + "\n"

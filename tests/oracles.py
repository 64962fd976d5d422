"""Independent reference implementations used to check the library.

Everything here is written against the mathematical definitions with plain
loops and ``math`` calls, deliberately avoiding the code paths under test,
except the frozen per-item implementations at the end, which are bitwise
references for the array path.
"""

import math
from dataclasses import dataclass

import numpy as np

from mlembed.errors import ContractError, DegenerateGroupError, GroupRejected, SamplingError


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
    candidate_sets = dataset.distinct_label_sets()
    sums = np.stack([proto[sorted(s)].sum(axis=0) for s in candidate_sets])
    assignment = []
    for ex in dataset.examples:
        d = ((sums - ex.features) ** 2).sum(axis=1)
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
# The per-example ML2/ML2+ sampler, the per-group loss kernels and the
# per-item training steps as they were before the array path replaced them.
# They are kept verbatim in behaviour, so the array path can be checked for
# identical random-stream use, bitwise-identical loss values and gradients,
# and identical trained parameters.

FROZEN_MAX_DRAW_ATTEMPTS = 100


@dataclass(frozen=True)
class FrozenGroup:
    anchor: object
    positives: tuple
    negatives: tuple
    tau_values: tuple


def _frozen_overlap_tau(a, b):
    sa, sb = frozenset(a), frozenset(b)
    union = len(sa | sb)
    return (union - len(sa & sb)) / union


def _frozen_draw(pool, rng):
    return pool[int(rng.integers(len(pool)))]


def frozen_sample_group_ml2(ds, anchor, rng):
    used = {anchor.id}
    drawn = []
    for label in range(ds.label_count):
        pool = [i for i in ds.positions_with_label(label) if ds.examples[i].id != anchor.id]
        if not pool:
            raise SamplingError(f"label {label} has no candidate besides the anchor")
        for _ in range(FROZEN_MAX_DRAW_ATTEMPTS):
            ex = ds.examples[_frozen_draw(pool, rng)]
            if ex.id not in used:
                break
        else:
            raise GroupRejected(f"no distinct representative for label {label}")
        used.add(ex.id)
        drawn.append(ex)

    positives = tuple(ex for ex in drawn if ex.labels & anchor.labels)
    negatives = tuple(ex for ex in drawn if not (ex.labels & anchor.labels))
    if not negatives:
        raise GroupRejected(f"anchor {anchor.id!r} leaves an empty negative set")
    taus = tuple(_frozen_overlap_tau(anchor.labels, ex.labels) for ex in positives)
    return FrozenGroup(anchor, positives, negatives, taus)


def frozen_sample_group_ml2plus(ds, anchor, rng):
    anchor_labels = sorted(anchor.labels)
    p = len(anchor_labels)
    if p == ds.label_count:
        raise GroupRejected(f"anchor {anchor.id!r} carries all labels; empty negative set")

    used = {anchor.id}
    positives = []
    for label in anchor_labels:
        pool = [i for i in ds.single_label_positions(label) if ds.examples[i].id != anchor.id]
        if not pool:
            raise SamplingError(f"no single-label example for label {label}")
        for _ in range(FROZEN_MAX_DRAW_ATTEMPTS):
            ex = ds.examples[_frozen_draw(pool, rng)]
            if ex.id not in used:
                break
        else:
            raise GroupRejected(f"no distinct single-label positive for label {label}")
        used.add(ex.id)
        positives.append(ex)

    negatives = []
    for label in sorted(frozenset(range(ds.label_count)) - anchor.labels):
        pool = ds.positions_with_label(label)
        if not pool:
            raise SamplingError(f"label {label} has no examples")
        chosen = None
        for _ in range(FROZEN_MAX_DRAW_ATTEMPTS):
            ex = ds.examples[_frozen_draw(pool, rng)]
            if ex.id not in used and not (ex.labels & anchor.labels):
                chosen = ex
                break
        if chosen is None:
            valid = [
                ds.examples[i]
                for i in pool
                if ds.examples[i].id not in used and not (ds.examples[i].labels & anchor.labels)
            ]
            if not valid:
                raise SamplingError(
                    f"no zero-overlap negative for label {label} given anchor {anchor.id!r}"
                )
            chosen = valid[int(rng.integers(len(valid)))]
        used.add(chosen.id)
        negatives.append(chosen)

    tau = (p - 1) / p
    return FrozenGroup(anchor, tuple(positives), tuple(negatives), (tau,) * p)


def frozen_build_group_minibatch(ds, b, regime, rng):
    sample = {"ml2": frozen_sample_group_ml2, "ml2plus": frozen_sample_group_ml2plus}[regime]
    if b > len(ds):
        raise SamplingError(f"batch size {b} exceeds split size {len(ds)}")
    items = []
    for pos in rng.permutation(len(ds)):
        try:
            items.append(sample(ds, ds.examples[int(pos)], rng))
        except GroupRejected:
            continue
        if len(items) == b:
            break
    if len(items) < b:
        raise SamplingError(f"only {len(items)} of {b} requested items could be assembled")
    return items


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
    d, g = _frozen_dists_and_grads(anchor, N, cfg.epsilon_dist)
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
    d_p, g_p = _frozen_dists_and_grads(anchor, P, cfg.epsilon_dist)
    hinges = d_p - cfg.margin * taus + neg_value
    active = (hinges > 0.0).astype(np.float64)
    n_active = int(np.count_nonzero(active))
    value = float(np.sum(hinges * active)) / p

    anchor_grad = (active @ g_p) / p + (n_active / p) * neg_anchor_grad
    positive_grads = -(active[:, None] * g_p) / p
    negative_grads = (n_active / p) * neg_grads
    return value, anchor_grad, positive_grads, negative_grads


def frozen_ml2plus_loss(group, emb, cfg):
    for pos in group.positives:
        if len(pos.labels) != 1:
            raise ContractError(f"positive {pos.id!r} is not single-label")
    p = len(group.positives)
    tau = (p - 1) / p
    anchor = emb[group.anchor.id]
    P = np.stack([emb[ex.id] for ex in group.positives])
    N = np.stack([emb[ex.id] for ex in group.negatives])
    return frozen_ml2_loss(anchor, P, N, np.full(p, tau), cfg)


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


def frozen_metric_batch_step(model, train_ds, cfg, lcfg, rng):
    """The per-item optimizer step of any regime (gradients only; the caller steps)."""
    if cfg.loss in ("contrastive", "triplet"):
        return frozen_item_batch_step(model, train_ds, cfg, lcfg, rng)
    items = frozen_build_group_minibatch(train_ds, cfg.batch_size, cfg.loss, rng)
    feats, layout = [], []
    for item in items:
        start = len(feats)
        feats.append(item.anchor.features)
        feats.extend(ex.features for ex in item.positives)
        feats.extend(ex.features for ex in item.negatives)
        layout.append((start, len(item.positives), len(item.negatives)))

    E, cache = model.embed(np.stack(feats))
    G = np.zeros_like(E)
    total = 0.0
    for item, (start, p, n) in zip(items, layout):
        a, P, N = E[start], E[start + 1 : start + 1 + p], E[start + 1 + p : start + 1 + p + n]
        if cfg.loss == "ml2":
            out = frozen_ml2_loss(a, P, N, item.tau_values, lcfg)
        else:
            emb = {item.anchor.id: a}
            emb.update({ex.id: P[i] for i, ex in enumerate(item.positives)})
            emb.update({ex.id: N[j] for j, ex in enumerate(item.negatives)})
            out = frozen_ml2plus_loss(item, emb, lcfg)
        value, G[start], G[start + 1 : start + 1 + p], G[start + 1 + p : start + 1 + p + n] = out
        total += value

    model.params.zero_grads()
    model.backward_embed(cache, G / cfg.batch_size)
    return total / cfg.batch_size


def frozen_pretrain_batch_step(model, train_ds, cfg, rng):
    if cfg.batch_size > len(train_ds):
        raise SamplingError(f"batch size {cfg.batch_size} exceeds split size {len(train_ds)}")
    idx = rng.choice(len(train_ds), size=cfg.batch_size, replace=False)
    X = np.stack([train_ds.examples[int(i)].features for i in idx])
    log_probs, cache = model.classify(X)
    G = np.empty_like(log_probs)
    total = 0.0
    for row, i in enumerate(idx):
        value, G[row] = frozen_pretrain_loss(
            log_probs[row], train_ds.examples[int(i)].labels, train_ds.label_count
        )
        total += value
    model.params.zero_grads()
    model.backward_classify(cache, G / cfg.batch_size)
    return total / cfg.batch_size


# The Example-level pair/triplet sampler, the scalar contrastive and triplet
# kernels, and the per-item pair/triplet training step, as they were before
# the baselines moved onto position rows and the batched kernels.


def _frozen_draw_partner(ds, anchor, want_shared, rng):
    n = len(ds)
    for _ in range(FROZEN_MAX_DRAW_ATTEMPTS):
        ex = ds.examples[int(rng.integers(n))]
        if ex.id == anchor.id:
            continue
        if bool(ex.labels & anchor.labels) == want_shared:
            return ex
    valid = [
        ex
        for ex in ds.examples
        if ex.id != anchor.id and bool(ex.labels & anchor.labels) == want_shared
    ]
    if not valid:
        return None
    return valid[int(rng.integers(len(valid)))]


def frozen_sample_pair(ds, anchor, rng):
    """Returns (first, second, same)."""
    want_shared = bool(rng.random() < 0.5)
    partner = _frozen_draw_partner(ds, anchor, want_shared, rng)
    if partner is None:
        want_shared = not want_shared
        partner = _frozen_draw_partner(ds, anchor, want_shared, rng)
    if partner is None:
        raise GroupRejected(f"anchor {anchor.id!r} has no pair partner")
    return anchor, partner, want_shared


def frozen_sample_triplet(ds, anchor, rng):
    """Returns (anchor, positive, negative)."""
    positive = _frozen_draw_partner(ds, anchor, True, rng)
    if positive is None:
        raise GroupRejected(f"anchor {anchor.id!r} has no positive candidate")
    negative = _frozen_draw_partner(ds, anchor, False, rng)
    if negative is None:
        raise GroupRejected(f"anchor {anchor.id!r} has no zero-overlap negative")
    return anchor, positive, negative


def frozen_build_item_minibatch(ds, b, regime, rng):
    sample = {"contrastive": frozen_sample_pair, "triplet": frozen_sample_triplet}[regime]
    if b > len(ds):
        raise SamplingError(f"batch size {b} exceeds split size {len(ds)}")
    items = []
    for pos in rng.permutation(len(ds)):
        try:
            items.append(sample(ds, ds.examples[int(pos)], rng))
        except GroupRejected:
            continue
        if len(items) == b:
            break
    if len(items) < b:
        raise SamplingError(f"only {len(items)} of {b} requested items could be assembled")
    return items


def frozen_triplet_loss(anchor, positive, negative, cfg):
    """Returns (value, anchor grad, positive grad, negative grad)."""
    anchor = np.asarray(anchor, dtype=np.float64)
    d, g = _frozen_dists_and_grads(anchor, np.stack([positive, negative]), cfg.epsilon_dist)
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
    g = (2.0 * slack / (d + cfg.epsilon_dist)) * diff
    return float(slack * slack), -g, g


def frozen_item_batch_step(model, train_ds, cfg, lcfg, rng):
    """The per-item contrastive/triplet optimizer step (gradients only)."""
    items = frozen_build_item_minibatch(train_ds, cfg.batch_size, cfg.loss, rng)
    width = 3 if cfg.loss == "triplet" else 2
    feats = [ex.features for item in items for ex in item[:width]]
    E, cache = model.embed(np.stack(feats))
    G = np.zeros_like(E)
    total = 0.0
    for i, item in enumerate(items):
        if cfg.loss == "triplet":
            value, G[3 * i], G[3 * i + 1], G[3 * i + 2] = frozen_triplet_loss(
                E[3 * i], E[3 * i + 1], E[3 * i + 2], lcfg
            )
        else:
            value, G[2 * i], G[2 * i + 1] = frozen_contrastive_loss(
                E[2 * i], E[2 * i + 1], item[2], lcfg
            )
        total += value
    model.params.zero_grads()
    model.backward_embed(cache, G / cfg.batch_size)
    return total / cfg.batch_size

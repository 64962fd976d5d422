"""Loss family for multi-label metric learning, with analytic gradients.

All distance-based losses operate on embedding vectors (rows of shape (m,))
and return the scalar value together with gradients with respect to every
input embedding. Gradients are exact subgradients: embeddings that appear
only in inactive hinge terms receive zero gradient.

The overlap term ``tau`` is the Jaccard distance between two label sets; it
scales how much of the margin a positive pair is allowed to keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DegenerateGroupError


# Added to a distance before dividing by it, so coincident embeddings give a
# finite gradient.
EPSILON_DIST = 1e-8


@dataclass(frozen=True)
class LossConfig:
    """The margin shared by the loss family."""

    margin: float = 0.2

    def __post_init__(self):
        if self.margin <= 0.0:
            raise ConfigError(f"margin must be > 0, got {self.margin}")


@dataclass
class PairLossOutput:
    value: float
    grad_first: np.ndarray
    grad_second: np.ndarray


@dataclass
class TripletLossOutput:
    value: float
    anchor_grad: np.ndarray
    positive_grad: np.ndarray
    negative_grad: np.ndarray


@dataclass
class GroupLossOutput:
    value: float
    anchor_grad: np.ndarray
    positive_grads: np.ndarray  # (p, m)
    negative_grads: np.ndarray  # (n, m)


@dataclass
class SmoothMaxTerm:
    value: float
    anchor_grad: np.ndarray
    negative_grads: np.ndarray  # (n, m)


@dataclass
class PretrainLossOutput:
    value: float
    logit_grads: np.ndarray  # (l, 2), gradients w.r.t. the pre-softmax logits


def _dists_and_grads(anchor: np.ndarray, others: np.ndarray):
    """Distances from the anchor to each row, plus d(dist)/d(anchor).

    ``anchor`` is (..., m) and ``others`` (..., n, m), so a stack of groups
    is handled the same way as one group. The gradient with respect to row
    i is the negation of row i of the returned gradient matrix.
    :data:`EPSILON_DIST` removes the d=0 singularity.
    """
    diffs = anchor[..., None, :] - others
    d = np.linalg.norm(diffs, axis=-1)
    grads = diffs / (d + EPSILON_DIST)[..., None]
    return d, grads


def _as_matrix(vectors, name: str) -> np.ndarray:
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DegenerateGroupError(f"{name} set is empty")
    return arr


def triplet_loss(anchor, positive, negative, cfg: LossConfig) -> TripletLossOutput:
    """Hinged triplet loss max(0, d(a, x+) - d(a, x-) + margin) of one
    triplet: the ML2 loss of a group with one positive, one negative and
    tau = 0, so it is a ``b = 1`` call of :func:`ml2_batch_loss`."""
    E = np.stack([anchor, positive, negative])[None]
    values, G = ml2_batch_loss(E, np.ones(1, dtype=np.intp), np.zeros((1, 2)), cfg)
    return TripletLossOutput(float(values[0]), G[0, 0], G[0, 1], G[0, 2])


def group_loss(
    anchor: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    cfg: LossConfig,
) -> GroupLossOutput:
    """Mean of the hinged triplet loss over all positive x negative pairs."""
    anchor = np.asarray(anchor, dtype=np.float64)
    P = _as_matrix(positives, "positive")
    N = _as_matrix(negatives, "negative")
    p, n = P.shape[0], N.shape[0]

    d_p, g_p = _dists_and_grads(anchor, P)
    d_n, g_n = _dists_and_grads(anchor, N)
    raw = d_p[:, None] - d_n[None, :] + cfg.margin
    active = raw > 0.0
    value = float(np.sum(raw[active])) / (p * n)

    row_counts = active.sum(axis=1).astype(np.float64)  # active terms per positive
    col_counts = active.sum(axis=0).astype(np.float64)  # active terms per negative
    scale = 1.0 / (p * n)
    anchor_grad = scale * (row_counts @ g_p - col_counts @ g_n)
    positive_grads = -scale * row_counts[:, None] * g_p
    negative_grads = scale * col_counts[:, None] * g_n
    return GroupLossOutput(value, anchor_grad, positive_grads, negative_grads)


def max_negative(anchor: np.ndarray, negatives: np.ndarray, cfg: LossConfig) -> float:
    """Largest contribution over the negative set: max_j (margin - d(a, x_j))."""
    anchor = np.asarray(anchor, dtype=np.float64)
    N = _as_matrix(negatives, "negative")
    d = np.linalg.norm(anchor[None, :] - N, axis=1)
    return float(np.max(cfg.margin - d))


def smooth_max_negative(
    anchor: np.ndarray, negatives: np.ndarray, cfg: LossConfig
) -> SmoothMaxTerm:
    """Log-sum-exp upper bound of :func:`max_negative`, max-shifted for safety.

    Satisfies max_negative <= value <= max_negative + log(n).
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    N = _as_matrix(negatives, "negative")
    d, g = _dists_and_grads(anchor, N)
    terms = cfg.margin - d
    shift = terms.max()
    exps = np.exp(terms - shift)
    total = exps.sum()
    weights = exps / total  # softmax over the terms
    return SmoothMaxTerm(float(shift + np.log(total)), -(weights @ g), weights[:, None] * g)


def overlap_tau(a, b) -> float:
    """Jaccard distance between two non-empty label sets.

    0 when the sets are equal, 1 when they are disjoint.
    """
    sa, sb = frozenset(a), frozenset(b)
    if not sa or not sb:
        raise ContractError("overlap_tau requires non-empty label sets")
    union = len(sa | sb)
    inter = len(sa & sb)
    return (union - inter) / union


def ml2_loss(
    anchor: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    taus,
    cfg: LossConfig,
) -> GroupLossOutput:
    """Overlap-aware multi-label loss for one group; see :func:`ml2_batch_loss`."""
    anchor = np.asarray(anchor, dtype=np.float64)
    P = _as_matrix(positives, "positive")
    N = _as_matrix(negatives, "negative")
    taus = np.asarray(taus, dtype=np.float64)
    p = P.shape[0]
    if taus.shape != (p,):
        raise ContractError(f"expected {p} tau values, got shape {taus.shape}")
    tau_row = np.concatenate([taus, np.zeros(N.shape[0])])
    values, G = ml2_batch_loss(np.vstack([anchor, P, N])[None], np.array([p]), tau_row[None], cfg)
    return GroupLossOutput(float(values[0]), G[0, 0], G[0, 1 : 1 + p], G[0, 1 + p :])


def ml2_batch_loss(E: np.ndarray, p, taus, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Overlap-aware multi-label loss over a batch of groups.

    Row i of ``E`` (b, 1 + k, m) holds one group: the anchor, then its
    ``p[i]`` positives, then its k - p[i] negatives. ``taus`` (b, k) gives
    each positive's tau in its first p[i] columns; later columns are
    ignored but must also lie in [0, 1]. Per group the loss is

        (1/p) sum_i max(0, d(a, x+_i) - margin * tau_i + smooth_max_negative).

    Every active hinge shares the same smooth negative term, so negatives
    collect one log-sum-exp-weighted gradient per active positive. Returns
    the per-group values (b,) and the gradients with respect to ``E``.

    The whole stack is one masked expression: the log-sum-exp runs over the
    columns at or after p (the earlier ones are -inf), and the hinges over
    the columns before p. A NaN embedding gives a NaN value.
    """
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 3:
        raise ContractError(f"groups {E.shape} do not fit (b, 1 + k, m)")
    b, width, _ = E.shape
    k = width - 1
    p = np.asarray(p)
    taus = np.asarray(taus, dtype=np.float64)
    if p.shape != (b,) or taus.shape != (b, k):
        raise ContractError(f"p {p.shape} and taus {taus.shape} do not fit groups {E.shape}")
    if (p < 1).any():
        raise DegenerateGroupError("positive set is empty")
    if (p >= k).any():
        raise DegenerateGroupError("negative set is empty")
    if not ((taus >= 0.0) & (taus <= 1.0)).all():  # NaN fails both
        raise ContractError("tau values must lie in [0, 1]")

    d, g = _dists_and_grads(E[:, 0], E[:, 1:])
    positive = np.arange(k) < p[:, None]
    terms = np.where(positive, -np.inf, cfg.margin - d)
    shift = terms.max(axis=1, keepdims=True)
    exps = np.exp(terms - shift)
    total = exps.sum(axis=1, keepdims=True)
    weights = exps / total  # softmax over the negatives, 0 on the positives
    hinges = d - cfg.margin * taus + (shift + np.log(total))
    # A float mask, not np.where: a NaN hinge must keep the value NaN.
    active = (positive & (hinges > 0.0)).astype(np.float64)
    values = (hinges * active).sum(axis=1) / p
    # d(value)/d(distance) is -coef: 1/p on an active positive, and minus
    # the share of active hinges times the softmax weight on a negative.
    share = active.sum(axis=1, keepdims=True) / p[:, None]
    coef = share * weights - active / p[:, None]
    G = np.empty_like(E)
    G[:, 1:] = coef[..., None] * g
    G[:, 0] = -(coef[:, None, :] @ g)[:, 0]
    return values, G


def contrastive_loss(x1, x2, same: bool, cfg: LossConfig) -> PairLossOutput:
    """Contrastive loss of one pair; see :func:`contrastive_batch_loss`."""
    values, G = contrastive_batch_loss(np.stack([x1, x2])[None], np.array([same]), cfg)
    return PairLossOutput(float(values[0]), G[0, 0], G[0, 1])


def contrastive_batch_loss(E: np.ndarray, same, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Squared-distance contrastive loss per pair: d^2 for similar pairs,
    max(0, margin - d)^2 for dissimilar ones.

    Row i of ``E`` (b, 2, m) holds one pair and ``same[i]`` says whether it
    is similar. Returns the values (b,) and the gradients with respect to
    ``E``; inactive dissimilar pairs get exactly zero gradient.
    """
    E = np.asarray(E, dtype=np.float64)
    same = np.asarray(same, dtype=bool)
    if E.ndim != 3 or E.shape[1] != 2 or same.shape != E.shape[:1]:
        raise ContractError(f"pairs {E.shape} and flags {same.shape} do not fit (b, 2, m), (b,)")
    diff = E[:, 0] - E[:, 1]
    # A per-row dot product, as the scalar ``diff @ diff`` and ``norm(diff)``
    # compute it; a reduction over the last axis rounds differently.
    sq = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
    d = np.sqrt(sq)
    slack = cfg.margin - d
    active = same | (slack > 0.0)
    values = np.where(same, sq, np.where(active, slack * slack, 0.0))
    scale = np.where(same, 2.0, -2.0 * slack / (d + EPSILON_DIST))
    g = scale[active, None] * diff[active]
    G = np.zeros_like(E)
    G[active, 0] = g
    G[active, 1] = -g
    return values, G


def ml2plus_loss(anchor, positives, negatives, cfg: LossConfig) -> GroupLossOutput:
    """ML2 with the fixed overlap tau = (p - 1) / p of p single-label
    positives; the caller guarantees that they are single-label."""
    P = _as_matrix(positives, "positive")
    p = P.shape[0]
    return ml2_loss(anchor, P, negatives, np.full(p, (p - 1) / p), cfg)


def pretrain_loss(log_probs: np.ndarray, labels, label_count: int) -> PretrainLossOutput:
    """Pre-training loss of one example; see :func:`pretrain_batch_loss`.

    ``log_probs`` is an (l, 2) array of log-softmax pairs.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.shape != (label_count, 2):
        raise ContractError(f"expected log-probs of shape ({label_count}, 2), got {lp.shape}")
    present = np.zeros(label_count, dtype=bool)
    present[list(labels)] = True
    values, grads = pretrain_batch_loss(lp[None], present[None])
    return PretrainLossOutput(float(values[0]), grads[0])


def pretrain_batch_loss(
    log_probs: np.ndarray, present: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean negative log-likelihood over per-label present/absent heads.

    ``log_probs`` is a (b, l, 2) array of log-softmax pairs with column 0 the
    log-probability that the label is present; ``present`` is the (b, l)
    label matrix. Returns the per-row values (b,) and the gradients with
    respect to the pre-softmax logits: (softmax - onehot) / l.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    b, l, _ = lp.shape
    probs = np.exp(lp)
    sums = probs.sum(axis=2)
    off = np.abs(sums - 1.0) > 1e-9
    if np.any(off):
        row, head = np.argwhere(off)[0]
        raise ContractError(
            f"row {row} head {head} is not a log-softmax pair (exp-sum {sums[row, head]:.12f})"
        )
    truth_col = np.where(present, 0, 1)[:, :, None]
    values = -np.mean(np.take_along_axis(lp, truth_col, axis=2)[:, :, 0], axis=1)
    onehot = np.zeros_like(lp)
    np.put_along_axis(onehot, truth_col, 1.0, axis=2)
    return values, (probs - onehot) / l

"""Anchor group construction: one drawn representative per label, split into
positives (share a label with the anchor) and negatives (share none).

All draws are uniform; there is deliberately no hard-example mining of any
kind here, so a step's batch does not depend on the model. One batched
path draws the minibatches of a block of steps with array calls over the
whole block, each step's anchors uniform without replacement within the
step, and the per-anchor samplers are one-anchor calls of it. An anchor
whose group cannot be completed is rejected
(:class:`~mlembed.errors.GroupRejected`) and replaced by one its step has
not tried; only a label with no example at all, or a step that the split
cannot fill, raises :class:`~mlembed.errors.SamplingError`, which aborts
training at that step.

Every regime draws rows of dataset positions, ``[anchor, positives...,
negatives...]``, so a minibatch is a dense index matrix (:class:`GroupBatch`):
``(b, 1 + l)`` for ML2 and ML2+, ``[anchor, partner]`` for the contrastive
pairs (one positive when the partner is similar, none otherwise) and
``[anchor, positive, negative]`` for the triplets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import Dataset
from .errors import ContractError, GroupRejected, SamplingError

REGIMES = ("contrastive", "triplet", "ml2", "ml2plus")

# The random stream of these draws, recorded in every run manifest. Any
# change to what is drawn, or in which order, starts a new stream.
SAMPLER_STREAM = 3

# Candidates drawn for each open slot in one round (see _fill), and the
# rounds before the draw among every candidate that passes.
CANDIDATES = 16
ROUNDS = 4


@dataclass(frozen=True)
class GroupBatch:
    """A minibatch of any regime as arrays.

    ``rows`` (b, 1 + k) holds dataset positions, each row the anchor, then
    its ``p[i]`` positives, then its k - p[i] negatives. ``taus`` (b, k)
    holds each positive's tau in the first p[i] columns and 0 after; the
    pair and triplet regimes keep the full margin, so their taus are 0.
    """

    rows: np.ndarray
    p: np.ndarray
    taus: np.ndarray


def _passes(ds: Dataset, cand, anchors, shared):
    """Which candidates ``cand`` (t, s, c) may fill the slots (t, s) of
    ``anchors`` (t,): not the anchor and, unless ``shared`` (t, s) is None,
    sharing a label with the anchor exactly where ``shared`` is True. The
    shared labels are counted as a product of 0/1 label rows."""
    ok = cand != anchors[:, None, None]
    if shared is not None:
        L, (t, s, c) = ds.label_matrix.view(np.uint8), cand.shape
        common = np.matmul(L.take(cand.reshape(t, s * c), axis=0), L[anchors, :, None],
                           dtype=np.float32)
        ok &= (common.reshape(t, s, c) > 0) == shared[:, :, None]
    return ok


def _fill(ds: Dataset, anchors, shared, rng, pool=None) -> np.ndarray:
    """The slots (m, s) of ``anchors``, filled in order, each uniform over
    the candidates that pass :func:`_passes` and repeat no earlier slot; -1
    from a row's first slot without one on. ``pool`` is None to draw from
    the whole split, else ``(starts, sizes)`` (m, s) in ``ds.label_pools``.

    Each round draws CANDIDATES candidates per slot of the open rows, and a
    slot takes the first that passes. A row whose picks are distinct is
    what filling it slot by slot gives and is taken in one array step; the
    others are filled slot by slot from the same candidates. After ROUNDS
    rounds, an open slot takes one draw among every candidate that passes.
    """
    m, s = len(anchors), (shared if pool is None else pool[1]).shape[1]
    chosen, todo, positions = np.full((m, s), -1), np.arange(m), ds.label_pools[0]
    for _ in range(ROUNDS):
        if not todo.size:
            return chosen
        if pool is None:
            cand = rng.integers(len(ds), size=(todo.size, s, CANDIDATES))
        else:
            starts, sizes = pool[0][todo, :, None], pool[1][todo, :, None]
            drawn = rng.integers(np.maximum(sizes, 1), size=(todo.size, s, CANDIDATES))
            cand = positions.take(starts + drawn, mode="clip")
        ok = _passes(ds, cand, anchors[todo], None if shared is None else shared[todo])
        if pool is not None:
            ok &= sizes > 0
        first = ok.reshape(-1, CANDIDATES).argmax(axis=1) + np.arange(0, cand.size, CANDIDATES)
        held = chosen[todo]
        kept = held >= 0  # slots that earlier rounds filled
        pick = np.where(kept, held, cand.ravel()[first].reshape(held.shape))
        whole = (kept | ok.ravel()[first].reshape(held.shape)).all(axis=1)
        if s > 1:
            ordered = np.sort(pick, axis=1)
            whole &= (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
        chosen[todo[whole]] = pick[whole]
        for r in np.flatnonzero(~whole).tolist():
            row = chosen[todo[r]]
            for k in np.flatnonzero(row < 0).tolist():
                good = ok[r, k] & ~np.isin(cand[r, k], row[:k])
                if not good.any():
                    break
                row[k] = cand[r, k, good.argmax()]
        todo = todo[chosen[todo, -1] < 0]
    for i in todo.tolist():  # the last resort
        row, one = chosen[i], slice(i, i + 1)
        for k in np.flatnonzero(row < 0).tolist():
            if pool is None:
                cand = np.arange(len(ds))
            else:
                cand = positions[pool[0][i, k] : pool[0][i, k] + pool[1][i, k]]
            slot_shared = None if shared is None else shared[one, k : k + 1]
            good = _passes(ds, cand[None, None], anchors[one], slot_shared)[0, 0]
            good &= ~np.isin(cand, row[:k])
            if not good.any():
                break
            row[k] = cand[good][rng.integers(np.count_nonzero(good))]
    return chosen


def _groups(ds: Dataset, anchors: np.ndarray, regime: str, rng):
    """The rows, p and taus of the ``regime`` groups of ``anchors`` that
    complete, in anchor order, and a dict from the index of each other
    anchor to its rejection. ML2 draws one representative per label; ML2+ a
    single-label positive per anchor label, then a zero-overlap negative
    per other label. A pair's partner is similar or dissimilar with equal
    probability, or of the other kind when there is none; a triplet draws
    one of each."""
    m, failures, ids = len(anchors), {}, ds.ids
    if regime in ("contrastive", "triplet"):
        pair = regime == "contrastive"
        shared = rng.random((m, 1)) < 0.5 if pair else np.tile([True, False], (m, 1))
        chosen = _fill(ds, anchors, shared, rng)
        miss = np.flatnonzero(chosen[:, 0] < 0)
        if pair and miss.size:  # the other kind of partner
            shared[miss] = ~shared[miss]
            chosen[miss] = _fill(ds, anchors[miss], shared[miss], rng)
        for i in np.flatnonzero(chosen[:, -1] < 0).tolist():
            kind = "pair partner" if pair else (
                "positive candidate" if chosen[i, 0] < 0 else "zero-overlap negative")
            failures[i] = GroupRejected(f"anchor {ids[anchors[i]]!r} has no {kind}")
        done = np.delete(np.arange(m), list(failures)) if failures else slice(None)
        rows = np.concatenate([anchors[:, None], chosen], axis=1)[done]
        return rows, shared[done, 0].astype(np.intp), np.zeros(rows[:, 1:].shape), failures

    L, bounds = ds.label_matrix, ds.label_pools[1]
    A = L[anchors]
    l, p = A.shape[1], np.count_nonzero(A, axis=1)
    if regime == "ml2plus":
        labels = np.argsort(~A, axis=1, kind="stable")  # each slot's label
        positive = np.arange(l) < p[:, None]
    else:
        labels, positive = np.broadcast_to(np.arange(l), A.shape), np.zeros_like(A)
    # A positive draws from the single-label part of its label's pool.
    pool = (bounds[labels, 0], bounds[labels, 2 - positive])
    drawn = _fill(ds, anchors, positive if regime == "ml2plus" else None, rng, pool)
    for i in np.flatnonzero(drawn[:, -1] < 0).tolist():
        j = int(np.argmax(drawn[i] < 0))  # the first slot left open
        k = int(labels[i, j])
        if positive[i, j]:
            failures[i] = GroupRejected(f"no single-label example for label {k}")
        elif bounds[k, 2] == 0:
            failures[i] = SamplingError(f"label {k} has no examples")
        elif regime == "ml2plus":
            failures[i] = GroupRejected(f"no zero-overlap negative for label {k} "
                                        f"given anchor {ids[anchors[i]]!r}")
        elif bounds[k, 2] == A[i, k]:
            failures[i] = GroupRejected(f"label {k} has no candidate besides the anchor")
        else:
            failures[i] = GroupRejected(f"no distinct representative for label {k}")
    if regime == "ml2plus":
        for i in np.flatnonzero(p == l).tolist():
            failures[i] = GroupRejected(f"anchor {ids[anchors[i]]!r} carries all labels; "
                                        "empty negative set")
        done = np.delete(np.arange(m), list(failures)) if failures else slice(None)
        rows = np.concatenate([anchors[:, None], drawn], axis=1)
        return rows[done], p[done], (positive * ((p - 1) / p)[:, None])[done], failures

    # Split each ML2 row into positives and negatives, label order kept in
    # each; an anchor whose representatives all share a label with it has
    # an empty negative set.
    done = np.flatnonzero(drawn[:, -1] >= 0)
    D, A = L.take(drawn[done], axis=0), A[done, None, :]
    inter, union = (D & A).sum(axis=2), (D | A).sum(axis=2)
    p = np.count_nonzero(inter, axis=1)
    for j in np.flatnonzero(p == l).tolist():
        failures[int(done[j])] = GroupRejected(f"anchor {ids[anchors[done[j]]]!r} leaves "
                                               "an empty negative set")
    keep = np.flatnonzero(p < l)
    order = np.argsort(inter[keep] == 0, axis=1, kind="stable")
    tau = ((union - inter) / union)[keep[:, None], order]
    rows = np.column_stack([anchors[done[keep]], drawn[done[keep][:, None], order]])
    return rows, p[keep], np.where(np.arange(l) < p[keep, None], tau, 0.0), failures


def _one_anchor(regime: str, ds: Dataset, a: int, rng) -> tuple[list[int], int, list[float]]:
    """The ``regime`` group of the anchor at position ``a``, as one row of a
    :class:`GroupBatch`: (row, p, taus) as lists; raises its rejection."""
    rows, p, taus, failures = _groups(ds, np.array([a], dtype=np.intp), regime, rng)
    if failures:
        raise failures[0]
    return rows[0].tolist(), int(p[0]), taus[0].tolist()


# The per-anchor samplers, each called as ``sample(ds, a, rng)``.
sample_group_ml2 = partial(_one_anchor, "ml2")
sample_group_ml2plus = partial(_one_anchor, "ml2plus")
sample_pair = partial(_one_anchor, "contrastive")


def build_minibatch(ds: Dataset, b: int, regime: str, rng, steps: int = 1) -> GroupBatch:
    """Assemble the ``b`` rows of each of ``steps`` steps for the given
    regime, step t in rows ``[t * b, (t + 1) * b)``, in one call.

    Each step's anchors are drawn uniformly without replacement, and one
    :func:`_groups` call takes every anchor of the block. A rejected anchor
    is replaced inside its step by one the step has not tried. When step j
    cannot be filled, its :class:`~mlembed.errors.SamplingError` carries
    the first j steps as ``batch``.
    """
    if regime not in REGIMES:
        raise ContractError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if b < 1:
        raise ContractError(f"batch size must be >= 1, got {b}")
    if steps < 1:
        raise ContractError(f"steps must be >= 1, got {steps}")
    n = len(ds)
    if b > n:
        raise SamplingError(f"batch size {b} exceeds split size {n}")

    anchors = np.concatenate([rng.choice(n, b, replace=False) for _ in range(steps)])
    owner = np.repeat(np.arange(steps), b)
    tried, tried_by = anchors, owner  # every anchor drawn, and its step
    parts, count, rejection = [], np.zeros(steps, dtype=np.intp), {}
    stop, error = steps, None  # the first step that cannot be filled, and why
    while anchors.size:
        rows, p, taus, failures = _groups(ds, anchors, regime, rng)
        for i in sorted(failures):
            t = int(owner[i])
            if t < stop and not isinstance(failures[i], GroupRejected):
                stop, error = t, failures[i]
            rejection[t] = failures[i]
        kept = np.delete(owner, list(failures)) if failures else owner
        parts.append((rows, p, taus, kept))
        count += np.bincount(kept, minlength=steps)
        # Replace the rejected anchors of each short step before the first
        # that fails with untried positions: those of a draw without
        # replacement, as many more than needed as the step tried.
        short, fresh = np.flatnonzero(count[:stop] < b), []
        for t in short.tolist():
            seen = tried[tried_by == t]
            if seen.size == n:  # b <= n, so some anchor was rejected
                stop, error = t, SamplingError(
                    f"only {count[t]} of {b} requested items could be assembled; "
                    f"last rejection: {rejection[t]}")
                break
            drawn = rng.choice(n, min(n, b - count[t] + seen.size), replace=False)
            fresh.append(drawn[~np.isin(drawn, seen)][: b - count[t]])
        anchors = np.concatenate([anchors[:0], *fresh])
        owner = np.repeat(short[: len(fresh)], [f.size for f in fresh])
        tried, tried_by = np.concatenate([tried, anchors]), np.concatenate([tried_by, owner])

    if len(parts) > 1:  # in step order, each step's rows in the order drawn
        rows, p, taus, kept = (np.concatenate(column) for column in zip(*parts))
        order = np.argsort(kept, kind="stable")
        rows, p, taus = rows[order], p[order], taus[order]
    rows, p, taus = rows[: stop * b], p[: stop * b], taus[: stop * b]
    if regime == "ml2plus":
        # Every ML2+ positive carries exactly one label (popcount 1).
        positive = np.arange(ds.label_count) < p[:, None]
        if np.any(ds.label_matrix[rows[:, 1:]].sum(axis=2)[positive] != 1):
            raise ContractError("ML2+ batch holds a positive that is not single-label")
    batch = GroupBatch(rows=rows, p=p, taus=taus)
    if error is not None:
        error.batch = batch
        raise error
    return batch

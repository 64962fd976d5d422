"""Anchor group construction: one drawn representative per label, split into
positives (share a label with the anchor) and negatives (share none).

All draws are uniform; there is deliberately no hard-example mining of any
kind here. Groups that cannot be completed for a given anchor (empty
negative set, duplicate draws that cannot be resolved) raise
:class:`~mlembed.errors.GroupRejected`, which :func:`build_minibatch`
handles by moving on to a fresh anchor.

Every regime draws rows of dataset positions, ``[anchor, positives...,
negatives...]``, so a minibatch is a dense index matrix (:class:`GroupBatch`):
``(b, 1 + l)`` for ML2 and ML2+, ``[anchor, partner]`` for the contrastive
pairs (one positive when the partner is similar, none otherwise) and
``[anchor, positive, negative]`` for the triplets.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ContractError, GroupRejected, SamplingError

REGIMES = ("contrastive", "triplet", "ml2", "ml2plus")

# Redraw budget before giving up on an anchor (duplicate or rejected draws).
MAX_DRAW_ATTEMPTS = 100


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


def _tau(mask_a: int, mask_b: int) -> float:
    """Jaccard distance of two label bitmasks (see ``losses.overlap_tau``)."""
    union = (mask_a | mask_b).bit_count()
    return (union - (mask_a & mask_b).bit_count()) / union


def _draw_distinct(
    pool: list[int], a: int, holds_anchor: bool, used: set[int], rng
) -> int | None:
    """Uniform draw from ``pool`` without the anchor position ``a``, redrawn
    while it hits ``used``; None when every attempt did.

    The anchor is skipped by shifting the drawn index past its rank, so each
    draw is one ``rng.integers`` call and the pool is never rebuilt.
    """
    rank = bisect_left(pool, a) if holds_anchor else len(pool)
    size = len(pool) - holds_anchor
    for _ in range(MAX_DRAW_ATTEMPTS):
        j = int(rng.integers(size))
        pos = pool[j + (j >= rank)]
        if pos not in used:
            used.add(pos)
            return pos
    return None


def sample_group_ml2(ds: Dataset, a: int, rng) -> tuple[list[int], int, list[float]]:
    """One ML2 group for the anchor at position ``a``: one representative
    drawn per label, split by the shared-label test. Returns (row, p, taus),
    taus the Jaccard distances of the positives and 0 after.

    A representative drawn for a label outside the anchor's set may still
    share some other label with the anchor; it then counts as a positive.
    """
    masks = ds.label_masks
    anchor_mask = masks[a]
    used = {a}
    drawn: list[int] = []
    for label in range(ds.label_count):
        pool = ds.positions_with_label(label)
        holds_anchor = bool(anchor_mask >> label & 1)
        if len(pool) == holds_anchor:
            raise SamplingError(f"label {label} has no candidate besides the anchor")
        pos = _draw_distinct(pool, a, holds_anchor, used, rng)
        if pos is None:
            raise GroupRejected(f"no distinct representative for label {label}")
        drawn.append(pos)

    positives = [i for i in drawn if masks[i] & anchor_mask]
    negatives = [i for i in drawn if not masks[i] & anchor_mask]
    if not negatives:
        raise GroupRejected(f"anchor {ds.examples[a].id!r} leaves an empty negative set")
    taus = [_tau(anchor_mask, masks[i]) for i in positives]
    return [a, *positives, *negatives], len(positives), taus + [0.0] * len(negatives)


def sample_group_ml2plus(ds: Dataset, a: int, rng) -> tuple[list[int], int, list[float]]:
    """One ML2+ group for the anchor at position ``a``: (row, p, taus).

    One single-label positive per anchor label, and one zero-overlap
    negative per remaining label. tau is (p - 1) / p throughout.
    """
    masks = ds.label_masks
    anchor_mask = masks[a]
    anchor_labels = [k for k in range(ds.label_count) if anchor_mask >> k & 1]
    p = len(anchor_labels)
    if p == ds.label_count:
        raise GroupRejected(
            f"anchor {ds.examples[a].id!r} carries all labels; empty negative set"
        )

    used = {a}
    row = [a]
    holds_anchor = p == 1  # a single-label anchor sits in its label's pool
    for label in anchor_labels:
        pool = ds.single_label_positions(label)
        if len(pool) == holds_anchor:
            raise SamplingError(f"no single-label example for label {label}")
        pos = _draw_distinct(pool, a, holds_anchor, used, rng)
        if pos is None:
            raise GroupRejected(f"no distinct single-label positive for label {label}")
        row.append(pos)

    for label in range(ds.label_count):
        if anchor_mask >> label & 1:
            continue
        pool = ds.positions_with_label(label)
        if not pool:
            raise SamplingError(f"label {label} has no examples")
        for _ in range(MAX_DRAW_ATTEMPTS):
            pos = pool[int(rng.integers(len(pool)))]
            if pos not in used and not masks[pos] & anchor_mask:
                break
        else:
            # Rare path: prove whether a valid candidate exists at all.
            valid = [i for i in pool if i not in used and not masks[i] & anchor_mask]
            if not valid:
                raise SamplingError(
                    f"no zero-overlap negative for label {label} given anchor "
                    f"{ds.examples[a].id!r}"
                )
            pos = valid[int(rng.integers(len(valid)))]
        used.add(pos)
        row.append(pos)

    tau = (p - 1) / p
    return row, p, [tau] * p + [0.0] * (ds.label_count - p)


def _draw_partner(ds: Dataset, a: int, want_shared: bool, rng) -> int | None:
    """Uniform draw over positions that share (or do not share) a label with
    the anchor at position ``a``, via rejection sampling with an exhaustive
    fallback."""
    masks = ds.label_masks
    anchor_mask = masks[a]
    n = len(masks)
    for _ in range(MAX_DRAW_ATTEMPTS):
        i = int(rng.integers(n))
        if i != a and bool(masks[i] & anchor_mask) == want_shared:
            return i
    valid = [i for i in range(n) if i != a and bool(masks[i] & anchor_mask) == want_shared]
    if not valid:
        return None
    return valid[int(rng.integers(len(valid)))]


def sample_pair(ds: Dataset, a: int, rng) -> tuple[list[int], int, list[float]]:
    """Similar/dissimilar pair for the anchor at position ``a`` with equal
    probability; falls back to the other kind when the requested one has no
    candidates. Returns (``[a, partner]``, 1 if similar else 0, ``[0.0]``)."""
    want_shared = bool(rng.random() < 0.5)
    partner = _draw_partner(ds, a, want_shared, rng)
    if partner is None:
        want_shared = not want_shared
        partner = _draw_partner(ds, a, want_shared, rng)
    if partner is None:
        raise GroupRejected(f"anchor {ds.examples[a].id!r} has no pair partner")
    return [a, partner], int(want_shared), [0.0]


def sample_triplet(ds: Dataset, a: int, rng) -> tuple[list[int], int, list[float]]:
    """Triplet for the anchor at position ``a``: (``[a, positive, negative]``,
    1, ``[0.0, 0.0]``)."""
    positive = _draw_partner(ds, a, True, rng)
    if positive is None:
        raise GroupRejected(f"anchor {ds.examples[a].id!r} has no positive candidate")
    negative = _draw_partner(ds, a, False, rng)
    if negative is None:
        raise GroupRejected(f"anchor {ds.examples[a].id!r} has no zero-overlap negative")
    return [a, positive, negative], 1, [0.0, 0.0]


def build_minibatch(ds: Dataset, b: int, regime: str, rng) -> GroupBatch:
    """Assemble ``b`` rows for the given regime.

    Anchors are drawn uniformly without replacement; anchors whose row
    cannot be completed are skipped.
    """
    if regime not in REGIMES:
        raise ContractError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if b < 1:
        raise ContractError(f"batch size must be >= 1, got {b}")
    if b > len(ds):
        raise SamplingError(f"batch size {b} exceeds split size {len(ds)}")

    # Looked up by module-level name on every call, so a rebound sampler
    # (the benchmark's tracer counts calls this way) takes effect.
    samplers = {
        "ml2": sample_group_ml2,
        "ml2plus": sample_group_ml2plus,
        "triplet": sample_triplet,
        "contrastive": sample_pair,
    }
    sample = samplers[regime]

    items = []
    for pos in rng.permutation(len(ds)):
        try:
            items.append(sample(ds, int(pos), rng))
        except GroupRejected:
            continue
        if len(items) == b:
            break
    if len(items) < b:
        raise SamplingError(
            f"only {len(items)} of {b} requested items could be assembled"
        )

    rows, p, taus = (np.array(column) for column in zip(*items))
    if regime == "ml2plus":
        # Every ML2+ positive carries exactly one label (popcount 1).
        positive = np.arange(ds.label_count) < p[:, None]
        if np.any(ds.label_matrix[rows[:, 1:]].sum(axis=2)[positive] != 1):
            raise ContractError("ML2+ batch holds a positive that is not single-label")
    return GroupBatch(rows=rows, p=p, taus=taus)

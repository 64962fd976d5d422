import re

import numpy as np
import pytest

from mlembed.dataset import Dataset
from mlembed.errors import ContractError, GroupRejected, SamplingError
from mlembed import sampler
from mlembed.losses import overlap_tau
from mlembed.sampler import GroupBatch, build_minibatch, sample_group_ml2, sample_group_ml2plus
from mlembed.trainer import DRAW_ANCHORS
from conftest import make_dataset


def five_label_dataset():
    """l=5; labels 1 and 2 have only single-label examples, the anchor has
    {1, 2}, and labels 0/3/4 never overlap with it."""
    specs = [
        ("anchor", {1, 2}),
        ("a1", {1}),
        ("b1", {1}),
        ("a2", {2}),
        ("b2", {2}),
        ("n0", {0}),
        ("n3", {3}),
        ("n4", {3, 4}),
        ("m4", {4}),
        ("m3", {3}),
    ]
    return make_dataset(specs, label_count=5)


def drawn_group(sample, ds, anchor_id, rng):
    """One row drawn for the anchor, checked for shape and split into its
    positive positions, negative positions and the positives' taus."""
    row, p, taus = sample(ds, ds.ids.index(anchor_id), rng)
    assert row[0] == ds.ids.index(anchor_id)
    assert len(row) == 1 + ds.label_count and len(taus) == ds.label_count
    assert taus[p:] == [0.0] * (ds.label_count - p)
    return row[1 : 1 + p], row[1 + p :], taus[:p]


class TestSampleGroupMl2:
    def test_partition_counts(self):
        ds = five_label_dataset()
        rng = np.random.default_rng(0)
        positives, negatives, _ = drawn_group(sample_group_ml2, ds, "anchor", rng)
        assert len(positives) == 2
        assert len(negatives) == 3
        assert len(positives) + len(negatives) == ds.label_count

    def test_positives_share_negatives_do_not(self):
        ds = five_label_dataset()
        anchor_labels = ds.labels[ds.ids.index("anchor")]
        for seed in range(30):
            positives, negatives, _ = drawn_group(
                sample_group_ml2, ds, "anchor", np.random.default_rng(seed)
            )
            for pos in positives:
                assert ds.labels[pos] & anchor_labels
            for neg in negatives:
                assert not (ds.labels[neg] & anchor_labels)

    def test_outside_label_draw_sharing_becomes_positive(self):
        # label 3's only candidate also carries label 1, so an anchor with
        # {1} must classify it positive even though it was drawn for label 3
        specs = [
            ("anchor", {1}),
            ("p1", {1}),
            ("x13", {1, 3}),
            ("n0", {0}),
            ("n2", {2}),
        ]
        ds = make_dataset(specs, label_count=4)
        positives, negatives, _ = drawn_group(
            sample_group_ml2, ds, "anchor", np.random.default_rng(1)
        )
        positive_ids = {ds.ids[i] for i in positives}
        assert "x13" in positive_ids
        assert len(positives) == 2 and len(negatives) == 2

    def test_tau_values_match_overlap(self):
        ds = five_label_dataset()
        anchor_labels = ds.labels[ds.ids.index("anchor")]
        positives, _, taus = drawn_group(sample_group_ml2, ds, "anchor", np.random.default_rng(2))
        for pos, tau in zip(positives, taus, strict=True):
            assert tau == overlap_tau(anchor_labels, ds.labels[pos])

    def test_anchor_excluded(self):
        ds = five_label_dataset()
        for seed in range(20):
            positives, negatives, _ = drawn_group(
                sample_group_ml2, ds, "anchor", np.random.default_rng(seed)
            )
            ids = [ds.ids[i] for i in positives + negatives]
            assert "anchor" not in ids
            assert len(ids) == len(set(ids))

    def test_all_labels_anchor_rejected(self):
        specs = [("anchor", {0, 1}), ("x0", {0}), ("x1", {1}), ("x01", {0, 1})]
        ds = make_dataset(specs, label_count=2)
        with pytest.raises(GroupRejected, match="empty negative"):
            sample_group_ml2(ds, ds.ids.index("anchor"), np.random.default_rng(0))

    def test_label_without_candidate_named(self):
        specs = [("anchor", {0, 1}), ("x0", {0}), ("x2", {2})]
        ds = make_dataset(specs, label_count=3)
        with pytest.raises(GroupRejected, match="label 1"):
            sample_group_ml2(ds, ds.ids.index("anchor"), np.random.default_rng(0))

    def test_duplicate_pool_exhaustion_rejected(self):
        # the only example carrying labels 1 and 2 is the same record, so the
        # second slot can never be distinct from the first
        specs = [("anchor", {0}), ("x0", {0}), ("x12", {1, 2})]
        ds = make_dataset(specs, label_count=3)
        with pytest.raises(GroupRejected, match="distinct"):
            sample_group_ml2(ds, ds.ids.index("anchor"), np.random.default_rng(0))


class TestDrawRule:
    """Each slot takes up to ROUNDS rounds of CANDIDATES draws, then one draw
    among every candidate that passes; a group is rejected only when none does."""

    def test_last_resort_fills_the_slot_its_draws_missed(self, monkeypatch):
        # with no rounds, every slot is the last resort's draw: whenever x01
        # fills label 0, x1 is the only candidate left for label 1
        monkeypatch.setattr(sampler, "ROUNDS", 0)
        specs = [("anchor", {0, 1}), ("x01", {0, 1}), ("x0", {0}), ("x1", {1}), ("n2", {2})]
        ds = make_dataset(specs, label_count=3)
        filled = set()
        for seed in range(20):
            row, p, _ = sample_group_ml2(ds, 0, np.random.default_rng(seed))
            label0, label1, label2 = (ds.ids[i] for i in row[1:])
            assert p == 2 and label2 == "n2"
            if label0 == "x01":
                assert label1 == "x1"
            filled.add(label0)
        assert filled == {"x01", "x0"}

    @pytest.mark.parametrize("rounds, candidates", [(0, 16), (1, 1)])
    def test_every_seed_fills_a_group_that_has_candidates(self, monkeypatch, rounds, candidates):
        monkeypatch.setattr(sampler, "ROUNDS", rounds)
        monkeypatch.setattr(sampler, "CANDIDATES", candidates)
        ds = five_label_dataset()
        for seed in range(50):
            for sample in (sample_group_ml2, sample_group_ml2plus):
                row, _, _ = sample(ds, ds.ids.index("anchor"), np.random.default_rng(seed))
                assert len(set(row)) == len(row)

    @pytest.mark.parametrize(
        "sample, anchor_id", [(sample_group_ml2, "ab"), (sample_group_ml2plus, "s1")]
    )
    def test_last_resort_is_uniform(self, monkeypatch, sample, anchor_id):
        monkeypatch.setattr(sampler, "ROUNDS", 0)
        TestUniformDraws().test_counts_within_five_sigma(sample, anchor_id)


class TestSampleGroupMl2Plus:
    def test_three_label_anchor_tau(self):
        specs = [
            ("anchor", {1, 2, 3}),
            ("s1", {1}),
            ("s2", {2}),
            ("s3", {3}),
            ("n0", {0}),
            ("n4", {4}),
        ]
        ds = make_dataset(specs, label_count=5)
        positives, _, taus = drawn_group(
            sample_group_ml2plus, ds, "anchor", np.random.default_rng(0)
        )
        assert len(positives) == 3
        assert taus == [2 / 3, 2 / 3, 2 / 3]

    def test_single_label_anchor_tau_zero(self):
        specs = [("anchor", {1}), ("s1", {1}), ("n0", {0}), ("n2", {2})]
        ds = make_dataset(specs, label_count=3)
        positives, _, taus = drawn_group(
            sample_group_ml2plus, ds, "anchor", np.random.default_rng(0)
        )
        assert taus == [0.0]
        assert ds.labels[positives[0]] == frozenset({1})

    def test_positives_single_label_one_per_anchor_label(self, default_splits):
        ds = default_splits.train
        rng = np.random.default_rng(5)
        checked = 0
        for pos in rng.permutation(len(ds))[:100]:
            anchor_labels = ds.labels[int(pos)]
            try:
                positives, _, _ = drawn_group(sample_group_ml2plus, ds, ds.ids[int(pos)], rng)
            except GroupRejected:
                continue
            assert len(positives) == len(anchor_labels)
            drawn_labels = set()
            for i in positives:
                assert len(ds.labels[i]) == 1
                drawn_labels |= ds.labels[i]
            assert drawn_labels == anchor_labels
            checked += 1
        assert checked > 50

    def test_negatives_never_share_anchor_labels(self, default_splits):
        ds = default_splits.train
        rng = np.random.default_rng(6)
        for pos in rng.permutation(len(ds))[:200]:
            anchor_labels = ds.labels[int(pos)]
            try:
                _, negatives, _ = drawn_group(sample_group_ml2plus, ds, ds.ids[int(pos)], rng)
            except GroupRejected:
                continue
            for neg in negatives:
                assert not (ds.labels[neg] & anchor_labels)

    def test_missing_single_label_candidate_named(self):
        specs = [("anchor", {1, 2}), ("s1", {1}), ("x2", {2, 3}), ("n0", {0})]
        ds = make_dataset(specs, label_count=4)
        with pytest.raises(GroupRejected, match="label 2"):
            sample_group_ml2plus(ds, ds.ids.index("anchor"), np.random.default_rng(0))

    def test_no_zero_overlap_negative_named(self):
        # every example with label 2 also carries anchor label 1
        specs = [("anchor", {1}), ("s1", {1}), ("x12", {1, 2}), ("n0", {0})]
        ds = make_dataset(specs, label_count=3)
        with pytest.raises(SamplingError, match="label 2"):
            sample_group_ml2plus(ds, ds.ids.index("anchor"), np.random.default_rng(0))

    def test_negative_slot_left_empty_by_earlier_draws_rejects_the_anchor(self):
        # p12 is the only label-2 candidate; once "n0b" draws it as its
        # label-1 negative, the label-2 slot is empty for this anchor only
        # (and for "p1a" and "p1b", which p12 overlaps), so the group is
        # rejected and the batch moves on to the next anchor
        specs = [("p1a", {1}), ("p1b", {1}), ("p12", {1, 2}), ("n0a", {0}), ("n0b", {0})]
        ds = make_dataset(specs, label_count=3)
        n0b, p12 = ds.ids.index("n0b"), ds.ids.index("p12")
        rejected = 0
        for seed in range(12):
            try:
                row, _, _ = sample_group_ml2plus(ds, n0b, np.random.default_rng(seed))
            except GroupRejected as exc:
                assert str(exc) == "no zero-overlap negative for label 2 given anchor 'n0b'"
                rejected += 1
                continue
            assert row[-1] == p12
        assert 0 < rejected < 12
        # only the label-0 anchors can complete, so a batch of two that
        # completes holds both, whichever anchors were tried before them
        assembled = 0
        for seed in range(30):
            try:
                batch = build_minibatch(ds, 2, "ml2plus", np.random.default_rng(seed))
            except SamplingError as exc:
                assert str(exc).startswith("only "), (seed, exc)
                continue
            assert sorted(ds.ids[a] for a in batch.rows[:, 0]) == ["n0a", "n0b"]
            assembled += 1
        assert assembled

    def test_full_label_anchor_rejected(self):
        specs = [("anchor", {0, 1}), ("s0", {0}), ("s1", {1})]
        ds = make_dataset(specs, label_count=2)
        with pytest.raises(GroupRejected, match="all labels"):
            sample_group_ml2plus(ds, ds.ids.index("anchor"), np.random.default_rng(0))


# p12 is the only example carrying label 2: it has no single-label peer
# (ML2+) and no other candidate for label 2 (ML2), so it can never be an
# anchor, while the other anchors complete unless their draws take p12.
ML2PLUS_P12 = [("p1a", {1}), ("p1b", {1}), ("p12", {1, 2}), ("n0a", {0}), ("n0b", {0})]
ML2_P12 = [("n0a", {0}), ("n0b", {0}), ("p1a", {1}), ("p1b", {1}), ("p12", {1, 2})]


class TestOneAnchorNeverAborts:
    """A group that one anchor cannot complete is rejected, and the batch
    moves on to the next anchor; only a label with no example aborts."""

    @pytest.mark.parametrize(
        "sample, specs, message",
        [
            (sample_group_ml2plus, ML2PLUS_P12, "no single-label example for label 2"),
            (sample_group_ml2, ML2_P12, "label 2 has no candidate besides the anchor"),
        ],
        ids=["ml2plus", "ml2"],
    )
    def test_anchor_without_a_candidate_is_rejected(self, sample, specs, message):
        ds = make_dataset(specs, label_count=3)
        for seed in range(12):
            with pytest.raises(GroupRejected) as excinfo:
                sample(ds, ds.ids.index("p12"), np.random.default_rng(seed))
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("regime, specs", [("ml2plus", ML2PLUS_P12), ("ml2", ML2_P12)])
    def test_batch_skips_the_anchor(self, regime, specs):
        ds = make_dataset(specs, label_count=3)
        for seed in range(12):
            try:
                batch = build_minibatch(ds, 1, regime, np.random.default_rng(seed))
            except GroupRejected as exc:
                pytest.fail(f"seed {seed}: one anchor's rejection escaped: {exc}")
            except SamplingError as exc:  # every anchor drew p12 where it needed it
                assert str(exc).startswith("only 0 of 1 requested items could be assembled; "
                                           "last rejection: "), seed
                continue
            assert ds.ids[batch.rows[0, 0]] != "p12"

    @pytest.mark.parametrize("regime", ["ml2", "ml2plus"])
    def test_label_without_examples_aborts(self, regime):
        specs = [("a0", {0}), ("b0", {0}), ("a1", {1}), ("b1", {1})]
        ds = make_dataset(specs, label_count=3)
        with pytest.raises(SamplingError, match="label 2 has no examples") as excinfo:
            build_minibatch(ds, 1, regime, np.random.default_rng(0))
        assert not isinstance(excinfo.value, GroupRejected)

    def test_short_batch_gives_the_last_rejection(self):
        # every anchor but "n0a" and "n0b" is rejected; a batch of 3 falls short
        ds = make_dataset(ML2PLUS_P12, label_count=3)
        reasons = ("no single-label example for label 2"
                   "|no zero-overlap negative for label 2 given anchor '(p1a|p1b|n0a|n0b)'")
        with pytest.raises(SamplingError) as excinfo:
            build_minibatch(ds, 3, "ml2plus", np.random.default_rng(0))
        assert re.fullmatch(
            f"only [0-2] of 3 requested items could be assembled; last rejection: ({reasons})",
            str(excinfo.value),
        )


class TestBuildMinibatch:
    def test_single_item(self, default_splits):
        ds = default_splits.train
        batch = build_minibatch(ds, 1, "ml2", np.random.default_rng(0))
        assert isinstance(batch, GroupBatch)
        assert batch.rows.shape == (1, 1 + ds.label_count)
        assert batch.p.shape == (1,)
        assert batch.taus.shape == (1, ds.label_count)

    def test_deterministic_replay(self, default_splits):
        def signature(regime):
            batch = build_minibatch(default_splits.train, 8, regime, np.random.default_rng(42))
            return (batch.rows.tolist(), batch.p.tolist(), batch.taus.tolist())

        for regime in ("ml2", "ml2plus", "triplet", "contrastive"):
            assert signature(regime) == signature(regime)

    @pytest.mark.parametrize(
        "regime, width", [("contrastive", 2), ("triplet", 3), ("ml2", 6), ("ml2plus", 6)]
    )
    def test_every_regime_gives_group_batch(self, default_splits, regime, width):
        batch = build_minibatch(default_splits.train, 7, regime, np.random.default_rng(3))
        assert isinstance(batch, GroupBatch)
        assert batch.rows.shape == (7, width)
        assert batch.p.shape == (7,)
        assert batch.taus.shape == (7, width - 1)

    def test_batch_too_large(self):
        ds = five_label_dataset()
        with pytest.raises(SamplingError, match="exceeds split size"):
            build_minibatch(ds, len(ds) + 1, "ml2", np.random.default_rng(0))

    def test_invalid_batch_size(self, default_splits):
        with pytest.raises(ContractError):
            build_minibatch(default_splits.train, 0, "ml2", np.random.default_rng(0))

    def test_unknown_regime(self, default_splits):
        with pytest.raises(ContractError, match="regime"):
            build_minibatch(default_splits.train, 1, "lifted", np.random.default_rng(0))

    def test_group_invariants_per_batch(self, default_splits):
        ds = default_splits.train
        rng = np.random.default_rng(9)
        for regime in ("ml2", "ml2plus"):
            for _ in range(5):
                batch = build_minibatch(ds, 10, regime, rng)
                assert batch.rows.shape == (10, 1 + ds.label_count)
                for row, p, taus in zip(batch.rows.tolist(), batch.p.tolist(), batch.taus):
                    anchor_labels = ds.labels[row[0]]
                    positives = [ds.labels[i] for i in row[1 : 1 + p]]
                    negatives = [ds.labels[i] for i in row[1 + p :]]
                    assert len(positives) + len(negatives) == ds.label_count
                    assert row[0] not in row[1:]
                    assert len(row) == len(set(row))
                    for pos_labels, tau in zip(positives, taus[:p]):
                        assert pos_labels & anchor_labels
                        assert tau == overlap_tau(anchor_labels, pos_labels)
                    for neg_labels in negatives:
                        assert not (neg_labels & anchor_labels)

    def test_triplet_tuples_satisfy_rules(self, default_splits):
        ds = default_splits.train
        rng = np.random.default_rng(10)
        batch = build_minibatch(ds, 50, "triplet", rng)
        assert batch.rows.shape == (50, 3)
        assert batch.p.tolist() == [1] * 50
        for a, pos, neg in batch.rows.tolist():
            assert ds.labels[pos] & ds.labels[a]
            assert not (ds.labels[neg] & ds.labels[a])
            assert a not in (pos, neg)

    def test_pairs_have_consistent_flags(self, default_splits):
        ds = default_splits.train
        rng = np.random.default_rng(11)
        batch = build_minibatch(ds, 100, "contrastive", rng)
        assert batch.rows.shape == (100, 2)
        same_count = 0
        for (first, second), p in zip(batch.rows.tolist(), batch.p.tolist()):
            assert first != second
            assert p == bool(ds.labels[first] & ds.labels[second])
            same_count += p
        assert 20 <= same_count <= 80  # both kinds occur

    def test_anchors_unique_within_batch(self, default_splits):
        batch = build_minibatch(default_splits.train, 30, "ml2", np.random.default_rng(12))
        anchors = batch.rows[:, 0].tolist()
        assert len(anchors) == len(set(anchors))


def assert_group_rules(ds, batch, regime):
    """Every row of ``batch`` obeys its regime's group rules."""
    width = {"contrastive": 2, "triplet": 3}.get(regime, 1 + ds.label_count)
    assert batch.rows.shape == (len(batch.p), width)
    assert batch.taus.shape == (len(batch.p), width - 1)
    anchors = batch.rows[:, 0].tolist()
    assert len(anchors) == len(set(anchors))
    for row, p, taus in zip(batch.rows.tolist(), batch.p.tolist(), batch.taus.tolist()):
        anchor = ds.labels[row[0]]
        positives = [ds.labels[i] for i in row[1 : 1 + p]]
        negatives = [ds.labels[i] for i in row[1 + p :]]
        assert len(set(row)) == len(row)
        assert taus[p:] == [0.0] * (width - 1 - p)
        for labels in positives:
            assert labels & anchor
        for labels in negatives:
            assert not labels & anchor
        if regime == "contrastive":
            assert p in (0, 1) and taus == [0.0]
        elif regime == "triplet":
            assert p == 1 and taus == [0.0, 0.0]
        else:
            assert taus[:p] == [overlap_tau(anchor, labels) for labels in positives]
            assert frozenset().union(*positives, *negatives) >= set(range(ds.label_count)) - anchor
        if regime == "ml2plus":
            # one single-label positive per anchor label, in label order
            assert [sorted(labels) for labels in positives] == [[k] for k in sorted(anchor)]


def seventy_label_dataset():
    """l=70, past any 64-bit label bitmask: three single-label examples per
    label, and two-, three- and 70-label examples that tie far-apart labels
    together."""
    specs = [(f"s{k}-{i}", {k}) for k in range(70) for i in range(3)]
    specs += [(f"d{k}", {k, (k + 35) % 70}) for k in range(70)]
    specs += [(f"t{k}", {k, 64 + k % 6, (k * 7) % 70}) for k in range(0, 70, 5)]
    specs += [("all", set(range(70)))]
    return make_dataset(specs, label_count=70)


class TestBatchedPath:
    @pytest.mark.parametrize("regime", ["ml2", "ml2plus", "contrastive", "triplet"])
    @pytest.mark.parametrize("which", ["seventy-labels", "default"])
    def test_group_rules(self, default_splits, regime, which):
        ds = seventy_label_dataset() if which == "seventy-labels" else default_splits.train
        rng = np.random.default_rng(70)
        for _ in range(20):
            assert_group_rules(ds, build_minibatch(ds, 12, regime, rng), regime)

    @pytest.mark.parametrize("slots", ["label-pools", "label-pools-shared", "whole-split"])
    def test_array_step_is_slot_by_slot_filling(self, monkeypatch, slots):
        """A round gives every row what filling it slot by slot from the
        round's candidates gives: each slot the first candidate that passes
        and repeats no earlier slot. Half the examples carry two neighbouring
        labels, so some rows draw one example for two slots and take the
        slot-by-slot path, while the others take the array step."""
        monkeypatch.setattr(sampler, "ROUNDS", 1)  # then the last resort
        specs = [(f"s{k}-{i}", {k}) for k in range(6) for i in range(2)]
        specs += [(f"d{k}-{i}", {k, (k + 1) % 6}) for k in range(6) for i in range(2)]
        ds = make_dataset(specs, label_count=6)
        anchors, (positions, bounds) = np.arange(len(ds)), ds.label_pools
        shared, pool = None, tuple(np.tile(bounds[:, col], (len(ds), 1)) for col in (0, 2))
        if slots == "label-pools-shared":
            shared = ds.label_matrix.copy()
        elif slots == "whole-split":
            shared, pool = np.tile([True, False, True], (len(ds), 1)), None
        for seed in range(5):
            rng = Recording(np.random.default_rng(seed))
            got = sampler._fill(ds, anchors, shared, rng, pool).tolist()
            drawn = rng.results[0]  # the round's draws, then the last resort's
            cand = drawn if pool is None else positions[pool[0][:, :, None] + drawn]
            for a, row, slot_cands in zip(anchors.tolist(), got, cand.tolist()):
                want = []
                for k, candidates in enumerate(slot_cands):
                    passing = [
                        c for c in candidates if c != a and c not in want
                        and (shared is None or bool(ds.labels[c] & ds.labels[a]) == shared[a, k])
                    ]
                    if not passing:
                        break
                    want.append(passing[0])
                assert row[: len(want)] == want, (seed, a)

    def test_no_draw_grows_with_the_split(self, default_splits):
        """Every array the random stream hands ``build_minibatch`` is bounded
        by the batch, the label count and CANDIDATES, on a 2,000-row split
        and on the same rows repeated to 200,000."""
        small = default_splits.train
        reps = 200_000 // len(small)
        big = Dataset([f"r{i}" for i in range(reps * len(small))], np.zeros((reps * len(small), 1)),
                      np.tile(small.label_matrix, (reps, 1)))
        for ds in (small, big):
            for regime, b in (("ml2", 10), ("ml2plus", 10), ("contrastive", 36), ("triplet", 36)):
                rng = Recording(np.random.default_rng(72))
                for _ in range(20):
                    build_minibatch(ds, b, regime, rng)
                sizes = [np.size(out) for out in rng.results]
                bound = b * ds.label_count * sampler.CANDIDATES
                assert sizes and max(sizes) <= bound, (len(ds), regime)
                # and one full block of the metric phase's steps
                steps = DRAW_ANCHORS // b
                rng = Recording(np.random.default_rng(73))
                assert len(build_minibatch(ds, b, regime, rng, steps).p) == steps * b
                sizes = [np.size(out) for out in rng.results]
                assert sizes and max(sizes) <= steps * bound, (len(ds), regime, steps)


def step_rows(batch, b, t):
    """The rows, p and taus of step ``t`` of a block of ``b``-row steps."""
    rows = slice(t * b, (t + 1) * b)
    return GroupBatch(rows=batch.rows[rows], p=batch.p[rows], taus=batch.taus[rows])


class TestBlocks:
    """``steps`` steps of ``b`` rows drawn in one call: step t owns rows
    ``[t * b, (t + 1) * b)``, and each step draws its anchors as a batch
    of its own."""

    @pytest.mark.parametrize("regime", ["ml2", "contrastive"])
    def test_each_step_draws_distinct_anchors_uniformly(self, regime):
        # 20 single-label examples, 5 per label: no group is ever rejected
        ds = make_dataset([(f"x{k}-{i}", {k}) for k in range(4) for i in range(5)], label_count=4)
        b, steps, blocks = 5, 40, 100
        rng = np.random.default_rng(23)
        anchors = np.concatenate([
            build_minibatch(ds, b, regime, rng, steps).rows[:, 0].reshape(steps, b)
            for _ in range(blocks)
        ])
        ordered = np.sort(anchors, axis=1)
        assert (ordered[:, 1:] != ordered[:, :-1]).all()
        n_steps, n = len(anchors), len(ds)
        # every position as often as every other, in a step and in each column
        for counts, q in ((np.bincount(anchors.ravel(), minlength=n), b / n),
                          *((np.bincount(column, minlength=n), 1 / n) for column in anchors.T)):
            sigma = (n_steps * q * (1 - q)) ** 0.5
            assert np.abs(counts - n_steps * q).max() <= 5 * sigma, counts

    def test_rejected_anchor_is_replaced_inside_its_step(self):
        # b = 1 on ML2PLUS_P12: p1a, p1b and p12 are always rejected, so a
        # step whose first anchor is one of them takes n0a or n0b instead
        ds = make_dataset(ML2PLUS_P12, label_count=3)
        steps, replaced = 6, 0
        for seed in range(40):
            rng = Recording(np.random.default_rng(seed))
            try:
                batch = build_minibatch(ds, 1, "ml2plus", rng, steps)
            except SamplingError:
                continue
            first = np.concatenate(rng.results[:steps])  # each step's first anchor
            for t in range(steps):
                assert_group_rules(ds, step_rows(batch, 1, t), "ml2plus")
                anchor = ds.ids[batch.rows[t, 0]]
                assert anchor in ("n0a", "n0b")
                replaced += anchor != ds.ids[first[t]]
        assert replaced >= 20

    def test_completed_anchors_stay_in_their_step(self):
        # "all" carries every label, so its ML2+ group is always rejected;
        # every other anchor completes, in the step that drew it
        specs = [(f"s{k}-{i}", {k}) for k in range(3) for i in range(3)] + [("all", {0, 1, 2})]
        ds = make_dataset(specs, label_count=3)
        b, steps = 3, 30
        rng = Recording(np.random.default_rng(8))
        batch = build_minibatch(ds, b, "ml2plus", rng, steps)
        first = rng.results[:steps]  # each step's first anchors
        assert sum("all" in [ds.ids[a] for a in drawn] for drawn in first) >= 5
        for t, drawn in enumerate(first):
            step = step_rows(batch, b, t)
            assert_group_rules(ds, step, "ml2plus")
            assert set(drawn.tolist()) - {ds.ids.index("all")} <= set(step.rows[:, 0].tolist())

    def test_step_that_cannot_be_filled_carries_the_steps_before_it(self):
        # b = 2 on ML2PLUS_P12: a step fills only when both n0a and n0b
        # complete, so most blocks of 8 steps stop part way
        ds = make_dataset(ML2PLUS_P12, label_count=3)
        stops = set()
        for seed in range(20):
            with pytest.raises(SamplingError) as excinfo:
                build_minibatch(ds, 2, "ml2plus", np.random.default_rng(seed), 8)
            assert str(excinfo.value).startswith("only ")
            done = excinfo.value.batch
            assert len(done.p) % 2 == 0 and len(done.p) < 16
            for t in range(len(done.p) // 2):
                step = step_rows(done, 2, t)
                assert_group_rules(ds, step, "ml2plus")
                assert sorted(ds.ids[a] for a in step.rows[:, 0]) == ["n0a", "n0b"]
            stops.add(len(done.p) // 2)
        assert len(stops) > 1 and max(stops) > 0

    def test_steps_follow_the_group_rules(self, default_splits):
        ds = default_splits.train
        for regime, b in (("ml2plus", 10), ("ml2", 10), ("contrastive", 36), ("triplet", 36)):
            steps = DRAW_ANCHORS // b
            batch = build_minibatch(ds, b, regime, np.random.default_rng(74), steps)
            assert len(batch.p) == steps * b
            for t in range(steps):
                assert_group_rules(ds, step_rows(batch, b, t), regime)

    def test_invalid_step_count(self, default_splits):
        with pytest.raises(ContractError, match="steps"):
            build_minibatch(default_splits.train, 1, "ml2", np.random.default_rng(0), 0)


class Recording:
    """Forwards to a Generator and records each result it returns."""

    def __init__(self, rng):
        self.rng, self.results = rng, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            out = getattr(self.rng, name)(*args, **kwargs)
            self.results.append(out)
            return out

        return call


def disjoint_pools_dataset():
    """l=4; every example but the anchor ``ab`` carries one label, so no
    draw for ``ab`` collides with an earlier one. ``s1`` is a single-label
    anchor. Both anchors sit inside their label pools."""
    specs = [("x1", {1}), ("y1", {1}), ("s1", {1}), ("ab", {1, 2}), ("z1", {1}), ("w1", {1})]
    specs += [(f"n0-{i}", {0}) for i in range(6)]
    specs += [("x2", {2}), ("y2", {2}), ("v2", {2})]
    specs += [(f"t2-{i}", {2}) for i in range(4)]
    specs += [(f"n3-{i}", {3}) for i in range(4)]
    return make_dataset(specs, label_count=4)


class TestUniformDraws:
    """Uniform draws, no hard-example mining: for a fixed anchor, every
    candidate for a label's slot is drawn equally often."""

    DRAWS = 6000

    @staticmethod
    def candidates(ds, anchor, label, strict):
        """Ids the slot for ``label`` may draw: ML2 takes any other example
        with the label; ML2+ takes single-label positives and zero-overlap
        negatives."""
        out = []
        anchor_labels = ds.labels[anchor]
        for i, (ex_id, labels) in enumerate(zip(ds.ids, ds.labels)):
            if i == anchor or label not in labels:
                continue
            if strict and label in anchor_labels and len(labels) != 1:
                continue
            if strict and label not in anchor_labels and labels & anchor_labels:
                continue
            out.append(ex_id)
        return out

    @pytest.mark.parametrize(
        "sample, anchor_id",
        [(sample_group_ml2, "ab"), (sample_group_ml2plus, "ab"), (sample_group_ml2plus, "s1")],
    )
    def test_counts_within_five_sigma(self, sample, anchor_id):
        ds = disjoint_pools_dataset()
        anchor = ds.ids.index(anchor_id)
        rng = np.random.default_rng(2024)
        counts = {}
        for _ in range(self.DRAWS):
            positives, negatives, _ = drawn_group(sample, ds, anchor_id, rng)
            for i in positives + negatives:
                counts[ds.ids[i]] = counts.get(ds.ids[i], 0) + 1
        assert anchor_id not in counts
        strict = sample is sample_group_ml2plus
        for label in range(ds.label_count):
            pool = self.candidates(ds, anchor, label, strict)
            q = 1.0 / len(pool)
            expected = self.DRAWS * q
            sigma = (self.DRAWS * q * (1.0 - q)) ** 0.5
            for ex_id in pool:
                assert abs(counts.get(ex_id, 0) - expected) <= 5.0 * sigma, (label, ex_id)


class TestBatchContracts:
    def test_empty_pool_raises_sampling_error(self):
        # no single-label example for label 2, so no ML2+ group can be drawn
        # for an anchor carrying it, and none for the others, whose labels
        # have one single-label example each: every anchor is rejected
        specs = [("a", {1, 2}), ("s1", {1}), ("x23", {2, 3}), ("n0", {0})]
        ds = make_dataset(specs, label_count=4)
        with pytest.raises(SamplingError, match=r"^only 0 of 4 requested items could be "
                                                r"assembled; last rejection: no single-label"):
            build_minibatch(ds, len(ds), "ml2plus", np.random.default_rng(0))

    def test_multi_label_ml2plus_positive_rejected(self):
        specs = [("a", {1, 2}), ("s1", {1}), ("s2", {2}), ("t2", {2})]
        ds = make_dataset(specs + [("n0", {0}), ("m0", {0})], label_count=3)
        # the single-label part of label 1's pool now also holds the
        # two-label "a", the only positive the anchor "s1" can draw
        positions, bounds = ds.label_pools
        bounds = bounds.copy()
        bounds[1, 1] = bounds[1, 2]
        ds.label_pools = positions, bounds
        with pytest.raises(ContractError, match="single-label"):
            build_minibatch(ds, len(ds), "ml2plus", np.random.default_rng(0))

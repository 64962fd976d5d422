import numpy as np
import pytest

from mlembed.errors import ContractError, GroupRejected, SamplingError
from mlembed.losses import overlap_tau
from mlembed.sampler import GroupBatch, build_minibatch, sample_group_ml2, sample_group_ml2plus
from conftest import make_dataset
from oracles import frozen_build_group_minibatch, frozen_build_item_minibatch


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
    positive examples, negative examples and the positives' taus."""
    row, p, taus = sample(ds, ds.position(anchor_id), rng)
    assert row[0] == ds.position(anchor_id)
    assert len(row) == 1 + ds.label_count and len(taus) == ds.label_count
    assert taus[p:] == [0.0] * (ds.label_count - p)
    members = [ds.examples[i] for i in row[1:]]
    return members[:p], members[p:], taus[:p]


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
        anchor = ds.by_id("anchor")
        for seed in range(30):
            positives, negatives, _ = drawn_group(
                sample_group_ml2, ds, "anchor", np.random.default_rng(seed)
            )
            for pos in positives:
                assert pos.labels & anchor.labels
            for neg in negatives:
                assert not (neg.labels & anchor.labels)

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
        positive_ids = {ex.id for ex in positives}
        assert "x13" in positive_ids
        assert len(positives) == 2 and len(negatives) == 2

    def test_tau_values_match_overlap(self):
        ds = five_label_dataset()
        anchor = ds.by_id("anchor")
        positives, _, taus = drawn_group(sample_group_ml2, ds, "anchor", np.random.default_rng(2))
        for pos, tau in zip(positives, taus, strict=True):
            assert tau == overlap_tau(anchor.labels, pos.labels)

    def test_anchor_excluded(self):
        ds = five_label_dataset()
        for seed in range(20):
            positives, negatives, _ = drawn_group(
                sample_group_ml2, ds, "anchor", np.random.default_rng(seed)
            )
            ids = [ex.id for ex in positives + negatives]
            assert "anchor" not in ids
            assert len(ids) == len(set(ids))

    def test_all_labels_anchor_rejected(self):
        specs = [("anchor", {0, 1}), ("x0", {0}), ("x1", {1}), ("x01", {0, 1})]
        ds = make_dataset(specs, label_count=2)
        with pytest.raises(GroupRejected, match="empty negative"):
            sample_group_ml2(ds, ds.position("anchor"), np.random.default_rng(0))

    def test_label_without_candidate_named(self):
        specs = [("anchor", {0, 1}), ("x0", {0}), ("x2", {2})]
        ds = make_dataset(specs, label_count=3)
        with pytest.raises(SamplingError, match="label 1"):
            sample_group_ml2(ds, ds.position("anchor"), np.random.default_rng(0))

    def test_duplicate_pool_exhaustion_rejected(self):
        # the only example carrying labels 1 and 2 is the same record, so the
        # second slot can never be distinct from the first
        specs = [("anchor", {0}), ("x0", {0}), ("x12", {1, 2})]
        ds = make_dataset(specs, label_count=3)
        with pytest.raises(GroupRejected, match="distinct"):
            sample_group_ml2(ds, ds.position("anchor"), np.random.default_rng(0))


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
        assert positives[0].labels == frozenset({1})

    def test_positives_single_label_one_per_anchor_label(self, default_splits):
        ds = default_splits.train
        rng = np.random.default_rng(5)
        checked = 0
        for pos in rng.permutation(len(ds))[:100]:
            anchor = ds.examples[int(pos)]
            try:
                positives, _, _ = drawn_group(sample_group_ml2plus, ds, anchor.id, rng)
            except GroupRejected:
                continue
            assert len(positives) == len(anchor.labels)
            drawn_labels = set()
            for ex in positives:
                assert len(ex.labels) == 1
                drawn_labels |= ex.labels
            assert drawn_labels == anchor.labels
            checked += 1
        assert checked > 50

    def test_negatives_never_share_anchor_labels(self, default_splits):
        ds = default_splits.train
        rng = np.random.default_rng(6)
        for pos in rng.permutation(len(ds))[:200]:
            anchor = ds.examples[int(pos)]
            try:
                _, negatives, _ = drawn_group(sample_group_ml2plus, ds, anchor.id, rng)
            except GroupRejected:
                continue
            for neg in negatives:
                assert not (neg.labels & anchor.labels)

    def test_missing_single_label_candidate_named(self):
        specs = [("anchor", {1, 2}), ("s1", {1}), ("x2", {2, 3}), ("n0", {0})]
        ds = make_dataset(specs, label_count=4)
        with pytest.raises(SamplingError, match="label 2"):
            sample_group_ml2plus(ds, ds.position("anchor"), np.random.default_rng(0))

    def test_no_zero_overlap_negative_named(self):
        # every example with label 2 also carries anchor label 1
        specs = [("anchor", {1}), ("s1", {1}), ("x12", {1, 2}), ("n0", {0})]
        ds = make_dataset(specs, label_count=3)
        with pytest.raises(SamplingError, match="label 2"):
            sample_group_ml2plus(ds, ds.position("anchor"), np.random.default_rng(0))

    def test_full_label_anchor_rejected(self):
        specs = [("anchor", {0, 1}), ("s0", {0}), ("s1", {1})]
        ds = make_dataset(specs, label_count=2)
        with pytest.raises(GroupRejected, match="all labels"):
            sample_group_ml2plus(ds, ds.position("anchor"), np.random.default_rng(0))


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
                    anchor = ds.examples[row[0]]
                    positives = [ds.examples[i] for i in row[1 : 1 + p]]
                    negatives = [ds.examples[i] for i in row[1 + p :]]
                    assert len(positives) + len(negatives) == ds.label_count
                    assert row[0] not in row[1:]
                    assert len(row) == len(set(row))
                    for pos, tau in zip(positives, taus[:p]):
                        assert pos.labels & anchor.labels
                        assert tau == overlap_tau(anchor.labels, pos.labels)
                    for neg in negatives:
                        assert not (neg.labels & anchor.labels)

    def test_triplet_tuples_satisfy_rules(self, default_splits):
        ds = default_splits.train
        rng = np.random.default_rng(10)
        batch = build_minibatch(ds, 50, "triplet", rng)
        assert batch.rows.shape == (50, 3)
        assert batch.p.tolist() == [1] * 50
        for a, pos, neg in batch.rows.tolist():
            anchor = ds.examples[a]
            assert ds.examples[pos].labels & anchor.labels
            assert not (ds.examples[neg].labels & anchor.labels)
            assert a not in (pos, neg)

    def test_pairs_have_consistent_flags(self, default_splits):
        ds = default_splits.train
        rng = np.random.default_rng(11)
        batch = build_minibatch(ds, 100, "contrastive", rng)
        assert batch.rows.shape == (100, 2)
        same_count = 0
        for (first, second), p in zip(batch.rows.tolist(), batch.p.tolist()):
            assert first != second
            assert p == bool(ds.examples[first].labels & ds.examples[second].labels)
            same_count += p
        assert 20 <= same_count <= 80  # both kinds occur

    def test_anchors_unique_within_batch(self, default_splits):
        batch = build_minibatch(default_splits.train, 30, "ml2", np.random.default_rng(12))
        anchors = batch.rows[:, 0].tolist()
        assert len(anchors) == len(set(anchors))


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
        for ex in ds.examples:
            if ex.id == anchor.id or label not in ex.labels:
                continue
            if strict and label in anchor.labels and len(ex.labels) != 1:
                continue
            if strict and label not in anchor.labels and ex.labels & anchor.labels:
                continue
            out.append(ex.id)
        return out

    @pytest.mark.parametrize(
        "sample, anchor_id",
        [(sample_group_ml2, "ab"), (sample_group_ml2plus, "ab"), (sample_group_ml2plus, "s1")],
    )
    def test_counts_within_five_sigma(self, sample, anchor_id):
        ds = disjoint_pools_dataset()
        anchor = ds.by_id(anchor_id)
        rng = np.random.default_rng(2024)
        counts = {}
        for _ in range(self.DRAWS):
            positives, negatives, _ = drawn_group(sample, ds, anchor_id, rng)
            for ex in positives + negatives:
                counts[ex.id] = counts.get(ex.id, 0) + 1
        assert anchor_id not in counts
        strict = sample is sample_group_ml2plus
        for label in range(ds.label_count):
            pool = self.candidates(ds, anchor, label, strict)
            q = 1.0 / len(pool)
            expected = self.DRAWS * q
            sigma = (self.DRAWS * q * (1.0 - q)) ** 0.5
            for ex_id in pool:
                assert abs(counts.get(ex_id, 0) - expected) <= 5.0 * sigma, (label, ex_id)


def tricky_specs():
    specs = [(f"n0-{i}", {0}) for i in range(3)]
    specs += [(f"s1-{i}", {1}) for i in range(4)]
    specs += [(f"x12-{i}", {1, 2}) for i in range(250)]
    specs += [("s2", {2}), ("s2b", {2}), ("s3", {3}), ("s3b", {3})]
    specs += [("x23", {2, 3}), ("all", {0, 1, 2, 3})]
    return specs


def tricky_dataset():
    """Rejections and the ML2+ zero-overlap fallback happen often: most
    label-2 examples also carry label 1, and one example carries every label."""
    return make_dataset(tricky_specs(), label_count=4)


def partner_fallback_dataset():
    """The pair and triplet partner draws often exhaust their 100 rejection
    draws: anchors with label 0 or 3 share a label with 3 of 264 examples.
    ``all`` has no dissimilar partner and ``lonely`` no similar one, so a
    pair switches kind and a triplet anchor is rejected."""
    return make_dataset(tricky_specs() + [("lonely", {4})], label_count=5)


class TestStreamEquivalence:
    """build_minibatch consumes the random stream exactly as the per-item
    sampler did and yields the same groups."""

    @pytest.mark.parametrize("regime", ["ml2", "ml2plus"])
    @pytest.mark.parametrize("which", ["default", "tricky"])
    def test_same_positions_as_per_item_sampler(self, default_splits, regime, which):
        ds, b = (default_splits.train, 10) if which == "default" else (tricky_dataset(), 5)
        new_rng, old_rng = np.random.default_rng(77), np.random.default_rng(77)
        for _ in range(300):
            batch = build_minibatch(ds, b, regime, new_rng)
            groups = frozen_build_group_minibatch(ds, b, regime, old_rng)
            members = [(g.anchor, *g.positives, *g.negatives) for g in groups]
            assert batch.rows.tolist() == [[ds.position(ex.id) for ex in m] for m in members]
            assert batch.p.tolist() == [len(g.positives) for g in groups]
            for taus, p, g in zip(batch.taus.tolist(), batch.p.tolist(), groups):
                assert taus == list(g.tau_values) + [0.0] * (ds.label_count - p)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

    @pytest.mark.parametrize("regime", ["contrastive", "triplet"])
    @pytest.mark.parametrize("which", ["default", "fallback"])
    def test_same_rows_as_per_item_partner_sampler(self, default_splits, regime, which):
        ds, b = (default_splits.train, 36) if which == "default" else (partner_fallback_dataset(), 5)
        new_rng, old_rng = np.random.default_rng(78), np.random.default_rng(78)
        for _ in range(300):
            batch = build_minibatch(ds, b, regime, new_rng)
            items = frozen_build_item_minibatch(ds, b, regime, old_rng)
            if regime == "triplet":
                rows = [[ds.position(ex.id) for ex in item] for item in items]
                p = [1] * b
            else:
                rows = [[ds.position(first.id), ds.position(second.id)] for first, second, _ in items]
                p = [int(same) for _, _, same in items]
            assert batch.rows.tolist() == rows
            assert batch.p.tolist() == p
            assert not batch.taus.any()
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


class TestBatchContracts:
    def test_empty_pool_raises_sampling_error(self):
        # no single-label example for label 2, so no ML2+ group can be drawn
        # for an anchor carrying it
        specs = [("a", {1, 2}), ("s1", {1}), ("x23", {2, 3}), ("n0", {0})]
        ds = make_dataset(specs, label_count=4)
        with pytest.raises(SamplingError, match="label 2"):
            build_minibatch(ds, len(ds), "ml2plus", np.random.default_rng(0))

    def test_multi_label_ml2plus_positive_rejected(self):
        specs = [("a", {1, 2}), ("s1", {1}), ("t1", {1}), ("s2", {2}), ("t2", {2})]
        ds = make_dataset(specs + [("n0", {0}), ("m0", {0})], label_count=3)
        # the label matrix now says the label-1 positives carry two labels
        labels = ds.label_matrix.copy()
        labels[[ds.position("s1"), ds.position("t1")], 0] = True
        ds.label_matrix = labels
        with pytest.raises(ContractError, match="single-label"):
            build_minibatch(ds, len(ds), "ml2plus", np.random.default_rng(0))

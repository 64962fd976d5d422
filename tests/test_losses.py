import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlembed.errors import ConfigError, ContractError, DegenerateGroupError
from mlembed.losses import (
    LossConfig,
    contrastive_batch_loss,
    contrastive_loss,
    group_loss,
    max_negative,
    ml2_batch_loss,
    ml2_loss,
    ml2plus_loss,
    overlap_tau,
    pretrain_batch_loss,
    pretrain_loss,
    smooth_max_negative,
    triplet_loss,
)
from mlembed.numeric import ParamStore, check_gradient
from oracles import (
    brute_force_group_loss,
    brute_force_ml2,
    frozen_contrastive_loss,
    frozen_ml2_loss,
    frozen_pretrain_loss,
    frozen_triplet_loss,
    log_softmax_pairs,
    random_unit,
    unit_at_distance,
)

CFG = LossConfig(margin=0.2)


def dist(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean distance; in [0, 2] for unit vectors."""
    return float(np.linalg.norm(np.asarray(u, dtype=np.float64) - v))


def grad_check(fn, arrays, step=1e-5):
    """Wrap a (values dict) -> (value, grads dict) function for check_gradient."""
    ps = ParamStore()
    for name, arr in arrays.items():
        ps.add(name, arr)

    def f(store):
        value, grads = fn({name: store.value(name) for name in arrays})
        for name, g in grads.items():
            store.grad(name)[...] += g
        return value

    return check_gradient(f, ps, step)


def non_kink_group(rng, dim, p, n, margin):
    """Random unit-vector group away from hinge kinks and zero distances."""
    for _ in range(1000):
        anchor = random_unit(rng, dim)
        P = np.stack([random_unit(rng, dim) for _ in range(p)])
        N = np.stack([random_unit(rng, dim) for _ in range(n)])
        taus = rng.uniform(0.0, 1.0, size=p)
        d_p = np.linalg.norm(anchor - P, axis=1)
        d_n = np.linalg.norm(anchor - N, axis=1)
        if d_p.min() < 1e-3 or d_n.min() < 1e-3:
            continue
        lse = math.log(np.sum(np.exp(margin - d_n)))
        hinges = d_p - margin * taus + lse
        pair_hinges = d_p[:, None] - d_n[None, :] + margin
        if np.abs(hinges).min() > 1e-3 and np.abs(pair_hinges).min() > 1e-3:
            return anchor, P, N, taus
    raise AssertionError("could not draw a non-kink group")


class TestDist:
    def test_identity(self):
        u = unit_at_distance(0.7)
        assert dist(u, u) == 0.0

    def test_antipodal(self):
        u = np.array([1.0, 0.0])
        assert dist(u, -u) == 2.0

    def test_hand_case(self):
        assert abs(dist(np.array([1.0, 0.0]), np.array([0.0, 1.0])) - math.sqrt(2)) < 1e-15


class TestTripletLoss:
    def test_satisfied_margin_is_zero(self):
        a = np.array([1.0, 0.0])
        pos = np.array([0.6, 0.8])
        neg = np.array([-1.0, 0.0])
        out = triplet_loss(a, pos, neg, CFG)
        # d(a, pos) = sqrt(0.8) ~ 0.8944, d(a, neg) = 2: hinge inactive.
        assert out.value == 0.0
        assert not out.anchor_grad.any()
        assert not out.positive_grad.any()
        assert not out.negative_grad.any()

    def test_equal_positive_negative_gives_margin(self):
        a = random_unit(np.random.default_rng(0), 4)
        x = random_unit(np.random.default_rng(1), 4)
        out = triplet_loss(a, x, x, CFG)
        assert abs(out.value - CFG.margin) < 1e-15

    def test_gradients_at_non_kink_points(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 10:
            a = random_unit(rng, 4)
            pos, neg = random_unit(rng, 4), random_unit(rng, 4)
            d_pos, d_neg = dist(a, pos), dist(a, neg)
            raw = d_pos - d_neg + CFG.margin
            if min(d_pos, d_neg) < 1e-3 or abs(raw) < 1e-3:
                continue

            def fn(vals):
                out = triplet_loss(vals["a"], vals["p"], vals["n"], CFG)
                return out.value, {
                    "a": out.anchor_grad,
                    "p": out.positive_grad,
                    "n": out.negative_grad,
                }

            assert grad_check(fn, {"a": a, "p": pos, "n": neg}) <= 1e-4
            checked += 1


class TestGroupLoss:
    def test_single_pair_equals_triplet(self):
        rng = np.random.default_rng(3)
        a, pos, neg = (random_unit(rng, 5) for _ in range(3))
        single = group_loss(a, pos[None, :], neg[None, :], CFG)
        trip = triplet_loss(a, pos, neg, CFG)
        assert abs(single.value - trip.value) <= 1e-15
        assert np.allclose(single.anchor_grad, trip.anchor_grad)

    def test_all_inactive_is_zero(self):
        a = np.array([1.0, 0.0])
        P = np.array([[1.0, 0.0]])
        N = np.array([[-1.0, 0.0]])
        out = group_loss(a, P, N, CFG)
        assert out.value == 0.0

    def test_hand_placed_two_by_two_matches_brute_force(self):
        a = unit_at_distance(0.0)
        P = np.stack([unit_at_distance(0.3), unit_at_distance(1.2)])
        N = np.stack([unit_at_distance(0.5), unit_at_distance(1.9)])
        out = group_loss(a, P, N, CFG)
        expected = brute_force_group_loss(a, P, N, CFG.margin)
        assert abs(out.value - expected) <= 1e-12
        # one active term by hand: 0.3 - 0.5 + 0.2 = 0, kink; recheck others
        # via the oracle only, which is the binding assertion above.

    def test_random_groups_match_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = random_unit(rng, 6)
            P = np.stack([random_unit(rng, 6) for _ in range(p)])
            N = np.stack([random_unit(rng, 6) for _ in range(n)])
            out = group_loss(a, P, N, CFG)
            assert abs(out.value - brute_force_group_loss(a, P, N, CFG.margin)) <= 1e-12

    def test_empty_sets_rejected(self):
        a = np.array([1.0, 0.0])
        with pytest.raises(DegenerateGroupError):
            group_loss(a, np.empty((0, 2)), a[None, :], CFG)
        with pytest.raises(DegenerateGroupError):
            group_loss(a, a[None, :], np.empty((0, 2)), CFG)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a, P, N, _ = non_kink_group(rng, 4, 2, 3, CFG.margin)

            def fn(vals):
                out = group_loss(vals["a"], vals["P"], vals["N"], CFG)
                return out.value, {
                    "a": out.anchor_grad,
                    "P": out.positive_grads,
                    "N": out.negative_grads,
                }

            assert grad_check(fn, {"a": a, "P": P, "N": N}) <= 1e-4


class TestMaxNegative:
    def test_single_negative(self):
        a = np.array([1.0, 0.0])
        assert abs(max_negative(a, np.array([[-1.0, 0.0]]), CFG) - (-1.8)) < 1e-15

    def test_two_negatives_takes_larger_term(self):
        a = unit_at_distance(0.0)
        N = np.stack([unit_at_distance(0.5), unit_at_distance(2.0)])
        assert abs(max_negative(a, N, CFG) - (CFG.margin - 0.5)) < 1e-12

    def test_equidistant_tie(self):
        a = np.array([1.0, 0.0, 0.0])
        N = np.stack([np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])])
        assert abs(max_negative(a, N, CFG) - (CFG.margin - math.sqrt(2))) < 1e-15


class TestSmoothMaxNegative:
    def test_single_negative_equals_max(self):
        rng = np.random.default_rng(5)
        a, neg = random_unit(rng, 4), random_unit(rng, 4)
        smooth = smooth_max_negative(a, neg[None, :], CFG)
        assert abs(smooth.value - max_negative(a, neg[None, :], CFG)) <= 1e-12

    def test_equal_distances_add_log_n(self):
        a = np.array([1.0, 0.0, 0.0])
        N = np.stack([np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])])
        smooth = smooth_max_negative(a, N, CFG)
        assert abs(smooth.value - (max_negative(a, N, CFG) + math.log(2))) <= 1e-12

    def test_three_distance_hand_case(self):
        a = unit_at_distance(0.0)
        N = np.stack([unit_at_distance(0.5), unit_at_distance(1.0), unit_at_distance(2.0)])
        expected = math.log(math.exp(-0.3) + math.exp(-0.8) + math.exp(-1.8))
        smooth = smooth_max_negative(a, N, CFG)
        assert abs(smooth.value - expected) <= 1e-12
        assert smooth.value >= max_negative(a, N, CFG)

    def test_overflow_safety_with_large_margin(self):
        cfg = LossConfig(margin=1e4)
        a = np.array([1.0, 0.0])
        neg = np.array([[0.0, 1.0]])
        smooth = smooth_max_negative(a, neg, cfg)
        # single term: must equal the exact maximum even though exp(1e4) overflows
        assert math.isfinite(smooth.value)
        assert abs(smooth.value - max_negative(a, neg, cfg)) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_bounds_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_unit(rng, 5)
        N = np.stack([random_unit(rng, 5) for _ in range(n)])
        lower = max_negative(a, N, CFG)
        value = smooth_max_negative(a, N, CFG).value
        assert lower - 1e-12 <= value <= lower + math.log(n) + 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a, _, N, _ = non_kink_group(rng, 4, 1, 3, CFG.margin)

            def fn(vals):
                out = smooth_max_negative(vals["a"], vals["N"], CFG)
                return out.value, {"a": out.anchor_grad, "N": out.negative_grads}

            assert grad_check(fn, {"a": a, "N": N}) <= 1e-4


class TestOverlapTau:
    def test_equal_sets(self):
        assert overlap_tau({1, 2}, {1, 2}) == 0.0

    def test_disjoint_sets(self):
        assert overlap_tau({1}, {2}) == 1.0

    def test_half_overlap(self):
        assert overlap_tau({1, 2}, {1}) == 0.5

    def test_empty_set_rejected(self):
        with pytest.raises(ContractError):
            overlap_tau(set(), {1})

    @settings(max_examples=300, deadline=None)
    @given(
        st.sets(st.integers(0, 9), min_size=1, max_size=10),
        st.sets(st.integers(0, 9), min_size=1, max_size=10),
    )
    def test_properties(self, a, b):
        tau = overlap_tau(a, b)
        assert 0.0 <= tau <= 1.0
        assert tau == overlap_tau(b, a)
        assert (tau == 0.0) == (a == b)
        assert (tau == 1.0) == (not a & b)
        jaccard = 1.0 - len(a & b) / len(a | b)
        assert abs(tau - jaccard) <= 1e-15


class TestMl2Loss:
    def _loss_at(self, d_pos, tau, d_negs, cfg=CFG):
        a = unit_at_distance(0.0)
        P = unit_at_distance(d_pos)[None, :]
        N = np.stack([unit_at_distance(d) for d in d_negs])
        return ml2_loss(a, P, N, np.array([tau]), cfg)

    def test_hand_case_tau_zero(self):
        out = self._loss_at(0.9, 0.0, [0.5])
        assert abs(out.value - 0.6) <= 1e-12

    def test_hand_case_tau_one(self):
        out = self._loss_at(0.9, 1.0, [0.5])
        assert abs(out.value - 0.4) <= 1e-12

    def test_far_negatives_tight_positive_inactive(self):
        # hinge needs d_pos > margin*tau + d_neg - ... : with all negatives at
        # distance 2 the smooth term is margin - 2 + log(n); stay below that.
        out = self._loss_at(0.3, 1.0, [2.0, 2.0])
        lse = CFG.margin - 2.0 + math.log(2.0)
        assert 0.3 - CFG.margin + lse < 0  # hinge argument really is negative
        assert out.value == 0.0
        assert not out.anchor_grad.any()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = random_unit(rng, 6)
            P = np.stack([random_unit(rng, 6) for _ in range(p)])
            N = np.stack([random_unit(rng, 6) for _ in range(n)])
            taus = rng.uniform(0, 1, size=p)
            out = ml2_loss(a, P, N, taus, CFG)
            assert abs(out.value - brute_force_ml2(a, P, N, taus, CFG.margin)) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(29)
        a, P, N, taus = non_kink_group(rng, 5, 3, 4, CFG.margin)
        base = ml2_loss(a, P, N, taus, CFG)
        perm_p = rng.permutation(3)
        perm_n = rng.permutation(4)
        permuted = ml2_loss(a, P[perm_p], N[perm_n], taus[perm_p], CFG)
        assert abs(base.value - permuted.value) <= 1e-12
        assert np.allclose(base.positive_grads[perm_p], permuted.positive_grads, atol=1e-12)
        assert np.allclose(base.negative_grads[perm_n], permuted.negative_grads, atol=1e-12)

    def test_non_increasing_in_tau(self):
        rng = np.random.default_rng(31)
        a, P, N, taus = non_kink_group(rng, 5, 3, 3, CFG.margin)
        values = []
        for bump in (0.0, 0.25, 0.5):
            shifted = np.clip(taus + bump, 0.0, 1.0)
            values.append(ml2_loss(a, P, N, shifted, CFG).value)
        assert values[0] >= values[1] >= values[2]

    def test_inactive_positive_gets_zero_gradient(self):
        a = unit_at_distance(0.0)
        P = np.stack([unit_at_distance(0.2), unit_at_distance(1.9)])
        N = np.stack([unit_at_distance(1.0)])
        out = ml2_loss(a, P, N, np.array([1.0, 0.0]), CFG)
        # first hinge: 0.2 - 0.2 + (0.2 - 1.0) < 0 inactive; second is active
        assert not out.positive_grads[0].any()
        assert out.positive_grads[1].any()

    def test_bad_taus_rejected(self):
        a = unit_at_distance(0.0)
        P = unit_at_distance(1.0)[None, :]
        N = unit_at_distance(1.0)[None, :]
        with pytest.raises(ContractError):
            ml2_loss(a, P, N, np.array([1.5]), CFG)
        with pytest.raises(ContractError):
            ml2_loss(a, P, N, np.array([0.5, 0.5]), CFG)

    def test_degenerate_group_rejected(self):
        a = unit_at_distance(0.0)
        with pytest.raises(DegenerateGroupError):
            ml2_loss(a, np.empty((0, 2)), a[None, :], np.empty(0), CFG)
        with pytest.raises(DegenerateGroupError):
            ml2_loss(a, a[None, :], np.empty((0, 2)), np.array([0.0]), CFG)

    def test_gradients(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            a, P, N, taus = non_kink_group(rng, 4, 2, 3, CFG.margin)

            def fn(vals):
                out = ml2_loss(vals["a"], vals["P"], vals["N"], taus, CFG)
                return out.value, {
                    "a": out.anchor_grad,
                    "P": out.positive_grads,
                    "N": out.negative_grads,
                }

            assert grad_check(fn, {"a": a, "P": P, "N": N}) <= 1e-4


class TestMl2BatchLoss:
    """The masked kernel against the frozen per-group kernel: the same active
    hinges, and values and gradients to within :data:`ATOL`, since the
    masked sums run in another order."""

    L = 5
    ATOL = 1e-14

    def random_batch(self, rng, p, m=6, L=L):
        E = rng.standard_normal((len(p), 1 + L, m))
        E /= np.linalg.norm(E, axis=2, keepdims=True)
        taus = np.where(np.arange(L) < p[:, None], rng.uniform(0, 1, (len(p), L)), 0.0)
        return E, taus

    def assert_matches_per_group(self, E, p, taus):
        values, G = ml2_batch_loss(E, p, taus, CFG)
        for i, q in enumerate(p.tolist()):
            a, P, N = E[i, 0], E[i, 1 : 1 + q], E[i, 1 + q :]
            value, a, P, N = frozen_ml2_loss(a, P, N, taus[i, :q], CFG)
            # an active positive, and only an active one, gets a gradient
            assert (G[i, 1 : 1 + q].any(axis=1) == P.any(axis=1)).all()
            assert abs(values[i] - value) <= self.ATOL
            for got, want in ((G[i, 0], a), (G[i, 1 : 1 + q], P), (G[i, 1 + q :], N)):
                np.testing.assert_allclose(got, want, rtol=0, atol=self.ATOL)

    @pytest.mark.parametrize("p", range(1, L))
    def test_per_group_for_each_p(self, p):
        rng = np.random.default_rng(100 + p)
        for m in (3, 64):
            pv = np.full(7, p)
            E, taus = self.random_batch(rng, pv, m)
            self.assert_matches_per_group(E, pv, taus)

    def test_per_group_for_mixed_p(self):
        rng = np.random.default_rng(200)
        for _ in range(30):
            pv = rng.integers(1, self.L, size=int(rng.integers(1, 16)))
            E, taus = self.random_batch(rng, pv, int(rng.choice([3, 64])))
            self.assert_matches_per_group(E, pv, taus)

    @pytest.mark.parametrize("L", [9, 12, 17])
    def test_per_group_for_mixed_p_past_eight_columns(self, L):
        # from 9 columns on, numpy's row sums run 8-way unrolled
        rng = np.random.default_rng(210 + L)
        for _ in range(20):
            pv = rng.integers(1, L, size=int(rng.integers(1, 16)))
            E, taus = self.random_batch(rng, pv, int(rng.choice([3, 64])), L)
            self.assert_matches_per_group(E, pv, taus)

    def test_taus_past_p_change_nothing(self):
        rng = np.random.default_rng(220)
        batches = []
        for L in (self.L, 12):
            p = rng.integers(1, L, size=40)
            batches.append((p, *self.random_batch(rng, p, 6, L)))
        # Inactive groups with one negative: their value is a sum of zeros,
        # and at tau = 1 the masked-out hinge past p is itself about 0.
        p = np.full(40, 2)
        E, taus = self.random_batch(rng, p, 6, 3)
        for row in E:
            row[1:3] = [near(rng, row[0], 0.05) for _ in range(2)]
            row[3] = near(rng, -row[0], 0.3)
        batches.append((p, E, taus))
        for p, E, taus in batches:
            L = taus.shape[1]
            values, G = ml2_batch_loss(E, p, taus, CFG)
            past_p = np.arange(L) >= p[:, None]
            for fill in (0.0, 1.0, rng.uniform(0, 1, taus.shape)):
                other = np.where(past_p, fill, taus)
                other_values, other_G = ml2_batch_loss(E, p, other, CFG)
                assert other_values.tobytes() == values.tobytes()
                assert other_G.tobytes() == G.tobytes()

    def test_one_negative_gets_weight_one(self):
        # With one negative the softmax weight is exactly 1, so the negative
        # takes share * g, as in the frozen kernel, bit for bit.
        rng = np.random.default_rng(230)
        p = rng.integers(1, self.L, size=30)
        p[::3] = self.L - 1
        E, taus = self.random_batch(rng, p)
        _, G = ml2_batch_loss(E, p, taus, CFG)
        for i in np.flatnonzero(p == self.L - 1):
            q = self.L - 1
            _, _, _, N = frozen_ml2_loss(E[i, 0], E[i, 1 : 1 + q], E[i, 1 + q :], taus[i, :q], CFG)
            assert G[i, -1].tobytes() == N[0].tobytes()

    @pytest.mark.parametrize("where", ["anchor", "positive", "negative"])
    def test_nan_embedding_gives_nan_value(self, where):
        p = np.array([1, 2, 3, 4, 2])
        E, taus = self.random_batch(np.random.default_rng(240), p)
        column = {"anchor": 0, "positive": 1, "negative": self.L}[where]
        E[2, column, 0] = np.nan
        values, _ = ml2_batch_loss(E, p, taus, CFG)
        assert np.isnan(values[2])
        assert np.isfinite(np.delete(values, 2)).all()

    def test_gradients_mixed_p_batch(self):
        rng = np.random.default_rng(300)
        p = np.array([1, 2, 3, 4, 2, 1])
        while True:
            E, taus = self.random_batch(rng, p, m=4)
            if self.away_from_kinks(E, p, taus):
                break

        def fn(vals):
            values, G = ml2_batch_loss(vals["E"], p, taus, CFG)
            return float(values.sum()), {"E": G}

        assert grad_check(fn, {"E": E}) <= 1e-4

    @staticmethod
    def away_from_kinks(E, p, taus):
        for row, q, tau in zip(E, p, taus):
            a, P, N = row[0], row[1 : 1 + q], row[1 + q :]
            d_p = [math.dist(a, x) for x in P]
            d_n = [math.dist(a, x) for x in N]
            lse = math.log(sum(math.exp(CFG.margin - d) for d in d_n))
            hinges = [d - CFG.margin * t + lse for d, t in zip(d_p, tau)]
            if min(d_p + d_n) < 1e-3 or min(abs(h) for h in hinges) < 1e-3:
                return False
        return True

    def test_tau_outside_unit_interval_rejected(self):
        p = np.array([2, 1])
        E, taus = self.random_batch(np.random.default_rng(1), p)
        taus[1, 0] = 1.5
        with pytest.raises(ContractError, match="tau"):
            ml2_batch_loss(E, p, taus, CFG)

    @pytest.mark.parametrize("column", [0, 3])
    def test_nan_tau_rejected(self, column):
        p = np.array([2, 1])
        E, taus = self.random_batch(np.random.default_rng(1), p)
        taus[0, column] = np.nan
        with pytest.raises(ContractError, match=r"tau values must lie in \[0, 1\]"):
            ml2_batch_loss(E, p, taus, CFG)

    def test_nan_tau_rejected_by_the_scalar_wrapper(self):
        a = unit_at_distance(0.0)
        P = np.stack([unit_at_distance(0.3), unit_at_distance(0.6)])
        N = unit_at_distance(1.0)[None, :]
        with pytest.raises(ContractError, match=r"tau values must lie in \[0, 1\]"):
            ml2_loss(a, P, N, [np.nan, 0.5], CFG)

    @pytest.mark.parametrize("shape", [(2, 3), (6,), (2, 3, 4, 1)])
    def test_stack_that_is_not_three_dimensional_rejected(self, shape):
        with pytest.raises(ContractError, match=r"do not fit \(b, 1 \+ k, m\)"):
            ml2_batch_loss(np.zeros(shape), [1, 1], np.zeros((2, 2)), CFG)

    def test_empty_negative_set_rejected(self):
        p = np.array([2, self.L])
        E, taus = self.random_batch(np.random.default_rng(2), np.array([2, self.L - 1]))
        with pytest.raises(DegenerateGroupError, match="negative"):
            ml2_batch_loss(E, p, taus, CFG)

    def test_empty_positive_set_rejected(self):
        E, taus = self.random_batch(np.random.default_rng(3), np.array([1, 1]))
        with pytest.raises(DegenerateGroupError, match="positive"):
            ml2_batch_loss(E, np.array([1, 0]), taus, CFG)


def random_units(rng, count, dim=6):
    return np.stack([random_unit(rng, dim) for _ in range(count)])


class TestMl2PlusLoss:
    def test_single_positive_reduces_to_tau_zero(self):
        rng = np.random.default_rng(41)
        a, P, N = random_unit(rng, 6), random_units(rng, 1), random_units(rng, 2)
        out = ml2plus_loss(a, P, N, CFG)
        ref = ml2_loss(a, P, N, np.array([0.0]), CFG)
        assert out.value == ref.value

    def test_p4_margin_scaled_three_quarters(self):
        rng = np.random.default_rng(43)
        a, P, N = random_unit(rng, 6), random_units(rng, 4), random_units(rng, 1)
        out = ml2plus_loss(a, P, N, CFG)
        ref = ml2_loss(a, P, N, np.full(4, 0.75), CFG)
        assert out.value == ref.value
        assert np.array_equal(out.positive_grads, ref.positive_grads)

    def test_equals_ml2_with_overwritten_taus(self):
        rng = np.random.default_rng(47)
        a, P, N = random_unit(rng, 6), random_units(rng, 2), random_units(rng, 2)
        out = ml2plus_loss(a, P, N, CFG)
        ref = ml2_loss(a, P, N, np.full(2, 0.5), CFG)
        assert out.value == ref.value


class TestContrastiveLoss:
    def test_identical_same_pair(self):
        x = np.array([0.6, 0.8])
        out = contrastive_loss(x, x.copy(), True, CFG)
        assert out.value == 0.0

    def test_antipodal_different_pair(self):
        x = np.array([1.0, 0.0])
        out = contrastive_loss(x, -x, False, CFG)
        assert out.value == 0.0
        assert not out.grad_first.any()

    def test_same_pair_root_two_apart(self):
        out = contrastive_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]), True, CFG)
        assert abs(out.value - 2.0) <= 1e-15

    def test_gradients_same_branch(self):
        rng = np.random.default_rng(59)
        x1, x2 = random_unit(rng, 4), random_unit(rng, 4)

        def fn(vals):
            out = contrastive_loss(vals["x1"], vals["x2"], True, CFG)
            return out.value, {"x1": out.grad_first, "x2": out.grad_second}

        assert grad_check(fn, {"x1": x1, "x2": x2}) <= 1e-4

    def test_gradients_different_branch(self):
        rng = np.random.default_rng(61)
        cfg = LossConfig(margin=1.5)  # keep the hinge active and away from 0
        while True:
            x1, x2 = random_unit(rng, 4), random_unit(rng, 4)
            d = dist(x1, x2)
            if 1e-3 < d and abs(cfg.margin - d) > 1e-3 and d < cfg.margin:
                break

        def fn(vals):
            out = contrastive_loss(vals["x1"], vals["x2"], False, cfg)
            return out.value, {"x1": out.grad_first, "x2": out.grad_second}

        assert grad_check(fn, {"x1": x1, "x2": x2}) <= 1e-4


def unit_rows(rng, shape):
    E = rng.standard_normal(shape)
    return E / np.linalg.norm(E, axis=-1, keepdims=True)


def near(rng, x, scale):
    """A unit vector a small random step away from the unit vector ``x``."""
    y = x + scale * rng.standard_normal(x.shape)
    return y / np.linalg.norm(y)


class TestContrastiveBatchLoss:
    """The batched kernel against the frozen scalar kernel, bit for bit."""

    def random_batch(self, rng, b=60, m=6):
        """Similar and dissimilar pairs, far apart and within the margin."""
        E = unit_rows(rng, (b, 2, m))
        close = rng.random(b) < 0.5
        for i in np.flatnonzero(close):
            E[i, 1] = near(rng, E[i, 0], 0.05)
        return E, rng.random(b) < 0.5

    def test_bitwise_per_pair_every_branch(self):
        rng = np.random.default_rng(400)
        branches = set()
        for m in (3, 64):
            E, same = self.random_batch(rng, m=m)
            values, G = contrastive_batch_loss(E, same, CFG)
            for i in range(len(E)):
                value, g1, g2 = frozen_contrastive_loss(E[i, 0], E[i, 1], bool(same[i]), CFG)
                assert np.float64(value).tobytes() == values[i].tobytes()
                assert g1.tobytes() == G[i, 0].tobytes()
                assert g2.tobytes() == G[i, 1].tobytes()
                branches.add("similar" if same[i] else "active" if value > 0.0 else "inactive")
        assert branches == {"similar", "active", "inactive"}

    def test_gradients_batch(self):
        rng = np.random.default_rng(401)
        while True:
            E, same = self.random_batch(rng, b=8, m=4)
            d = np.linalg.norm(E[:, 0] - E[:, 1], axis=1)
            if d.min() > 1e-3 and np.abs(CFG.margin - d).min() > 1e-3 and (d < CFG.margin).any():
                break

        def fn(vals):
            values, G = contrastive_batch_loss(vals["E"], same, CFG)
            return float(values.sum()), {"E": G}

        assert grad_check(fn, {"E": E}) <= 1e-4

    def test_shape_mismatch_rejected(self):
        E = unit_rows(np.random.default_rng(2), (3, 2, 4))
        with pytest.raises(ContractError):
            contrastive_batch_loss(E, np.array([True, False]), CFG)
        with pytest.raises(ContractError):
            contrastive_batch_loss(E[:, :1], np.array([True, False, True]), CFG)


class TestTripletRows:
    """Triplet rows are ML2 groups with one positive, one negative and tau 0:
    through :func:`ml2_batch_loss` they match the frozen triplet kernel, with
    the same active hinges and values and gradients to within 1e-14."""

    ATOL = 1e-14

    def random_batch(self, rng, b=60, m=6):
        """Random triplets, some with a close positive (inactive hinge)."""
        E = unit_rows(rng, (b, 3, m))
        for i in np.flatnonzero(rng.random(b) < 0.4):
            E[i, 1] = near(rng, E[i, 0], 0.05)
            E[i, 2] = -E[i, 0]
        return E

    @staticmethod
    def triplet_batch_loss(E):
        return ml2_batch_loss(E, np.ones(len(E), dtype=np.intp), np.zeros((len(E), 2)), CFG)

    def test_per_triplet_every_branch(self):
        rng = np.random.default_rng(500)
        branches = set()
        for m in (3, 64):
            E = self.random_batch(rng, m=m)
            values, G = self.triplet_batch_loss(E)
            for i in range(len(E)):
                value, ga, gp, gn = frozen_triplet_loss(E[i, 0], E[i, 1], E[i, 2], CFG)
                assert (values[i] > 0.0) == (value > 0.0)
                assert G[i].any() == gp.any()
                assert abs(values[i] - value) <= self.ATOL
                np.testing.assert_allclose(G[i], [ga, gp, gn], rtol=0, atol=self.ATOL)
                branches.add(value > 0.0)
        assert branches == {True, False}

    def test_gradients_batch(self):
        rng = np.random.default_rng(501)
        while True:
            E = unit_rows(rng, (8, 3, 4))
            d = np.linalg.norm(E[:, :1] - E[:, 1:], axis=2)
            raw = d[:, 0] - d[:, 1] + CFG.margin
            if d.min() > 1e-3 and np.abs(raw).min() > 1e-3 and (raw > 0).any():
                break

        def fn(vals):
            values, G = self.triplet_batch_loss(vals["E"])
            return float(values.sum()), {"E": G}

        assert grad_check(fn, {"E": E}) <= 1e-4

    def test_pairs_rejected(self):
        # (b, 2, m) rows hold no negative once the positive is taken
        E = unit_rows(np.random.default_rng(3), (2, 2, 4))
        with pytest.raises(DegenerateGroupError, match="negative"):
            ml2_batch_loss(E, np.ones(2, dtype=np.intp), np.zeros((2, 1)), CFG)

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_nan_embedding_gives_nan_value(self, column):
        E = self.random_batch(np.random.default_rng(502), b=6)
        E[3, column, 0] = np.nan
        values, _ = self.triplet_batch_loss(E)
        assert np.isnan(values[3])
        assert np.isfinite(np.delete(values, 3)).all()
        assert math.isnan(triplet_loss(E[3, 0], E[3, 1], E[3, 2], CFG).value)


class TestPretrainLoss:
    def test_confident_predictions_near_zero(self):
        logits = np.array([[30.0, 0.0], [0.0, 30.0], [30.0, 0.0]])
        lp = log_softmax_pairs(logits)
        out = pretrain_loss(lp, {0, 2}, 3)
        assert out.value < 1e-12

    def test_uniform_predictions_log_two(self):
        lp = log_softmax_pairs(np.zeros((4, 2)))
        out = pretrain_loss(lp, {1}, 4)
        assert abs(out.value - math.log(2)) <= 1e-12

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(71)
        logits = rng.standard_normal((3, 2))
        labels = {0, 2}

        def fn(vals):
            out = pretrain_loss(log_softmax_pairs(vals["z"]), labels, 3)
            return out.value, {"z": out.logit_grads}

        assert grad_check(fn, {"z": logits}) <= 1e-6

    def test_malformed_log_probs_rejected(self):
        bad = np.log(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(ContractError, match="log-softmax"):
            pretrain_loss(bad, {0}, 2)

    def test_values_non_negative(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            lp = log_softmax_pairs(rng.standard_normal((4, 2)))
            assert pretrain_loss(lp, {int(rng.integers(4))}, 4).value >= 0.0


class TestPretrainBatchLoss:
    def log_probs(self, rng, b, l):
        return np.stack([log_softmax_pairs(rng.standard_normal((l, 2)) * 3) for _ in range(b)])

    def test_bitwise_per_row(self):
        rng = np.random.default_rng(79)
        for l in (1, 2, 5, 9):
            lp = self.log_probs(rng, 10, l)
            present = rng.random((10, l)) < 0.4
            values, grads = pretrain_batch_loss(lp, present)
            for i in range(10):
                value, g = frozen_pretrain_loss(lp[i], np.flatnonzero(present[i]).tolist(), l)
                assert np.float64(value).tobytes() == values[i].tobytes()
                assert g.tobytes() == grads[i].tobytes()

    def test_malformed_row_rejected(self):
        lp = self.log_probs(np.random.default_rng(83), 3, 2)
        lp[1, 0] = np.log([0.5, 0.6])
        with pytest.raises(ContractError, match="row 1 head 0 is not a log-softmax"):
            pretrain_batch_loss(lp, np.ones((3, 2), dtype=bool))


class TestLossConfig:
    def test_margin_must_be_positive(self):
        with pytest.raises(ConfigError):
            LossConfig(margin=0.0)

import numpy as np
import pytest

from mlembed.errors import DegenerateInputError, EvaluationError, ShapeError
from mlembed.numeric import ParamStore, check_gradient


class TestParamStore:
    def test_slots_share_shapes(self):
        ps = ParamStore()
        ps.add("w", np.ones((2, 3)))
        assert ps.value("w").shape == ps.grad("w").shape == ps.momentum("w").shape

    def test_zero_grads(self):
        ps = ParamStore()
        ps.add("w", np.ones(3))
        ps.grad("w")[...] = 5.0
        ps.zero_grads()
        assert np.array_equal(ps.grad("w"), np.zeros(3))

    def test_duplicate_slot_rejected(self):
        ps = ParamStore()
        ps.add("w", np.ones(1))
        with pytest.raises(ShapeError):
            ps.add("w", np.ones(1))

    def test_snapshot_restore_roundtrip(self):
        ps = ParamStore()
        ps.add("w", np.array([1.0, 2.0]))
        snap = ps.values.copy()
        ps.value("w")[...] = 0.0
        np.copyto(ps.values, snap)
        assert np.array_equal(ps.value("w"), [1.0, 2.0])

    def test_slots_are_views_in_insertion_order(self):
        ps = ParamStore()
        ps.add("a", np.array([[1.0, 2.0], [3.0, 4.0]]))
        ps.add("b", np.array(5.0))
        ps.add("c", np.array([6.0, 7.0]))
        assert ps.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        ps.grads[:] = np.arange(7.0)
        ps.momenta[:] = -np.arange(7.0)
        assert ps.grad("a").tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert ps.momentum("c").tolist() == [-5.0, -6.0]
        ps.value("c")[1] = 9.0
        assert ps.values[-1] == 9.0
        assert [ps.locate(i) for i in range(7)] == [
            ("a", 0), ("a", 1), ("a", 2), ("a", 3), ("b", 0), ("c", 0), ("c", 1)
        ]

    def test_non_finite_rejected(self):
        ps = ParamStore()
        with pytest.raises(DegenerateInputError):
            ps.add("w", np.array([np.nan]))


class TestCheckGradient:
    def test_square_function(self):
        ps = ParamStore()
        ps.add("x", np.array([3.0]))

        def f(store):
            x = store.value("x")[0]
            store.grad("x")[0] += 2.0 * x
            return x * x

        assert check_gradient(f, ps) <= 1e-7

    def test_constant_function(self):
        ps = ParamStore()
        ps.add("x", np.array([1.0, -2.0]))
        assert check_gradient(lambda store: 4.2, ps) == 0.0

    def test_euclidean_norm(self):
        ps = ParamStore()
        ps.add("x", np.array([3.0, 4.0]))

        def f(store):
            x = store.value("x")
            norm = float(np.linalg.norm(x))
            store.grad("x")[...] += x / norm
            return norm

        assert check_gradient(f, ps) <= 1e-6

    def test_detects_wrong_gradient(self):
        ps = ParamStore()
        ps.add("x", np.array([2.0]))

        def f(store):
            x = store.value("x")[0]
            store.grad("x")[0] += 3.0 * x  # wrong on purpose
            return x * x

        assert check_gradient(f, ps) > 1e-2

    def test_non_finite_value_raises(self):
        ps = ParamStore()
        ps.add("x", np.array([1e-6]))  # x - step goes negative

        def f(store):
            with np.errstate(invalid="ignore"):
                value = float(np.sqrt(store.value("x")[0]))
            store.grad("x")[0] += 0.0
            return value

        with pytest.raises(EvaluationError):
            check_gradient(f, ps, step=1e-5)

    def test_leaves_analytic_grads_in_store(self):
        ps = ParamStore()
        ps.add("x", np.array([3.0]))

        def f(store):
            x = store.value("x")[0]
            store.grad("x")[0] += 2.0 * x
            return x * x

        check_gradient(f, ps)
        assert np.allclose(ps.grad("x"), [6.0])

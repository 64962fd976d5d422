"""Dense float64 arithmetic, a named parameter store, and a finite-difference gradient checker.

Matrices are plain C-contiguous float64 numpy arrays. ``check_gradient`` is
the verification harness used by every layer and loss test in the repo.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .errors import DegenerateInputError, EvaluationError, ShapeError

# Norms below this are treated as zero when normalizing.
EPS_NORM = 1e-12

# Central-difference step; balances truncation and round-off at float64.
DEFAULT_FD_STEP = 1e-5


class ParamStore:
    """Named float64 slots, each with a same-shape gradient and momentum buffer.

    Slot order is insertion order, which makes flattened views and optimizer
    sweeps deterministic.
    """

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self._momentum: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self._values:
            raise ShapeError(f"slot {name!r} already exists")
        arr = np.array(value, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DegenerateInputError("array contains NaN or Inf")
        self._values[name] = arr
        self._grads[name] = np.zeros_like(arr)
        self._momentum[name] = np.zeros_like(arr)

    def names(self) -> list[str]:
        return list(self._values)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def momentum(self, name: str) -> np.ndarray:
        return self._momentum[name]

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g.fill(0.0)

    def items(self) -> Iterator[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
        for name in self._values:
            yield name, self._values[name], self._grads[name], self._momentum[name]

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of the current values (gradients and momentum excluded)."""
        return {name: arr.copy() for name, arr in self._values.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, arr in snap.items():
            if name not in self._values:
                raise ShapeError(f"unknown slot {name!r}")
            if arr.shape != self._values[name].shape:
                raise ShapeError(f"shape mismatch for slot {name!r}")
            np.copyto(self._values[name], arr)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)


def check_gradient(
    f: Callable[[ParamStore], float],
    point: ParamStore,
    step: float = DEFAULT_FD_STEP,
) -> float:
    """Compare analytic gradients against central finite differences.

    ``f`` must return a scalar and accumulate its analytic gradient into the
    store's gradient buffers (they are zeroed here before the call). Returns
    the maximum over all coordinates of

        |g_analytic - g_fd| / max(1, |g_analytic|, |g_fd|).

    The point should sit away from hinge kinks; finite differences straddle
    the kink otherwise and the comparison is meaningless.
    """
    point.zero_grads()
    base = float(f(point))
    if not np.isfinite(base):
        raise EvaluationError("function value is not finite at the base point")
    analytic = {name: point.grad(name).copy() for name in point.names()}

    worst = 0.0
    for name in point.names():
        value = point.value(name)
        flat = value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            point.zero_grads()
            f_plus = float(f(point))
            flat[i] = orig - step
            point.zero_grads()
            f_minus = float(f(point))
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise EvaluationError(f"non-finite value while perturbing {name}[{i}]")
            g_fd = (f_plus - f_minus) / (2.0 * step)
            g_an = analytic[name].reshape(-1)[i]
            err = abs(g_an - g_fd) / max(1.0, abs(g_an), abs(g_fd))
            worst = max(worst, err)

    # Leave the store as the caller handed it over: analytic grads at `point`.
    point.zero_grads()
    for name in point.names():
        np.copyto(point.grad(name), analytic[name])
    return worst

"""Dense float64 arithmetic, a named parameter store, and a finite-difference gradient checker.

Matrices are plain C-contiguous float64 numpy arrays. ``check_gradient`` is
the verification harness used by every layer and loss test in the repo.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, EvaluationError, ShapeError

# Norms below this are treated as zero when normalizing.
EPS_NORM = 1e-12

# Central-difference step; balances truncation and round-off at float64.
DEFAULT_FD_STEP = 1e-5


class ParamStore:
    """Named float64 slots over three flat buffers: ``values``, ``grads`` and
    ``momenta``. Each slot is a reshaped view into each buffer.

    Slot order is insertion order and is also the buffer order, so a
    whole-model operation (an optimizer step, a snapshot, a checkpoint) is
    one array operation. ``add`` reallocates the buffers: take views only
    once every slot is in.
    """

    def __init__(self):
        self._slots: dict[str, tuple[int, tuple[int, ...]]] = {}  # name -> (start, shape)
        self.values = np.zeros(0)
        self.grads = np.zeros(0)
        self.momenta = np.zeros(0)

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self._slots:
            raise ShapeError(f"slot {name!r} already exists")
        arr = np.array(value, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DegenerateInputError("array contains NaN or Inf")
        self._slots[name] = (self.values.size, arr.shape)
        self.values = np.concatenate([self.values, arr.ravel()])
        self.grads = np.concatenate([self.grads, np.zeros(arr.size)])
        self.momenta = np.concatenate([self.momenta, np.zeros(arr.size)])

    def names(self) -> list[str]:
        return list(self._slots)

    def _view(self, buffer: np.ndarray, name: str) -> np.ndarray:
        start, shape = self._slots[name]
        return buffer[start : start + math.prod(shape)].reshape(shape)

    def value(self, name: str) -> np.ndarray:
        return self._view(self.values, name)

    def grad(self, name: str) -> np.ndarray:
        return self._view(self.grads, name)

    def momentum(self, name: str) -> np.ndarray:
        return self._view(self.momenta, name)

    def locate(self, index: int) -> tuple[str, int]:
        """The slot that holds flat buffer position ``index``, and the
        position within that slot."""
        starts = [start for start, _ in self._slots.values()]
        slot = bisect.bisect_right(starts, index) - 1
        return self.names()[slot], index - starts[slot]

    def zero_grads(self) -> None:
        self.grads.fill(0.0)


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
    analytic = point.grads.copy()

    worst = 0.0
    flat = point.values
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
            name, j = point.locate(i)
            raise EvaluationError(f"non-finite value while perturbing {name}[{j}]")
        g_fd = (f_plus - f_minus) / (2.0 * step)
        g_an = analytic[i]
        err = abs(g_an - g_fd) / max(1.0, abs(g_an), abs(g_fd))
        worst = max(worst, err)

    # Leave the store as the caller handed it over: analytic grads at `point`.
    np.copyto(point.grads, analytic)
    return worst

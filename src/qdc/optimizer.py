"""Multi-start local minimization over per-sender encoding unitaries.

Each sender's unitary has Euler parameters (omega, theta, delta), and the
objective is periodic in them with period (4*pi, 2*pi, 4*pi).  The search is
unbounded: a box would put the identity encoding (0, 0, 0) at its corner and
cut off the minima just below zero.  L-BFGS-B runs from the identity
encoding and from ``restarts`` points drawn uniformly over one period, using
the exact gradient the objective returns with its value; the best minimum
is returned with its point wrapped into one period.

The objective maps one flat encoding ``(3 * n_senders,)`` to
``(value, gradient)``.  The identity encoding is the first start and
L-BFGS-B never ends above its start, so the returned value never exceeds the
identity-encoding objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.optimize

from .channels import UnitaryParams


class OptimizerError(RuntimeError):
    """Raised when the objective returns a non-finite value or gradient."""


class OptimizerConfigError(ValueError):
    """Invalid optimizer settings."""


@dataclass(frozen=True)
class OptimizerConfig:
    max_evaluations: int = 20000       # split evenly over the starts
    seed: int = 0
    restarts: int = 3                  # random starts besides the identity

    def __post_init__(self):
        if self.restarts < 1:
            raise OptimizerConfigError("restarts must be >= 1")
        if self.max_evaluations < self.restarts + 1:
            raise OptimizerConfigError(
                f"max_evaluations {self.max_evaluations} must be at least one "
                f"per start ({self.restarts + 1})")


@dataclass(frozen=True)
class EncodingParams:
    per_sender: tuple[UnitaryParams, ...]

    @staticmethod
    def identity(n_senders: int) -> "EncodingParams":
        return EncodingParams(tuple(UnitaryParams(0.0, 0.0, 0.0)
                                    for _ in range(n_senders)))

    @staticmethod
    def from_flat(x: np.ndarray) -> "EncodingParams":
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        return EncodingParams(tuple(UnitaryParams(*row) for row in x))

    def to_flat(self) -> np.ndarray:
        return np.concatenate([u.as_array() for u in self.per_sender])


# one period of (omega, theta, delta)
_PERIOD = np.array([4 * np.pi, 2 * np.pi, 4 * np.pi])


def _checked(objective: Callable[[np.ndarray], tuple[float, np.ndarray]]):
    def f(x: np.ndarray) -> tuple[float, np.ndarray]:
        val, grad = objective(x)
        if not (np.isfinite(val) and np.all(np.isfinite(grad))):
            raise OptimizerError(f"objective returned non-finite value {val} "
                                 f"or gradient {grad} at {x}")
        return float(val), grad
    return f


def minimize(objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
             n_senders: int,
             config: OptimizerConfig = OptimizerConfig()) -> tuple[float, EncodingParams]:
    """Global minimum of the objective over per-sender encoding unitaries.

    ``objective`` maps one flat encoding ``(3 * n_senders,)`` to its value
    and gradient.  Deterministic for a fixed config; the identity encoding is
    the first start and the result never exceeds its value.
    """
    period = np.tile(_PERIOD, n_senders)
    rng = np.random.default_rng(config.seed)
    starts = [np.zeros(period.size),
              *rng.uniform(0.0, period, size=(config.restarts, period.size))]
    f = _checked(objective)
    options = {"maxfun": config.max_evaluations // len(starts),
               "ftol": 1e-15, "gtol": 1e-10}
    runs = [scipy.optimize.minimize(f, x0, jac=True, method="L-BFGS-B", options=options)
            for x0 in starts]
    best = min(runs, key=lambda res: res.fun)      # the earliest start on a tie
    return float(best.fun), EncodingParams.from_flat(np.mod(best.x, period))

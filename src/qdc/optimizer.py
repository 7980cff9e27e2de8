"""Stochastic global minimization over per-sender encoding unitaries.

The search space is a box over the Euler parameters (omega, theta, delta) of
one 2x2 unitary per sender: omega, delta in [0, 4*pi], theta in [0, 2*pi].
The minimizer is an evolution strategy in the ISRES family (stochastic
population search with rank selection and self-adapted mutation widths; no
constraints, so the stochastic ranking reduces to objective order) followed
by a Nelder-Mead simplex polish from the best point found.

The objective maps flat encodings ``(..., 3 * n_senders)`` to values ``(...)``:
each ES population is one ``(pop, dim)`` call, while the identity point and
the Nelder-Mead polish pass single ``(dim,)`` rows.

The identity encoding is always injected into the initial population, so the
returned value never exceeds the identity-encoding objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.optimize

from .channels import UnitaryParams


class OptimizerError(RuntimeError):
    """Raised when the objective returns a non-finite value."""


class OptimizerConfigError(ValueError):
    """Invalid optimizer settings."""


@dataclass(frozen=True)
class OptimizerConfig:
    population: int | None = None      # default 20 * D
    max_evaluations: int = 20000       # split evenly over the restarts
    tolerance: float = 1e-6
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        if self.restarts < 1:
            raise OptimizerConfigError("restarts must be >= 1")
        if self.population is not None:   # the default is checked once D is known
            self.resolved_population(0)

    def resolved_population(self, dim: int) -> int:
        pop = self.population if self.population is not None else 20 * dim
        if pop < 4 or self.max_evaluations < self.restarts * pop:
            raise OptimizerConfigError(
                f"population {pop} must be >= 4 and at most max_evaluations / "
                f"restarts = {self.max_evaluations} / {self.restarts}")
        return pop


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


def _bounds(n_senders: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.zeros(3 * n_senders)
    hi = np.tile([4 * np.pi, 2 * np.pi, 4 * np.pi], n_senders)
    return lo, hi


def _checked(objective: Callable[[np.ndarray], np.ndarray | float]):
    def f(x: np.ndarray) -> np.ndarray | float:
        vals = np.asarray(objective(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            i = np.argmin(np.isfinite(vals))     # the first bad row
            raise OptimizerError(f"objective returned non-finite value {vals.flat[i]} "
                                 f"at {x.reshape(-1, x.shape[-1])[i]}")
        return vals if vals.ndim else float(vals)
    return f


def _es_run(f, lo, hi, pop: int, budget: int, tol: float,
            rng: np.random.Generator, seed_points: list[np.ndarray]):
    """One evolution-strategy run; returns (best_value, best_x, evals_used)."""
    dim = lo.size
    span = hi - lo
    mu = max(2, pop // 4)

    xs = rng.uniform(lo, hi, size=(pop, dim))
    for i, sp in enumerate(seed_points[:pop]):
        xs[i] = sp
    sigmas = np.full((pop, dim), 0.25) * span
    vals = f(xs)
    evals = pop

    best_i = int(np.argmin(vals))
    best_x, best_val = xs[best_i].copy(), vals[best_i]

    tau = 1.0 / np.sqrt(2.0 * np.sqrt(dim))
    tau_prime = 1.0 / np.sqrt(2.0 * dim)

    while evals + pop <= budget:
        order = np.argsort(vals)
        parents = xs[order[:mu]]
        parent_sigmas = sigmas[order[:mu]]

        idx = rng.integers(0, mu, size=pop)
        global_step = np.exp(tau_prime * rng.normal(size=(pop, 1)))
        local_step = np.exp(tau * rng.normal(size=(pop, dim)))
        new_sigmas = parent_sigmas[idx] * global_step * local_step
        new_sigmas = np.clip(new_sigmas, 1e-8 * span, 0.5 * span)
        new_xs = parents[idx] + new_sigmas * rng.normal(size=(pop, dim))
        new_xs = np.clip(new_xs, lo, hi)
        # elitism: carry the incumbent best through unchanged
        new_xs[0] = best_x
        new_sigmas[0] = sigmas[order[0]]

        xs, sigmas = new_xs, new_sigmas
        vals = f(xs)
        evals += pop

        gen_best_i = int(np.argmin(vals))
        improvement = best_val - vals[gen_best_i]
        if vals[gen_best_i] < best_val:
            best_x, best_val = xs[gen_best_i].copy(), vals[gen_best_i]
        if 0.0 <= improvement < tol:
            break
    return best_val, best_x, evals


def minimize(objective: Callable[[np.ndarray], np.ndarray | float], n_senders: int,
             config: OptimizerConfig = OptimizerConfig()) -> tuple[float, EncodingParams]:
    """Global minimum of the objective over per-sender encoding unitaries.

    ``objective`` maps flat encodings ``(..., 3 * n_senders)`` to values
    ``(...)``.  Deterministic for a fixed config; the identity encoding is
    evaluated first and the result never exceeds its value.
    """
    dim = 3 * n_senders
    lo, hi = _bounds(n_senders)
    f = _checked(objective)
    pop = config.resolved_population(dim)

    identity_x = EncodingParams.identity(n_senders).to_flat()
    best_val = f(identity_x)
    best_x = identity_x.copy()

    budget = config.max_evaluations // config.restarts
    for r in range(config.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, r)))
        seeds = [identity_x] if r == 0 else []
        val, x, _ = _es_run(f, lo, hi, pop, budget, config.tolerance, rng, seeds)
        if val < best_val:
            best_val, best_x = val, x

    # derivative-free local polish from the best point found
    res = scipy.optimize.minimize(
        f, best_x, method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": min(1e-10, config.tolerance * 1e-3),
                 "maxfev": 400 * dim})
    cand_x = np.clip(res.x, lo, hi)
    cand_val = float(res.fun) if np.array_equal(cand_x, res.x) else f(cand_x)
    if cand_val < best_val:
        best_val, best_x = cand_val, cand_x

    return float(best_val), EncodingParams.from_flat(best_x)

"""Multi-start local minimization over per-sender encoding unitaries.

Each sender's unitary has Euler parameters (omega, theta, delta), and the
objective is periodic in them with period (4*pi, 2*pi, 4*pi).  The search is
unbounded: a box would put the identity encoding (0, 0, 0) at its corner and
cut off the minima just below zero.  For each row of a batch of objectives,
L-BFGS-B runs from the identity encoding and from ``restarts`` points drawn
uniformly over one period, using the exact gradient the objective returns
with its value; the row's best minimum is returned with its point wrapped
into one period.

All (row, start) problems of one call run in lockstep through L-BFGS-B's
reverse-communication routine, the one ``scipy.optimize.minimize`` drives.
Each problem keeps its own workspace, its own stop tests (ftol, gtol,
maxfun, maxiter) and scipy's count of evaluations; no stop rule is shared
between problems.  Each round, the points of all problems that ask for a
value go to the objective in one batched call.  So every problem takes the
iterates a separate ``scipy.optimize.minimize(method="L-BFGS-B",
jac=True)`` run would take, whatever the problems it runs with, provided
each row of the objective's result does not depend on the other rows.

The objective maps row indices ``(k,)`` and a stack of flat encodings
``(k, 3 * n_senders)`` to values ``(k,)`` and gradients
``(k, 3 * n_senders)``.  The identity encoding is the first start and
L-BFGS-B never ends above its start, so a row's value never exceeds its
identity-encoding objective.

scipy supplies only ``setulb``: its compiled file is loaded alone, on the first
``minimize`` call, and no qdc run imports ``scipy.optimize``.
"""

from __future__ import annotations

import functools
import importlib.util
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Callable

import numpy as np

from .channels import UnitaryParams

Objective = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


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
        if self.seed < 0:
            raise OptimizerConfigError(f"seed={self.seed} must be non-negative")
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

# the options every start runs with; the rest are scipy's L-BFGS-B defaults
_FTOL, _GTOL = 1e-15, 1e-10
_FACTR = _FTOL / np.finfo(float).eps
_MAXCOR, _MAXLS, _MAXITER = 10, 20, 15000

# setulb's task codes: evaluate at x, a new iterate, stop
_FG, _NEW_X, _STOP = 3, 1, 5


@functools.cache
def _load_lbfgsb():
    """scipy's compiled ``optimize/_lbfgsb`` module, loaded alone from its file
    (``import scipy.optimize`` takes ~0.4 s) and registered under no ``scipy.*``
    name, so a later ``import scipy.optimize`` still finds its own."""
    scipy_dir, = importlib.util.find_spec("scipy").submodule_search_locations
    path = os.path.join(scipy_dir, "optimize", "_lbfgsb" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no {path}; qdc calls its "
                          "setulb(..., maxls, ln_task), tested on scipy 1.17")
    loader = ExtensionFileLoader("qdc._lbfgsb", path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


@dataclass(frozen=True)
class _RunResult:
    """``scipy.optimize.minimize``'s result for one problem; ``stop`` is
    setulb's (status, task) code pair behind its message."""
    fun: float
    x: np.ndarray
    nfev: int
    nit: int
    stop: tuple[int, int]


class _Run:
    """One L-BFGS-B problem, with the state ``_minimize_lbfgsb`` keeps: the
    setulb workspace, the iteration count and, as scipy's ``ScalarFunction``
    does, the last point evaluated with its value and gradient."""

    def __init__(self, x0: np.ndarray, maxfun: int, f0: float, g0: np.ndarray):
        n, m = x0.size, _MAXCOR
        self.x = np.array(x0, dtype=np.float64)
        self.f, self.g = np.array(0.0), np.zeros(n)
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * n, np.int32)
        self.task, self.ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
        self.lsave, self.isave = np.zeros(4, np.int32), np.zeros(44, np.int32)
        self.dsave = np.zeros(29)
        self.bounds = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)  # none
        self.maxfun, self.nit, self.nfev = maxfun, 0, 1
        self.seen, self.value = self.x.copy(), (f0, np.asarray(g0, np.float64))

    def advance(self, setulb) -> bool:
        """Step ``setulb`` until the run asks for a value at a new point
        (True) or stops (False), as ``_minimize_lbfgsb``'s loop does (setulb
        only reads g: its float64 copy is made once, in ``take``)."""
        low, up, nbd = self.bounds
        while True:
            setulb(_MAXCOR, self.x, low, up, nbd, self.f, self.g,
                   _FACTR, _GTOL, self.wa, self.iwa, self.task,
                   self.lsave, self.isave, self.dsave, _MAXLS, self.ln_task)
            if self.task[0] == _FG:
                if not (self.x == self.seen).all():     # np.array_equal, faster
                    return True
                self.f, self.g = self.value
            elif self.task[0] == _NEW_X:
                # a maxfun overrun stops the run only at the end of an iteration
                self.nit += 1
                if self.nit >= _MAXITER:
                    self.task[:] = _STOP, 504
                elif self.nfev > self.maxfun:
                    self.task[:] = _STOP, 502
            else:
                return False

    def take(self, f: float, g: np.ndarray) -> None:
        g = np.asarray(g, np.float64)
        self.seen, self.value = self.x.copy(), (f, g)
        self.f, self.g = f, g
        self.nfev += 1


def _lbfgsb(objective: Objective, x0: np.ndarray, maxfun: int) -> list[_RunResult]:
    """Unbounded L-BFGS-B from each row of ``x0`` (P, n), all in lockstep.

    ``objective`` maps problem indices and their points to values and
    gradients.  Problem i's result is that of
    ``scipy.optimize.minimize(f_i, x0[i], jac=True, method="L-BFGS-B",
    options={"maxfun": maxfun, "ftol": _FTOL, "gtol": _GTOL})``.
    """
    setulb = _load_lbfgsb().setulb
    values, grads = objective(np.arange(len(x0)), x0)    # scipy's call at x0
    runs = [_Run(x, maxfun, float(f), g) for x, f, g in zip(x0, values, grads)]
    asking = [i for i, run in enumerate(runs) if run.advance(setulb)]
    while asking:
        values, grads = objective(np.array(asking),
                                  np.stack([runs[i].x for i in asking]))
        for i, f, g in zip(asking, values, grads):
            runs[i].take(float(f), g)
        asking = [i for i in asking if runs[i].advance(setulb)]
    return [_RunResult(run.f, run.x, run.nfev, run.nit, tuple(map(int, run.task)))
            for run in runs]


def _checked(objective: Objective) -> Objective:
    def f(rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, grads = objective(rows, x)
        bad = ~(np.isfinite(values) & np.all(np.isfinite(grads), axis=1))
        if bad.any():
            i = int(np.argmax(bad))
            raise OptimizerError(f"objective returned non-finite value {values[i]} "
                                 f"or gradient {grads[i]} at {x[i]}")
        return values, grads
    return f


def minimize(objective: Objective, n_rows: int, n_senders: int,
             config: OptimizerConfig = OptimizerConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Global minimum of each row's objective over per-sender encodings.

    Returns the minima ``(n_rows,)`` and their flat encodings
    ``(n_rows, 3 * n_senders)``, wrapped into one period.  Every row runs
    from the same starts, the identity first; a row's result is its best
    start, the earliest on a tie.  Deterministic for a fixed config.
    """
    period = np.tile(_PERIOD, n_senders)
    rng = np.random.default_rng(config.seed)
    starts = np.concatenate([np.zeros((1, period.size)),
                             rng.uniform(0.0, period, size=(config.restarts, period.size))])
    n_starts = len(starts)
    f = _checked(objective)
    runs = _lbfgsb(lambda problems, x: f(problems // n_starts, x),
                   np.tile(starts, (n_rows, 1)), config.max_evaluations // n_starts)
    fun = np.array([run.fun for run in runs]).reshape(n_rows, n_starts)
    x = np.array([run.x for run in runs]).reshape(n_rows, n_starts, period.size)
    best = np.argmin(fun, axis=1)                   # the earliest start on a tie
    rows = np.arange(n_rows)
    return fun[rows, best], np.mod(x[rows, best], period)

"""Critical noise strengths, parameter sweeps and quenched Monte Carlo means.

Critical strengths of a noisy dense-coding problem:

* ``p_c``: smallest p at which the capacity collapses to the classical bound,
* ``p_r``: smallest p >= p_c at which it revives above the bound,
* ``p_a``: smallest p at which the non-Markovian capacity strictly exceeds
  the Markovian one.

All three are located by a forward scan over p followed by bisection on the
first grid interval where the detection predicate flips.  Every capacity
they read comes from ``mean_capacity``: the quenched mean for a random
channel (epsilon > 0), the capacity itself for a deterministic one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .capacity import (COLLAPSE_THRESHOLD, PartyLayout, _identity_capacities,
                       evaluate)
from .channels import ChannelKind, ChannelSpec, KrausSet, sample_kraus_batch
from .optimizer import OptimizerConfig

# realizations drawn, and with the identity encoding evaluated, together;
# bounds the memory of the stacked block states (256 five-qubit states: 4 MB)
_CHUNK = 256


class AnalysisError(ValueError):
    """Invalid sweep axis or grid."""


@dataclass(frozen=True)
class CriticalStrengths:
    p_c: float | None
    p_r: float | None
    p_a: float | None
    bracket_resolution: float


@dataclass(frozen=True)
class QuenchConfig:
    realizations: int = 4000
    epsilon: float | None = None     # overrides the channel spec when set
    master_seed: int = 0
    optimize_per_realization: bool = False
    threads: int = 1                 # accepted for compatibility; no effect

    def __post_init__(self):
        if self.realizations < 1:
            raise AnalysisError("realizations must be positive")


@dataclass(frozen=True)
class QuenchedResult:
    mean_capacity_bits: float
    std_error_bits: float
    realizations_used: int


def p_range(spec: ChannelSpec) -> tuple[float, float]:
    """Valid noise-strength interval of a channel family."""
    if spec.kind is ChannelKind.DEPHASING:
        return 0.0, 0.5
    hi = 1.0 if spec.alpha == 0.0 else min(1.0, 1.0 / (3.0 * spec.alpha))
    return 0.0, hi


def quenched_capacity(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
                      qc: QuenchConfig,
                      opt: OptimizerConfig = OptimizerConfig()) -> QuenchedResult:
    """Mean and standard error of the capacity over channel realizations.

    Realization k draws its Kraus sets from a generator seeded with
    (master_seed, k), so each value is independent of the others; the
    reduction runs in index order.  The sets are drawn in batches of
    ``_CHUNK`` realizations.  With the identity encoding each batch is
    evaluated at once, each row bit-identical to a one-realization
    evaluation; an optimized encoding is searched for one row at a time.
    ``qc.threads`` has no effect.
    """
    if qc.epsilon is not None:
        spec = dataclasses.replace(spec, epsilon=qc.epsilon)
    if not spec.is_random:
        raise AnalysisError("quenched averaging needs a random channel (epsilon > 0)")
    seeds = [(qc.master_seed, k) for k in range(qc.realizations)]
    chunks = (sample_kraus_batch(spec, layout.n_senders, seeds[i:i + _CHUNK])
              for i in range(0, len(seeds), _CHUNK))
    if qc.optimize_per_realization:
        values = np.array([
            evaluate(rho, layout, spec, opt=opt,
                     kraus_override=[KrausSet(tuple(ops)) for ops in row]).capacity_bits
            for chunk in chunks for row in chunk])
    else:
        values = np.concatenate([_identity_capacities(rho, layout, chunk)
                                 for chunk in chunks])

    mean = float(np.sum(values) / values.size)
    if values.size > 1:
        stderr = float(np.std(values, ddof=1) / np.sqrt(values.size))
    else:
        stderr = 0.0
    return QuenchedResult(mean, stderr, int(values.size))


def mean_capacity(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec | None,
                  opt: OptimizerConfig = OptimizerConfig(), optimize: bool = True,
                  quench: QuenchConfig | None = None) -> QuenchedResult:
    """The quenched mean if the channel is random, else the capacity itself.

    The channel counts as random after ``quench.epsilon`` has overridden the
    spec's epsilon.  A deterministic channel (or ``spec=None``, no channel)
    is one realization with zero standard error; ``optimize`` applies to it
    only, since quenched runs follow ``quench.optimize_per_realization``.
    """
    if spec is not None and quench is not None and quench.epsilon is not None:
        spec = dataclasses.replace(spec, epsilon=quench.epsilon)
    if spec is None or not spec.is_random:
        cap = evaluate(rho, layout, spec, opt=opt, optimize=optimize).capacity_bits
        return QuenchedResult(cap, 0.0, 1)
    if quench is None:
        raise AnalysisError("a random channel needs a QuenchConfig")
    return quenched_capacity(rho, layout, spec, quench, opt)


def _first_crossing(predicate, lo: float, hi: float, scan_step: float,
                    refine: float) -> float | None:
    """Smallest p in [lo, hi] where predicate flips to True.

    Forward scan on a uniform grid, then bisection inside the first flipping
    interval down to width <= refine.  Grid points are generated as
    lo + k*scan_step so that round decimals are hit exactly.  Only the first
    check, of lo itself, can return lo.
    """
    if predicate(lo):
        return lo
    n_steps = int(np.ceil((hi - lo) / scan_step))
    prev = lo
    hit = None
    for k in range(1, n_steps + 1):
        p = min(lo + k * scan_step, hi)
        if predicate(p):
            hit = p
            break
        prev = p
    if hit is None:
        return None
    a, b = prev, hit
    while b - a > refine:
        mid = 0.5 * (a + b)
        if predicate(mid):
            b = mid
        else:
            a = mid
    return b


def find_pc(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
            opt: OptimizerConfig = OptimizerConfig(), scan_step: float = 1e-3,
            refine: float = 1e-4, threshold: float = COLLAPSE_THRESHOLD,
            optimize: bool = True, quench: QuenchConfig | None = None) -> float | None:
    """Smallest p at which the capacity drops to the classical bound.

    Returns None when the noiseless capacity does not exceed the bound or
    the capacity never collapses inside the channel's p-range.
    """
    lo, hi = p_range(spec)
    classical = float(layout.n_senders)

    def collapsed(p: float) -> bool:
        cap = mean_capacity(rho, layout, dataclasses.replace(spec, p=p), opt,
                            optimize, quench).mean_capacity_bits
        return cap - classical <= threshold

    p = _first_crossing(collapsed, lo, hi, scan_step, refine)
    return None if p == lo else p   # collapsed at lo: no advantage to lose


def find_pr(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
            opt: OptimizerConfig = OptimizerConfig(), scan_step: float = 1e-3,
            refine: float = 1e-4, threshold: float = COLLAPSE_THRESHOLD,
            optimize: bool = True, quench: QuenchConfig | None = None,
            p_c: float | None = None) -> float | None:
    """Smallest p >= p_c at which the capacity revives above the bound."""
    if p_c is None:
        p_c = find_pc(rho, layout, spec, opt, scan_step, refine, threshold,
                      optimize, quench)
    if p_c is None:
        return None
    _, hi = p_range(spec)
    classical = float(layout.n_senders)

    def revived(p: float) -> bool:
        cap = mean_capacity(rho, layout, dataclasses.replace(spec, p=p), opt,
                            optimize, quench).mean_capacity_bits
        return cap - classical > threshold

    # start one refine-width past the collapse point
    lo = min(p_c + refine, hi)
    return _first_crossing(revived, lo, hi, scan_step, refine)


def find_pa(rho: np.ndarray, layout: PartyLayout, spec_nm: ChannelSpec,
            spec_m: ChannelSpec | None = None,
            opt: OptimizerConfig = OptimizerConfig(), scan_step: float = 1e-3,
            refine: float = 1e-4, threshold: float = COLLAPSE_THRESHOLD,
            optimize: bool = True, quench: QuenchConfig | None = None) -> float | None:
    """Smallest p where the non-Markovian capacity exceeds the Markovian one."""
    if spec_m is None:
        spec_m = dataclasses.replace(spec_nm, alpha=0.0)
    if spec_m.kind is not spec_nm.kind or spec_m.epsilon != spec_nm.epsilon:
        raise AnalysisError("Markovian reference must share channel kind and epsilon")
    lo_nm, hi_nm = p_range(spec_nm)
    lo_m, hi_m = p_range(spec_m)
    lo, hi = max(lo_nm, lo_m), min(hi_nm, hi_m)

    def capacity(spec: ChannelSpec, p: float) -> float:
        return mean_capacity(rho, layout, dataclasses.replace(spec, p=p), opt,
                             optimize, quench).mean_capacity_bits

    def advantaged(p: float) -> bool:
        return capacity(spec_nm, p) - capacity(spec_m, p) > threshold

    return _first_crossing(advantaged, lo, hi, scan_step, refine)


def critical_strengths(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
                       opt: OptimizerConfig = OptimizerConfig(),
                       scan_step: float = 1e-3, refine: float = 1e-4,
                       threshold: float = COLLAPSE_THRESHOLD,
                       optimize: bool = True,
                       quench: QuenchConfig | None = None) -> CriticalStrengths:
    """All three critical strengths of one problem, sharing one scan setup."""
    pc = find_pc(rho, layout, spec, opt, scan_step, refine, threshold,
                 optimize, quench)
    pr = find_pr(rho, layout, spec, opt, scan_step, refine, threshold,
                 optimize, quench, p_c=pc)
    pa = (find_pa(rho, layout, spec, None, opt, scan_step, refine, threshold,
                  optimize, quench)
          if spec.alpha > 0.0 else None)
    return CriticalStrengths(pc, pr, pa, refine)


def sweep(axis: str, grid: tuple[float, float, int], *, state=None,
          rho: np.ndarray | None = None, layout: PartyLayout,
          spec: ChannelSpec | None, opt: OptimizerConfig = OptimizerConfig(),
          optimize: bool = True, quench: QuenchConfig | None = None,
          param: str | None = None, threads: int = 1) -> list[dict]:
    """Capacity along one axis: ``p``, ``alpha`` or a state parameter.

    ``axis='state_param'`` varies the field named ``param`` of ``state``
    (e.g. ``x`` for gGHZ, ``b`` for gW).  Returns one row per grid point,
    ordered by axis value.  ``threads`` is accepted for compatibility and
    has no effect.
    """
    from .states import build   # local import to avoid a cycle

    lo, hi, steps = grid
    if steps < 1:
        raise AnalysisError("sweep needs at least one grid point")
    values = [lo] if steps == 1 else list(np.linspace(lo, hi, steps))

    def row(value: float) -> dict:
        spec_v, rho_v, state_v = spec, rho, state
        if axis == "p":
            spec_v = dataclasses.replace(spec, p=float(value))
        elif axis == "alpha":
            spec_v = dataclasses.replace(spec, alpha=float(value))
        elif axis == "state_param":
            if state_v is None or param is None:
                raise AnalysisError("state_param sweeps need state= and param=")
            state_v = dataclasses.replace(state_v, **{param: float(value)})
        else:
            raise AnalysisError(f"unknown sweep axis {axis!r}")
        if rho_v is None or state_v is not state:
            if state_v is None:
                raise AnalysisError("sweep needs either rho= or state=")
            rho_v = build(state_v)

        q = mean_capacity(rho_v, layout, spec_v, opt, optimize, quench)
        classical = float(layout.n_senders)
        return {
            "axis": axis, "value": float(value),
            "p": spec_v.p if spec_v is not None else "",
            "alpha": spec_v.alpha if spec_v is not None else "",
            "capacity_bits": q.mean_capacity_bits,
            "classical_bound": classical,
            "dense_codeable": q.mean_capacity_bits - classical > COLLAPSE_THRESHOLD,
            "std_error": q.std_error_bits,
        }

    return [row(v) for v in values]

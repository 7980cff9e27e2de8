"""Critical noise strengths, parameter sweeps and quenched Monte Carlo means.

Critical strengths of a noisy dense-coding problem:

* ``p_c``: smallest p at which the capacity collapses to the classical bound,
* ``p_r``: smallest p >= p_c at which it revives above the bound,
* ``p_a``: smallest p at which the non-Markovian capacity strictly exceeds
  the Markovian one.

All three are located by a forward scan over a p-grid followed by bisection
on the first grid interval where the detection predicate flips.  The forward
grid is evaluated in chunks of 1, 2, 4, ... points, up to the first chunk
that holds a flip.  The capacities come from the problem's curves, one per
channel family (the spec up to p), memoized for the length of one public
call, so that p_c, p_r and p_a read each point once.  Every curve is
evaluated in batches: the Kraus sets of many p-points, and of every
realization of a quenched channel, are stacked along the kernel's batch
axis, and the block states and receiver entropies are traced out once per
scan.  With an encoding optimized per point or per realization, every
L-BFGS-B start of every row of a batch runs in lockstep; no stop rule is
shared between them, so no result depends on the batch it runs in.  The
unitaries a quenched channel draws do not depend on p or alpha, so each
scan draws them once.  Quenched means and sweeps along p are curves too.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .capacity import (COLLAPSE_THRESHOLD, PartyLayout, _capacities, _Marginals,
                       _marginals, evaluate)
from .channels import (_PAULIS, ChannelKind, ChannelSpec, _channel_weights,
                       _kraus_rows, _seeded_unitaries)
from .optimizer import OptimizerConfig

# (p-point, realization) rows evaluated together, or optimizer problems run in
# lockstep; bounds the memory of the stacked block states (256 five-qubit
# states: 4 MB)
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


def _overridden(spec: ChannelSpec | None, quench: QuenchConfig | None):
    """The spec with ``quench.epsilon`` in place of its own, when set."""
    if spec is not None and quench is not None and quench.epsilon is not None:
        return dataclasses.replace(spec, epsilon=quench.epsilon)
    return spec


def _unitaries(spec: ChannelSpec, n_senders: int,
               quench: QuenchConfig | None) -> np.ndarray:
    """The unitaries that follow the identity in every realization's Kraus
    sets, ``(R, rows, m-1, 2, 2)``: realization k drawn from a generator
    seeded with (master_seed, k) for a random channel, the exact Paulis
    (one realization) for a deterministic one."""
    if not spec.is_random:
        return _PAULIS[spec.kind][None, None]
    return _seeded_unitaries(spec, n_senders, [(quench.master_seed, k)
                                               for k in range(quench.realizations)])


def _mean(values: np.ndarray) -> float:
    """Mean of one contiguous row of capacities, summed in index order."""
    return float(np.sum(values) / values.size)


def _reduce(values: np.ndarray) -> QuenchedResult:
    """Mean and standard error of one contiguous row of capacities."""
    mean = _mean(values)
    if values.size > 1:
        stderr = float(np.std(values, ddof=1) / np.sqrt(values.size))
    else:
        stderr = 0.0
    return QuenchedResult(mean, stderr, int(values.size))


def _optimized(spec: ChannelSpec, optimize: bool, quench: QuenchConfig | None) -> bool:
    """Whether the capacities of the family ``spec`` (after the quench's
    epsilon override) optimize the encoding: per realization as the quench
    says for a random channel; else as ``optimize`` says, unless the channel
    is covariant depolarizing noise."""
    if spec.is_random:
        return quench.optimize_per_realization
    return optimize and not spec.is_covariant


def _capacity_curve(marginals: _Marginals, spec: ChannelSpec, ps,
                    unitaries: np.ndarray, opt: OptimizerConfig = OptimizerConfig(),
                    optimize: bool = False) -> np.ndarray:
    """Capacities of the channel family ``spec``, one row per p of ``ps``
    and one column per realization of ``unitaries`` (see ``_unitaries``),
    for the state and layout of ``marginals`` (``capacity._marginals``).

    The (p, realization) rows, p-major, are weighted, checked and evaluated
    in slices of at most ``_CHUNK`` rows, or, with ``optimize``, of at most
    ``_CHUNK`` optimizer problems (restarts + 1 per row, at least one row).
    Each is bit-identical to a one-row evaluation.  Each p's row is
    contiguous, so it reduces in realization order.
    """
    weights = np.array([_channel_weights(spec.kind, spec.alpha, p) for p in ps])
    n_r = len(unitaries)
    values = np.empty((len(ps), n_r))
    flat = values.reshape(-1)
    step = max(1, _CHUNK // (opt.restarts + 1)) if optimize else _CHUNK
    for a in range(0, flat.size, step):
        rows = np.arange(a, min(a + step, flat.size))
        kraus = _kraus_rows(weights[rows // n_r, None], unitaries[rows % n_r],
                            marginals.n_senders)
        flat[a:a + len(rows)] = _capacities(marginals, kraus, opt, optimize)
    return values


def quenched_capacity(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
                      qc: QuenchConfig,
                      opt: OptimizerConfig = OptimizerConfig()) -> QuenchedResult:
    """Mean and standard error of the capacity over channel realizations.

    Realization k draws its Kraus sets from a generator seeded with
    (master_seed, k), so each value is independent of the others; the
    reduction runs in index order.  This is the one-point case of a scan's
    capacity curve, evaluated in slices of realizations; with
    ``qc.optimize_per_realization`` every start of every realization of a
    slice runs in lockstep, each with its own stop rule.  ``qc.threads`` has
    no effect.
    """
    spec = _overridden(spec, qc)
    if not spec.is_random:
        raise AnalysisError("quenched averaging needs a random channel (epsilon > 0)")
    return _reduce(_capacity_curve(_marginals(rho, layout), spec, [spec.p],
                                   _unitaries(spec, layout.n_senders, qc), opt,
                                   qc.optimize_per_realization)[0])


def mean_capacity(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec | None,
                  opt: OptimizerConfig = OptimizerConfig(), optimize: bool = True,
                  quench: QuenchConfig | None = None) -> QuenchedResult:
    """The quenched mean if the channel is random, else the capacity itself.

    The channel counts as random after ``quench.epsilon`` has overridden the
    spec's epsilon.  A deterministic channel (or ``spec=None``, no channel)
    is one realization with zero standard error; ``optimize`` applies to it
    only, since quenched runs follow ``quench.optimize_per_realization``.
    """
    spec = _overridden(spec, quench)
    if spec is None or not spec.is_random:
        cap = evaluate(rho, layout, spec, opt=opt, optimize=optimize).capacity_bits
        return QuenchedResult(cap, 0.0, 1)
    if quench is None:
        raise AnalysisError("a random channel needs a QuenchConfig")
    return quenched_capacity(rho, layout, spec, quench, opt)


@dataclass(eq=False)
class _Scan:
    """One scan problem: the state, its layout and channel family, how each
    capacity is taken, and the scan grid.

    It holds the problem's capacity curves, one per channel family (the spec
    up to p), the unitaries they draw and the block states and receiver
    entropies they share; all live as long as the record, which is one
    public call.
    """
    rho: np.ndarray
    layout: PartyLayout
    spec: ChannelSpec
    opt: OptimizerConfig
    optimize: bool
    quench: QuenchConfig | None
    scan_step: float
    refine: float
    threshold: float
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _draws: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("scan_step", "refine"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise AnalysisError(f"{name}={value} must be finite and positive")
        if not 0.0 <= self.threshold < np.inf:
            raise AnalysisError(f"threshold={self.threshold} must be finite and "
                                "non-negative")
        if self.spec.is_random and self.quench is None:
            raise AnalysisError("a random channel needs a QuenchConfig")

    @property
    def classical(self) -> float:
        return float(self.layout.n_senders)

    @functools.cached_property
    def marginals(self) -> _Marginals:
        return _marginals(self.rho, self.layout)

    def curve(self, spec: ChannelSpec, ps) -> np.ndarray:
        """Mean capacity of the family ``spec`` at each p of ``ps``; points
        not read before are evaluated together."""
        spec = _overridden(dataclasses.replace(spec, p=0.0), self.quench)
        memo = self._memo.setdefault(spec, {})
        new = [p for p in dict.fromkeys(ps) if p not in memo]
        if new:
            memo.update(zip(new, _curve_points(self, spec, new)))
        return np.array([memo[p] for p in ps])

    def unitaries(self, spec: ChannelSpec) -> np.ndarray:
        key = (spec.kind, spec.epsilon, spec.draw_policy)
        if key not in self._draws:
            self._draws[key] = _unitaries(spec, self.layout.n_senders, self.quench)
        return self._draws[key]


def _curve_points(scan: _Scan, spec: ChannelSpec, ps: list[float]) -> list[float]:
    """Mean capacities of the family ``spec`` at points not read before,
    evaluated together."""
    return [_mean(v) for v in _capacity_curve(
        scan.marginals, spec, ps, scan.unitaries(spec), scan.opt,
        _optimized(spec, scan.optimize, scan.quench))]


def _first_crossing(predicate, lo: float, hi: float, scan_step: float,
                    refine: float) -> float | None:
    """Smallest p in [lo, hi] where predicate flips to True.

    ``predicate`` maps a list of p to an array of bools.  Forward scan on a
    uniform grid, evaluated in chunks of 1, 2, 4, ... points up to the first
    chunk that flips, then bisection inside the first flipping interval down
    to width <= refine.  Grid points are generated as lo + k*scan_step so
    that round decimals are hit exactly.  Only the first check, of lo itself
    (the first chunk), can return lo.
    """
    n_steps = int(np.ceil((hi - lo) / scan_step))
    grid = [lo] + [min(lo + k * scan_step, hi) for k in range(1, n_steps + 1)]
    hit, start, size = None, 0, 1
    while hit is None and start < len(grid):
        flips = predicate(grid[start:start + size])
        if flips.any():
            hit = start + int(np.argmax(flips))
        start, size = start + size, 2 * size
    if hit is None:
        return None
    if hit == 0:
        return lo
    a, b = grid[hit - 1], grid[hit]
    while b - a > refine:
        mid = 0.5 * (a + b)
        if predicate([mid])[0]:
            b = mid
        else:
            a = mid
    return b


def _find_pc(scan: _Scan) -> float | None:
    lo, hi = p_range(scan.spec)

    def collapsed(ps) -> np.ndarray:
        return scan.curve(scan.spec, ps) - scan.classical <= scan.threshold

    p = _first_crossing(collapsed, lo, hi, scan.scan_step, scan.refine)
    return None if p == lo else p   # collapsed at lo: no advantage to lose


def _find_pr(scan: _Scan, p_c: float | None) -> float | None:
    if p_c is None:
        return None
    _, hi = p_range(scan.spec)

    def revived(ps) -> np.ndarray:
        return scan.curve(scan.spec, ps) - scan.classical > scan.threshold

    # start one refine-width past the collapse point
    lo = min(p_c + scan.refine, hi)
    return _first_crossing(revived, lo, hi, scan.scan_step, scan.refine)


def _find_pa(scan: _Scan, spec_m: ChannelSpec) -> float | None:
    spec_nm = scan.spec
    lo_nm, hi_nm = p_range(spec_nm)
    lo_m, hi_m = p_range(spec_m)
    lo, hi = max(lo_nm, lo_m), min(hi_nm, hi_m)

    def advantaged(ps) -> np.ndarray:
        return scan.curve(spec_nm, ps) - scan.curve(spec_m, ps) > scan.threshold

    return _first_crossing(advantaged, lo, hi, scan.scan_step, scan.refine)


def find_pc(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
            opt: OptimizerConfig = OptimizerConfig(), scan_step: float = 1e-3,
            refine: float = 1e-4, threshold: float = COLLAPSE_THRESHOLD,
            optimize: bool = True, quench: QuenchConfig | None = None) -> float | None:
    """Smallest p at which the capacity drops to the classical bound.

    Returns None when the noiseless capacity does not exceed the bound or
    the capacity never collapses inside the channel's p-range.
    """
    return _find_pc(_Scan(rho, layout, spec, opt, optimize, quench, scan_step,
                          refine, threshold))


def find_pr(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
            opt: OptimizerConfig = OptimizerConfig(), scan_step: float = 1e-3,
            refine: float = 1e-4, threshold: float = COLLAPSE_THRESHOLD,
            optimize: bool = True, quench: QuenchConfig | None = None,
            p_c: float | None = None) -> float | None:
    """Smallest p >= p_c at which the capacity revives above the bound."""
    scan = _Scan(rho, layout, spec, opt, optimize, quench, scan_step, refine,
                 threshold)
    return _find_pr(scan, _find_pc(scan) if p_c is None else p_c)


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
    return _find_pa(_Scan(rho, layout, spec_nm, opt, optimize, quench, scan_step,
                          refine, threshold), spec_m)


def critical_strengths(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
                       opt: OptimizerConfig = OptimizerConfig(),
                       scan_step: float = 1e-3, refine: float = 1e-4,
                       threshold: float = COLLAPSE_THRESHOLD,
                       optimize: bool = True,
                       quench: QuenchConfig | None = None) -> CriticalStrengths:
    """All three critical strengths of one problem, on one shared curve (and
    the Markovian one for p_a)."""
    scan = _Scan(rho, layout, spec, opt, optimize, quench, scan_step, refine,
                 threshold)
    pc = _find_pc(scan)
    pr = _find_pr(scan, pc)
    pa = (_find_pa(scan, dataclasses.replace(spec, alpha=0.0))
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
    ordered by axis value.  Along ``p`` the grid is one capacity curve,
    evaluated in batches; each row's mean and standard error reduce its own
    realizations.  ``threads`` is accepted for compatibility and has no
    effect.
    """
    from .states import build   # local import to avoid a cycle

    lo, hi, steps = grid
    if steps < 1:
        raise AnalysisError("sweep needs at least one grid point")
    values = [lo] if steps == 1 else list(np.linspace(lo, hi, steps))
    if rho is None and state is not None and axis != "state_param":
        rho = build(state)

    def point(value: float) -> tuple[ChannelSpec | None, np.ndarray]:
        spec_v, rho_v = spec, rho
        if axis == "p":
            spec_v = dataclasses.replace(spec, p=float(value))
        elif axis == "alpha":
            spec_v = dataclasses.replace(spec, alpha=float(value))
        elif axis == "state_param":
            if state is None or param is None:
                raise AnalysisError("state_param sweeps need state= and param=")
            rho_v = build(dataclasses.replace(state, **{param: float(value)}))
        else:
            raise AnalysisError(f"unknown sweep axis {axis!r}")
        if rho_v is None:
            raise AnalysisError("sweep needs either rho= or state=")
        return spec_v, rho_v

    points = [point(v) for v in values]
    if axis == "p":
        # one curve: the state and the channel family are the same at every p
        family = _overridden(spec, quench)
        if family.is_random and quench is None:
            raise AnalysisError("a random channel needs a QuenchConfig")
        curve = _capacity_curve(_marginals(rho, layout), family,
                                [spec_v.p for spec_v, _ in points],
                                _unitaries(family, layout.n_senders, quench), opt,
                                _optimized(family, optimize, quench))
        results = [_reduce(row) for row in curve]
    else:
        results = [mean_capacity(rho_v, layout, spec_v, opt, optimize, quench)
                   for spec_v, rho_v in points]
    classical = float(layout.n_senders)
    return [{
        "axis": axis, "value": float(value),
        "p": spec_v.p if spec_v is not None else "",
        "alpha": spec_v.alpha if spec_v is not None else "",
        "capacity_bits": q.mean_capacity_bits,
        "classical_bound": classical,
        "dense_codeable": q.mean_capacity_bits - classical > COLLAPSE_THRESHOLD,
        "std_error": q.std_error_bits,
    } for value, (spec_v, _), q in zip(values, points, results)]

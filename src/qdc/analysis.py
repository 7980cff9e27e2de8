"""Critical noise strengths, parameter sweeps and quenched Monte Carlo means.

Critical strengths of a noisy dense-coding problem:

* ``p_c``: smallest p at which the capacity collapses to the classical bound,
* ``p_r``: smallest p >= p_c at which it revives above the bound,
* ``p_a``: smallest p at which the non-Markovian capacity strictly exceeds
  the Markovian one.

All three are located by a forward scan over a p-grid followed by bisection
on the first grid interval where the detection predicate flips.  The forward
grid is evaluated in chunks of 1, 2, 4, ... points, up to the first chunk
that holds a flip.

Every capacity this module takes with a channel is read through one record,
``_Curves``, the only code that decides whether a channel family (the spec
up to p) is random, which unitaries its realizations have and whether the
encoding is optimized.  It keeps each point's row of per-realization
capacities for one public call, so p_c, p_r and p_a read each point once.
A curve is evaluated in batches: a rectangle of p-points (their channel
weights, taken at once) by realizations goes to the capacity layer, which
picks each block's route (the kernel or the environment side) and runs the
rectangle together.  The block states and receiver entropies are traced
out, and a quenched channel's unitaries (which depend on neither p nor
alpha) drawn, once per record, and what the capacity layer derives from
them is kept with them; the exact Paulis are real, so a deterministic curve
of a real state runs in real arithmetic.  With an optimized encoding, every
L-BFGS-B start of every row of a batch runs in lockstep with its own stop
rule, so no result depends on the batch.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .capacity import (COLLAPSE_THRESHOLD, PartyLayout, _capacities, _Marginals,
                       _marginals, _Realizations, evaluate)
from .channels import (_PAULIS, ChannelSpec, _channel_weights, _check_unitary,
                       _seeded_unitaries, p_range)
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
    master_seed: int = 0
    optimize_per_realization: bool = False
    threads: int = 1                 # accepted for compatibility; no effect

    def __post_init__(self):
        if self.realizations < 1:
            raise AnalysisError("realizations must be positive")
        if self.master_seed < 0:
            raise AnalysisError(f"master_seed={self.master_seed} must be non-negative")


@dataclass(frozen=True)
class QuenchedResult:
    mean_capacity_bits: float
    std_error_bits: float
    realizations_used: int


def _reduce(values: np.ndarray) -> QuenchedResult:
    """Mean and standard error of one contiguous row of capacities, summed
    in index order."""
    mean = float(np.sum(values) / values.size)
    if values.size > 1:
        stderr = float(np.std(values, ddof=1) / np.sqrt(values.size))
    else:
        stderr = 0.0
    return QuenchedResult(mean, stderr, int(values.size))


def _capacity_curve(marginals: _Marginals, spec: ChannelSpec, ps,
                    real: _Realizations, opt: OptimizerConfig = OptimizerConfig(),
                    optimize: bool = False) -> np.ndarray:
    """Capacities of the channel family ``spec`` (its p aside), one row per p
    of ``ps`` and one column per realization of ``real``, for the state and
    layout of ``marginals`` (``capacity._marginals``).

    The (p, realization) grid is evaluated in rectangles of at most
    ``_CHUNK`` rows, or, with ``optimize``, of at most ``_CHUNK`` optimizer
    problems (restarts + 1 per row, at least one row): whole p-rows, or one
    p's realizations in slices.  Each value is bit-identical to a one-row
    evaluation, and each p's row reduces in realization order.
    """
    weights = _channel_weights(spec.kind, spec.alpha, ps)
    n_r = len(real)
    values = np.empty((len(ps), n_r))
    step = max(1, _CHUNK // (opt.restarts + 1)) if optimize else _CHUNK
    p_step, r_step = max(1, step // n_r), min(step, n_r)
    for a in range(0, len(ps), p_step):
        for lo in range(0, n_r, r_step):
            hi = min(lo + r_step, n_r)
            values[a:a + p_step, lo:hi] = _capacities(
                marginals, weights[a:a + p_step], real, lo, hi, opt, optimize)
    return values


@dataclass(eq=False)
class _Curves:
    """The capacity curves of one state and layout, and how each capacity
    is taken.  It holds the block states and receiver entropies they share,
    the unitaries of each channel family's realizations (a random kind,
    epsilon and draw policy's draws, or a kind's exact Paulis) with what the
    capacity layer derives from them, and per channel family each point's
    row of per-realization capacities."""
    rho: np.ndarray
    layout: PartyLayout
    opt: OptimizerConfig
    optimize: bool
    quench: QuenchConfig | None
    _draws: dict = field(default_factory=dict, init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def marginals(self) -> _Marginals:
        return _marginals(self.rho, self.layout)

    def realizations(self, spec: ChannelSpec) -> _Realizations:
        """Realization k of a random family draws from a generator seeded
        with (master_seed, k); a deterministic family is one realization of
        the exact Paulis.  The unitaries depend on neither p nor alpha."""
        key = (spec.kind, spec.epsilon, spec.draw_policy) if spec.is_random else spec.kind
        if key not in self._draws:
            if spec.is_random:
                u = _seeded_unitaries(spec, self.layout.n_senders,
                                      [(self.quench.master_seed, k)
                                       for k in range(self.quench.realizations)])
                _check_unitary(u)
            else:
                u = _PAULIS[spec.kind][None, None]
            self._draws[key] = _Realizations.of(u, self.layout.n_senders)
        return self._draws[key]

    def rows(self, spec: ChannelSpec, ps) -> list[np.ndarray]:
        """Per-realization capacities of the family ``spec`` at each p of
        ``ps``; points not read before are evaluated together.  A random
        family optimizes as the quench says; a deterministic one as
        ``optimize`` says unless it is covariant."""
        if spec.is_random and self.quench is None:
            raise AnalysisError("a random channel needs a QuenchConfig")
        family = (spec.kind, spec.alpha, spec.epsilon, spec.draw_policy)
        memo = self._memo.setdefault(family, {})
        new = [p for p in dict.fromkeys(ps) if p not in memo]
        if new:
            if spec.is_random:
                optimize = self.quench.optimize_per_realization
            else:
                optimize = self.optimize and not spec.is_covariant
            memo.update(zip(new, _capacity_curve(self.marginals, spec, new,
                                                 self.realizations(spec), self.opt,
                                                 optimize)))
        return [memo[p] for p in ps]


def quenched_capacity(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
                      qc: QuenchConfig,
                      opt: OptimizerConfig = OptimizerConfig()) -> QuenchedResult:
    """Mean and standard error of the capacity over channel realizations.

    Realization k draws its Kraus sets from a generator seeded with
    (master_seed, k), so each value is independent of the others; the
    reduction runs in index order.  This is the one-point case of a scan's
    capacity curve, evaluated in slices of realizations; with
    ``qc.optimize_per_realization`` every start of every realization of a
    slice runs in lockstep, each with its own stop rule.
    """
    if not spec.is_random:
        raise AnalysisError("quenched averaging needs a random channel (epsilon > 0)")
    return _reduce(_Curves(rho, layout, opt, False, qc).rows(spec, [spec.p])[0])


def mean_capacity(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec | None,
                  opt: OptimizerConfig = OptimizerConfig(), optimize: bool = True,
                  quench: QuenchConfig | None = None) -> QuenchedResult:
    """The quenched mean if the channel is random, else the capacity itself.

    A deterministic channel (or ``spec=None``, no channel) is one
    realization with zero standard error; ``optimize`` applies to it only,
    since quenched runs follow ``quench.optimize_per_realization``.
    """
    if spec is None:
        cap = evaluate(rho, layout, None, opt=opt, optimize=optimize).capacity_bits
        return QuenchedResult(cap, 0.0, 1)
    return _reduce(_Curves(rho, layout, opt, optimize, quench).rows(spec, [spec.p])[0])


@dataclass(eq=False)
class _Scan:
    """One scan problem: the channel family it scans, the scan grid and the
    capacity curves it reads."""
    spec: ChannelSpec
    curves: _Curves
    scan_step: float
    refine: float
    threshold: float

    def __post_init__(self):
        for name in ("scan_step", "refine"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise AnalysisError(f"{name}={value} must be finite and positive")
        if not 0.0 <= self.threshold < np.inf:
            raise AnalysisError(f"threshold={self.threshold} must be finite and "
                                "non-negative")

    @property
    def classical(self) -> float:
        return float(self.curves.layout.n_senders)

    def curve(self, spec: ChannelSpec, ps) -> np.ndarray:
        """Mean capacity of the family ``spec`` at each p of ``ps``: each
        row summed in index order, as ``_reduce`` sums it."""
        rows = np.array(self.curves.rows(spec, ps))
        return np.sum(rows, axis=1) / rows.shape[1]


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


def _find_pa(scan: _Scan) -> float | None:
    # the Markovian reference's p-range holds the non-Markovian one
    spec_nm, spec_m = scan.spec, dataclasses.replace(scan.spec, alpha=0.0)
    lo, hi = p_range(spec_nm)

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
    return _find_pc(_Scan(spec, _Curves(rho, layout, opt, optimize, quench),
                          scan_step, refine, threshold))


def find_pr(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
            opt: OptimizerConfig = OptimizerConfig(), scan_step: float = 1e-3,
            refine: float = 1e-4, threshold: float = COLLAPSE_THRESHOLD,
            optimize: bool = True, quench: QuenchConfig | None = None) -> float | None:
    """Smallest p >= p_c at which the capacity revives above the bound; p_c
    is found on the same scan."""
    scan = _Scan(spec, _Curves(rho, layout, opt, optimize, quench), scan_step,
                 refine, threshold)
    return _find_pr(scan, _find_pc(scan))


def find_pa(rho: np.ndarray, layout: PartyLayout, spec_nm: ChannelSpec,
            opt: OptimizerConfig = OptimizerConfig(), scan_step: float = 1e-3,
            refine: float = 1e-4, threshold: float = COLLAPSE_THRESHOLD,
            optimize: bool = True, quench: QuenchConfig | None = None) -> float | None:
    """Smallest p where the non-Markovian capacity exceeds the Markovian one
    (the same family at alpha = 0)."""
    return _find_pa(_Scan(spec_nm, _Curves(rho, layout, opt, optimize, quench),
                          scan_step, refine, threshold))


def critical_strengths(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
                       opt: OptimizerConfig = OptimizerConfig(),
                       scan_step: float = 1e-3, refine: float = 1e-4,
                       threshold: float = COLLAPSE_THRESHOLD,
                       optimize: bool = True,
                       quench: QuenchConfig | None = None) -> CriticalStrengths:
    """All three critical strengths of one problem, on one shared curve (and
    the Markovian one for p_a)."""
    scan = _Scan(spec, _Curves(rho, layout, opt, optimize, quench), scan_step,
                 refine, threshold)
    pc = _find_pc(scan)
    pr = _find_pr(scan, pc)
    pa = _find_pa(scan) if spec.alpha > 0.0 else None
    return CriticalStrengths(pc, pr, pa, refine)


def sweep(axis: str, grid: tuple[float, float, int], *, state=None,
          rho: np.ndarray | None = None, layout: PartyLayout,
          spec: ChannelSpec | None, opt: OptimizerConfig = OptimizerConfig(),
          optimize: bool = True, quench: QuenchConfig | None = None,
          param: str | None = None) -> list[dict]:
    """Capacity along one axis: ``p``, ``alpha`` or a state parameter.

    ``axis='state_param'`` varies the float field named ``param`` of
    ``state``: ``x`` for gGHZ, ``a`` or ``b`` for gW3, ``a``, ``b`` or ``c``
    for gW4 (W and Bell states have none).  Returns one row per grid point,
    ordered by axis value.  Along ``p`` the grid is one capacity curve,
    evaluated in batches; each row's mean and standard error reduce its own
    realizations.
    """
    from .states import build   # local import to avoid a cycle

    lo, hi, steps = grid
    if steps < 1:
        raise AnalysisError("sweep needs at least one grid point")
    if spec is None and axis in ("p", "alpha"):
        raise AnalysisError(f"a sweep along {axis} needs a channel")
    if axis == "state_param":
        if state is None or param is None:
            raise AnalysisError("state_param sweeps need state= and param=")
        names = [f.name for f in dataclasses.fields(state) if f.type in (float, "float")]
        if param not in names:
            raise AnalysisError(f"{type(state).__name__} has no float field {param!r} "
                                f"to sweep (fields: {', '.join(names) or 'none'})")
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
            rho_v = build(dataclasses.replace(state, **{param: float(value)}))
        else:
            raise AnalysisError(f"unknown sweep axis {axis!r}")
        if rho_v is None:
            raise AnalysisError("sweep needs either rho= or state=")
        return spec_v, rho_v

    points = [point(v) for v in values]
    if axis == "p":
        # one curve: the state and the channel family are the same at every p
        curves = _Curves(rho, layout, opt, optimize, quench)
        results = [_reduce(row) for row in curves.rows(spec, [s.p for s, _ in points])]
    elif axis == "alpha":
        # one record: the state and the draws are the same at every alpha
        curves = _Curves(rho, layout, opt, optimize, quench)
        results = [_reduce(curves.rows(s, [s.p])[0]) for s, _ in points]
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

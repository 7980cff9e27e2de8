"""Critical noise strengths, parameter sweeps and quenched Monte Carlo means.

Critical strengths of a noisy dense-coding problem:

* ``p_c``: smallest p at which the capacity collapses to the classical bound,
* ``p_r``: smallest p >= p_c at which it revives above the bound,
* ``p_a``: smallest p at which the non-Markovian capacity strictly exceeds
  the Markovian one.

All three are located by a forward scan over a p-grid followed by bisection
on the first grid interval where the detection predicate flips.  The walk
asks the predicate for the flags of a list of points, in order, and keeps
every flag it gets.  When a point of the scanned family is one
fixed-encoding cell (one realization, identity or covariant encoding), a
curve call costs far more than a point, so the walk reads the forward grid
in windows of ``_WINDOW`` points, and a midpoint it has no flag for with
the dyadic tree of midpoints under it, ``_WINDOW`` at most.  Any other
family's grid is read in chunks of 1, 2, 4, ... points and its midpoints one
at a time.  A flag depends on its point only, so the result does not
depend on the window.

Every capacity this module takes with a channel is read through one record,
``_Curves``, the only code that decides whether a channel family is random,
which unitaries its realizations have and whether the encoding is
optimized.  The channel at (p, alpha) is the alpha = 0 channel at the
strength q = (1 + m'*alpha*(1 - p))*p (``channels._strength``), and the
unitaries depend on neither, so a family is a random kind, epsilon and draw
policy, or a deterministic kind, and its curve is keyed by q.  Scans walk
their p-grid and map each call's points to q; sweeps along p and along alpha
are one curve, and p_a reads its Markovian points, q = p, from the scanned
family.  ``_Curves`` keeps each point's row of per-realization capacities for
one public call, evaluated up to some realization, so p_c, p_r and p_a
evaluate each (q, realization) cell once.  The collapse and revival tests
settle a point from its first realizations where they decide it
(``_Curves.first_flip``): a capacity is clamped at the classical bound N, so
a row whose missing realizations read N can only rise as they are
evaluated; the points settle in order, up to the first flip.  p_a reads
full rows, a rectangle's worth of points at a time, in order, up to the
first flip; quenched means and sweeps read full rows; completing a row
evaluates only its missing realizations.  A curve is
evaluated in batches: a rectangle of q-points (their channel weights, taken
at once) by realizations goes to the capacity layer, which picks each
block's route (the kernel or the environment side) and runs the rectangle
together.  The block states and receiver entropies are traced out, and a
quenched channel's unitaries drawn, once per record, and what the capacity
layer derives from them is kept with them; the exact Paulis are real, so a
deterministic curve of a real state runs in real arithmetic.  With an
optimized encoding, every L-BFGS-B start of every row of a batch runs in
lockstep with its own stop rule, so no result depends on the batch.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .capacity import (COLLAPSE_THRESHOLD, PartyLayout, _capacities, _Marginals,
                       _marginals, _Realizations, evaluate)
from .channels import (_PAULIS, ChannelKind, ChannelSpec, _channel_weights,
                       _check_unitary, _seeded_unitaries, _strength, p_range)
from .optimizer import OptimizerConfig

# (p-point, realization) rows evaluated together, or optimizer problems run in
# lockstep; bounds the memory of the stacked block states (256 five-qubit
# states: 4 MB)
_CHUNK = 256
# realizations of a point that a collapse or revival test evaluates first;
# each further slice is twice the one before it (8, 16, 32, ...)
_FIRST_SLICE = 8
# grid points, or bisection midpoints, that a scan of a one-cell family
# reads in one predicate call; chosen by measurement (ROADMAP)
_WINDOW = 64


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


def _rectangle(n_r: int, opt: OptimizerConfig, optimize: bool) -> tuple[int, int]:
    """Points and realizations of one batch of a curve whose points read
    ``n_r`` realizations each: at most ``_CHUNK`` rows, or, with
    ``optimize``, at most ``_CHUNK`` optimizer problems (restarts + 1 per
    row, at least one row)."""
    step = max(1, _CHUNK // (opt.restarts + 1)) if optimize else _CHUNK
    return max(1, step // n_r), min(step, n_r)


def _capacity_curve(marginals: _Marginals, kind: ChannelKind, qs,
                    real: _Realizations, lo: int = 0, hi: int | None = None,
                    opt: OptimizerConfig = OptimizerConfig(),
                    optimize: bool = False) -> np.ndarray:
    """Capacities of the channels of ``kind`` with the unitaries of ``real``,
    one row per strength of ``qs`` and one column per realization in
    [lo, hi) of ``real`` (all of them by default), for the state and layout
    of ``marginals`` (``capacity._marginals``).

    The (q, realization) grid is evaluated in rectangles (``_rectangle``):
    whole q-rows, or one q's realizations in slices.  Each value is
    bit-identical to a one-row evaluation.
    """
    hi = len(real) if hi is None else hi
    weights = _channel_weights(kind, qs)
    values = np.empty((len(qs), hi - lo))
    p_step, r_step = _rectangle(hi - lo, opt, optimize)
    for a in range(0, len(qs), p_step):
        for b in range(lo, hi, r_step):
            c = min(b + r_step, hi)
            values[a:a + p_step, b - lo:c - lo] = _capacities(
                marginals, weights[a:a + p_step], real, b, c, opt, optimize)
    return values


def _means(rows: np.ndarray) -> np.ndarray:
    """Mean of each row of a ``(points, realizations)`` stack, each row summed
    in index order, as ``_reduce`` sums it."""
    return np.sum(rows, axis=1) / rows.shape[1]


@dataclass(eq=False)
class _Family:
    """A channel family, a random kind, epsilon and draw policy or a
    deterministic kind: its realizations, whether its encoding is optimized,
    and each point's row of per-realization capacities, keyed by strength q,
    with the number n of realizations evaluated in it, [0, n); the others
    hold the classical bound, the least value a capacity takes."""
    kind: ChannelKind
    real: _Realizations
    optimize: bool
    rows: dict = field(default_factory=dict)
    evaluated: dict = field(default_factory=dict)

    @property
    def one_cell(self) -> bool:
        """Whether a point is one fixed-encoding capacity, cheap next to the
        fixed cost of a curve call."""
        return len(self.real) == 1 and not self.optimize


@dataclass(eq=False)
class _Curves:
    """The capacity curves of one state and layout, and how each capacity
    is taken.  It holds the block states and receiver entropies they share
    and, per channel family, the unitaries of its realizations (a random
    kind, epsilon and draw policy's draws, or a kind's exact Paulis) with
    what the capacity layer derives from them, and each point's row of
    per-realization capacities, evaluated up to some realization."""
    rho: np.ndarray
    layout: PartyLayout
    opt: OptimizerConfig
    optimize: bool
    quench: QuenchConfig | None
    _families: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def marginals(self) -> _Marginals:
        return _marginals(self.rho, self.layout)

    @property
    def classical(self) -> float:
        return float(self.layout.n_senders)

    def _family(self, spec: ChannelSpec) -> _Family:
        """The family of ``spec``, whatever its p and alpha.  Realization k of
        a random family draws from a generator seeded with (master_seed, k),
        and its encoding is optimized as the quench says; a deterministic
        family is one realization of the exact Paulis, optimized as
        ``optimize`` says unless it is covariant."""
        key = (spec.kind, spec.epsilon, spec.draw_policy) if spec.is_random else spec.kind
        if key not in self._families:
            if spec.is_random:
                if self.quench is None:
                    raise AnalysisError("a random channel needs a QuenchConfig")
                u = _seeded_unitaries(spec, self.layout.n_senders,
                                      [(self.quench.master_seed, k)
                                       for k in range(self.quench.realizations)])
                _check_unitary(u)
                optimize = self.quench.optimize_per_realization
            else:
                u = _PAULIS[spec.kind][None, None]
                optimize = self.optimize and not spec.is_covariant
            self._families[key] = _Family(
                spec.kind, _Realizations.of(u, self.layout.n_senders, self.marginals),
                optimize)
        return self._families[key]

    def _extend(self, family: _Family, qs, stop) -> None:
        """Evaluate the realizations of each distinct q of ``qs`` from the
        first not evaluated, n, up to ``stop(n)``; points with the same n
        together."""
        groups: dict[int, list] = {}
        for q in qs:
            groups.setdefault(family.evaluated.get(q, 0), []).append(q)
        n_r = len(family.real)
        for n, group in groups.items():
            hi = stop(n)
            values = _capacity_curve(self.marginals, family.kind, group, family.real,
                                     n, hi, self.opt, family.optimize)
            if n > 0:
                for q, v in zip(group, values):
                    family.rows[q][n:hi] = v
            else:
                if hi < n_r:
                    filled = np.full((len(group), n_r), self.classical)
                    filled[:, :hi] = values
                    values = filled
                family.rows.update(zip(group, values))
            family.evaluated.update(dict.fromkeys(group, hi))

    def rows(self, spec: ChannelSpec, qs) -> list[np.ndarray]:
        """Per-realization capacities of the family of ``spec`` at each
        strength of ``qs``; the realizations not evaluated before are
        evaluated together."""
        family = self._family(spec)
        n_r = len(family.real)
        self._extend(family, [q for q in dict.fromkeys(qs)
                              if family.evaluated.get(q, 0) < n_r], lambda n: n_r)
        return [family.rows[q] for q in qs]

    def first_flip(self, spec: ChannelSpec, qs: list, threshold: float,
                   above: bool) -> list[bool]:
        """Whether the mean capacity of the family of ``spec`` lies more than
        ``threshold`` above the classical bound (``above``) or does not (not
        ``above``), at each strength of ``qs`` in order, up to the first
        where it does (the first flip); past it, only where that is settled
        already.

        A point is settled from the realizations evaluated so far.  The
        others hold the classical bound N, the least value a capacity takes,
        so the mean of a filled row sums an array of the same length in the
        same order as the full row, and float addition is monotone: a filled
        row above the threshold is above it when full.  A row is read in
        full otherwise.  The first slice of ``_FIRST_SLICE`` realizations of
        every new point is evaluated together; then each point in turn takes
        slices twice, four times, ... that size until it settles.
        """
        family = self._family(spec)
        rows, evaluated, n_r = family.rows, family.evaluated, len(family.real)

        def next_slice(n: int) -> int:
            return min(n_r, 2 * n + _FIRST_SLICE)

        def is_above(points) -> list[bool]:
            return (_means(np.array([rows[q] for q in points]))
                    - self.classical > threshold).tolist()

        # a point not evaluated at all reads exactly N, so it is not settled
        self._extend(family, [q for q in dict.fromkeys(qs) if q not in evaluated],
                     next_slice)
        reads, flags = dict(zip(qs, is_above(qs))), []
        for q in qs:
            while not (reads[q] or evaluated[q] == n_r):
                if any(flags):
                    return flags
                self._extend(family, [q], next_slice)
                reads[q] = is_above([q])[0]
            flags.append(reads[q] == above)
        return flags


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
    return mean_capacity(rho, layout, spec, opt, False, qc)


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
    q = _strength(spec.kind, spec.alpha, spec.p)
    return _reduce(_Curves(rho, layout, opt, optimize, quench).rows(spec, [q])[0])


@dataclass(eq=False)
class _Scan:
    """One scan problem: the channel it scans, whose p-grid points it maps
    to strengths q, the scan grid and the capacity curves it reads."""
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

    def strengths(self, ps) -> list[float]:
        """The strength q of the scanned channel at each p of ``ps``."""
        return _strength(self.spec.kind, self.spec.alpha, ps).tolist()

    @property
    def window(self) -> int:
        """Points per predicate call: ``_WINDOW`` for a one-cell family, else 1."""
        return _WINDOW if self.curves._family(self.spec).one_cell else 1

    def crossing(self, lo: float, above: bool) -> float | None:
        """Smallest p in [lo, hi] where the mean capacity lies more than the
        threshold above the classical bound (``above``) or does not."""
        def flips(ps) -> list[bool]:
            return self.curves.first_flip(self.spec, self.strengths(ps),
                                          self.threshold, above)

        return _first_crossing(flips, lo, p_range(self.spec)[1], self.scan_step,
                               self.refine, self.window)


def _midpoints(a: float, b: float, refine: float, depth: int) -> list[float]:
    """The midpoints a bisection of [a, b] down to width <= refine can take
    in its first ``depth`` steps, each before the midpoints under it."""
    if depth == 0 or not b - a > refine:
        return []
    mid = 0.5 * (a + b)
    return [mid, *_midpoints(a, mid, refine, depth - 1),
            *_midpoints(mid, b, refine, depth - 1)]


def _first_crossing(predicate, lo: float, hi: float, scan_step: float,
                    refine: float, window: int = 1) -> float | None:
    """Smallest p in [lo, hi] where predicate flips to True.

    ``predicate`` maps a list of p to their flags, in order; the list may
    stop after its first True.  Forward scan on the grid p_k = min(lo +
    k*scan_step, hi), k = 0, 1, ..., up to the first point that flips, then
    bisection inside the grid interval that ends there down to width <=
    refine.  Each grid point is computed as lo + k*scan_step when it is
    read, so that round decimals are hit exactly and no grid is built
    ahead.  Only the first point, lo itself, can return lo.

    The forward scan reads ``window`` points per call, or chunks of 1, 2,
    4, ... points when ``window`` is 1.  A bisection step whose midpoint has
    no flag yet reads the dyadic tree of midpoints under it, ``window`` at
    most, the midpoint first.  Every flag is kept, so no point is read
    twice.
    """
    flags: dict[float, bool] = {}

    def read(ps: list) -> list[bool]:
        got = predicate(ps)
        flags.update(zip(ps, got))
        return got

    # p_n is the first grid point at hi; rounding can put n one past it
    n, start, size, hit = int(np.ceil((hi - lo) / scan_step)), 0, window, None
    if n > 0 and lo + (n - 1) * scan_step >= hi:
        n -= 1
    while hit is None and start <= n:
        got = read([min(lo + k * scan_step, hi)
                    for k in range(start, min(start + size, n + 1))])
        if True in got:
            hit = start + got.index(True)
        start, size = start + size, 2 * size if window == 1 else window
    if hit is None:
        return None
    if hit == 0:
        return lo
    a, b = (min(lo + k * scan_step, hi) for k in (hit - 1, hit))
    # the deepest tree of at most `window` midpoints: 2**depth - 1 of them
    depth = (window + 1).bit_length() - 1
    while b - a > refine:
        mid = 0.5 * (a + b)
        if mid not in flags:
            read(_midpoints(a, b, refine, depth))
        a, b = (a, mid) if flags[mid] else (mid, b)
    return b


def _find_pc(scan: _Scan) -> float | None:
    lo = p_range(scan.spec)[0]
    p = scan.crossing(lo, above=False)
    return None if p == lo else p   # collapsed at lo: no advantage to lose


def _find_pr(scan: _Scan, p_c: float | None) -> float | None:
    if p_c is None:
        return None
    # start one refine-width past the collapse point
    return scan.crossing(min(p_c + scan.refine, p_range(scan.spec)[1]), above=True)


def _find_pa(scan: _Scan) -> float | None:
    # the Markovian channel at p is the scanned family's point q = p, and the
    # Markovian p-range holds the non-Markovian one
    lo, hi = p_range(scan.spec)
    family = scan.curves._family(scan.spec)
    batch, _ = _rectangle(len(family.real), scan.curves.opt, family.optimize)

    def both(ps) -> list[float]:
        return scan.strengths(ps) + list(ps)

    def advantaged(ps) -> list[bool]:
        # in order, one rectangle's points at a time, up to the first flip
        flags = []
        for i in range(0, len(ps), batch):
            rows = scan.curves.rows(scan.spec, both(ps[i:i + batch]))
            means = _means(np.array(rows)).reshape(2, -1)
            flags += (means[0] - means[1] > scan.threshold).tolist()
            if True in flags:
                break
        return flags

    return _first_crossing(advantaged, lo, hi, scan.scan_step, scan.refine,
                           scan.window)


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
    (the same family at alpha = 0, the point q = p of its curve)."""
    return _find_pa(_Scan(spec_nm, _Curves(rho, layout, opt, optimize, quench),
                          scan_step, refine, threshold))


def critical_strengths(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec,
                       opt: OptimizerConfig = OptimizerConfig(),
                       scan_step: float = 1e-3, refine: float = 1e-4,
                       threshold: float = COLLAPSE_THRESHOLD,
                       optimize: bool = True,
                       quench: QuenchConfig | None = None) -> CriticalStrengths:
    """All three critical strengths of one problem, on one shared curve
    (which holds the Markovian points of p_a too)."""
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
    if axis in ("p", "alpha"):
        # one curve: the state and the channel family are the same at every point
        qs = _strength(spec.kind, [s.alpha for s, _ in points], [s.p for s, _ in points])
        curves = _Curves(rho, layout, opt, optimize, quench)
        results = [_reduce(row) for row in curves.rows(spec, qs.tolist())]
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

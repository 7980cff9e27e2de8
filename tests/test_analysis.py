import bisect
import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qdc.capacity
from qdc import analysis
from qdc.analysis import (AnalysisError, QuenchConfig, critical_strengths,
                          find_pa, find_pc, find_pr, mean_capacity, p_range,
                          quenched_capacity, sweep)
from qdc.capacity import (PartyLayout, _capacities, _marginals, _Realizations,
                          capacity_one_receiver, evaluate)
from qdc.channels import (ChannelError, ChannelKind, ChannelSpec, DrawPolicy,
                          _channel_weights, _seeded_unitaries, _strength,
                          sample_per_qubit_kraus)
from qdc.optimizer import OptimizerConfig
from qdc.oracles import bell_depolarizing_threshold, pa_closed_form, pc_closed_form
from qdc.states import GGHZ, Bell, WUniform, build

OPT = OptimizerConfig()


def test_p_range():
    assert p_range(ChannelSpec(ChannelKind.DEPHASING, 0.7, 0.0)) == (0.0, 0.5)
    lo, hi = p_range(ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.0))
    assert (lo, hi) == (0.0, pytest.approx(2 / 3))
    assert p_range(ChannelSpec(ChannelKind.DEPOLARIZING, 0.0, 0.0)) == (0.0, 1.0)


def test_find_pc_bell_depolarizing():
    rho = build(Bell())
    lay = PartyLayout(1, 1)
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.0, 0.0)
    pc = find_pc(rho, lay, spec, OPT, scan_step=5e-3)
    assert pc == pytest.approx(bell_depolarizing_threshold(0.0), abs=1e-3)
    assert abs(pc - 0.189) < 1e-3


def test_find_pc_ghz_dephasing_matches_closed_form():
    # for the balanced gGHZ with identity encoding the collapse point is the
    # closed-form root, independent of the sender count (up to the detection
    # window set by the 1e-9 threshold)
    lay = PartyLayout(2, 1)
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    for alpha in (0.3, 0.9):
        spec = ChannelSpec(ChannelKind.DEPHASING, alpha, 0.0)
        pc = find_pc(rho, lay, spec, OPT, optimize=False)
        assert pc == pytest.approx(pc_closed_form(alpha), abs=5e-3)


def test_find_pc_none_when_never_codeable():
    rho = build(GGHZ(3, 1.0))   # product state
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0)
    assert find_pc(rho, PartyLayout(2, 1), spec, OPT, optimize=False) is None


def test_find_pc_none_for_gghz_two_receivers_dephasing():
    rho = build(GGHZ(4, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 2, split=1)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0)
    assert find_pc(rho, lay, spec, OPT, scan_step=0.01, optimize=False) is None


def test_find_pc_tangential_collapse():
    # GHZ with two receivers under Markovian depolarizing noise: the bound
    # touches the classical value at p = 3/4 without crossing it
    rho = build(GGHZ(4, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 2, split=1)
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.0, 0.0)
    pc = find_pc(rho, lay, spec, OPT, scan_step=5e-3, optimize=False)
    assert pc == pytest.approx(0.75, abs=1e-3)


def test_find_pr_revival_and_markovian_absence():
    lay = PartyLayout(2, 1)
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    nm = ChannelSpec(ChannelKind.DEPHASING, 0.9, 0.0)
    pc = find_pc(rho, lay, nm, OPT, optimize=False)
    pr = find_pr(rho, lay, nm, OPT, optimize=False)
    assert pc is not None and pr is not None
    assert pc <= pr <= pc + 0.02
    m = ChannelSpec(ChannelKind.DEPHASING, 0.0, 0.0)
    assert find_pr(rho, lay, m, OPT, optimize=False) is None


def test_find_pa_matches_closed_form():
    lay = PartyLayout(2, 1)
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    for alpha in (0.5, 0.9):
        nm = ChannelSpec(ChannelKind.DEPHASING, alpha, 0.0)
        pa = find_pa(rho, lay, nm, optimize=False)
        assert pa == pytest.approx(pa_closed_form(alpha), abs=1e-3)


def test_critical_strengths_bracket_and_ordering():
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0)
    cs = critical_strengths(rho, PartyLayout(2, 1), spec, optimize=False)
    assert cs.p_c is not None and cs.p_r is not None and cs.p_a is not None
    assert cs.p_c <= cs.p_r
    assert cs.bracket_resolution == 1e-4
    # bracket verification: capacity straddles the threshold at the endpoints
    lay = PartyLayout(2, 1)
    before = capacity_one_receiver(
        rho, lay, dataclasses.replace(spec, p=cs.p_c - 2e-4), optimize=False)
    at = capacity_one_receiver(
        rho, lay, dataclasses.replace(spec, p=cs.p_c), optimize=False)
    assert before.capacity_bits - 2.0 > 1e-9
    assert at.capacity_bits - 2.0 <= 1e-9


def test_quenched_requires_random_channel():
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.3, 0.2)
    with pytest.raises(AnalysisError):
        quenched_capacity(rho, PartyLayout(2, 1), spec, QuenchConfig(10))


def test_quenched_small_epsilon_limit():
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.3, 0.2, epsilon=1e-12)
    res = quenched_capacity(rho, lay, spec, QuenchConfig(realizations=50))
    det = capacity_one_receiver(rho, lay,
                                ChannelSpec(ChannelKind.DEPHASING, 0.3, 0.2),
                                optimize=False)
    assert res.mean_capacity_bits == pytest.approx(det.capacity_bits, abs=1e-8)
    assert res.std_error_bits < 1e-8
    assert res.realizations_used == 50


def test_quenched_thread_count_invariance():
    rho = build(WUniform(3))
    lay = PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.08, epsilon=0.7)
    a = quenched_capacity(rho, lay, spec, QuenchConfig(200, master_seed=11))
    b = quenched_capacity(rho, lay, spec,
                          QuenchConfig(200, master_seed=11, threads=4))
    assert a.mean_capacity_bits == b.mean_capacity_bits
    assert a.std_error_bits == b.std_error_bits


@pytest.mark.parametrize("state, lay, spec", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1),
     ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.08, epsilon=0.7)),
    (GGHZ(4, 1 / np.sqrt(2)), PartyLayout(2, 2, split=1),
     ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.1, epsilon=0.5,
                 draw_policy=DrawPolicy.SHARED_ACROSS_QUBITS)),
])
def test_batched_quench_matches_one_realization_at_a_time(state, lay, spec):
    rho = build(state)
    n = analysis._CHUNK + 5          # crosses a chunk boundary
    sets = [sample_per_qubit_kraus(
        spec, lay.n_senders, np.random.default_rng(np.random.SeedSequence((13, k))))
        for k in range(n)]
    values = np.array([evaluate(rho, lay, spec, optimize=False, kraus_override=ks
                                ).capacity_bits for ks in sets])
    # drawn and evaluated as a batch, the way a curve does it
    real = _Realizations.of(_seeded_unitaries(
        spec, lay.n_senders, [(13, k) for k in range(n)]), lay.n_senders)
    qs = _strength(spec.kind, spec.alpha, [spec.p])
    weights = _channel_weights(spec.kind, qs)
    assert np.array_equal(_capacities(_marginals(rho, lay), weights, real)[0], values)
    assert np.array_equal(analysis._capacity_curve(_marginals(rho, lay), spec.kind,
                                                   qs, real)[0], values)
    res = quenched_capacity(rho, lay, spec, QuenchConfig(n, master_seed=13))
    assert res.realizations_used == n
    assert abs(res.mean_capacity_bits - np.sum(values) / n) < 1e-12
    assert abs(res.std_error_bits - np.std(values, ddof=1) / np.sqrt(n)) < 1e-12


def test_quenched_result_independent_of_chunking(monkeypatch):
    rho = build(WUniform(4))
    lay = PartyLayout(3, 1)
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.1, epsilon=1.0)
    qc = QuenchConfig(40, master_seed=2)

    def results():
        # one point, and an alpha-sweep: one curve of four points
        return (quenched_capacity(rho, lay, spec, qc),
                sweep("alpha", (0.0, 0.9, 4), rho=rho, layout=lay, spec=spec, quench=qc))

    whole = results()
    monkeypatch.setattr(analysis, "_CHUNK", 7)
    chunked = results()
    assert chunked == whole


@pytest.mark.parametrize("state, lay", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1)),
    (WUniform(4), PartyLayout(3, 1)),
])
def test_environment_side_quench_independent_of_chunking(monkeypatch, state, lay):
    # identity-encoding dephasing quenches take the environment side: its
    # unit-weight Gram matrices are built once, in slices, and read per chunk
    rho = build(state)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.03, epsilon=0.8)
    qc = QuenchConfig(40, master_seed=2)
    whole = quenched_capacity(rho, lay, spec, qc)
    monkeypatch.setattr(analysis, "_CHUNK", 7)
    monkeypatch.setattr(qdc.capacity, "_GRAM_SLICE", 3)
    assert quenched_capacity(rho, lay, spec, qc) == whole
    ks = [sample_per_qubit_kraus(spec, lay.n_senders, np.random.default_rng(
        np.random.SeedSequence((2, k)))) for k in range(40)]
    values = [evaluate(rho, lay, spec, optimize=False, kraus_override=k).capacity_bits
              for k in ks]
    assert whole.mean_capacity_bits == float(np.sum(values) / len(values))


def test_optimized_quench_matches_one_realization_at_a_time(monkeypatch):
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.8, 0.3, epsilon=0.5)
    opt = OptimizerConfig(max_evaluations=120, restarts=1)
    values = np.array([evaluate(
        rho, lay, spec, opt=opt, kraus_override=sample_per_qubit_kraus(
            spec, lay.n_senders, np.random.default_rng(np.random.SeedSequence((4, k))))
    ).capacity_bits for k in range(3)])
    monkeypatch.setattr(analysis, "_CHUNK", 2)   # crosses a chunk boundary
    res = quenched_capacity(rho, lay, spec, QuenchConfig(
        3, master_seed=4, optimize_per_realization=True), opt)
    assert res.mean_capacity_bits == float(np.sum(values) / values.size)
    assert res.std_error_bits == float(np.std(values, ddof=1) / np.sqrt(values.size))


@pytest.mark.parametrize("state, lay", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1)),   # the environment side
    (GGHZ(4, 0.6), PartyLayout(2, 2, split=1)),     # two one-sender blocks
    (WUniform(4), PartyLayout(3, 1)),               # the environment side
])
def test_optimized_quench_independent_of_group_size(monkeypatch, state, lay):
    # every start of every realization of a slice runs in lockstep, each with
    # its own stop rule: the slice a realization runs in changes nothing
    rho = build(state)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.8, 0.3, epsilon=0.5)
    opt = OptimizerConfig(max_evaluations=60, restarts=1)   # some stop on maxfun
    qc = QuenchConfig(7, master_seed=3, optimize_per_realization=True)
    results = []
    for chunk in (1, 5, 7, 256):            # 1, 2, 3 and all 7 realizations
        monkeypatch.setattr(analysis, "_CHUNK", chunk)
        results.append(quenched_capacity(rho, lay, spec, qc, opt))
    assert all(r == results[0] for r in results)


@pytest.mark.parametrize("state, lay, kind, keeps", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1), ChannelKind.DEPOLARIZING, False),
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1), ChannelKind.DEPHASING, True),
    (GGHZ(4, 1 / np.sqrt(2)), PartyLayout(2, 2, split=1), ChannelKind.DEPHASING, False),
])
def test_realizations_keep_unitaries_only_for_the_environment_side(state, lay, kind,
                                                                   keeps):
    # a family whose blocks all stay on the kernel keeps its senders' bases
    # and not the unitaries they were made from; its values do not change
    curves = analysis._Curves(build(state), lay, OPT, False,
                              QuenchConfig(20, master_seed=4))
    spec = ChannelSpec(kind, 0.5, 0.1, epsilon=0.5)
    real = curves._family(spec).real
    assert (real.unitaries is not None) == keeps
    kept = _Realizations.of(_seeded_unitaries(
        spec, lay.n_senders, [(4, k) for k in range(20)]), lay.n_senders)
    weights = _channel_weights(kind, _strength(kind, 0.5, [0.1, 0.2]))
    assert np.array_equal(_capacities(curves.marginals, weights, real),
                          _capacities(curves.marginals, weights, kept))


def _count_curve_cells(monkeypatch) -> list[tuple]:
    """Record each (channel family, strength q, realization) cell the scans
    evaluate at the curve layer; a family is its kind and realizations."""
    cells = []
    capacity_curve = analysis._capacity_curve

    def counted(marginals, kind, qs, real, lo=0, hi=None, *args):
        hi = len(real) if hi is None else hi
        cells.extend(((kind, id(real)), q, k) for q in qs for k in range(lo, hi))
        return capacity_curve(marginals, kind, qs, real, lo, hi, *args)

    monkeypatch.setattr(analysis, "_capacity_curve", counted)
    return cells


def _mark_find_pa(monkeypatch, cells) -> list[int]:
    """Record how many cells had been evaluated when p_a's scan starts."""
    marks = []
    find_pa = analysis._find_pa
    monkeypatch.setattr(analysis, "_find_pa",
                        lambda scan: marks.append(len(cells)) or find_pa(scan))
    return marks


def _cells_per_point(cells) -> dict:
    read = {}
    for family, q, _ in cells:
        read[family, q] = read.get((family, q), 0) + 1
    return read


def test_find_pc_evaluates_lower_end_once(monkeypatch):
    cells = _count_curve_cells(monkeypatch)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0)
    pc = find_pc(build(GGHZ(3, 1 / np.sqrt(2))), PartyLayout(2, 1), spec,
                 scan_step=1e-2, refine=1e-3, optimize=False)
    assert pc is not None and [q for _, q, _ in cells].count(0.0) == 1


@pytest.mark.parametrize("spec, quench, optimize", [
    (ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0), None, False),
    (ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.0, epsilon=0.5),
     QuenchConfig(20, master_seed=1), False),
    # optimized per point: read one point at a time, through the same memo
    (ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0), None, True),
    # p_a completes rows that the collapse and revival tests left partial
    (ChannelSpec(ChannelKind.DEPHASING, 0.6, 0.0, epsilon=0.6),
     QuenchConfig(30, master_seed=3), False),
    # deterministic depolarizing: no revival, so p_r's scan reads its whole grid
    (ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.0), None, False),
])
def test_critical_strengths_reads_each_curve_point_once(monkeypatch, spec, quench,
                                                        optimize):
    # each (p, realization) cell is evaluated at most once, also when a
    # point's realizations come in slices, when p_a completes its row and
    # when the walk reads a one-cell family in grid windows and bisection
    # trees, or in windows and subtrees of three
    cells = _count_curve_cells(monkeypatch)
    before_pa = _mark_find_pa(monkeypatch, cells)
    windows = [analysis._WINDOW] + ([3] if quench is None and not optimize else [])
    for window in windows:
        monkeypatch.setattr(analysis, "_WINDOW", window)
        cells.clear()
        before_pa.clear()
        cs = critical_strengths(build(GGHZ(3, 1 / np.sqrt(2))), PartyLayout(2, 1),
                                spec, OptimizerConfig(max_evaluations=60, restarts=1),
                                scan_step=5e-2, refine=1e-3,
                                optimize=optimize, quench=quench)
        assert (cs.p_c, cs.p_a) != (None, None)
        assert len(set(cells)) == len(cells)
        # p_a's scan reads the Markovian points (q = p, here its first grid
        # point past 0) from the one curve the scans share
        assert len({family for family, _, _ in cells}) == 1
        assert 5e-2 in {q for _, q, _ in cells[before_pa[0]:]}
    if quench is not None:
        partial = {key for key, count in _cells_per_point(cells[:before_pa[0]]).items()
                   if count < quench.realizations}
        assert partial       # settled from a partial row
        if spec.alpha == 0.6:
            assert partial & set(_cells_per_point(cells[before_pa[0]:]))


def test_find_pa_completes_no_row_past_its_flip(monkeypatch):
    # optimized per realization: with rectangles of 12 problems (one point's
    # six realizations, two starts each) p_a reads its chunk one point at a
    # time and stops at the flip, while one rectangle holding the chunk reads
    # it whole; p_a is the same
    rho, lay = build(GGHZ(3, 1 / np.sqrt(2))), PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.8, 0.0, epsilon=0.5)
    cells = _count_curve_cells(monkeypatch)
    before_pa = _mark_find_pa(monkeypatch, cells)
    # p_a's Markovian points are its grid points, q = p
    grid = {min(k * 5e-2, 0.5) for k in range(12)}
    read = []
    for chunk in (analysis._CHUNK, 12):
        monkeypatch.setattr(analysis, "_CHUNK", chunk)
        cells.clear()
        before_pa.clear()
        cs = critical_strengths(rho, lay, spec,
                                OptimizerConfig(max_evaluations=300, restarts=1),
                                scan_step=5e-2, refine=1e-2,
                                quench=QuenchConfig(6, master_seed=2,
                                                    optimize_per_realization=True))
        assert cs.p_a == 0.40625          # flips on the grid interval (0.4, 0.45]
        read.append((max(q for _, q, _ in cells[before_pa[0]:] if q in grid),
                     len(cells)))
        assert len(set(cells)) == len(cells)
    (whole_last, whole_cells), (last, n_cells) = read
    assert whole_last == 0.5 and last == 0.45
    assert n_cells < whole_cells


def test_quenched_scan_settles_points_from_partial_rows(monkeypatch):
    # the quenched p_c scan of a benchmark cell: the same p_c as when every
    # point reads its full row, from fewer than the full rows' 900 cells
    rho, lay = build(GGHZ(3, 1 / np.sqrt(2))), PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.0, epsilon=0.5)
    cells = _count_curve_cells(monkeypatch)
    counts = []
    for first_slice in (analysis._FIRST_SLICE, 50):      # 50: the full rows
        monkeypatch.setattr(analysis, "_FIRST_SLICE", first_slice)
        start = len(cells)
        counts.append((find_pc(rho, lay, spec, scan_step=5e-3, refine=1e-3,
                               optimize=False, quench=QuenchConfig(50, master_seed=0)),
                       len(cells) - start))
    (settled, n_settled), (full, n_full) = counts
    assert settled == full == 0.05437500000000001
    assert n_full == 900 and n_settled < 900


def _surplus_above(rows, classical, threshold):
    return analysis._means(rows) - classical > threshold


@settings(max_examples=400, deadline=None)
@given(n_r=st.integers(1, 4000), classical=st.integers(1, 4),
       threshold=st.sampled_from([0.0, 1e-9]), at_bound=st.floats(0.0, 1.0),
       scale=st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e3]),
       ulps=st.integers(-4, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_filled_prefix_settles_above_only_when_the_full_row_does(
        n_r, classical, threshold, at_bound, scale, ulps, seed, data):
    # a row's realizations not yet evaluated read N, the least value a
    # clamped capacity takes; the filled row must never read above the
    # threshold when the full row reads at or below it
    rng = np.random.default_rng(seed)
    n = float(classical)
    row = np.full(n_r, n)
    off = rng.random(n_r) >= at_bound                  # many values exactly N
    share = rng.random(int(off.sum()))
    if off.any():
        # surpluses summing to about scale * threshold * R, a few ulps apart
        row[off] = n + scale * threshold * n_r * share / share.sum()
        if threshold == 0.0:
            row[off] = n + rng.integers(0, 5, int(off.sum())) * np.spacing(n)
    for _ in range(abs(ulps)):
        i = rng.integers(n_r)
        row[i] = max(n, np.nextafter(row[i], np.inf if ulps > 0 else -np.inf))
    prefix = data.draw(st.integers(0, n_r))
    filled = row.copy()
    filled[prefix:] = n
    above = _surplus_above(np.array([filled, row]), n, threshold)
    assert not (above[0] and not above[1])
    assert above[0] == _surplus_above(filled[None], n, threshold)[0]


@pytest.mark.parametrize("name", ["scan_step", "refine"])
@pytest.mark.parametrize("value", [0.0, -0.01, np.nan, np.inf])
def test_scans_reject_invalid_grid(name, value):
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0)
    scan = {"scan_step": 1e-2, "refine": 1e-3, "optimize": False, name: value}
    for find in (find_pc, find_pr, find_pa, critical_strengths):
        with pytest.raises(AnalysisError, match=name):
            find(rho, lay, spec, **scan)


@pytest.mark.parametrize("value", [-1e-9, np.nan, np.inf])
def test_scans_reject_invalid_threshold(value):
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0)
    scan = {"scan_step": 1e-2, "refine": 1e-3, "optimize": False}
    for find in (find_pc, find_pr, find_pa, critical_strengths):
        with pytest.raises(AnalysisError, match="threshold"):
            find(rho, lay, spec, threshold=value, **scan)
    find_pc(rho, lay, spec, threshold=0.0, **scan)     # zero is accepted


# --- per-point reference: the scalar forward scan and bisection -----------

def _scalar_crossing(predicate, lo, hi, scan_step, refine):
    if predicate(lo):
        return lo
    n_steps = int(np.ceil((hi - lo) / scan_step))
    prev, hit = lo, None
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


def _flags(breaks):
    """A flag function that is True on [b0, b1), [b2, b3), ... of ``breaks``."""
    return lambda p: bisect.bisect_right(breaks, p) % 2 == 1


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(0.0, 0.5), span=st.floats(0.0, 0.5), step=st.floats(1e-3, 0.2),
       share=st.floats(1e-4, 1.0), window=st.sampled_from([1, 3, 64]),
       case=st.sampled_from(["random", "one interval", "at lo", "none", "at hi"]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_first_crossing_matches_a_point_by_point_walk(lo, span, step, share, window,
                                                      case, seed, data):
    # random flag functions on random grids, read in windows of 1, 3 and 64
    # points by a predicate that may stop after its first True: the same
    # crossing as a forward scan plus bisection that reads one point at a
    # time, and no point is asked for once its flag is known
    hi, refine = lo + span, step * share
    grid = [min(lo + k * step, hi) for k in range(int(np.ceil(span / step)) + 1)]
    point = st.floats(lo, hi)
    if case == "random":
        breaks = data.draw(st.lists(point, max_size=6))
    elif case == "one interval":
        # several crossings inside one grid interval, its end flipped
        assume(len(grid) > 1)
        k = data.draw(st.integers(1, len(grid) - 1))
        shares = data.draw(st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3))
        breaks = [grid[k - 1] + f * (grid[k] - grid[k - 1]) for f in shares]
    else:
        breaks = {"at lo": [lo], "none": [], "at hi": [hi]}[case]
    flag = _flags(sorted(breaks))
    rng, known = np.random.default_rng(seed), set()

    def predicate(ps):
        assert ps and not known & set(ps)
        assert window == 1 or len(ps) <= window
        flags = [flag(p) for p in ps]
        if True in flags and rng.random() < 0.5:
            flags = flags[:flags.index(True) + 1]
        known.update(ps[:len(flags)])
        return flags

    got = analysis._first_crossing(predicate, lo, hi, step, refine, window)
    assert got == _scalar_crossing(flag, lo, hi, step, refine)
    if case == "at lo":
        assert got == lo
    if case == "none" or (case == "at hi" and hi > lo):
        assert got == (None if case == "none" else hi)


@pytest.mark.parametrize("window", [(), (analysis._WINDOW,)])
def test_scan_grid_is_not_built_ahead_of_the_walk(window):
    # a flip at lo on a grid of 5e6 points, read in the default window of
    # one point and in one-cell windows: as a list the grid alone would take
    # about 200 MB before the first predicate call
    tracemalloc.start()
    try:
        got = analysis._first_crossing(lambda ps: [True] * len(ps), 0.0, 0.5, 1e-7,
                                       1e-8, *window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 0.0 and peak < 2**20


def test_quenched_collapse_test_reads_no_point_past_its_flip(monkeypatch):
    # the points of a collapse test settle in order and the test stops at
    # its first flip: a point after it keeps its first slice, although a
    # collapsed point settles only with its full row
    rho, lay = build(GGHZ(3, 1 / np.sqrt(2))), PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.0, epsilon=0.5)
    first_flip, past = analysis._Curves.first_flip, []

    def recorded(self, spec, qs, threshold, above):
        flags = first_flip(self, spec, qs, threshold, above)
        if True in flags:
            evaluated = self._family(spec).evaluated
            past.extend(evaluated[q] for q in qs[flags.index(True) + 1:])
        return flags

    monkeypatch.setattr(analysis._Curves, "first_flip", recorded)
    pc = find_pc(rho, lay, spec, scan_step=5e-3, refine=1e-3, optimize=False,
                 quench=QuenchConfig(50, master_seed=0))
    assert pc == 0.05437500000000001
    assert past and max(past) <= analysis._FIRST_SLICE


def _chunked_quench_mean(rho, lay, spec, qc):
    """Identity-encoding quenched mean, drawn and evaluated in chunks of
    ``_CHUNK`` realizations, one p at a time."""
    seeds = [(qc.master_seed, k) for k in range(qc.realizations)]
    values = np.concatenate([
        _capacities(_marginals(rho, lay),
                    _channel_weights(spec.kind, _strength(spec.kind, spec.alpha, [spec.p])),
                    _Realizations.of(_seeded_unitaries(
                        spec, lay.n_senders, seeds[i:i + analysis._CHUNK]), lay.n_senders))[0]
        for i in range(0, len(seeds), analysis._CHUNK)])
    return float(np.sum(values) / values.size)


def _reference_strengths(rho, lay, spec, quench, opt, scan_step, refine):
    @functools.cache
    def cap(s, p):
        s = dataclasses.replace(s, p=p)
        if quench is None:
            return mean_capacity(rho, lay, s, opt, False).mean_capacity_bits
        if quench.optimize_per_realization:
            return quenched_capacity(rho, lay, s, quench, opt).mean_capacity_bits
        return _chunked_quench_mean(rho, lay, s, quench)

    thr, classical = analysis.COLLAPSE_THRESHOLD, float(lay.n_senders)
    lo, hi = p_range(spec)
    pc = _scalar_crossing(lambda p: cap(spec, p) - classical <= thr,
                          lo, hi, scan_step, refine)
    pc = None if pc == lo else pc
    pr = None if pc is None else _scalar_crossing(
        lambda p: cap(spec, p) - classical > thr,
        min(pc + refine, hi), hi, scan_step, refine)
    m = dataclasses.replace(spec, alpha=0.0)
    pa = _scalar_crossing(lambda p: cap(spec, p) - cap(m, p) > thr,
                          lo, min(hi, p_range(m)[1]), scan_step, refine)
    return pc, pr, pa


X = 1 / np.sqrt(2)


@pytest.mark.parametrize("state, lay, spec, quench", [
    (GGHZ(3, X), PartyLayout(2, 1), ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0), None),
    (GGHZ(5, X), PartyLayout(4, 1), ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0), None),
    (GGHZ(4, X), PartyLayout(2, 2, split=1),
     ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.0), None),
    (WUniform(4), PartyLayout(3, 1), ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.0),
     None),
    (GGHZ(3, X), PartyLayout(2, 1),
     ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.0, epsilon=0.5), QuenchConfig(11)),
    (WUniform(3), PartyLayout(2, 1),
     ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.0, epsilon=1.0,
                 draw_policy=DrawPolicy.SHARED_ACROSS_QUBITS), QuenchConfig(11)),
    (GGHZ(3, X), PartyLayout(2, 1),
     ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.0, epsilon=0.5), QuenchConfig(40)),
    (GGHZ(3, X), PartyLayout(2, 1),
     ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.0, epsilon=0.5),
     QuenchConfig(10, master_seed=1, optimize_per_realization=True)),
])
def test_batched_scans_match_per_point_reference(monkeypatch, state, lay, spec,
                                                 quench):
    # 11 or 40 realizations in rectangles of 7 rows: each p's realizations in
    # several, and deterministic p-points seven at a time; a quenched collapse
    # or revival test settles some points from their first realizations.  A
    # deterministic family (the four benchmark scans; the W one collapses at
    # p = 0.017125 on the 1e-3 grid) is read in grid windows and bisection
    # trees, here also in windows of three points and subtrees of three
    monkeypatch.setattr(analysis, "_CHUNK", 7)
    cells = _count_curve_cells(monkeypatch)
    before_pa = _mark_find_pa(monkeypatch, cells)
    rho = build(state)
    opt = OptimizerConfig(max_evaluations=60, restarts=1)
    scans, windows = [dict(scan_step=1e-2, refine=1e-3)], [analysis._WINDOW]
    if quench is None:
        scans += [dict(scan_step=1e-3, refine=1e-4), dict(scan_step=5e-2, refine=1e-2)]
        windows.append(3)
    elif quench.optimize_per_realization:
        scans = [dict(scan_step=5e-2, refine=1e-2)]
    for scan in scans:
        ref = _reference_strengths(rho, lay, spec, quench, opt, **scan)
        assert ref != (None, None, None)
        for window in windows:
            monkeypatch.setattr(analysis, "_WINDOW", window)
            cells.clear()
            before_pa.clear()
            cs = critical_strengths(rho, lay, spec, opt, optimize=False,
                                    quench=quench, **scan)
            assert (cs.p_c, cs.p_r, cs.p_a) == ref, (scan, window)
    read = _cells_per_point(cells[:before_pa[0]])
    if quench is not None:
        assert min(read.values()) < quench.realizations
    if quench is not None and not quench.optimize_per_realization:
        p = 0.03
        q = quenched_capacity(rho, lay, dataclasses.replace(spec, p=p), quench)
        assert q.mean_capacity_bits == _chunked_quench_mean(
            rho, lay, dataclasses.replace(spec, p=p), quench)


def test_quenched_stderr_scaling():
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.03, epsilon=0.7)
    small = quenched_capacity(rho, lay, spec, QuenchConfig(400, master_seed=5))
    big = quenched_capacity(rho, lay, spec, QuenchConfig(800, master_seed=5))
    ratio = small.std_error_bits / big.std_error_bits
    assert ratio == pytest.approx(np.sqrt(2), rel=0.2)


def test_sweep_p_axis():
    rows = sweep("p", (0.0, 0.5, 6), state=GGHZ(3, 1 / np.sqrt(2)),
                 layout=PartyLayout(2, 1),
                 spec=ChannelSpec(ChannelKind.DEPHASING, 0.9, 0.0),
                 optimize=False)
    assert len(rows) == 6
    assert [r["value"] for r in rows] == pytest.approx(np.linspace(0, 0.5, 6))
    assert rows[0]["capacity_bits"] == pytest.approx(3.0, abs=1e-9)
    assert rows[0]["dense_codeable"]


@pytest.mark.parametrize("spec, optimize, quench", [
    (ChannelSpec(ChannelKind.DEPHASING, 0.9, 0.0), False, None),
    (ChannelSpec(ChannelKind.DEPHASING, 0.9, 0.0), True, None),
    (ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.0, epsilon=0.7), False,
     QuenchConfig(9, master_seed=2)),
    (ChannelSpec(ChannelKind.DEPHASING, 0.8, 0.0, epsilon=0.5), False,
     QuenchConfig(3, master_seed=2, optimize_per_realization=True)),
])
def test_sweep_p_matches_mean_capacity_per_point(spec, optimize, quench):
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 1)
    opt = OptimizerConfig(max_evaluations=120, restarts=1)
    rows = sweep("p", (0.05, 0.3, 4), rho=rho, layout=lay, spec=spec, opt=opt,
                 optimize=optimize, quench=quench)
    for row in rows:
        q = mean_capacity(rho, lay, dataclasses.replace(spec, p=row["p"]), opt,
                          optimize, quench)
        assert (row["capacity_bits"], row["std_error"]) == \
            (q.mean_capacity_bits, q.std_error_bits)


@pytest.mark.parametrize("spec, optimize, quench", [
    (ChannelSpec(ChannelKind.DEPHASING, 0.0, 0.2), False, None),
    (ChannelSpec(ChannelKind.DEPOLARIZING, 0.0, 0.1, epsilon=0.7), False,
     QuenchConfig(9, master_seed=2)),
    (ChannelSpec(ChannelKind.DEPHASING, 0.0, 0.3, epsilon=0.5), False,
     QuenchConfig(3, master_seed=2, optimize_per_realization=True)),
])
def test_sweep_alpha_shares_one_record(monkeypatch, spec, optimize, quench):
    # the draws depend on neither p nor alpha: one record draws them once,
    # and every row is the one a separate mean_capacity call gives
    rho, lay = build(GGHZ(3, 1 / np.sqrt(2))), PartyLayout(2, 1)
    opt = OptimizerConfig(max_evaluations=120, restarts=1)
    draws, curve_calls = [], []
    draw, capacity_curve = analysis._seeded_unitaries, analysis._capacity_curve
    monkeypatch.setattr(analysis, "_seeded_unitaries",
                        lambda *a: draws.append(a) or draw(*a))
    monkeypatch.setattr(analysis, "_capacity_curve",
                        lambda *a: curve_calls.append(a) or capacity_curve(*a))
    rows = sweep("alpha", (0.0, 0.9, 4), rho=rho, layout=lay, spec=spec, opt=opt,
                 optimize=optimize, quench=quench)
    assert len(draws) == (1 if spec.is_random else 0)
    # one curve: the four points' strengths fit one call
    assert len(curve_calls) == 1
    for row in rows:
        q = mean_capacity(rho, lay, dataclasses.replace(spec, alpha=row["alpha"]), opt,
                          optimize, quench)
        assert (np.float64(row["capacity_bits"]).tobytes(),
                np.float64(row["std_error"]).tobytes()) == \
            (np.float64(q.mean_capacity_bits).tobytes(),
             np.float64(q.std_error_bits).tobytes())


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(ChannelKind)), alpha=st.floats(0.0, 1.0),
       share=st.floats(0.0, 1.0), two_receivers=st.booleans(), optimize=st.booleans(),
       epsilon=st.sampled_from([0.0, 0.5, 1.0]), policy=st.sampled_from(list(DrawPolicy)),
       seed=st.integers(0, 2**16))
def test_the_channel_at_p_and_alpha_is_the_markovian_one_at_its_strength(
        kind, alpha, share, two_receivers, optimize, epsilon, policy, seed):
    # alpha only moves weight from the identity to the Pauli-like unitaries,
    # which depend on neither p nor alpha: the capacity, or the quenched mean
    # over the same draws, at (p, alpha) is the alpha = 0 one at strength
    # q = (1 + m' alpha (1 - p)) p, bit for bit, wherever that spec is valid
    p = share * p_range(ChannelSpec(kind, alpha, 0.0))[1]
    m = 1 if kind is ChannelKind.DEPHASING else 3
    q = (1.0 + m * alpha * (1.0 - p)) * p
    assume(q <= p_range(ChannelSpec(kind, 0.0, 0.0))[1])
    state, lay = ((GGHZ(4, 0.6), PartyLayout(2, 2, split=1)) if two_receivers
                  else (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1)))
    rho = build(state)
    opt = OptimizerConfig(max_evaluations=60, restarts=1)
    specs = [ChannelSpec(kind, a, x, epsilon, policy) for a, x in ((alpha, p), (0.0, q))]
    if epsilon == 0.0:
        got = [evaluate(rho, lay, s, opt=opt, optimize=optimize).capacity_bits.hex()
               for s in specs]
    else:
        qc = QuenchConfig(4, master_seed=seed, optimize_per_realization=optimize)
        got = [quenched_capacity(rho, lay, s, qc, opt) for s in specs]
    assert got[0] == got[1]


@pytest.mark.parametrize("state, lay", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1)),
    (GGHZ(4, 0.6), PartyLayout(2, 2, split=1)),
])
@pytest.mark.parametrize("spec", [
    ChannelSpec(ChannelKind.DEPHASING, 0.8, 0.3),
    ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.2),     # covariant
])
@pytest.mark.parametrize("optimize", [False, True])
def test_mean_capacity_deterministic_is_evaluate(state, lay, spec, optimize):
    rho = build(state)
    opt = OptimizerConfig(max_evaluations=120, restarts=1)
    q = mean_capacity(rho, lay, spec, opt, optimize)
    cap = evaluate(rho, lay, spec, opt=opt, optimize=optimize).capacity_bits
    assert (q.mean_capacity_bits, q.std_error_bits, q.realizations_used) == \
        (cap, 0.0, 1)


def test_random_channel_needs_quench_config():
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.1, epsilon=0.5)
    for run in (lambda: mean_capacity(rho, lay, spec, optimize=False),
                lambda: sweep("p", (0.1, 0.3, 3), rho=rho, layout=lay, spec=spec,
                              optimize=False),
                lambda: find_pc(rho, lay, spec, scan_step=1e-2, optimize=False),
                lambda: critical_strengths(rho, lay, spec, scan_step=1e-2,
                                           optimize=False)):
        with pytest.raises(AnalysisError, match="needs a QuenchConfig"):
            run()


def test_scan_traces_block_states_once(monkeypatch):
    calls = []
    marginals = analysis._marginals
    monkeypatch.setattr(analysis, "_marginals",
                        lambda *args: calls.append(args) or marginals(*args))
    critical_strengths(build(GGHZ(3, 1 / np.sqrt(2))), PartyLayout(2, 1),
                       ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0),
                       scan_step=5e-2, refine=1e-3, optimize=False)
    assert len(calls) == 1


def test_sweep_state_param_axis():
    rows = sweep("state_param", (0.0, 1.0, 5), state=GGHZ(3, 0.5),
                 layout=PartyLayout(2, 1), spec=None, param="x")
    from qdc.qmath import shannon_entropy
    caps = [r["capacity_bits"] for r in rows]
    assert caps[0] == pytest.approx(2.0)       # x = 0: product state
    assert caps[2] == pytest.approx(2 + shannon_entropy([0.25, 0.75]))
    assert caps[-1] == pytest.approx(2.0)      # x = 1: product state


def test_sweep_single_step_and_errors():
    rows = sweep("p", (0.2, 0.9, 1), state=GGHZ(3, 1 / np.sqrt(2)),
                 layout=PartyLayout(2, 1),
                 spec=ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0),
                 optimize=False)
    assert len(rows) == 1 and rows[0]["p"] == pytest.approx(0.2)
    with pytest.raises(AnalysisError):
        sweep("q", (0, 1, 3), state=GGHZ(3, 0.5), layout=PartyLayout(2, 1),
              spec=None)
    with pytest.raises(AnalysisError):
        sweep("p", (0, 1, 0), state=GGHZ(3, 0.5), layout=PartyLayout(2, 1),
              spec=ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0))
    # only a float field of the state can be swept
    for state, param, grid, fields in ((GGHZ(3, 0.7), "y", (0.5, 0.7, 2), "x"),
                                       (GGHZ(3, 0.7), "n_qubits", (3, 4, 2), "x"),
                                       (WUniform(3), "n_qubits", (3, 4, 2), "none")):
        with pytest.raises(AnalysisError, match=f"fields: {fields}"):
            sweep("state_param", grid, state=state, layout=PartyLayout(2, 1),
                  spec=None, param=param)


def test_deterministic_curve_of_a_real_state_runs_real(monkeypatch):
    # the exact-Pauli bases and the block states of a real state are real,
    # so the kernel and the eigensolver run in float64; random draws do not
    import qdc.capacity
    dtypes = []
    entropy = qdc.capacity.von_neumann_entropy
    monkeypatch.setattr(qdc.capacity, "von_neumann_entropy",
                        lambda rho: dtypes.append(rho.dtype) or entropy(rho))
    rho, lay = build(GGHZ(4, 1 / np.sqrt(2))), PartyLayout(2, 2, split=1)
    for kind in ChannelKind:
        critical_strengths(rho, lay, ChannelSpec(kind, 0.5, 0.0), scan_step=5e-2,
                           refine=1e-2, optimize=False)
    assert len(dtypes) > 10 and set(dtypes) == {np.dtype(np.float64)}
    dtypes.clear()
    quenched_capacity(rho, lay, ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.1, 0.5),
                      QuenchConfig(3))
    assert np.dtype(np.complex128) in dtypes


@pytest.mark.parametrize("corrupt", [lambda u: u * 1.001, lambda u: u * np.nan])
def test_curve_rejects_a_basis_that_is_not_unitary(monkeypatch, corrupt):
    draw = analysis._seeded_unitaries

    def corrupted(*args):
        u = draw(*args).copy()
        u[3, 1, 0] = corrupt(u[3, 1, 0])      # one unitary of one realization
        return u

    monkeypatch.setattr(analysis, "_seeded_unitaries", corrupted)
    rho, lay = build(GGHZ(3, 1 / np.sqrt(2))), PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.0, epsilon=0.5)
    for run in (lambda: quenched_capacity(rho, lay, dataclasses.replace(spec, p=0.1),
                                          QuenchConfig(5)),
                lambda: find_pc(rho, lay, spec, scan_step=5e-2, optimize=False,
                                quench=QuenchConfig(5))):
        with pytest.raises(ChannelError):
            run()

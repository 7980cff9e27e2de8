import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_exist(monkeypatch):
    # the benchmark's per-layer metrics are spans around these functions; a
    # renamed or deleted target drops its metrics from every traced run
    for module, function, _ in load("tracing", monkeypatch).TARGETS:
        assert callable(getattr(importlib.import_module(module), function, None)), \
            f"{module}.{function}"


def test_benchmark_workloads_build(monkeypatch):
    # building the operations constructs the configs the benchmark passes
    # (QuenchConfig(threads=1), OptimizerConfig(max_evaluations=1200,
    # restarts=1), ...), so a removed option fails here; nothing is run
    workloads = load("workloads", monkeypatch)
    for workload in workloads.WORKLOADS.values():
        ops = workload.make(workloads.DEFAULT_SEED, True)
        assert ops and all(callable(op.run) for op in ops), workload.name


def test_benchmark_reduced_operations_pass_their_checks(monkeypatch):
    # one reduced pass on the default seed, checked as the benchmark checks
    # it, so a library change that breaks a workload's calls fails here
    workloads = load("workloads", monkeypatch)
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    for workload in workloads.WORKLOADS.values():
        for op in workload.make(workloads.DEFAULT_SEED, True):
            assert op.check(op.run(), expected[op.key], True) == [], op.key


def test_benchmark_keeps_one_workload_on_each_side_of_the_dispatch(monkeypatch):
    # the reduced quench_opt operation (optimized dephasing) runs the
    # environment-side objective; the reduced quench_id operation
    # (depolarizing) never takes the environment side; the reduced scan_det
    # operation reads its exact-dephasing GHZ blocks on the range of the
    # unit-weight Gram matrix (k < M r).  No timed workload reads a
    # full-rank fixed-encoding Gram matrix (drawn dephasing, identity
    # encoding): only quench_opt's untimed identity check does, and a
    # benchmark change could add one
    import qdc.capacity
    workloads = load("workloads", monkeypatch)
    calls = {"objective": 0, "env": 0}
    for name, key in (("_env_objective", "objective"), ("_outputs", "env")):
        def counted(*args, f=getattr(qdc.capacity, name), key=key):
            calls[key] += 1
            return f(*args)
        monkeypatch.setattr(qdc.capacity, name, counted)
    for workload, on_env in (("quench_opt", True), ("quench_id", False)):
        calls.update(objective=0, env=0)
        for op in workloads.WORKLOADS[workload].make(workloads.DEFAULT_SEED, True):
            op.run()
        assert (calls["objective"] > 0) == on_env, (workload, calls)
        assert (calls["env"] > 0) == on_env, (workload, calls)
    read = []

    def gram(*args, f=qdc.capacity._Realizations.gram):
        out = f(*args)
        read.append(out.shape)
        return out
    monkeypatch.setattr(qdc.capacity._Realizations, "gram", gram)
    for op in workloads.WORKLOADS["scan_det"].make(workloads.DEFAULT_SEED, True):
        op.run()
    assert read and all(k < m_r for *_, m_r, k in read), read


def test_benchmark_keeps_one_workload_on_each_side_of_the_settling(monkeypatch):
    # the reduced quench_id operation settles a point from a partial row of
    # realizations; the reduced scan_det operation (deterministic: one
    # realization) never evaluates a partial row
    import qdc.analysis
    workloads = load("workloads", monkeypatch)
    calls = []
    capacity_curve = qdc.analysis._capacity_curve

    def counted(marginals, kind, qs, real, lo=0, hi=None, *args):
        hi = len(real) if hi is None else hi
        calls.append((qs, lo, hi, len(real)))
        return capacity_curve(marginals, kind, qs, real, lo, hi, *args)

    monkeypatch.setattr(qdc.analysis, "_capacity_curve", counted)
    for workload, settles in (("quench_id", True), ("scan_det", False)):
        calls.clear()
        for op in workloads.WORKLOADS[workload].make(workloads.DEFAULT_SEED, True):
            op.run()
        assert calls, workload
        assert any(lo > 0 or hi < n_r for _, lo, hi, n_r in calls) == settles, workload
        read = {}
        for qs, lo, hi, _ in calls:
            for q in qs:
                read[q] = read.get(q, 0) + hi - lo
        n_r = calls[0][3]
        assert any(count < n_r for count in read.values()) == settles, workload


def test_benchmark_keeps_one_workload_on_each_side_of_the_one_cell_schedule(
        monkeypatch):
    # the reduced scan_det operation (deterministic: a point is one cell)
    # evaluates each bisection's midpoints ahead of the walk, several per
    # curve call; the reduced quench_id operation (20 realizations) still
    # evaluates a midpoint on its own
    import qdc.analysis
    from qdc.channels import _strength
    workloads = load("workloads", monkeypatch)
    calls, grids, problem = [], set(), {}
    capacity_curve = qdc.analysis._capacity_curve
    first_crossing = qdc.analysis._first_crossing

    def counted(marginals, kind, qs, *args):
        calls.append(list(qs))
        return capacity_curve(marginals, kind, qs, *args)

    def recorded(predicate, lo, hi, scan_step, *args):
        # the scan's grid, as the scan builds it, in q: the strengths of the
        # scanned channel and, for p_a's Markovian points, q = p
        n_steps = int(np.ceil((hi - lo) / scan_step))
        grid = [lo] + [min(lo + k * scan_step, hi) for k in range(1, n_steps + 1)]
        grids.update(grid + _strength(problem["kind"], problem["alpha"], grid).tolist())
        return first_crossing(predicate, lo, hi, scan_step, *args)

    monkeypatch.setattr(qdc.analysis, "_capacity_curve", counted)
    monkeypatch.setattr(qdc.analysis, "_first_crossing", recorded)
    # the reduced operations scan the first problem and the first cell
    for workload, alone, kind, alpha in (
            ("scan_det", False, *workloads.SCAN_PROBLEMS[0][3:]),
            ("quench_id", True, workloads.DEPOL, workloads.QID_CELLS[0][3])):
        problem.update(kind=kind, alpha=alpha)
        calls.clear()
        grids.clear()
        for op in workloads.WORKLOADS[workload].make(workloads.DEFAULT_SEED, True):
            op.run()
        midpoints = [qs for qs in calls if not set(qs) <= grids]
        assert midpoints, workload
        assert any(len(qs) == 1 for qs in midpoints) == alone, workload


def test_benchmark_scan_pass_makes_no_more_curve_calls_than_recorded(monkeypatch):
    # a default-seed scan_det pass over its four problems made 23
    # _capacity_curve calls over 795 (q, realization) cells when the scan
    # walk took one window per family; a schedule that evaluates more fails
    import qdc.analysis
    workloads = load("workloads", monkeypatch)
    cells = []              # one entry per call
    capacity_curve = qdc.analysis._capacity_curve

    def counted(marginals, kind, qs, real, lo=0, hi=None, *args):
        hi = len(real) if hi is None else hi
        cells.append(len(qs) * (hi - lo))
        return capacity_curve(marginals, kind, qs, real, lo, hi, *args)

    monkeypatch.setattr(qdc.analysis, "_capacity_curve", counted)
    for op in workloads.WORKLOADS["scan_det"].make(workloads.DEFAULT_SEED, False):
        op.run()
    assert len(cells) <= 23 and sum(cells) <= 795, (len(cells), sum(cells))

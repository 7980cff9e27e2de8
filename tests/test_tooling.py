import importlib
import importlib.util
import sys
from pathlib import Path

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

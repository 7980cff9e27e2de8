import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_trace_targets_exist():
    # the benchmark's per-layer metrics are spans around these functions; a
    # renamed or deleted target drops its metrics from every traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, function, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), function, None)), \
            f"{module}.{function}"

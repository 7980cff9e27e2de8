import importlib.util
import os
import re
import subprocess
import sys
from importlib.machinery import ModuleSpec
from pathlib import Path

import pytest
import scipy.optimize._lbfgsb

from qdc.capacity import PartyLayout, evaluate
from qdc.channels import ChannelKind, ChannelSpec
from qdc.optimizer import OptimizerConfig, _load_lbfgsb
from qdc.states import GGHZ, build

SRC = Path(__file__).resolve().parents[1] / "src"

# pytest's own process has imported scipy already, so the check runs in a
# fresh interpreter
SCRIPT = """
import sys

import numpy as np

import qdc
import qdc.cli
from qdc.analysis import QuenchConfig, critical_strengths, quenched_capacity
from qdc.capacity import PartyLayout, evaluate
from qdc.channels import ChannelKind, ChannelSpec
from qdc.optimizer import OptimizerConfig
from qdc.states import GGHZ, build

rho, layout = build(GGHZ(3, 0.8)), PartyLayout(2, 1)
spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.2)
evaluate(rho, layout, spec, optimize=False)
quenched_capacity(rho, layout, ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.05, 0.5),
                  QuenchConfig(realizations=20))
critical_strengths(rho, layout, ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0),
                   scan_step=1e-2, refine=1e-3, optimize=False)
res = evaluate(rho, layout, spec, opt=OptimizerConfig(max_evaluations=400, restarts=2))
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
print(res.capacity_bits.hex())

# qdc registered no scipy.* module, so scipy's own import still works whole
import scipy.optimize
assert callable(scipy.optimize._lbfgsb.setulb)
fit = scipy.optimize.minimize(lambda x: float(np.sum((x - 1.0) ** 2)), np.zeros(3),
                              method="L-BFGS-B")
assert fit.success and np.allclose(fit.x, 1.0), fit
"""


def test_fixed_encoding_work_never_imports_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    want = evaluate(build(GGHZ(3, 0.8)), PartyLayout(2, 1),
                    ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.2),
                    opt=OptimizerConfig(max_evaluations=400, restarts=2))
    # the optimized run loads L-BFGS-B alone on its first call and gives the same bits
    assert out.stdout.split() == [want.capacity_bits.hex()]


def test_lbfgsb_is_the_file_scipy_imports():
    assert _load_lbfgsb().__file__ == scipy.optimize._lbfgsb.__file__


def test_missing_lbfgsb_file_names_scipy_version(tmp_path, monkeypatch):
    # a scipy package whose search location is an empty directory
    empty = ModuleSpec("scipy", None, is_package=True)
    empty.submodule_search_locations.append(str(tmp_path))
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None:
                        empty if name == "scipy" else find_spec(name, package))
    with pytest.raises(ImportError, match=rf"scipy {re.escape(scipy.__version__)} .*setulb"):
        _load_lbfgsb.__wrapped__()

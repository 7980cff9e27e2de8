import numpy as np
import pytest

import qdc.optimizer
from qdc.capacity import PartyLayout, evaluate
from qdc.channels import ChannelKind, ChannelSpec, sample_per_qubit_kraus
from qdc.optimizer import (EncodingParams, OptimizerConfig, OptimizerConfigError,
                           OptimizerError, minimize)
from qdc.states import GGHZ, build

PERIOD = np.array([4 * np.pi, 2 * np.pi, 4 * np.pi])


def quadratic(target):
    def f(x: np.ndarray) -> tuple[float, np.ndarray]:
        return float(np.sum((x - target)**2)), 2 * (x - target)
    return f


def test_finds_quadratic_minimum():
    target = np.array([1.0, 2.0, 3.0])
    cfg = OptimizerConfig(max_evaluations=4000, seed=1, restarts=2)
    val, enc = minimize(quadratic(target), 1, cfg)
    assert val < 1e-8
    assert np.max(np.abs(enc.to_flat() - target)) < 1e-3


def test_never_worse_than_identity():
    # objective minimized exactly at the identity encoding
    cfg = OptimizerConfig(max_evaluations=600, seed=0, restarts=1)
    val, enc = minimize(quadratic(np.zeros(3)), 1, cfg)
    assert val <= 1e-12
    assert np.allclose(enc.to_flat(), 0.0)


def test_deterministic_for_fixed_seed():
    cfg = OptimizerConfig(max_evaluations=2000, seed=42, restarts=2)
    rng = np.random.default_rng(0)
    target = rng.uniform(0, 2 * np.pi, 6)
    a = minimize(quadratic(target), 2, cfg)
    b = minimize(quadratic(target), 2, cfg)
    assert a[0] == b[0]
    assert np.array_equal(a[1].to_flat(), b[1].to_flat())


def test_respects_bounds():
    # periodic in (4 pi, 2 pi, 4 pi) per sender, with its minimum at small
    # negative angles: the search must cross zero, and the encoding it
    # returns must lie in one period
    centre = np.tile([-0.3, -0.2, -0.1], 2)
    freq = np.tile(2 * np.pi / PERIOD, 2)

    def periodic(x):
        return (float(np.sum(1 - np.cos(freq * (x - centre)))),
                freq * np.sin(freq * (x - centre)))

    val, enc = minimize(periodic, 2, OptimizerConfig(max_evaluations=2000, seed=3))
    x = enc.to_flat()
    assert val < 1e-12
    assert np.all((0 <= x) & (x < np.tile(PERIOD, 2)))
    assert abs(periodic(x)[0] - val) <= 1e-12


def test_starts_and_budget(monkeypatch):
    runs = []
    lbfgs = qdc.optimizer.scipy.optimize.minimize

    def recorded(f, x0, **kwargs):
        runs.append((x0.copy(), kwargs))
        return lbfgs(f, x0, **kwargs)

    monkeypatch.setattr(qdc.optimizer.scipy.optimize, "minimize", recorded)
    minimize(quadratic(np.ones(6)), 2, OptimizerConfig(max_evaluations=100, seed=5,
                                                       restarts=3))
    assert len(runs) == 4
    assert np.array_equal(runs[0][0], np.zeros(6))            # the identity first
    randoms = np.array([x0 for x0, _ in runs[1:]])
    assert np.array_equal(randoms, np.random.default_rng(5).uniform(
        0.0, np.tile(PERIOD, 2), size=(3, 6)))
    for _, kwargs in runs:
        assert kwargs["method"] == "L-BFGS-B" and kwargs["jac"] is True
        assert "bounds" not in kwargs
        assert kwargs["options"]["maxfun"] == 25


def test_non_finite_objective_raises():
    def bad(x):
        return np.nan, np.zeros_like(x)
    with pytest.raises(OptimizerError):
        minimize(bad, 1, OptimizerConfig(max_evaluations=500))


def test_config_validation():
    for kwargs in ({"restarts": 0}, {"max_evaluations": 3},
                   {"max_evaluations": 1, "restarts": 1}):
        with pytest.raises(OptimizerConfigError):
            OptimizerConfig(**kwargs)
    assert issubclass(OptimizerConfigError, ValueError)
    OptimizerConfig(max_evaluations=4)       # one evaluation per start


# the Theorem-4 channel: GHZ 3q 2S-1R, dephasing a=0.8, p=0.3, eps=0.5
THEOREM4_SPEC = ChannelSpec(ChannelKind.DEPHASING, 0.8, 0.3, 0.5)
THEOREM4_OPT = OptimizerConfig(max_evaluations=1200, restarts=1)


def theorem4_realization(k: int, opt: OptimizerConfig):
    kraus = sample_per_qubit_kraus(THEOREM4_SPEC, 2, np.random.default_rng(
        np.random.SeedSequence((1, k))))
    return evaluate(build(GGHZ(3, 1 / np.sqrt(2))), PartyLayout(2, 1), THEOREM4_SPEC,
                    opt=opt, kraus_override=kraus)


@pytest.mark.parametrize("k", [7, 13])
def test_theorem4_realizations_rise_above_the_classical_bound(k):
    # both stopped at exactly 2.0 when the search box had the identity
    # encoding at its corner
    assert theorem4_realization(k, THEOREM4_OPT).capacity_bits > 2.008


def test_optimum_agrees_with_a_wider_search():
    wide = OptimizerConfig(max_evaluations=17 * 600, seed=11, restarts=16)
    for k in range(10):
        got = theorem4_realization(k, THEOREM4_OPT).channel_output_entropy
        want = theorem4_realization(k, wide).channel_output_entropy
        assert abs(got - want) <= 1e-9, k


def test_encoding_params_round_trip():
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    enc = EncodingParams.from_flat(x)
    assert len(enc.per_sender) == 2
    assert np.allclose(enc.to_flat(), x)
    assert np.allclose(EncodingParams.identity(3).to_flat(), 0.0)

import numpy as np
import pytest

import qdc.capacity
from qdc.capacity import PartyLayout, evaluate
from qdc.channels import ChannelKind, ChannelSpec
from qdc.optimizer import (EncodingParams, OptimizerConfig, OptimizerConfigError,
                           OptimizerError, _bounds, _checked, _es_run, minimize)
from qdc.states import GGHZ, build


def quadratic(target):
    def f(x: np.ndarray) -> np.ndarray:
        return np.sum((x - target)**2, axis=-1)
    return f


def one_row_at_a_time(objective):
    """The same objective, called once per row of a population."""
    def f(x: np.ndarray):
        return objective(x) if x.ndim == 1 else np.array([objective(r) for r in x])
    return f


def counting_rows(objective, rows):
    """The same objective; each call appends its row count to ``rows``."""
    def f(x: np.ndarray):
        rows.append(1 if x.ndim == 1 else len(x))
        return objective(x)
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
    # minimum far outside the box: the result must stay inside it
    target = np.full(3, 100.0)
    cfg = OptimizerConfig(max_evaluations=2000, seed=3)
    _, enc = minimize(quadratic(target), 1, cfg)
    x = enc.to_flat()
    assert x[0] <= 4 * np.pi + 1e-9
    assert x[1] <= 2 * np.pi + 1e-9


def test_non_finite_objective_raises():
    def bad(x):
        return np.full(x.shape[:-1], np.nan)
    with pytest.raises(OptimizerError):
        minimize(bad, 1, OptimizerConfig(max_evaluations=500))


def test_non_finite_row_of_a_population_is_named():
    bad_rows = []

    def one_bad_row(x):
        vals = np.sum(x**2, axis=-1)
        if vals.ndim:
            vals[3] = np.nan
            bad_rows.append(x[3].copy())
        return vals

    with pytest.raises(OptimizerError) as exc:
        minimize(one_bad_row, 2, OptimizerConfig(max_evaluations=500, restarts=1))
    assert len(bad_rows) == 1
    assert str(bad_rows[0]) in str(exc.value)
    assert not np.array_equal(bad_rows[0], np.zeros(6))


def test_config_validation():
    for kwargs in ({"population": 2}, {"restarts": 0},
                   {"population": 100, "max_evaluations": 50},
                   {"population": 8, "max_evaluations": 10, "restarts": 3}):
        with pytest.raises(OptimizerConfigError):
            OptimizerConfig(**kwargs)
    assert issubclass(OptimizerConfigError, ValueError)
    # the default population (20 * D) is checked once D is known
    cfg = OptimizerConfig(max_evaluations=100, restarts=1)
    assert cfg.resolved_population(3) == 60
    with pytest.raises(OptimizerConfigError):
        cfg.resolved_population(6)
    with pytest.raises(OptimizerConfigError):
        minimize(quadratic(np.zeros(6)), 2, cfg)


def test_each_restart_keeps_its_budget():
    rows = []
    cfg = OptimizerConfig(population=8, max_evaluations=24, restarts=3)
    minimize(counting_rows(quadratic(np.full(3, 1.0)), rows), 1, cfg)
    # the identity point, one population per restart, then the polish
    assert rows[:5] == [1, 8, 8, 8, 1]


def test_es_generation_is_one_call():
    dim, pop = 6, 12
    shapes = []

    def recorded(x):
        shapes.append(x.shape)
        return quadratic(np.linspace(1.0, 2.0, dim))(x)

    minimize(recorded, 2, OptimizerConfig(population=pop, max_evaluations=240,
                                          restarts=2))
    assert shapes[0] == (dim,)                      # the identity point
    populations = [s for s in shapes[1:] if s != (dim,)]
    assert len(populations) >= 3         # two initial ones and a generation
    assert set(populations) == {(pop, dim)}
    assert len(populations) * pop <= 240
    # then the Nelder-Mead polish, row by row
    assert shapes[1:1 + len(populations)] == populations
    assert set(shapes[1 + len(populations):]) == {(dim,)}


@pytest.mark.parametrize("state, layout, spec", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1),
     ChannelSpec(ChannelKind.DEPHASING, 0.6, 0.2)),
    (GGHZ(5, 0.8), PartyLayout(3, 2, split=2),
     ChannelSpec(ChannelKind.DEPOLARIZING, 0.6, 0.2, epsilon=0.5)),
])
def test_batched_objective_gives_the_same_search(monkeypatch, state, layout, spec):
    objectives = []

    def capture(objective, n_senders, opt):
        objectives.append((objective, n_senders))
        return 0.0, EncodingParams.identity(n_senders)

    monkeypatch.setattr(qdc.capacity, "minimize", capture)
    evaluate(build(state), layout, spec, rng=np.random.default_rng(2))
    assert len(objectives) == len(layout.blocks)
    cfg = OptimizerConfig(max_evaluations=720, restarts=2)
    for objective, n in objectives:
        lo, hi = _bounds(n)
        pop = cfg.resolved_population(3 * n)
        (val_a, x_a, evals_a), (val_b, x_b, evals_b) = (
            _es_run(_checked(f), lo, hi, pop, 360, cfg.tolerance,
                    np.random.default_rng(7), [np.zeros(3 * n)])
            for f in (objective, one_row_at_a_time(objective)))
        assert val_a == val_b and evals_a == evals_b
        assert np.array_equal(x_a, x_b)
        rows_a, rows_b = [], []
        (val_a, enc_a), (val_b, enc_b) = (
            minimize(counting_rows(f, rows), n, cfg)
            for f, rows in ((objective, rows_a),
                            (one_row_at_a_time(objective), rows_b)))
        assert val_a == val_b and sum(rows_a) == sum(rows_b)
        assert np.array_equal(enc_a.to_flat(), enc_b.to_flat())


def test_encoding_params_round_trip():
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    enc = EncodingParams.from_flat(x)
    assert len(enc.per_sender) == 2
    assert np.allclose(enc.to_flat(), x)
    assert np.allclose(EncodingParams.identity(3).to_flat(), 0.0)

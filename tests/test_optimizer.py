from functools import partial

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize._lbfgsb_py import status_messages, task_messages

import qdc.optimizer
from qdc.capacity import PartyLayout, _block_objective, evaluate
from qdc.channels import (ChannelKind, ChannelSpec, _basis, _channel_weights,
                          _seeded_unitaries, _strength, _superops,
                          sample_per_qubit_kraus)
from qdc.optimizer import (_FTOL, _GTOL, EncodingParams, OptimizerConfig,
                           OptimizerConfigError, OptimizerError, _lbfgsb, minimize)
from qdc.qmath import partial_trace
from qdc.states import GGHZ, WUniform, build

PERIOD = np.array([4 * np.pi, 2 * np.pi, 4 * np.pi])


def quadratic(targets):
    """Batched objective with one target per row: rows index ``targets``."""
    targets = np.atleast_2d(targets)

    def f(rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = x - targets[rows]
        return np.sum(d**2, axis=1), 2 * d
    return f


def test_finds_quadratic_minimum():
    targets = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 0.5]])
    cfg = OptimizerConfig(max_evaluations=4000, seed=1, restarts=2)
    val, x = minimize(quadratic(targets), 2, 1, cfg)
    assert val.shape == (2,) and x.shape == (2, 3)
    assert np.all(val < 1e-8)
    assert np.max(np.abs(x - targets)) < 1e-3       # each row its own target


def test_never_worse_than_identity():
    # objective minimized exactly at the identity encoding
    cfg = OptimizerConfig(max_evaluations=600, seed=0, restarts=1)
    val, x = minimize(quadratic(np.zeros(3)), 1, 1, cfg)
    assert val[0] <= 1e-12
    assert np.allclose(x, 0.0)


def test_deterministic_for_fixed_seed():
    cfg = OptimizerConfig(max_evaluations=2000, seed=42, restarts=2)
    rng = np.random.default_rng(0)
    target = rng.uniform(0, 2 * np.pi, 6)
    a = minimize(quadratic(target), 1, 2, cfg)
    b = minimize(quadratic(target), 1, 2, cfg)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def periodic(centres):
    """Periodic in (4 pi, 2 pi, 4 pi) per sender, one centre per row."""
    centres = np.atleast_2d(centres)
    freq = np.tile(2 * np.pi / PERIOD, centres.shape[1] // 3)

    def f(rows, x):
        z = freq * (x - centres[rows])
        return np.sum(1 - np.cos(z), axis=1), freq * np.sin(z)
    return f


def test_respects_bounds():
    # minimum at small negative angles: the search must cross zero, and the
    # encoding it returns must lie in one period
    f = periodic(np.tile([-0.3, -0.2, -0.1], 2))
    val, x = minimize(f, 1, 2, OptimizerConfig(max_evaluations=2000, seed=3))
    assert val[0] < 1e-12
    assert np.all((0 <= x) & (x < np.tile(PERIOD, 2)))
    assert abs(f(np.array([0]), x)[0][0] - val[0]) <= 1e-12


def test_starts_and_budget(monkeypatch):
    calls = []

    def recorded(objective, x0, maxfun):
        calls.append((x0.copy(), maxfun))
        return _lbfgsb(objective, x0, maxfun)

    monkeypatch.setattr(qdc.optimizer, "_lbfgsb", recorded)
    minimize(quadratic(np.ones((3, 6))), 3, 2,
             OptimizerConfig(max_evaluations=100, seed=5, restarts=3))
    assert len(calls) == 1               # every (row, start) in one lockstep group
    x0, maxfun = calls[0]
    assert maxfun == 25
    starts = np.concatenate([np.zeros((1, 6)),          # the identity first
                             np.random.default_rng(5).uniform(
                                 0.0, np.tile(PERIOD, 2), size=(3, 6))])
    assert np.array_equal(x0, np.tile(starts, (3, 1)))  # row-major (row, start)


def test_non_finite_objective_raises():
    def bad(rows, x):
        values = np.where(rows == 1, np.nan, 0.0)
        return values, np.zeros_like(x)
    with pytest.raises(OptimizerError, match=r"at \[0\. 0\. 0\.\]"):
        minimize(bad, 2, 1, OptimizerConfig(max_evaluations=500))


def test_config_validation():
    for kwargs in ({"restarts": 0}, {"max_evaluations": 3},
                   {"max_evaluations": 1, "restarts": 1}, {"seed": -1}):
        with pytest.raises(OptimizerConfigError):
            OptimizerConfig(**kwargs)
    assert issubclass(OptimizerConfigError, ValueError)
    OptimizerConfig(max_evaluations=4)       # one evaluation per start


def _quadratic_problems(n_problems):
    """Quadratics of growing condition number: problem 0 (condition 1e4)
    runs into maxfun, the others converge after different iterations."""
    rng = np.random.default_rng(21)
    n = 6
    q, _ = np.linalg.qr(rng.normal(size=(n_problems, n, n)))
    scales = np.array([np.logspace(0, 4 - 3.5 * (i > 0) - 0.1 * i, n)
                       for i in range(n_problems)])
    a = (q * scales[:, None, :]) @ q.swapaxes(-1, -2)
    c = rng.normal(size=(n_problems, n))

    def f(problems, x):
        grad = np.einsum("kij,kj->ki", a[problems], x - c[problems])
        return 0.5 * np.sum((x - c[problems]) * grad, axis=1), grad
    return f, rng.uniform(-3, 3, size=(n_problems, n)), 20


def _periodic_problems(n_problems):
    rng = np.random.default_rng(22)
    f = periodic(rng.uniform(-1, 1, size=(n_problems, 6)))
    return f, rng.uniform(0, 4 * np.pi, size=(n_problems, 6)), 60


def _capacity_problems(n_problems):
    # the first block of GHZ 5q 3S-2R split 2 (senders 0, 1 and receiver 3),
    # one random depolarizing realization per problem
    rho = build(GGHZ(5, 0.8))
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.4, 0.2, epsilon=0.6)
    sups = _superops(_channel_weights(spec.kind, _strength(spec.kind, spec.alpha,
                                                           spec.p)), _basis(
        _seeded_unitaries(spec, 3, [(7, k) for k in range(n_problems)])))
    f = partial(_block_objective, partial_trace(rho, [0, 1, 3]),
                [sups[:, 0], sups[:, 1]])
    rng = np.random.default_rng(23)
    return f, rng.uniform(0, 4 * np.pi, size=(n_problems, 6)), 40


def message(run) -> str:
    """The stop message ``scipy.optimize.minimize`` builds from setulb's codes."""
    status, task = run.stop
    return f"{status_messages[status]}: {task_messages[task]}"


@pytest.mark.parametrize("n_problems", [1, 3, 7])
@pytest.mark.parametrize("problems", [_quadratic_problems, _periodic_problems,
                                      _capacity_problems])
def test_lockstep_driver_matches_scipy_minimize(problems, n_problems):
    # each problem alone through scipy's own loop over the same setulb
    f, x0, maxfun = problems(n_problems)
    runs = _lbfgsb(f, x0, maxfun)
    for i, run in enumerate(runs):
        want = scipy.optimize.minimize(
            lambda x: tuple(v[0] for v in f(np.array([i]), x[None])), x0[i],
            jac=True, method="L-BFGS-B",
            options={"maxfun": maxfun, "ftol": _FTOL, "gtol": _GTOL})
        assert run.fun == want.fun
        assert np.array_equal(run.x, want.x)
        assert (run.nfev, run.nit, message(run)) == (want.nfev, want.nit, want.message)
    if problems is _quadratic_problems and n_problems > 1:
        assert message(runs[0]).startswith("STOP: TOTAL NO. OF F,G EVALUATIONS")
        assert {message(run).split(":")[0] for run in runs[1:]} == {"CONVERGENCE"}
        assert len({run.nit for run in runs}) > 1


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


def test_stop_rule_leaves_no_row_short(monkeypatch):
    # ftol = 1e-15 lies below the entropy's value noise near an optimum, so
    # some starts spend evaluations on noise; 1e-13 would save them but
    # stops the W row 2.3e-9 bits short.  Each row must come within
    # 1e-12 of the row reached with no relative-reduction stop (factr = 0).
    from qdc import analysis
    deph = ChannelKind.DEPHASING
    bench = (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1), ChannelSpec(deph, 0.8, 0.3, 0.5),
             OptimizerConfig(max_evaluations=1200, restarts=1))
    problems = [
        # the benchmark's optimized quench on seeds 0 and 7: all realizations
        (*bench, analysis.QuenchConfig(10, master_seed=1), 0, 10),
        (*bench, analysis.QuenchConfig(10, master_seed=8), 0, 10),
        # realization 2 of 12
        (WUniform(3), PartyLayout(2, 1), ChannelSpec(deph, 0.8, 0.05, 1.0),
         OptimizerConfig(), analysis.QuenchConfig(12, master_seed=3), 2, 3),
    ]

    def rows():
        out = []
        for state, lay, spec, opt, qc, lo, hi in problems:
            curves = analysis._Curves(build(state), lay, opt, False, qc)
            q = _strength(spec.kind, spec.alpha, spec.p)
            out.append(analysis._capacity_curve(curves.marginals, spec.kind, [q],
                                                curves._family(spec).real, lo, hi,
                                                opt, True)[0])
        return np.concatenate(out)

    got = rows()
    monkeypatch.setattr(qdc.optimizer, "_FACTR", 0.0)
    reference = rows()
    assert np.all(got >= reference - 1e-12), np.min(got - reference)

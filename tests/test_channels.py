import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdc.qmath import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, dm_from_statevector
from qdc.channels import (ChannelError, ChannelKind, ChannelSpec, DrawPolicy,
                          KrausSet, _apply_local, _basis, _channel_weights,
                          _seeded_unitaries, _strength, _superops,
                          apply_local_channel, deterministic_kraus,
                          p_range, parse_channel, pauli_means, sample_per_qubit_kraus,
                          unitary_from_params, UnitaryParams)


def phase_free_distance(a, b):
    """Operator distance up to a global phase."""
    tr = np.trace(a.conj().T @ b)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return np.max(np.abs(a * phase - b))


def test_pauli_means_reproduce_paulis():
    for which, target in (("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z)):
        u = unitary_from_params(pauli_means(which))
        assert phase_free_distance(u, target) < 1e-12
    with pytest.raises(ChannelError):
        pauli_means("w")


@given(st.floats(0, 4 * np.pi), st.floats(0, 2 * np.pi), st.floats(0, 4 * np.pi))
def test_unitary_from_params_is_unitary(omega, theta, delta):
    u = unitary_from_params(UnitaryParams(omega, theta, delta))
    assert np.max(np.abs(u.conj().T @ u - I2)) < 1e-12


def test_dephasing_weights():
    ks = deterministic_kraus(ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.3))
    # (1 - 0.5*0.3)(1 - 0.3) = 0.595 and (1 + 0.5*0.7)*0.3 = 0.405
    assert np.allclose(ks.operators[0], np.sqrt(0.595) * I2)
    assert np.allclose(ks.operators[1], np.sqrt(0.405) * SIGMA_Z)


def test_depolarizing_weights():
    ks = deterministic_kraus(ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.2))
    # (1 - 3*0.5*0.2)(1 - 0.2) = 0.56 and (1 + 3*0.5*0.8)*0.2/3 = 0.44/3
    assert np.allclose(ks.operators[0], np.sqrt(0.56) * I2)
    for op, pauli in zip(ks.operators[1:], (SIGMA_X, SIGMA_Y, SIGMA_Z)):
        assert np.allclose(op, np.sqrt(0.44 / 3) * pauli)


def scalar_weights(kind, alpha, p):
    """The channel weights of one p, in Python floats, as the formula reads:
    the strength q = (1 + m' a (1 - p)) p, then 1 - q on I and q/m' on each
    of the m' Pauli-like unitaries."""
    m = 1 if kind is ChannelKind.DEPHASING else 3
    q = (1.0 + m * alpha * (1.0 - p)) * p
    return [max(0.0, 1.0 - q)] + [q / m] * m


def product_weights(kind, alpha, p):
    """The weights as the product formula reads: (1 - m' a p)(1 - p) on I and
    (1 + m' a (1 - p)) p / m' on each unitary."""
    m = 1 if kind is ChannelKind.DEPHASING else 3
    w_p = (1.0 + m * alpha * (1.0 - p)) * p / m
    return [max(0.0, (1.0 - m * alpha * p) * (1.0 - p))] + [w_p] * m


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_channel_weights_of_a_batch_equal_the_scalar_formula_bitwise(kind):
    for alpha in (0.0, 0.1, 0.3, 0.5, 0.8, 0.9, 1.0):
        hi = p_range(ChannelSpec(kind, alpha, 0.0))[1]
        # the grid ends at p = 1/2 (dephasing) or p = min(1, 1/(3 alpha))
        ps = [float(p) for p in np.linspace(0.0, hi, 97)] + [hi]
        batch = _channel_weights(kind, _strength(kind, alpha, ps))
        assert batch.shape == (len(ps), 2 if kind is ChannelKind.DEPHASING else 4)
        for p, row in zip(ps, batch):
            want = np.array(scalar_weights(kind, alpha, p))
            assert row.tobytes() == want.tobytes(), (alpha, p)
            assert _channel_weights(kind, _strength(kind, alpha, p)).tobytes() == \
                want.tobytes()
            # the unitaries' weights keep the product formula's bits, and the
            # identity's moves by an ulp at most
            product = np.array(product_weights(kind, alpha, p))
            assert row[1:].tobytes() == product[1:].tobytes(), (alpha, p)
            assert abs(row[0] - product[0]) <= 2.3e-16, (alpha, p)


def test_channel_weights_reject_a_p_out_of_range_in_a_batch():
    # ChannelSpec checks p for its alpha; the weights take any strength in
    # [0, 1], and reject one outside it or NaN
    with pytest.raises(ChannelError, match="dephasing strength q=1.5 outside"):
        _channel_weights(ChannelKind.DEPHASING, [0.1, 1.5, 1.7])
    with pytest.raises(ChannelError, match="dephasing strength q=nan outside"):
        _channel_weights(ChannelKind.DEPHASING, [0.1, np.nan])
    with pytest.raises(ChannelError, match="q=-0.1 outside"):
        _channel_weights(ChannelKind.DEPOLARIZING, [0.1, -0.1])
    # past q = 1, where (1 - 3 a p)(1 - p) < 0, at p > 1/(3a)
    for ps in (0.5, [0.1, 0.5]):
        with pytest.raises(ChannelError, match="depolarizing strength q=1.17"):
            _channel_weights(ChannelKind.DEPOLARIZING,
                             _strength(ChannelKind.DEPOLARIZING, 0.9, ps))


def test_kraus_completeness_enforced():
    with pytest.raises(ChannelError):
        KrausSet(np.array([1.0, 1.0]), I2[None])
    with pytest.raises(ChannelError):
        KrausSet(np.array([0.0, 1.0]), np.full((1, 2, 2), np.nan))


def test_kraus_set_rejects_invalid_weights_and_unitaries():
    u = SIGMA_Z[None]
    for w in ([-0.1, 1.1], [np.nan, 1.0], [np.inf, 1.0], [0.5, np.inf], [0.4, 0.5],
              [0.6, 0.5]):
        with pytest.raises(ChannelError, match="weights"):
            KrausSet(np.array(w), u)
    with pytest.raises(ChannelError, match="not unitary"):
        KrausSet(np.array([0.5, 0.5]), 1.001 * u)
    with pytest.raises(ChannelError, match="not unitary"):
        KrausSet(np.array([0.5, 0.5]), np.full((1, 2, 2), np.inf))
    for w, units in ((np.array([0.5, 0.5]), np.array([SIGMA_X, SIGMA_Z])),
                     (np.array([0.5, 0.5]), SIGMA_Z), (np.array([[0.5, 0.5]]), u),
                     (np.ones(1), u), (np.array([0.5, 0.5]), np.ones((1, 3, 3)))):
        with pytest.raises(ChannelError, match="need unitaries"):
            KrausSet(w, units)
    # tolerated rounding of the weights' sum
    KrausSet(np.array([0.5, 0.5 + 1e-12]), u)


def kraus_superop(ops):
    """Reference: sum_K K (x) conj(K) of a Kraus set."""
    return sum(np.kron(k, k.conj()) for k in ops)


def test_kraus_set_superop_follows_its_operators():
    # the superoperator is derived, never passed in, so the two cannot disagree
    with pytest.raises(TypeError):
        KrausSet(np.ones(1), np.empty((0, 2, 2)), np.eye(4))
    rng = np.random.default_rng(3)
    for kind in ChannelKind:
        for spec in (ChannelSpec(kind, 0.3, 0.2), ChannelSpec(kind, 0.3, 0.2, epsilon=0.6)):
            sets = (sample_per_qubit_kraus(spec, 2, rng) if spec.is_random
                    else [deterministic_kraus(spec)])
            for ks in sets:
                assert np.max(np.abs(ks.superop - kraus_superop(ks.operators))) < 1e-15
    # sets built by hand: no noise, one unitary, and random weights on three
    u = unitary_from_params(rng.uniform(0, 4 * np.pi, (3, 3)))
    w = rng.uniform(size=4)
    for ks in (KrausSet(np.ones(1), np.empty((0, 2, 2))),
               KrausSet(np.array([0.0, 1.0]), u[:1]), KrausSet(w / w.sum(), u)):
        assert len(ks.operators) == len(ks.weights)
        assert np.max(np.abs(ks.superop - kraus_superop(ks.operators))) < 1e-15


def test_channel_spec_ranges():
    ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.5)
    with pytest.raises(ChannelError):
        ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.6)
    with pytest.raises(ChannelError):
        ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.7)   # p > 1/(3a)
    ChannelSpec(ChannelKind.DEPOLARIZING, 0.0, 1.0)
    with pytest.raises(ChannelError):
        ChannelSpec(ChannelKind.DEPHASING, 1.5, 0.2)
    # 1e-12 of slack past the end of the range, and no NaN
    ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.5 + 5e-13)
    for p in (0.5 + 2e-12, np.nan, -1e-13):
        with pytest.raises(ChannelError):
            ChannelSpec(ChannelKind.DEPHASING, 0.5, p)
    for eps in (-0.1, np.inf, np.nan):
        with pytest.raises(ChannelError):
            ChannelSpec(ChannelKind.DEPHASING, 0.3, 0.2, epsilon=eps)


def test_random_kraus_sets_are_cptp():
    rng = np.random.default_rng(0)
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.1, epsilon=1.0)
    for _ in range(50):
        for ks in sample_per_qubit_kraus(spec, 2, rng):
            acc = sum(k.conj().T @ k for k in ks.operators)
            assert np.max(np.abs(acc - I2)) < 1e-10


def test_draw_policy_shared():
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.3, 0.1, epsilon=0.5,
                       draw_policy=DrawPolicy.SHARED_ACROSS_QUBITS)
    rng = np.random.default_rng(3)
    sets = sample_per_qubit_kraus(spec, 3, rng)
    assert all(s is sets[0] for s in sets)
    spec_pq = ChannelSpec(ChannelKind.DEPHASING, 0.3, 0.1, epsilon=0.5)
    sets = sample_per_qubit_kraus(spec_pq, 3, np.random.default_rng(3))
    assert not np.allclose(sets[0].operators[1], sets[1].operators[1])


def test_apply_local_channel_preserves_trace_and_psd():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho = dm_from_statevector(psi / np.linalg.norm(psi))
    ks = deterministic_kraus(ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.2))
    out = apply_local_channel(rho, [ks, ks], [0, 2])
    assert np.trace(out) == pytest.approx(1.0)
    assert np.min(np.linalg.eigvalsh(out)) > -1e-12


def kron_lifted_channel(rho, per_qubit_kraus, targets):
    """Reference: lift each Kraus operator to the register with np.kron."""
    n = rho.shape[0].bit_length() - 1
    out = rho
    for ks, t in zip(per_qubit_kraus, targets):
        lifted = []
        for k in ks.operators:
            op = np.array([[1.0 + 0j]])
            for q in range(n):
                op = np.kron(op, k if q == t else I2)
            lifted.append(op)
        out = sum(op @ out @ op.conj().T for op in lifted)
    return out


@pytest.mark.parametrize("n, targets", [(3, [2, 0, 1]), (4, [3, 0, 2]),
                                        (5, [4, 1, 3])])
def test_kernel_matches_kron_reference(n, targets):
    # unordered, non-adjacent targets carrying 1, 2 and 4 operators each
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    u = unitary_from_params(UnitaryParams(*rng.uniform(0, 2 * np.pi, 3)))
    deph = ChannelSpec(ChannelKind.DEPHASING, 0.4, 0.25, epsilon=0.3)
    depol = ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.2, epsilon=0.8)
    kraus = [KrausSet(np.array([0.0, 1.0]), u[None]),
             sample_per_qubit_kraus(deph, 1, rng)[0],
             sample_per_qubit_kraus(depol, 1, rng)[0]]
    got = apply_local_channel(rho, kraus, targets)
    assert np.max(np.abs(got - kron_lifted_channel(rho, kraus, targets))) < 1e-12


def frozen_unitary(omega, theta, delta):
    """Reference: the three factors multiplied as matrices."""
    left = np.diag([np.exp(1j * omega / 2), np.exp(-1j * omega / 2)])
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    mid = np.array([[c, -s], [s, c]], dtype=complex)
    right = np.diag([np.exp(1j * delta / 2), np.exp(-1j * delta / 2)])
    return left @ mid @ right


def frozen_kraus_set(spec, rng):
    """Reference: one Kraus set, its unitaries drawn one triple at a time."""
    def drawn(which):
        mean = pauli_means(which).as_array()
        return frozen_unitary(*rng.normal(mean, spec.epsilon))

    if spec.kind is ChannelKind.DEPHASING:
        mats = (I2, drawn("z"))
    else:
        mats = (I2, drawn("x"), drawn("y"), drawn("z"))
    weights = scalar_weights(spec.kind, spec.alpha, spec.p)
    return np.array([np.sqrt(w) * m for w, m in zip(weights, mats)])


def frozen_sample(spec, n_targets, rng):
    if spec.draw_policy is DrawPolicy.SHARED_ACROSS_QUBITS:
        return [frozen_kraus_set(spec, rng)] * n_targets
    return [frozen_kraus_set(spec, rng) for _ in range(n_targets)]


def test_unitary_from_params_matches_matrix_product_bitwise():
    params = np.random.default_rng(1).uniform(-4 * np.pi, 4 * np.pi, (500, 3))
    got = unitary_from_params(params)
    assert got.shape == (500, 2, 2)
    for row, u in zip(params, got):
        assert np.array_equal(u, frozen_unitary(*row))
        assert np.array_equal(unitary_from_params(UnitaryParams(*row)), u)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("policy", list(DrawPolicy))
def test_samplers_match_frozen_builder_bitwise(kind, policy):
    spec = ChannelSpec(kind, 0.3, 0.2, epsilon=0.8, draw_policy=policy)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(20):
        got = sample_per_qubit_kraus(spec, 3, rng)
        want = frozen_sample(spec, 3, ref_rng)
        for ks, ops in zip(got, want):
            assert np.array_equal(np.array(ks.operators), ops)
    seeds = [(6, k) for k in range(20)]
    w = _channel_weights(kind, _strength(kind, 0.3, 0.2))
    u = _seeded_unitaries(spec, 3, seeds)
    # sqrt(w) [I, U], as the sets carry their operators
    batch = np.sqrt(w)[:, None, None] * np.concatenate(
        [np.broadcast_to(I2, u.shape[:-3] + (1, 2, 2)), u], axis=-3)
    m = 2 if kind is ChannelKind.DEPHASING else 4
    assert batch.shape == (20, 1 if policy is DrawPolicy.SHARED_ACROSS_QUBITS else 3, m, 2, 2)
    for row, seed in zip(batch, seeds):
        want = frozen_sample(spec, 3, np.random.default_rng(np.random.SeedSequence(seed)))
        assert np.array_equal(np.broadcast_to(row, (3, m, 2, 2)), np.array(want))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_batched_kernel_equals_unbatched_calls(n):
    # a batch axis on the operators, on the state, or on both
    rng = np.random.default_rng(n)
    d, b = 2**n, 6
    a = rng.normal(size=(b, d, d)) + 1j * rng.normal(size=(b, d, d))
    rhos = a @ a.conj().transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.2, epsilon=0.8)
    targets = [n - 1, 0, 2]
    ops = _superops(_channel_weights(spec.kind, _strength(spec.kind, spec.alpha, spec.p)),
                    _basis(
        _seeded_unitaries(spec, len(targets), [(n, k) for k in range(b)])))

    def per_target(row):
        return [row[j] for j in range(len(targets))]

    batched_ops = [ops[:, j] for j in range(len(targets))]
    for rho_in, ops_in, rho_k, ops_k in (
            (rhos[0], batched_ops, lambda k: rhos[0], lambda k: per_target(ops[k])),
            (rhos, per_target(ops[0]), lambda k: rhos[k], lambda k: per_target(ops[0])),
            (rhos, batched_ops, lambda k: rhos[k], lambda k: per_target(ops[k]))):
        got = _apply_local(rho_in, ops_in, targets)
        assert got.shape == (b, d, d)
        for k in range(b):
            assert np.array_equal(got[k], _apply_local(rho_k(k), ops_k(k), targets))


def test_completeness_check_covers_every_row():
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.3, 0.2, epsilon=0.5)
    u = _seeded_unitaries(spec, 2, [(0, k) for k in range(5)])
    _basis(u)
    u[3, 1, 0] *= 1.001
    with pytest.raises(ChannelError):
        _basis(u)


def test_apply_local_channel_target_errors():
    rho = np.eye(4) / 4
    ks = deterministic_kraus(ChannelSpec(ChannelKind.DEPHASING, 0.0, 0.1))
    with pytest.raises(ChannelError):
        apply_local_channel(rho, [ks], [0, 1])
    with pytest.raises(ChannelError):
        apply_local_channel(rho, [ks, ks], [0, 0])
    with pytest.raises(ChannelError):
        apply_local_channel(rho, [ks], [5])


def test_depolarizing_is_covariant_dephasing_is_not():
    rng = np.random.default_rng(11)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    rho = dm_from_statevector(psi / np.linalg.norm(psi))
    u = unitary_from_params(UnitaryParams(1.3, 0.7, 2.1))
    u1 = np.kron(u, I2)

    ks = deterministic_kraus(ChannelSpec(ChannelKind.DEPOLARIZING, 0.4, 0.2))
    lhs = apply_local_channel(u1 @ rho @ u1.conj().T, [ks], [0])
    rhs = u1 @ apply_local_channel(rho, [ks], [0]) @ u1.conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-10

    ks = deterministic_kraus(ChannelSpec(ChannelKind.DEPHASING, 0.4, 0.2))
    lhs = apply_local_channel(u1 @ rho @ u1.conj().T, [ks], [0])
    rhs = u1 @ apply_local_channel(rho, [ks], [0]) @ u1.conj().T
    assert np.max(np.abs(lhs - rhs)) > 1e-3


def test_parse_channel():
    spec = parse_channel("dephasing:alpha=0.5,p=0.3")
    assert spec == ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.3)
    spec = parse_channel("depolarizing:alpha=0.3,p=0.1,eps=0.7,draw=shared")
    assert spec.epsilon == 0.7
    assert spec.draw_policy is DrawPolicy.SHARED_ACROSS_QUBITS
    with pytest.raises(ChannelError):
        parse_channel("foo:p=0.1")
    with pytest.raises(ChannelError):
        parse_channel("dephasing:alpha=0.5")
    with pytest.raises(ChannelError):
        parse_channel("dephasing:alpha=0.5,p=0.3,draw=sometimes")
    # "epsilon" is not the key "eps": it must not run a deterministic channel
    with pytest.raises(ChannelError, match="'epsilon'"):
        parse_channel("dephasing:alpha=0.5,p=0.1,epsilon=0.5")
    with pytest.raises(ChannelError, match="'foo', 'bar'"):
        parse_channel("depolarizing:p=0.1,foo=1,bar=2")
    for spec, match in (("dephasing:p=abc", "convert string to float: 'abc'"),
                        ("dephasing:alpha=x,p=0.1", "convert string to float: 'x'"),
                        ("dephasing:p=0.1,p=0.2", "repeated channel parameter 'p'")):
        with pytest.raises(ChannelError, match=match):
            parse_channel(spec)

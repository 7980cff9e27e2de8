from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdc.capacity import (LayoutError, PartyLayout, _block_entropy,
                          _block_entropy_and_grad, _block_objective, _capacities,
                          _env_problem, _kernel_superops, _kraus_products,
                          _marginals, _output_entropies, _Realizations,
                          bound_two_receivers, capacity_noiseless,
                          capacity_one_receiver, encode, evaluate)
from qdc.channels import (ChannelError, ChannelKind, ChannelSpec, DrawPolicy, KrausSet,
                          _basis, _channel_weights, _kron_conj, _seeded_unitaries,
                          _strength, _superops, apply_local_channel, deterministic_kraus,
                          p_range, sample_per_qubit_kraus, unitary_from_params)
from qdc.optimizer import EncodingParams, OptimizerConfig
from qdc.oracles import (bell_dephasing_spectrum, bell_depolarizing_spectrum,
                         gghz_dephasing_spectrum, theorem3_bound)
from qdc.qmath import (I2, RANK_TOL, SIGMA_Z, partial_trace, shannon_entropy,
                       von_neumann_entropy)
from qdc.states import GGHZ, GW3, GW4, Bell, WUniform, build

FAST_OPT = OptimizerConfig(max_evaluations=3000, restarts=2)


def one_row(block_rho, sups, x):
    """Entropy and gradient of one encoding: the objective's batch of one."""
    entropy, grad = _block_entropy_and_grad(
        block_rho, [np.asarray(s)[None] for s in sups], np.asarray(x)[None])
    return entropy[0], grad[0]


def test_party_layout_validation():
    lay = PartyLayout(2, 2, split=1)
    assert lay.n_qubits == 4
    assert lay.sender_indices == [0, 1]
    assert lay.receiver_indices == [2, 3]
    assert lay.blocks == [([0], 2), ([1], 3)]
    assert PartyLayout(3, 1).blocks == [([0, 1, 2], 3)]
    with pytest.raises(LayoutError):
        PartyLayout(0, 1)
    with pytest.raises(LayoutError):
        PartyLayout(2, 2)           # missing split
    with pytest.raises(LayoutError):
        PartyLayout(2, 2, split=2)
    with pytest.raises(LayoutError):
        PartyLayout(2, 1, split=1)
    with pytest.raises(LayoutError):
        PartyLayout(5, 1)           # 6 qubits
    with pytest.raises(LayoutError):
        PartyLayout(2, 1).check(np.eye(4) / 4)


def test_noiseless_ghz_capacity():
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    res = capacity_noiseless(rho, PartyLayout(2, 1))
    assert res.capacity_bits == pytest.approx(3.0, abs=1e-12)
    assert res.dense_codeable


def test_noiseless_gghz_capacity_closed_form():
    # N + H({x^2, 1-x^2}) for a pure gGHZ resource
    x = 0.6
    rho = build(GGHZ(4, x))
    res = capacity_noiseless(rho, PartyLayout(3, 1))
    expect = 3.0 + shannon_entropy([x**2, 1 - x**2])
    assert res.capacity_bits == pytest.approx(expect, abs=1e-12)


def test_product_state_not_dense_codeable():
    rho = build(GGHZ(3, 1.0))
    res = capacity_noiseless(rho, PartyLayout(2, 1))
    assert res.capacity_bits == 2.0
    assert not res.dense_codeable


@pytest.mark.parametrize("state, lay", [
    (WUniform(3), PartyLayout(2, 1)),
    (GGHZ(4, 0.6), PartyLayout(3, 1)),
    (WUniform(4), PartyLayout(2, 2, split=1)),
    (GGHZ(5, 0.8), PartyLayout(3, 2, split=2)),
])
def test_zero_noise_equals_noiseless(state, lay):
    rho = build(state)
    noiseless = capacity_noiseless(rho, lay)
    for kind in ChannelKind:
        spec = ChannelSpec(kind, 0.7, 0.0)
        res = evaluate(rho, lay, spec, optimize=False)
        assert abs(res.capacity_bits - noiseless.capacity_bits) < 1e-9
        assert res.channel_output_entropy == \
            pytest.approx(noiseless.channel_output_entropy, abs=1e-12)


def test_bell_capacities_match_appendix_spectra():
    rho = build(Bell())
    lay = PartyLayout(1, 1)
    for p, a in ((0.1, 0.0), (0.2, 0.5), (0.3, 0.9)):
        spec = ChannelSpec(ChannelKind.DEPOLARIZING, a, p)
        res = capacity_one_receiver(rho, lay, spec)
        expect = max(1.0, 2.0 - shannon_entropy(bell_depolarizing_spectrum(p, a)))
        assert res.capacity_bits == pytest.approx(expect, abs=1e-10)
    for p, a in ((0.1, 0.0), (0.25, 0.5), (0.45, 1.0)):
        spec = ChannelSpec(ChannelKind.DEPHASING, a, p)
        res = capacity_one_receiver(rho, lay, spec, optimize=False)
        expect = max(1.0, 2.0 - shannon_entropy(bell_dephasing_spectrum(p, a)))
        assert res.capacity_bits == pytest.approx(expect, abs=1e-10)


def test_covariant_channel_skips_optimization():
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.15)
    res = capacity_one_receiver(rho, PartyLayout(2, 1), spec, opt=FAST_OPT)
    assert res.encoding == EncodingParams.identity(2)


@pytest.mark.parametrize("spec, kwargs", [
    (ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.2), {"optimize": False}),
    (None, {}),
    (ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.15), {}),   # covariant
])
def test_fixed_encoding_skips_encode(monkeypatch, spec, kwargs):
    import qdc.capacity
    calls = []
    monkeypatch.setattr(qdc.capacity, "unitary_from_params",
                        lambda *a: calls.append(a) or unitary_from_params(*a))
    for state, lay in ((GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1)),
                       (GGHZ(4, 1 / np.sqrt(2)), PartyLayout(2, 2, split=1))):
        rho = build(state)
        got = evaluate(rho, lay, spec, **kwargs).channel_output_entropy
        assert calls == []
        ks = (KrausSet(np.ones(1), np.empty((0, 2, 2))) if spec is None
              else deterministic_kraus(spec))
        want = max(von_neumann_entropy(apply_local_channel(
            encode(partial_trace(rho, senders + [r]),
                   EncodingParams.identity(len(senders))),
            [ks] * len(senders), list(range(len(senders)))))
            for senders, r in lay.blocks)
        # a pure one-receiver block (all of them here but the covariant one)
        # takes the environment side: its 4x4 Gram matrix rounds otherwise
        # than the 8x8 output (3.2e-15 apart at spec0, where the 40-digit
        # value lies 1.2e-15 from got and 4.4e-15 from want)
        assert abs(got - want) <= (1e-13 if lay.n_receivers == 1 else 1e-15)
        calls.clear()


def test_objective_makes_one_kernel_pass(monkeypatch):
    # one forward pass for the value, one adjoint pass for the gradient, on
    # blocks that stay on the kernel (depolarizing, and mixed two-receiver)
    import qdc.capacity
    import qdc.channels
    kernel, passes, evaluations = qdc.channels._apply_local, [], []

    def counted(*args):
        passes.append(args)
        return kernel(*args)

    def one_evaluation(objective, n_rows, n_senders, opt):
        x = np.tile(np.linspace(0.3, 2.9, 3 * n_senders), (n_rows, 1))
        passes.clear()
        val, _ = objective(np.arange(n_rows), x)    # values and their gradients
        evaluations.append(len(passes))
        return val, x

    monkeypatch.setattr(qdc.capacity, "_apply_local", counted)
    monkeypatch.setattr(qdc.channels, "_apply_local", counted)
    monkeypatch.setattr(qdc.capacity, "minimize", one_evaluation)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.2)
    depol = ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.2, epsilon=0.5)
    evaluate(build(GGHZ(3, 1 / np.sqrt(2))), PartyLayout(2, 1), depol,
             kraus_override=sample_per_qubit_kraus(depol, 2, np.random.default_rng(1)))
    evaluate(build(GGHZ(5, 0.8)), PartyLayout(3, 2, split=2), spec)
    assert evaluations == [2, 2, 2]


def test_identity_fold_equals_unfolded_call_bitwise():
    # the states are bitwise equal (S @ (I (x) I) == S); the entropies differ only
    # by eigh against eigvalsh
    rng = np.random.default_rng(5)
    for state, lay in ((GGHZ(3, 0.6), PartyLayout(2, 1)),
                       (WUniform(4), PartyLayout(3, 1))):
        block = build(state)
        for kind in ChannelKind:
            spec = ChannelSpec(kind, 0.4, 0.2, epsilon=0.6)
            sups = [ks.superop for ks in sample_per_qubit_kraus(spec, lay.n_senders, rng)]
            val, _ = one_row(block, sups, np.zeros(3 * lay.n_senders))
            assert abs(val - _block_entropy(block, sups)) <= 1e-14


@pytest.mark.parametrize("state, lay", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1)),
    (WUniform(4), PartyLayout(3, 1)),
    (GGHZ(5, 0.8), PartyLayout(3, 2, split=2)),
])
def test_block_entropy_gradient_matches_central_differences(state, lay):
    rng = np.random.default_rng(8)
    rho, h = build(state), 1e-5
    for kind in ChannelKind:
        spec = ChannelSpec(kind, 0.4, 0.2, epsilon=0.6)
        sups = [ks.superop for ks in sample_per_qubit_kraus(spec, lay.n_senders, rng)]
        for senders, receiver in lay.blocks:
            block = (partial_trace(rho, senders + [receiver]), [sups[q] for q in senders])
            x = rng.uniform(0, 4 * np.pi, 3 * len(senders))
            _, grad = one_row(*block, x)
            steps = h * np.eye(x.size)
            central = [(one_row(*block, x + e)[0] - one_row(*block, x - e)[0]) / (2 * h)
                       for e in steps]
            assert np.max(np.abs(grad - central)) <= 1e-7


@pytest.mark.parametrize("state, lay", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1)),
    (WUniform(4), PartyLayout(3, 1)),
    (GGHZ(5, 0.8), PartyLayout(3, 2, split=2)),     # blocks of two senders and one
])
def test_batched_objective_rows_equal_one_row_calls(state, lay):
    # the lockstep optimizer relies on it: a row must not depend on the rows
    # it is evaluated with
    rng = np.random.default_rng(12)
    rho = build(state)
    for kind in ChannelKind:
        spec = ChannelSpec(kind, 0.4, 0.2, epsilon=0.6)
        sups = _superops(_channel_weights(kind, _strength(kind, 0.4, 0.2)), _basis(_seeded_unitaries(
            spec, lay.n_senders, [(3, k) for k in range(5)])))
        for senders, receiver in lay.blocks:
            block = partial_trace(rho, senders + [receiver])
            ops = [sups[:, q] for q in senders]
            x = rng.uniform(0, 4 * np.pi, (5, 3 * len(senders)))
            values, grads = _block_entropy_and_grad(block, ops, x)
            some = np.array([3, 1])
            sub_values, sub_grads = _block_objective(block, ops, some, x[some])
            assert np.array_equal(sub_values, values[some])
            assert np.array_equal(sub_grads, grads[some])
            for i in range(5):
                value, grad = one_row(block, [o[i] for o in ops], x[i])
                assert value == values[i] and np.array_equal(grad, grads[i])


def test_optimization_never_hurts():
    rho = build(WUniform(3))
    lay = PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.2)
    res_id = capacity_one_receiver(rho, lay, spec, optimize=False)
    res_opt = capacity_one_receiver(rho, lay, spec, opt=FAST_OPT)
    assert res_opt.capacity_bits >= res_id.capacity_bits - 1e-12


def test_two_receiver_flatness():
    for x in (0.4, 1 / np.sqrt(2), 0.85):
        rho = build(GGHZ(4, x))
        lay = PartyLayout(2, 2, split=1)
        for p, a in ((0.1, 0.0), (0.4, 0.9)):
            spec = ChannelSpec(ChannelKind.DEPHASING, a, p)
            res = bound_two_receivers(rho, lay, spec, optimize=False)
            assert res.capacity_bits == pytest.approx(theorem3_bound(x), abs=1e-9)


def test_two_receiver_noiseless_w4():
    rho = build(WUniform(4))
    res = capacity_noiseless(rho, PartyLayout(2, 2, split=1))
    # each receiver marginal is diag(3/4, 1/4); each block state is an even
    # mixture of |00> and the one-excitation Bell state, spectrum {1/2, 1/2}
    term = shannon_entropy([0.75, 0.25])
    out = shannon_entropy([0.5, 0.5])
    assert res.capacity_bits == pytest.approx(2 + 2 * term - out, abs=1e-10)


def test_kraus_override_and_rng_requirements():
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.3, 0.2, epsilon=0.5)
    with pytest.raises(ValueError, match="kraus_override"):
        capacity_one_receiver(rho, lay, spec, optimize=False)
    with pytest.raises(TypeError):
        capacity_one_receiver(rho, lay, spec, optimize=False,
                              rng=np.random.default_rng(2))
    kraus = sample_per_qubit_kraus(spec, 2, np.random.default_rng(2))
    capacity_one_receiver(rho, lay, spec, kraus_override=kraus, optimize=False)
    with pytest.raises(LayoutError):
        capacity_one_receiver(rho, lay, spec, kraus_override=kraus[:1])


def test_kraus_override_must_be_the_specs_channel():
    # the override's weights are bitwise the spec's, so a set of another p,
    # alpha or kind, or one given without a spec, names another channel
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 1)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.3, 0.2, epsilon=0.5)
    rng = np.random.default_rng(2)
    for policy in DrawPolicy:
        same = replace(spec, draw_policy=policy)
        evaluate(rho, lay, same, kraus_override=sample_per_qubit_kraus(same, 2, rng),
                 optimize=False)
    det = replace(spec, epsilon=0.0)
    evaluate(rho, lay, det, kraus_override=[deterministic_kraus(det)] * 2)
    for other in (replace(spec, p=0.4), replace(spec, p=float(np.nextafter(0.2, 1))),
                  replace(spec, alpha=0.5),
                  replace(spec, kind=ChannelKind.DEPOLARIZING)):
        for ks in (sample_per_qubit_kraus(other, 2, rng),
                   [deterministic_kraus(other)] * 2):
            with pytest.raises(ChannelError, match="kraus_override is not"):
                evaluate(rho, lay, spec, kraus_override=ks, optimize=False)
    for ks in (sample_per_qubit_kraus(spec, 2, rng), [deterministic_kraus(det)] * 2):
        with pytest.raises(ChannelError, match="needs the spec"):
            evaluate(rho, lay, None, kraus_override=ks)


def test_encode_applies_local_unitaries():
    rho = build(GGHZ(3, 1 / np.sqrt(2)))
    enc = EncodingParams.identity(2)
    assert np.allclose(encode(rho, enc), rho)


def full_register_block_entropy(rho, lay, kraus, encoding, block):
    """Reference: encode and apply noise on the whole register with
    np.kron-lifted operators, then trace down to the block."""
    n = lay.n_qubits

    def lift(op, target):
        out = np.array([[1.0 + 0j]])
        for q in range(n):
            out = np.kron(out, op if q == target else I2)
        return out

    for q, u in enumerate(encoding.per_sender):
        big_u = lift(unitary_from_params(u), q)
        rho = big_u @ rho @ big_u.conj().T
    for q, ks in enumerate(kraus):
        lifted = [lift(k, q) for k in ks.operators]
        rho = sum(op @ rho @ op.conj().T for op in lifted)
    senders, receiver = block
    return von_neumann_entropy(partial_trace(rho, senders + [receiver]))


@pytest.mark.parametrize("state, lay", [
    (GGHZ(4, 0.6), PartyLayout(2, 2, split=1)),
    (WUniform(4), PartyLayout(2, 2, split=1)),
    (GGHZ(5, 0.8), PartyLayout(3, 2, split=1)),
    (GGHZ(5, 0.8), PartyLayout(3, 2, split=2)),
])
def test_trace_first_block_entropy_matches_full_register(state, lay):
    rng = np.random.default_rng(17)
    rho = build(state)
    for kind in ChannelKind:
        spec = ChannelSpec(kind, 0.3, 0.2, epsilon=0.8)
        kraus = sample_per_qubit_kraus(spec, lay.n_senders, rng)
        enc = EncodingParams.from_flat(rng.uniform(0, 2 * np.pi, 3 * lay.n_senders))
        for block in lay.blocks:
            senders, receiver = block
            got, _ = one_row(
                partial_trace(rho, senders + [receiver]),
                [kraus[q].superop for q in senders],
                np.concatenate([enc.per_sender[q].as_array() for q in senders]))
            want = full_register_block_entropy(rho, lay, kraus, enc, block)
            assert got == pytest.approx(want, abs=1e-12)


def test_evaluate_dispatch():
    rho = build(GGHZ(4, 1 / np.sqrt(2)))
    lay = PartyLayout(2, 2, split=1)
    assert evaluate(rho, lay, None).capacity_bits == pytest.approx(3.0)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.0, 0.3)
    assert evaluate(rho, lay, spec, optimize=False).capacity_bits == \
        pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("state, lay", [
    (GGHZ(3, 0.6), PartyLayout(2, 1)),
    (WUniform(4), PartyLayout(3, 1)),
    (GGHZ(4, 1 / np.sqrt(2)), PartyLayout(2, 2, split=1)),
    (WUniform(4), PartyLayout(2, 2, split=1)),
])
def test_receiver_phase_makes_rho_complex_not_the_capacity(state, lay):
    # a local unitary on the receivers changes none of the entropies, but it
    # makes rho complex, so the same capacity then runs in complex arithmetic
    rho = build(state)
    phase = np.array([[1.0]])
    for q in range(lay.n_qubits):
        local = np.diag([1, np.exp(0.7j * q)]) if q in lay.receiver_indices else I2
        phase = np.kron(phase, local)
    rotated = phase @ rho @ phase.conj().T
    assert rho.dtype == np.float64 and np.max(np.abs(rotated.imag)) > 0.1
    above = 0
    for kind in ChannelKind:
        for p in (0.02, 0.1, 0.2):
            spec = ChannelSpec(kind, 0.5, p)
            real = evaluate(rho, lay, spec, optimize=False).capacity_bits
            complex_ = evaluate(rotated, lay, spec, optimize=False).capacity_bits
            assert abs(real - complex_) <= 1e-13
            above += real > lay.n_senders + 1e-3
    assert above > 0


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
def test_every_p_a_spec_admits_has_a_capacity(kind, alpha):
    # ChannelSpec admits p up to 1e-12 past the end of its range; there the
    # identity's weight 1 - q is clamped at 0, as it reads at the end itself
    rho, lay = build(GGHZ(3, 1 / np.sqrt(2))), PartyLayout(2, 1)
    hi = p_range(ChannelSpec(kind, alpha, 0.0))[1]
    at_end, past = (evaluate(rho, lay, ChannelSpec(kind, alpha, p), optimize=False)
                    for p in (hi, hi + 5e-13))
    assert abs(past.capacity_bits - at_end.capacity_bits) < 1e-9


# --- the environment side: pure one-receiver blocks under dephasing ---------

def _dephasing_noise(n_senders, alpha, p, drawn, seed):
    """Weights ``(1, 2)`` and the realizations of one exact or drawn
    dephasing channel per sender."""
    spec = ChannelSpec(ChannelKind.DEPHASING, alpha, p, epsilon=0.7 if drawn else 0.0)
    u = (_seeded_unitaries(spec, n_senders, [(seed, 0)]) if drawn
         else np.broadcast_to(SIGMA_Z, (1, 1, 1, 2, 2)))
    return (_channel_weights(spec.kind, _strength(spec.kind, alpha, [p])),
            _Realizations.of(u, n_senders))


@settings(max_examples=80, deadline=None)
@given(n_qubits=st.integers(2, 5), complex_state=st.booleans(), drawn=st.booleans(),
       alpha=st.floats(0.0, 1.0), p=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
       encoded=st.booleans(), seed=st.integers(0, 2**32 - 1))
# the kernel's output in both has 16 of its 32 eigenvalues within 4e-17 of
# 0; taking their logs (~ -56) would put 1.3e-13 and 1.0e-13 of the
# eigensolver's rounding into the gradient (qmath.RANK_TOL)
@example(n_qubits=5, complex_state=False, drawn=False, alpha=0.0, p=0.36025010601935087,
         encoded=False, seed=58938312)
@example(n_qubits=5, complex_state=False, drawn=False, alpha=0.0808580699503545,
         p=0.24344831055981364, encoded=False, seed=3194393015)
def test_environment_side_equals_the_kernel(n_qubits, complex_state, drawn, alpha,
                                            p, encoded, seed):
    rng = np.random.default_rng(seed)
    d, n = 2**n_qubits, n_qubits - 1
    psi = rng.normal(size=d) + (1j * rng.normal(size=d) if complex_state else 0.0)
    rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    (block, senders, vecs), = _marginals(rho, PartyLayout(n, 1)).blocks
    assert vecs.shape[1] == 1                   # pure: 2^n Kraus products < d
    weights, real = _dephasing_noise(n, alpha, p, drawn, seed)
    x = rng.uniform(0, 4 * np.pi, (1, 3 * n)) if encoded else np.zeros((1, 3 * n))
    env = _env_problem(vecs, _kraus_products(weights, real, senders, 0, 1))
    sups = _kernel_superops(weights, real, 0, 1)
    got, got_grad = env(np.arange(1), x)
    want, want_grad = _block_entropy_and_grad(block, sups, x)
    assert abs(got[0] - want[0]) <= 1e-13
    assert np.max(np.abs(got_grad - want_grad)) <= 1e-13
    # the fixed encoding: the unit-weight Gram matrix scaled by the weights
    fixed, _ = _output_entropies(_marginals(rho, PartyLayout(n, 1)), weights, real,
                                 0, 1, FAST_OPT, False)
    assert abs(fixed[0] - _block_entropy(block, sups)[0]) <= 1e-13


def test_environment_side_of_a_rank_two_block():
    # r = 2 under no noise (m = 1): r m^n = 2 < 8.  With the senders sharing
    # their weights, a block of rank r >= 2 takes the environment side only
    # at m = 1, since r m^n < 2^(n+1) forces it
    rng = np.random.default_rng(9)
    a = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    (block, senders, vecs), = _marginals(rho, PartyLayout(2, 1)).blocks
    assert vecs.shape[1] == 2
    real = _Realizations((np.empty((1, 0, 2, 2)),) * 2)
    weights = np.ones((1, 1))
    x = rng.uniform(0, 4 * np.pi, (1, 6))
    got, got_grad = _env_problem(vecs, _kraus_products(weights, real, senders, 0, 1))(
        np.arange(1), x)
    want, want_grad = _block_entropy_and_grad(block, _kernel_superops(weights, real, 0, 1), x)
    assert abs(got[0] - want[0]) <= 1e-13
    assert np.max(np.abs(got_grad - want_grad)) <= 1e-13
    fixed, _ = _output_entropies(_marginals(rho, PartyLayout(2, 1)), weights, real, 0, 1,
                                 FAST_OPT, False)
    assert abs(fixed[0] - _block_entropy(block, _kernel_superops(weights, real, 0, 1))[0]) \
        <= 1e-13


@pytest.mark.parametrize("state, lay", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1)),
    (WUniform(4), PartyLayout(3, 1)),
    (GGHZ(5, 0.8), PartyLayout(4, 1)),
])
def test_environment_side_rows_equal_one_row_calls(state, lay):
    # objective rows, and fixed-encoding (p, realization) cells, bit for bit,
    # for a drawn family (a full-rank Gram matrix) and the exact-Pauli one
    # (the Gram matrix's range for GHZ and W)
    rho, n, rng = build(state), lay.n_senders, np.random.default_rng(4)
    marg = _marginals(rho, lay)
    (_, senders, vecs), = marg.blocks
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.6, 0.0, epsilon=0.5)
    weights = _channel_weights(spec.kind, _strength(spec.kind, spec.alpha,
                                                    [0.0, 0.1, 0.3]))
    for real in (_Realizations.of(_seeded_unitaries(spec, n, [(2, k) for k in range(3)]), n),
                 _Realizations.of(np.broadcast_to(SIGMA_Z, (1, 1, 1, 2, 2)), n)):
        n_r = len(real)
        noise = _kraus_products(weights, real, senders, 0, n_r)
        x = rng.uniform(0, 4 * np.pi, (3 * n_r, 3 * n))
        values, grads = _env_problem(vecs, noise)(np.arange(len(x)), x)
        some = np.array([len(x) - 2, 2])
        sub_values, sub_grads = _env_problem(vecs, noise)(some, x[some])
        assert np.array_equal(sub_values, values[some])
        assert np.array_equal(sub_grads, grads[some])
        caps = _capacities(marg, weights, real)
        for i in range(len(x)):
            a, b = divmod(i, n_r)
            one = _kraus_products(weights[a:a + 1], real, senders, b, b + 1)
            value, grad = _env_problem(vecs, one)(np.arange(1), x[i:i + 1])
            assert value[0] == values[i] and np.array_equal(grad[0], grads[i])
            assert caps[a, b] == _capacities(marg, weights[a:a + 1], real, b, b + 1)[0, 0]


def _eigensolver_sizes(monkeypatch) -> list[int]:
    """The sizes of the matrices ``np.linalg.eigvalsh`` gets from here on."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: sizes.append(a.shape[-1]) or eigvalsh(a))
    return sizes


@pytest.mark.parametrize("x", [1 / np.sqrt(2), 0.6, 0.8])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_dephased_gghz_reads_two_by_two_spectra(monkeypatch, n, x):
    # Z errors map gGHZ to two vectors, so the output has rank 2: its
    # fixed-encoding entropy is read from a 2x2 matrix on the unit-weight
    # Gram matrix's range and equals the closed-form spectrum's
    marg = _marginals(build(GGHZ(n + 1, x)), PartyLayout(n, 1))
    real = _Realizations.of(np.broadcast_to(SIGMA_Z, (1, 1, 1, 2, 2)), n)
    ps = [0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5]
    sizes = _eigensolver_sizes(monkeypatch)
    for alpha in (0.0, 0.3, 0.5, 0.9):
        weights = _channel_weights(ChannelKind.DEPHASING,
                                   _strength(ChannelKind.DEPHASING, alpha, ps))
        got, _ = _output_entropies(marg, weights, real, 0, 1, FAST_OPT, False)
        for p, entropy in zip(ps, got):
            want = shannon_entropy(gghz_dephasing_spectrum(n, x, p, alpha)[1])
            assert abs(entropy - want) <= 1e-14, (alpha, p)
    assert set(sizes) == {2}


@pytest.mark.parametrize("n", [2, 3])
def test_dephased_w_reads_n_plus_one_spectra(monkeypatch, n):
    # Z errors map W_(n+1) into the span of |0...0>|1> and the n states
    # with one sender excited: rank n + 1 of the 2^n vectors
    marg = _marginals(build(WUniform(n + 1)), PartyLayout(n, 1))
    real = _Realizations.of(np.broadcast_to(SIGMA_Z, (1, 1, 1, 2, 2)), n)
    weights = _channel_weights(ChannelKind.DEPHASING,
                               _strength(ChannelKind.DEPHASING, 0.5, [0.1, 0.3]))
    sizes = _eigensolver_sizes(monkeypatch)
    got, _ = _output_entropies(marg, weights, real, 0, 1, FAST_OPT, False)
    assert set(sizes) == {n + 1}
    want = _block_entropy(marg.blocks[0][0], _kernel_superops(weights, real, 0, 1))
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("state, lay", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1)),
    (WUniform(4), PartyLayout(3, 1)),
    (GGHZ(5, 1 / np.sqrt(2)), PartyLayout(4, 1)),
])
def test_drawn_dephasing_family_reads_the_full_gram_matrix(monkeypatch, state, lay):
    # drawn unitaries leave the M r vectors independent: the full Gram
    # matrix, s s^T o G, as before
    n = lay.n_senders
    marg = _marginals(build(state), lay)
    spec = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.0, epsilon=0.5)
    real = _Realizations.of(_seeded_unitaries(spec, n, [(5, k) for k in range(4)]), n)
    weights = _channel_weights(spec.kind, _strength(spec.kind, spec.alpha, [0.1, 0.3]))
    sizes = _eigensolver_sizes(monkeypatch)
    _output_entropies(marg, weights, real, 0, len(real), FAST_OPT, False)
    assert set(sizes) == {2**n}


def test_environment_side_dispatch(monkeypatch):
    # pure one-receiver blocks under dephasing (r M < d) take the environment
    # side and make no kernel pass; two-receiver blocks (mixed), depolarizing
    # noise (M = 4^n) and a state with one eigenvalue above RANK_TOL do not
    import qdc.capacity
    kernel, env = [], []
    for name, calls in (("_apply_local", kernel), ("_outputs", env)):
        monkeypatch.setattr(qdc.capacity, name, lambda *a, f=getattr(qdc.capacity, name),
                            calls=calls: calls.append(1) or f(*a))

    def route(rho, lay, spec, **kwargs) -> set:
        kernel.clear()
        env.clear()
        evaluate(rho, lay, spec, opt=OptimizerConfig(max_evaluations=20, restarts=1),
                 **kwargs)
        return {name for name, calls in (("kernel", kernel), ("env", env)) if calls}

    deph = ChannelSpec(ChannelKind.DEPHASING, 0.5, 0.2)
    depol = ChannelSpec(ChannelKind.DEPOLARIZING, 0.5, 0.2, epsilon=0.5)
    ghz3 = build(GGHZ(3, 1 / np.sqrt(2)))
    for optimize in (False, True):
        assert route(ghz3, PartyLayout(2, 1), deph, optimize=optimize) == {"env"}
        assert route(build(GGHZ(4, 0.6)), PartyLayout(2, 2, split=1), deph,
                     optimize=optimize) == {"kernel"}
        assert route(build(GGHZ(5, 0.8)), PartyLayout(3, 2, split=2), deph,
                     optimize=optimize) == {"kernel"}
        assert route(ghz3, PartyLayout(2, 1), depol, optimize=optimize,
                     kraus_override=sample_per_qubit_kraus(
                         depol, 2, np.random.default_rng(1))) == {"kernel"}
        other = np.zeros((8, 8))
        other[1, 1] = 1.0                       # |001>, orthogonal to GHZ
        for weight, want in ((2 * RANK_TOL, {"kernel"}), (RANK_TOL / 2, {"env"})):
            rho = (1 - weight) * ghz3 + weight * other
            assert route(rho, PartyLayout(2, 1), deph, optimize=optimize) == want


@pytest.mark.parametrize("state, lay", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1)),
    (GGHZ(3, 0.6), PartyLayout(2, 1)),
    (WUniform(3), PartyLayout(2, 1)),
    (GW3(0.2, 0.3), PartyLayout(2, 1)),
    (GGHZ(4, 1 / np.sqrt(2)), PartyLayout(3, 1)),
    (GGHZ(4, 0.8), PartyLayout(3, 1)),
    (WUniform(4), PartyLayout(3, 1)),
    (GW4(0.1, 0.2, 0.3), PartyLayout(3, 1)),
    (GGHZ(5, 1 / np.sqrt(2)), PartyLayout(4, 1)),
    (GGHZ(5, 0.7), PartyLayout(4, 1)),
])
def test_environment_side_capacities_equal_the_kernel(state, lay):
    # every pure one-receiver dephasing layout, with both encodings: the
    # capacity the dispatch gives against the kernel's
    rho = build(state)
    marg = _marginals(rho, lay)
    (block, senders, vecs), = marg.blocks
    assert vecs.shape[1] == 1                   # pure: the environment side
    opt = OptimizerConfig(max_evaluations=200, restarts=1)
    for alpha, p in ((0.0, 0.1), (0.5, 0.2), (0.9, 0.45)):
        weights, real = _dephasing_noise(lay.n_senders, alpha, p, False, 0)
        sups = _kernel_superops(weights, real, 0, 1)
        for optimize in (False, True):
            got, x = _output_entropies(marg, weights, real, 0, 1, opt, optimize)
            want, _ = _block_entropy_and_grad(block, sups, x)
            assert abs(got[0] - want[0]) <= 1e-13


@pytest.mark.parametrize("state, lay", [
    (GGHZ(3, 1 / np.sqrt(2)), PartyLayout(2, 1)),
    (WUniform(4), PartyLayout(3, 1)),
    (GGHZ(4, 1 / np.sqrt(2)), PartyLayout(2, 2, split=1)),
    (WUniform(4), PartyLayout(2, 2, split=1)),
])
def test_optimized_entropy_equals_a_recompute_at_its_encoding(state, lay):
    # the optimizer's entropy and von_neumann_entropy read a spectrum alike
    # (qmath.RANK_TOL): each block recomputed with the kernel at the optimized
    # encoding (von_neumann_entropy, as _block_entropy takes it) gives the
    # reported output entropy, on either route
    rho = build(state)
    marg = _marginals(rho, lay)
    for kind in ChannelKind:
        for (alpha, p), policy in product(((0.5, 0.2), (0.9, 0.05), (0.3, 0.3)),
                                          DrawPolicy):
            spec = ChannelSpec(kind, alpha, p, epsilon=0.5, draw_policy=policy)
            kraus = sample_per_qubit_kraus(spec, lay.n_senders, np.random.default_rng(11))
            res = evaluate(rho, lay, spec, kraus_override=kraus)
            u = unitary_from_params(res.encoding.to_flat().reshape(-1, 3))
            want = max(_block_entropy(block, [kraus[q].superop @ _kron_conj(u[q])
                                              for q in senders])
                       for block, senders, _ in marg.blocks)
            assert abs(res.channel_output_entropy - want) <= 1e-14, (kind, alpha, p, policy)

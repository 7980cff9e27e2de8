import numpy as np
import pytest

from qdc.states import (GGHZ, GW3, GW4, Bell, StateError, WUniform, build,
                        parse_state, state_qubits, statevector, w_half)


def test_gghz_amplitudes():
    psi = statevector(GGHZ(3, 0.6))
    assert psi[0] == pytest.approx(0.6)
    assert psi[7] == pytest.approx(0.8)
    assert np.count_nonzero(psi) == 2


def test_gw3_amplitudes_big_endian():
    psi = statevector(GW3(0.5, 0.25))
    # |001>, |010>, |100> with qubit 0 the most significant bit
    assert psi[0b001] == pytest.approx(np.sqrt(0.5))
    assert psi[0b010] == pytest.approx(np.sqrt(0.25))
    assert psi[0b100] == pytest.approx(np.sqrt(0.25))


def test_gw4_amplitudes():
    psi = statevector(GW4(0.4, 0.3, 0.2))
    assert psi[0b0001] == pytest.approx(np.sqrt(0.4))
    assert psi[0b1000] == pytest.approx(np.sqrt(0.1))


def test_w_uniform():
    psi = statevector(WUniform(4))
    for k in range(4):
        assert psi[1 << k] == pytest.approx(0.5)


def test_bell():
    psi = statevector(Bell())
    assert np.allclose(psi, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


@pytest.mark.parametrize("state", [GGHZ(3, 0.3), GGHZ(5, 1.0), GW3(0.2, 0.5),
                                   GW4(0.25, 0.25, 0.25), WUniform(3), Bell()])
def test_normalization_and_build(state):
    psi = statevector(state)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    rho = build(state)
    assert rho.shape == (2**state_qubits(state),) * 2
    assert np.trace(rho) == pytest.approx(1.0)


def test_w_half():
    assert w_half(3, 0.2) == GW3(0.5, 0.2)
    assert w_half(4, 0.2, 0.1) == GW4(0.5, 0.2, 0.1)
    with pytest.raises(StateError):
        w_half(3, 0.7)
    with pytest.raises(StateError):
        w_half(4, 0.2)


def test_parameter_validation():
    with pytest.raises(StateError):
        GGHZ(6, 0.5)
    with pytest.raises(StateError):
        GGHZ(3, 1.2)
    with pytest.raises(StateError):
        GW3(0.7, 0.7)
    with pytest.raises(StateError):
        WUniform(5)


def test_nan_weights_rejected():
    # every comparison with NaN is False, so a check written as "x < 0 or
    # sum > 1" lets a NaN weight through
    nan = float("nan")
    for make in (lambda: GGHZ(3, nan), lambda: GW3(nan, 0.2), lambda: GW3(0.1, nan),
                 lambda: GW4(nan, 0.2, 0.1), lambda: GW4(0.1, nan, 0.1),
                 lambda: GW4(0.1, 0.2, nan), lambda: w_half(3, nan),
                 lambda: w_half(4, nan, 0.1), lambda: w_half(4, 0.1, nan)):
        with pytest.raises(StateError):
            make()


def test_parse_state():
    assert parse_state("gghz:n=3,x=0.7071") == GGHZ(3, 0.7071)
    assert parse_state("gw3:a=0.5,b=0.25") == GW3(0.5, 0.25)
    assert parse_state("w:n=4") == WUniform(4)
    assert parse_state("bell") == Bell()
    assert parse_state("whalf:n=3,b=0.2") == GW3(0.5, 0.2)
    with pytest.raises(StateError):
        parse_state("gghz:n=3")
    with pytest.raises(StateError):
        parse_state("foo:n=3")
    with pytest.raises(StateError):
        parse_state("gghz:n3")
    assert parse_state("w:n=3.0") == WUniform(3)
    for spec, match in (("gghz:n=3,x=abc", "not a finite number"),
                        ("w:n=nan", "not an integer"),
                        ("gw3:a=inf,b=0.2", "not a finite number"),
                        ("gghz:n=3.7,x=0.7", "not an integer"),
                        ("gghz:n=3,x=0.7,x=0.5", "repeated state parameter 'x'")):
        with pytest.raises(StateError, match=match):
            parse_state(spec)
    for spec in ("gghz:n=3,x=0.7,foo=1", "bell:x=0.5", "whalf:n=3,b=0.2,d=0.1"):
        with pytest.raises(StateError, match="unknown state parameter"):
            parse_state(spec)

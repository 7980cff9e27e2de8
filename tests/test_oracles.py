import numpy as np
import pytest

from qdc.oracles import (OracleReport, bell_dephasing_spectrum,
                         bell_depolarizing_spectrum,
                         bell_depolarizing_threshold,
                         dephasing_coherence_factor, gghz_dephasing_spectrum,
                         pa_closed_form, pc_closed_form, run_all_oracles,
                         theorem1_check, theorem3_bound)


def test_gghz_spectrum_trivial_and_normalized():
    m, nm = gghz_dephasing_spectrum(2, 0.7, 0.0, 0.5)
    assert m == pytest.approx((1.0, 0.0))
    assert nm == pytest.approx((1.0, 0.0))
    m, nm = gghz_dephasing_spectrum(3, 0.6, 0.3, 0.8)
    assert sum(m) == pytest.approx(1.0)
    assert sum(nm) == pytest.approx(1.0)


def test_gghz_spectrum_collapses_at_closed_form_root():
    for alpha in (0.3, 0.7, 1.0):
        p = pc_closed_form(alpha)
        _, nm = gghz_dephasing_spectrum(4, 1 / np.sqrt(2), p, alpha)
        assert nm == pytest.approx((0.5, 0.5), abs=1e-12)


def test_gghz_spectrum_matches_numeric_channel():
    from qdc.capacity import PartyLayout
    from qdc.channels import ChannelKind, ChannelSpec, apply_local_channel, \
        deterministic_kraus
    from qdc.states import GGHZ, build

    n, x, p, a = 2, 0.6, 0.3, 0.5
    rho = build(GGHZ(n + 1, x))
    ks = deterministic_kraus(ChannelSpec(ChannelKind.DEPHASING, a, p))
    out = apply_local_channel(rho, [ks] * n, list(range(n)))
    evals = np.linalg.eigvalsh(out)[::-1]
    _, nm = gghz_dephasing_spectrum(n, x, p, a)
    assert evals[0] == pytest.approx(max(nm), abs=1e-8)
    assert evals[1] == pytest.approx(min(nm), abs=1e-8)


def test_pc_closed_form():
    assert pc_closed_form(1.0) == pytest.approx((2 - np.sqrt(2)) / 2)
    assert pc_closed_form(0.5) == pytest.approx(0.38197, abs=5e-6)
    assert pc_closed_form(0.0) == 0.5
    assert pc_closed_form(1e-9) == pytest.approx(0.5, abs=1e-6)
    # root property of the coherence factor
    for a in np.linspace(0.05, 1.0, 15):
        assert abs(dephasing_coherence_factor(pc_closed_form(a), a)) < 1e-12


def test_pa_closed_form():
    assert pa_closed_form(0.5) == pytest.approx(0.43845, abs=5e-6)
    assert pa_closed_form(0.9) == pytest.approx(0.39268, abs=5e-6)
    assert pa_closed_form(0.0) == 0.5
    for a in np.linspace(0.01, 1.0, 25):
        assert pa_closed_form(a) >= pc_closed_form(a)


def test_theorem3_bound():
    assert theorem3_bound(1 / np.sqrt(2)) == pytest.approx(3.0)
    assert theorem3_bound(1.0) == pytest.approx(2.0)
    assert theorem3_bound(0.6) == pytest.approx(2.9427, abs=5e-5)


def test_bell_depolarizing_spectrum():
    assert bell_depolarizing_spectrum(0.0, 0.7) == pytest.approx([1, 0, 0, 0])
    spec = bell_depolarizing_spectrum(0.2, 0.5)
    assert spec[0] == pytest.approx(0.56)
    assert spec[1] == pytest.approx(0.44 / 3)
    assert sum(spec) == pytest.approx(1.0)


def test_bell_dephasing_spectrum():
    assert bell_dephasing_spectrum(0.0, 0.3) == pytest.approx((1.0, 0.0))
    assert bell_dephasing_spectrum(0.5, 0.0) == pytest.approx((0.5, 0.5))
    lo_nm = bell_dephasing_spectrum(0.5, 1.0)[1]
    lo_m = bell_dephasing_spectrum(0.5, 0.0)[1]
    assert lo_m - lo_nm == pytest.approx(0.0, abs=1e-12) or lo_nm < lo_m


def test_bell_dephasing_nm_capacity_gap_near_claimed_maximum():
    # near full non-Markovianity the capacity advantage over the Markovian
    # channel, 2 - H(spec_nm) - (2 - H(spec_m)), peaks at roughly 0.18 bits
    from qdc.qmath import shannon_entropy
    gap = max(shannon_entropy(bell_dephasing_spectrum(p, 0.0))
              - shannon_entropy(bell_dephasing_spectrum(p, 1.0))
              for p in np.linspace(0.0, 0.5, 501))
    assert gap == pytest.approx(0.1887, abs=1e-3)


def test_bell_depolarizing_threshold():
    assert bell_depolarizing_threshold(0.0) == pytest.approx(0.189, abs=1e-3)


def test_theorem1_check_passes():
    rep = theorem1_check(2, 0.6, 0.5, 0.2)
    assert isinstance(rep, OracleReport)
    assert rep.passed
    assert theorem1_check(2, 1.0, 0.3, 0.2).passed   # product state: trivial


def test_run_all_oracles_fast():
    reports = run_all_oracles(fast=True)
    assert all(r.passed for r in reports), \
        [r.name for r in reports if not r.passed]

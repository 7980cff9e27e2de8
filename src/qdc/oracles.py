"""Closed-form reference values used as independent checks of the pipeline.

Every function here is implemented directly from the analytic expressions
(never by calling the numeric channel/capacity code), so agreement between
the two routes is a meaningful test.  ``run_all_oracles`` bundles the checks
behind the ``validate`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import check_density_matrix, shannon_entropy


@dataclass(frozen=True)
class OracleReport:
    name: str
    numeric_value: float
    closed_form_value: float
    abs_error: float
    passed: bool


def _spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a checked density matrix, sorted descending."""
    check_density_matrix(rho)
    return np.linalg.eigvalsh(rho)[::-1]


def _report(name: str, numeric: float, closed: float, tol: float) -> OracleReport:
    err = abs(numeric - closed)
    return OracleReport(name, float(numeric), float(closed), float(err), bool(err <= tol))


def dephasing_coherence_factor(p: float, alpha: float) -> float:
    """The per-qubit off-diagonal damping factor 1 - 2p + 2(p-1)p*alpha."""
    return 1.0 - 2.0 * p + 2.0 * (p - 1.0) * p * alpha


def gghz_dephasing_spectrum(n_senders: int, x: float, p: float,
                            alpha: float) -> tuple[tuple[float, float],
                                                   tuple[float, float]]:
    """Nonzero eigenvalue pairs of the dephased gGHZ output state.

    Returns (markovian pair, non_markovian pair); each pair is
    1/2 (1 +- sqrt(1 - 4(-1 + m^{2N}) x^2 (x^2 - 1))) with m the coherence
    factor at alpha = 0 and at the given alpha respectively.
    """
    def pair(m: float) -> tuple[float, float]:
        root = np.sqrt(1.0 - 4.0 * (-1.0 + m**(2 * n_senders)) * x**2 * (x**2 - 1.0))
        return (0.5 * (1.0 + root), 0.5 * (1.0 - root))

    return pair(dephasing_coherence_factor(p, 0.0)), \
        pair(dephasing_coherence_factor(p, alpha))


def pc_closed_form(alpha: float) -> float:
    """Dephasing collapse strength (1 + a - sqrt(1 + a^2)) / (2a).

    Continuous extension 1/2 at alpha = 0.
    """
    if alpha == 0.0:
        return 0.5
    return (1.0 + alpha - np.sqrt(1.0 + alpha**2)) / (2.0 * alpha)


def pa_closed_form(alpha: float) -> float:
    """Dephasing non-Markovian-advantage strength (2 + a - sqrt(4 + a^2)) / (2a).

    Continuous extension 1/2 at alpha = 0.
    """
    if alpha == 0.0:
        return 0.5
    return (2.0 + alpha - np.sqrt(4.0 + alpha**2)) / (2.0 * alpha)


def theorem3_bound(x: float) -> float:
    """Two-receiver bound 2 + H({x^2, 1-x^2}) for a 4-qubit gGHZ resource."""
    return 2.0 + shannon_entropy([x**2, 1.0 - x**2])


def bell_depolarizing_spectrum(p: float, alpha: float) -> list[float]:
    """{x, (1-x)/3 x3} with x = (1-p)(1-3*alpha*p)."""
    x = (1.0 - p) * (1.0 - 3.0 * alpha * p)
    return [x, (1.0 - x) / 3.0, (1.0 - x) / 3.0, (1.0 - x) / 3.0]


def bell_dephasing_spectrum(p: float, alpha: float) -> tuple[float, float]:
    """1/2 (1 +- sqrt(1 + 4p(p-1)(alpha(p-1) - 1)(alpha*p - 1)))."""
    root = np.sqrt(1.0 + 4.0 * p * (p - 1.0)
                   * (alpha * (p - 1.0) - 1.0) * (alpha * p - 1.0))
    return 0.5 * (1.0 + root), 0.5 * (1.0 - root)


def bell_depolarizing_threshold(alpha: float = 0.0, tol: float = 1e-6) -> float:
    """Noise strength where the Bell output entropy reaches 1 bit (bisection)."""
    def entropy(p: float) -> float:
        return shannon_entropy(bell_depolarizing_spectrum(p, alpha))

    lo, hi = 0.0, 1.0 if alpha == 0.0 else min(1.0, 1.0 / (3.0 * alpha))
    if entropy(hi) < 1.0:
        raise ValueError("entropy never reaches 1 bit in range")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if entropy(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def theorem1_check(n_senders: int, x: float, alpha: float, p: float) -> OracleReport:
    """Identity-optimality of the encoding for gGHZ under dephasing.

    Runs the optimizer (4000 evaluations, 2 random restarts) and reports
    whether the optimized channel-output entropy is within 1e-6 of the
    identity-encoding entropy and every optimal theta is within 1e-2 of a
    multiple of pi.
    """
    from .capacity import PartyLayout, capacity_one_receiver
    from .channels import ChannelKind, ChannelSpec
    from .optimizer import OptimizerConfig
    from .states import GGHZ, build

    rho = build(GGHZ(n_senders + 1, x))
    layout = PartyLayout(n_senders, 1)
    spec = ChannelSpec(ChannelKind.DEPHASING, alpha, p)
    res_id = capacity_one_receiver(rho, layout, spec, optimize=False)
    res_opt = capacity_one_receiver(
        rho, layout, spec, opt=OptimizerConfig(max_evaluations=4000, restarts=2))
    s_id = res_id.channel_output_entropy
    s_opt = res_opt.channel_output_entropy
    thetas_ok = all(
        abs(u.theta - np.pi * round(u.theta / np.pi)) <= 1e-2
        for u in res_opt.encoding.per_sender)
    passed = bool(s_opt <= s_id + 1e-6) and thetas_ok
    return OracleReport(f"theorem1(N={n_senders}, x={x}, a={alpha}, p={p})",
                        float(s_opt), float(s_id), float(abs(s_opt - s_id)), passed)


def run_all_oracles(fast: bool = True) -> list[OracleReport]:
    """Cross-check the numeric pipeline against every closed form."""
    from .capacity import PartyLayout, bound_two_receivers, capacity_one_receiver
    from .channels import (ChannelKind, ChannelSpec, apply_local_channel,
                           deterministic_kraus)
    from .states import GGHZ, Bell, build

    reports: list[OracleReport] = []
    rng = np.random.default_rng(0)

    # gGHZ dephasing spectrum vs numeric channel application
    grid = 4 if fast else 10
    worst = 0.0
    for n in (2, 3):
        for x in np.linspace(0.05, 0.95, grid):
            for p in np.linspace(0.0, 0.5, grid):
                for a in np.linspace(0.0, 1.0, grid):
                    rho = build(GGHZ(n + 1, x))
                    spec = ChannelSpec(ChannelKind.DEPHASING, a, p)
                    ks = deterministic_kraus(spec)
                    out = apply_local_channel(rho, [ks] * n, list(range(n)))
                    evals = _spectrum(out)
                    _, nm = gghz_dephasing_spectrum(n, x, p, a)
                    worst = max(worst, abs(evals[0] - max(nm)),
                                abs(evals[1] - min(nm)))
    reports.append(_report("gghz_dephasing_spectrum vs numeric", worst, 0.0, 1e-8))

    # collapse-strength root property
    worst = max(abs(dephasing_coherence_factor(pc_closed_form(a), a))
                for a in np.linspace(0.05, 1.0, 20))
    reports.append(_report("pc_closed_form root property", worst, 0.0, 1e-12))

    reports.append(_report("pa_closed_form(0.5)", pa_closed_form(0.5), 0.43845, 5e-6))
    reports.append(_report("pa_closed_form(0.9)", pa_closed_form(0.9), 0.39268, 5e-6))

    # Bell spectra vs numeric channel application
    worst = 0.0
    bell = build(Bell())
    for p in np.linspace(0.0, 0.33, 8):
        for a in np.linspace(0.0, 1.0, 8):
            ks = deterministic_kraus(ChannelSpec(ChannelKind.DEPOLARIZING, a, p))
            evals = _spectrum(apply_local_channel(bell, [ks], [0]))
            ref = sorted(bell_depolarizing_spectrum(p, a), reverse=True)
            worst = max(worst, float(np.max(np.abs(evals - np.asarray(ref)))))
    for p in np.linspace(0.0, 0.5, 8):
        for a in np.linspace(0.0, 1.0, 8):
            ks = deterministic_kraus(ChannelSpec(ChannelKind.DEPHASING, a, p))
            evals = _spectrum(apply_local_channel(bell, [ks], [0]))
            ref = bell_dephasing_spectrum(p, a)
            worst = max(worst, abs(evals[0] - ref[0]), abs(evals[1] - ref[1]))
    reports.append(_report("bell spectra vs numeric", worst, 0.0, 1e-9))

    reports.append(_report("bell depolarizing threshold",
                           bell_depolarizing_threshold(0.0), 0.189, 1e-3))

    # two-receiver flatness for the 4-qubit gGHZ under dephasing
    worst = 0.0
    for x in (0.3, 1 / np.sqrt(2), 0.9):
        for p, a in ((0.0, 0.0), (0.3, 0.5), (0.5, 0.9)):
            rho = build(GGHZ(4, x))
            layout = PartyLayout(2, 2, split=1)
            spec = ChannelSpec(ChannelKind.DEPHASING, a, p)
            res = bound_two_receivers(rho, layout, spec, optimize=False)
            worst = max(worst, abs(res.capacity_bits - theorem3_bound(x)))
    reports.append(_report("theorem3 flatness (identity encoding)", worst, 0.0, 1e-6))

    # identity-optimality of the encoding (gGHZ + dephasing)
    cases = [(2, 0.6, 0.5, 0.2), (3, 1 / np.sqrt(2), 0.9, 0.4)]
    if not fast:
        cases += [(n, x, a, p) for n, x, a, p in
                  zip(rng.integers(2, 4, 4), rng.uniform(0.1, 0.95, 4),
                      rng.uniform(0, 1, 4), rng.uniform(0, 0.5, 4))]
    for n, x, a, p in cases:
        reports.append(theorem1_check(int(n), float(x), float(a), float(p)))
    return reports

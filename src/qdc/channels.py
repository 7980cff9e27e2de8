"""Non-Markovian dephasing / depolarizing channels and their random variants.

Every channel here is w_0 rho + sum_j w_j U_j rho U_j^dag, and a
single-qubit realization of one is a ``KrausSet``: its weights on I, U_1, ...
and its unitaries.  ``apply_local_channel`` applies one per designated sender
qubit, through the module's single kernel for local operators, which takes
each target's 4x4 superoperator with an optional leading batch axis.  The
superoperator is sum_j w_j U_j (x) conj(U_j): the basis of the U_j after the
identity (``_basis``, which checks them unitary) is built once, and each p
contracts its weights with it and the identity (``_superops``).  The
exact-Pauli bases are real (P (x) conj(P) is), so on a real state they keep
it real.

The non-Markovianity strength ``a`` only moves weight from the identity to
the m' Pauli-like unitaries (m' = 1 for dephasing, Uz; 3 for depolarizing,
Ux, Uy, Uz): the channel at (p, a) is the a = 0 channel at the strength
q = (1 + m'*a*(1 - p))*p (``_strength``), with weights 1 - q on I, equal to
(1 - m'*a*p)(1 - p) up to rounding, and q/m' on each unitary
(``_channel_weights``).  ``ChannelSpec`` is the one check of p.  With exact
Pauli unitaries these are the deterministic channels; the random variants
replace the Paulis by unitaries whose Euler parameters are drawn from
Gaussians centered at the Pauli triples, and depend on neither p nor a.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .qmath import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, _real_if_exact, n_qubits

COMPLETENESS_TOL = 1e-10
# how far past the end of its range ChannelSpec admits a p
_P_SLACK = 1e-12


class ChannelError(ValueError):
    """Invalid channel parameters or application targets."""


class ChannelKind(Enum):
    DEPHASING = "dephasing"
    DEPOLARIZING = "depolarizing"


class DrawPolicy(Enum):
    INDEPENDENT_PER_QUBIT = "per-qubit"
    SHARED_ACROSS_QUBITS = "shared"


@dataclass(frozen=True)
class UnitaryParams:
    """Euler-like parameters (omega, theta, delta) of a 2x2 unitary."""
    omega: float
    theta: float
    delta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.omega, self.theta, self.delta])


_PAULI_MEANS = {
    "x": UnitaryParams(2 * np.pi, np.pi, np.pi),
    "y": UnitaryParams(3 * np.pi, np.pi, np.pi),
    "z": UnitaryParams(2 * np.pi, 0.0, 3 * np.pi),
}


def pauli_means(which: str) -> UnitaryParams:
    """Parameter triple whose unitary equals the given Pauli up to phase."""
    try:
        return _PAULI_MEANS[which.lower()]
    except KeyError:
        raise ChannelError(f"unknown Pauli {which!r}, expected X, Y or Z") from None


def unitary_from_params(u) -> np.ndarray:
    """U = diag(e^{iw/2}, e^{-iw/2}) R_y(theta) diag(e^{id/2}, e^{-id/2}).

    ``u`` is a ``UnitaryParams`` or an array of (omega, theta, delta) triples
    of shape ``(..., 3)``; the result has shape ``(..., 2, 2)``.  The entries
    are the products of the three factors written out, which is what the
    matrix product of the factors computes.

    The half-angle convention is used in the third factor as well: it is the
    one that maps the Pauli parameter triples onto the Pauli matrices (up to
    global phase).
    """
    x = np.asarray(u.as_array() if isinstance(u, UnitaryParams) else u, dtype=float)
    # a single triple goes through the array loops too: numpy's scalar
    # complex product rounds differently from its array loop
    omega, theta, delta = x.reshape(-1, 3).T
    l0, l1 = np.exp(1j * omega / 2), np.exp(-1j * omega / 2)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    r0, r1 = np.exp(1j * delta / 2), np.exp(-1j * delta / 2)
    out = np.empty((len(omega), 2, 2), dtype=complex)
    out[:, 0, 0] = (l0 * c) * r0
    out[:, 0, 1] = (l0 * -s) * r1
    out[:, 1, 0] = (l1 * s) * r0
    out[:, 1, 1] = (l1 * c) * r1
    return out.reshape(x.shape[:-1] + (2, 2))


@dataclass(frozen=True)
class ChannelSpec:
    kind: ChannelKind
    alpha: float
    p: float
    epsilon: float = 0.0
    draw_policy: DrawPolicy = DrawPolicy.INDEPENDENT_PER_QUBIT

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ChannelError(f"alpha={self.alpha} outside [0, 1]")
        if not 0.0 <= self.epsilon < np.inf:
            raise ChannelError(f"epsilon={self.epsilon} must be finite and >= 0")
        lo, hi = p_range(self)
        if not lo <= self.p <= hi + _P_SLACK:
            raise ChannelError(f"{self.kind.value} p={self.p} outside [{lo}, {hi}] "
                               f"for alpha={self.alpha}")

    @property
    def is_random(self) -> bool:
        return self.epsilon > 0.0

    @property
    def is_covariant(self) -> bool:
        """Deterministic depolarizing commutes with the full Pauli set."""
        return self.kind is ChannelKind.DEPOLARIZING and not self.is_random


def p_range(spec: ChannelSpec) -> tuple[float, float]:
    """Valid noise-strength interval of a channel family."""
    if spec.kind is ChannelKind.DEPHASING:
        return 0.0, 0.5
    hi = 1.0 if spec.alpha == 0.0 else min(1.0, 1.0 / (3.0 * spec.alpha))
    return 0.0, hi


@dataclass(frozen=True, eq=False)
class KrausSet:
    """One single-qubit channel realization, w_0 rho + sum_j w_j U_j rho U_j^dag:
    its ``weights`` ``(m,)``, the identity's first, and its ``unitaries``
    ``(m-1, 2, 2)``.  The weights are finite, >= 0 and sum to one within
    COMPLETENESS_TOL, and each U_j is unitary.  The superoperator the kernel
    applies is ``_superops`` of the unitaries' basis, as a curve computes it,
    and ``operators`` are the Kraus operators sqrt(w_0) I, sqrt(w_j) U_j."""
    weights: np.ndarray
    unitaries: np.ndarray
    superop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        u = np.asarray(self.unitaries, dtype=complex)
        if w.ndim != 1 or u.shape != (len(w) - 1, 2, 2):
            raise ChannelError(f"weights {w.shape} need unitaries (m-1, 2, 2), "
                               f"got {u.shape}")
        # written so that a NaN or an infinite weight fails it too
        if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= COMPLETENESS_TOL):
            raise ChannelError(f"channel weights {w} must be >= 0 and sum to 1")
        for name, value in (("weights", w), ("unitaries", u),
                            ("superop", _superops(w, _basis(u)))):
            object.__setattr__(self, name, value)

    @property
    def operators(self) -> tuple:
        """The Kraus operators sqrt(w_0) I, sqrt(w_j) U_j."""
        return tuple(np.sqrt(self.weights)[:, None, None]
                     * np.concatenate([I2[None], self.unitaries]))


def _strength(kind: ChannelKind, alpha, p):
    """q = (1 + m'*alpha*(1 - p))*p, elementwise: the channel at (p, alpha) is
    the alpha = 0 channel at strength q."""
    alpha, p = np.asarray(alpha, dtype=float), np.asarray(p, dtype=float)
    return (1.0 + len(_PAULIS[kind]) * alpha * (1.0 - p)) * p


def _channel_weights(kind: ChannelKind, q) -> np.ndarray:
    """Weights of the identity and then of each Pauli-like unitary,
    (1 - q, q/m', ..., q/m'), ``(..., m' + 1)`` for strengths q of shape
    ``(...)``.  The identity's weight is clamped at 0: ChannelSpec admits a p
    up to ``_P_SLACK`` past its range, and dq/dp <= 1 + m'*alpha <= 4."""
    q = np.asarray(q, dtype=float)
    top = 1.0 + 4 * _P_SLACK
    # written so that a NaN fails it too
    if not (q.min(initial=0.0) >= 0.0 and q.max(initial=top) <= top):
        bad = q[~((0.0 <= q) & (q <= top))].flat[0]
        raise ChannelError(f"{kind.value} strength q={bad} outside [0, 1]")
    m = len(_PAULIS[kind])
    out = np.empty(q.shape + (m + 1,))
    out[..., 0] = np.maximum(0.0, 1.0 - q)
    out[..., 1:] = (q / m)[..., None]
    return out


def _kron_conj(u: np.ndarray) -> np.ndarray:
    """U (x) conj(U), the superoperator of rho -> U rho U^dag, for each 2x2 U."""
    return (u[..., :, None, :, None] * u.conj()[..., None, :, None, :]).reshape(
        u.shape[:-2] + (4, 4))


_EYE4 = np.eye(4)


def _check_unitary(unitaries: np.ndarray) -> None:
    """Raise unless each 2x2 of the stack is unitary: weights sum to one, so
    the U_j's unitarity is each channel's completeness."""
    gram = np.einsum("...ba,...bc->...ac", unitaries.conj(), unitaries)
    # written so that a non-finite matrix fails it too
    if not np.max(np.abs(gram - I2), initial=0.0) <= COMPLETENESS_TOL:
        raise ChannelError("a channel matrix is not unitary")


def _basis(unitaries) -> np.ndarray:
    """U_1 (x) conj(U_1), ... of ``(..., m-1, 2, 2)`` unitaries; real if exact.
    The identity's term is the same for every realization, so ``_superops``
    adds it."""
    u = np.asarray(unitaries, dtype=complex)
    _check_unitary(u)
    return _real_if_exact(_kron_conj(u))


def _superops(weights: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """w_0 I + sum_j w_j B_j for ``(..., m)`` weights and an ``(..., m-1, 4, 4)``
    basis, term by term in index order, the same way whatever the batch
    shape."""
    out = weights[..., 0, None, None] * _EYE4
    for j in range(1, weights.shape[-1]):
        out = out + weights[..., j, None, None] * basis[..., j - 1, :, :]
    return out


# the unitaries that follow the identity in a deterministic Kraus set
_PAULIS = {ChannelKind.DEPHASING: np.array([SIGMA_Z]),
           ChannelKind.DEPOLARIZING: np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])}

# parameter means of the unitaries that follow the identity, in Kraus order
_DRAWN_MEANS = {
    ChannelKind.DEPHASING: np.array([pauli_means("z").as_array()]),
    ChannelKind.DEPOLARIZING: np.array([pauli_means(w).as_array() for w in "xyz"]),
}


def _draw_unitaries(spec: ChannelSpec, n_targets: int, rngs) -> np.ndarray:
    """Unitaries that follow the identity, of shape (number of generators,
    rows, m-1, 2, 2): one row per target, or one shared by all.  They depend on the kind,
    epsilon and draw policy of ``spec``, not on its p or alpha.  Each
    generator draws its parameters at once: ``rng.normal(mean, eps)`` is
    mean + eps * z for one standard normal z, so the values are those of
    drawing the triples one at a time with it."""
    rows = 1 if spec.draw_policy is DrawPolicy.SHARED_ACROSS_QUBITS else n_targets
    means = _DRAWN_MEANS[spec.kind]
    return unitary_from_params(np.stack([
        means + spec.epsilon * rng.standard_normal((rows,) + means.shape)
        for rng in rngs]))


def sample_per_qubit_kraus(spec: ChannelSpec, n_targets: int,
                           rng: np.random.Generator) -> list[KrausSet]:
    """One KrausSet per target qubit, honoring the draw policy."""
    w = _channel_weights(spec.kind, _strength(spec.kind, spec.alpha, spec.p))
    sets = [KrausSet(w, u) for u in _draw_unitaries(spec, n_targets, [rng])[0]]
    if spec.draw_policy is DrawPolicy.SHARED_ACROSS_QUBITS:
        return sets * n_targets
    return sets


def _seeded_unitaries(spec: ChannelSpec, n_targets: int, seeds) -> np.ndarray:
    """``_draw_unitaries`` with one generator per seed, seeded with
    ``SeedSequence(seed)``; each is made as it is drawn from, so only one is
    alive at a time."""
    return _draw_unitaries(spec, n_targets,
                           (np.random.default_rng(np.random.SeedSequence(s))
                            for s in seeds))


def deterministic_kraus(spec: ChannelSpec) -> KrausSet:
    """The exact-Pauli channel for the given spec (epsilon ignored)."""
    q = _strength(spec.kind, spec.alpha, spec.p)
    return KrausSet(_channel_weights(spec.kind, q), _PAULIS[spec.kind])


@functools.cache
def _axis_orders(n: int, q: int, b: int) -> tuple[tuple, tuple]:
    """The transposes that bring qubit q's row and column axes of a rank-2n
    tensor to the front, after ``b`` batch axes, and that put them back."""
    order = [q, n + q] + [a for a in range(2 * n) if a not in (q, n + q)]
    batch = tuple(range(b))
    return (batch + tuple(b + a for a in order),
            batch + tuple(b + order.index(a) for a in range(2 * n)))


def _apply_local(rho: np.ndarray, superops, targets) -> np.ndarray:
    """Each target's 4x4 superoperator applied to its qubit, identity elsewhere.

    The state is viewed as a rank-2n tensor (row axes 0..n-1, column axes
    n..2n-1); each target's superoperator is contracted into its row and
    column axis, so no operator is lifted to the register.

    ``rho`` (``(d, d)``) and each target's superoperator (``(4, 4)``) may
    carry one leading batch axis; the result is batched if any input is.
    Each batch row is computed by the same matrix product as an unbatched
    call, so it equals that call bit for bit.  Real inputs give a real result.
    """
    d = rho.shape[-1]
    n = d.bit_length() - 1
    t = rho.reshape(rho.shape[:-2] + (2,) * (2 * n))
    for sup, q in zip(superops, targets):
        b = t.ndim - 2 * n
        front = t.transpose(_axis_orders(n, q, b)[0])
        out = sup @ front.reshape(front.shape[:b] + (4, -1))
        b = out.ndim - 2
        t = out.reshape(out.shape[:b] + (2,) * (2 * n)).transpose(
            _axis_orders(n, q, b)[1])
    return t.reshape(t.shape[:-2 * n] + (d, d))


def apply_local_channel(rho: np.ndarray, per_qubit_kraus: list[KrausSet],
                        targets: list[int]) -> np.ndarray:
    """Apply one single-qubit channel per target qubit, identity elsewhere."""
    n = n_qubits(rho)
    if len(per_qubit_kraus) != len(targets):
        raise ChannelError("need exactly one KrausSet per target")
    if len(set(targets)) != len(targets):
        raise ChannelError("targets must be distinct")
    for t in targets:
        if not 0 <= t < n:
            raise ChannelError(f"target {t} out of range for {n} qubits")
    return _apply_local(rho, [ks.superop for ks in per_qubit_kraus], targets)


def parse_channel(spec: str) -> ChannelSpec:
    """Parse a CLI channel specifier.

    Examples: ``dephasing:alpha=0.5,p=0.3``,
    ``depolarizing:alpha=0.3,p=0.1,eps=0.7,draw=per-qubit``.  A key other
    than these, a repeated key and a value that is not a number raise
    ``ChannelError``.
    """
    name, _, rest = spec.strip().partition(":")
    name = name.lower()
    try:
        kind = ChannelKind(name)
    except ValueError:
        raise ChannelError(f"unknown channel kind {name!r}") from None
    kv: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            k = k.strip()
            if not v:
                raise ChannelError(f"malformed channel parameter {item!r} in {spec!r}")
            if k in kv:
                raise ChannelError(f"repeated channel parameter {k!r} in {spec!r}")
            kv[k] = v.strip()
    try:
        draw = DrawPolicy(kv.pop("draw", "per-qubit"))
    except ValueError:
        raise ChannelError(f"unknown draw policy in {spec!r}") from None
    try:
        numbers = (float(kv.pop("alpha", 0.0)), float(kv.pop("p")),
                   float(kv.pop("eps", 0.0)))
    except KeyError as exc:
        raise ChannelError(f"channel {spec!r} is missing parameter {exc}") from None
    except ValueError as exc:
        raise ChannelError(f"channel {spec!r}: {exc}") from None
    parsed = ChannelSpec(kind, *numbers, draw)
    if kv:
        raise ChannelError(f"unknown channel parameter {', '.join(map(repr, kv))} "
                           f"in {spec!r}")
    return parsed

"""Resource-state constructors.

States are pure (N+1)- or (N+2)-qubit states with senders first and
receiver(s) last in the qubit ordering:

* ``GGHZ(n, x)``:  x|0...0> + sqrt(1-x^2)|1...1>  on n qubits.
* ``GW3(a, b)``:   sqrt(a)|001> + sqrt(b)|010> + sqrt(1-a-b)|100>.
* ``GW4(a, b, c)``: sqrt(a)|0001> + sqrt(b)|0010> + sqrt(c)|0100>
  + sqrt(1-a-b-c)|1000>.
* ``WUniform(n)``: symmetric W state, equal weight 1/n on each
  single-excitation term.
* ``Bell``:        (|00> + |11>)/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import _real_if_exact, dm_from_statevector


class StateError(ValueError):
    """Out-of-range state parameters or malformed state specifier."""


@dataclass(frozen=True)
class GGHZ:
    n_qubits: int
    x: float

    def __post_init__(self):
        if self.n_qubits not in (3, 4, 5):
            raise StateError(f"GGHZ supports 3-5 qubits, got {self.n_qubits}")
        if not 0.0 <= self.x <= 1.0:
            raise StateError(f"GGHZ parameter x={self.x} outside [0, 1]")


@dataclass(frozen=True)
class GW3:
    a: float
    b: float

    def __post_init__(self):
        if not (min(self.a, self.b) >= 0 and self.a + self.b <= 1.0 + 1e-12):  # NaN fails
            raise StateError(f"GW3 weights a={self.a}, b={self.b} invalid")


@dataclass(frozen=True)
class GW4:
    a: float
    b: float
    c: float

    def __post_init__(self):
        total = self.a + self.b + self.c     # NaN if any weight is
        if not (min(self.a, self.b, self.c) >= 0 and total <= 1.0 + 1e-12):
            raise StateError(f"GW4 weights ({self.a}, {self.b}, {self.c}) invalid")


@dataclass(frozen=True)
class WUniform:
    n_qubits: int

    def __post_init__(self):
        if self.n_qubits not in (3, 4):
            raise StateError(f"WUniform supports 3 or 4 qubits, got {self.n_qubits}")


@dataclass(frozen=True)
class Bell:
    pass


ResourceState = GGHZ | GW3 | GW4 | WUniform | Bell


def w_half(n_qubits: int, b: float, c: float | None = None) -> ResourceState:
    """The |W_1/2> family: gW with the leading weight fixed at 1/2."""
    if n_qubits == 3:
        if c is not None:
            raise StateError("3-qubit w_half takes a single weight b")
        if not 0 <= b <= 0.5 + 1e-12:
            raise StateError(f"w_half(3): b={b} outside [0, 1/2]")
        return GW3(0.5, b)
    if n_qubits == 4:
        if c is None:
            raise StateError("4-qubit w_half needs weights b and c")
        if not (min(b, c) >= 0 and b + c <= 0.5 + 1e-12):
            raise StateError(f"w_half(4): b={b}, c={c} invalid")
        return GW4(0.5, b, c)
    raise StateError(f"w_half supports 3 or 4 qubits, got {n_qubits}")


def statevector(state: ResourceState) -> np.ndarray:
    if isinstance(state, GGHZ):
        n = state.n_qubits
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = state.x
        psi[-1] = np.sqrt(max(0.0, 1.0 - state.x**2))
        return psi
    if isinstance(state, GW3):
        psi = np.zeros(8, dtype=complex)
        psi[0b001] = np.sqrt(state.a)
        psi[0b010] = np.sqrt(state.b)
        psi[0b100] = np.sqrt(max(0.0, 1.0 - state.a - state.b))
        return psi
    if isinstance(state, GW4):
        psi = np.zeros(16, dtype=complex)
        psi[0b0001] = np.sqrt(state.a)
        psi[0b0010] = np.sqrt(state.b)
        psi[0b0100] = np.sqrt(state.c)
        psi[0b1000] = np.sqrt(max(0.0, 1.0 - state.a - state.b - state.c))
        return psi
    if isinstance(state, WUniform):
        n = state.n_qubits
        psi = np.zeros(2**n, dtype=complex)
        for k in range(n):
            psi[1 << k] = 1.0 / np.sqrt(n)
        return psi
    if isinstance(state, Bell):
        psi = np.zeros(4, dtype=complex)
        psi[0b00] = psi[0b11] = 1.0 / np.sqrt(2.0)
        return psi
    raise StateError(f"unknown state {state!r}")


def build(state: ResourceState) -> np.ndarray:
    """Pure-state density matrix of a resource state (real: so are its amplitudes)."""
    return _real_if_exact(dm_from_statevector(statevector(state)))


def state_qubits(state: ResourceState) -> int:
    if isinstance(state, (GGHZ, WUniform)):
        return state.n_qubits
    if isinstance(state, GW3):
        return 3
    if isinstance(state, GW4):
        return 4
    return 2


def parse_state(spec: str) -> ResourceState:
    """Parse a CLI state specifier.

    Examples: ``gghz:n=3,x=0.7071``, ``gw3:a=0.5,b=0.25``,
    ``gw4:a=0.5,b=0.2,c=0.1``, ``w:n=4``, ``bell``.  A key the kind does not
    take, a repeated key, a value that is not a finite number and an ``n``
    that is not an integer raise ``StateError``.
    """
    name, _, rest = spec.strip().partition(":")
    name = name.lower()
    kv: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            k = k.strip()
            if not v:
                raise StateError(f"malformed state parameter {item!r} in {spec!r}")
            if k in kv:
                raise StateError(f"repeated state parameter {k!r} in {spec!r}")
            try:
                value = float(v)
            except ValueError:
                value = np.nan
            if not (value.is_integer() if k == "n" else np.isfinite(value)):
                raise StateError(f"state parameter {k}={v.strip()!r} in {spec!r} is not "
                                 f"{'an integer' if k == 'n' else 'a finite number'}")
            kv[k] = value
    try:
        if name == "bell":
            state = Bell()
        elif name == "gghz":
            state = GGHZ(int(kv.pop("n")), kv.pop("x"))
        elif name == "gw3":
            state = GW3(kv.pop("a"), kv.pop("b"))
        elif name == "gw4":
            state = GW4(kv.pop("a"), kv.pop("b"), kv.pop("c"))
        elif name == "w":
            state = WUniform(int(kv.pop("n")))
        elif name == "whalf":
            state = w_half(int(kv.pop("n")), kv.pop("b"), kv.pop("c", None))
        else:
            raise StateError(f"unknown state kind {name!r}")
    except KeyError as exc:
        raise StateError(f"state {spec!r} is missing parameter {exc}") from None
    if kv:
        raise StateError(f"unknown state parameter {', '.join(map(repr, kv))} "
                         f"in {spec!r}")
    return state

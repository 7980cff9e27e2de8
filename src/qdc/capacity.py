"""Dense-coding capacity (one receiver) and the LOCC upper bound (two).

Conventions: qubit order is senders first, receivers last.  With N senders
the classical bound is N bits.  Noise acts on the transmitted sender qubits
only, so receiver marginals are always taken from the pre-channel state.
Encoding with U and then noise {K} is the one local channel {K U}.  A
fixed-encoding capacity is one kernel pass per block (``_block_entropy``);
the optimizer's objective, ``_block_entropy_and_grad``, folds each sender's
unitary into its Kraus operators and returns the block entropy with its
exact gradient in the encoding parameters, from one more kernel pass with
the adjoint operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channels import (ChannelSpec, KrausSet, _apply_local,
                       deterministic_kraus, sample_per_qubit_kraus,
                       unitary_from_params)
from .optimizer import EncodingParams, OptimizerConfig, minimize
from .qmath import (I2, SIGMA_Z, entropy_and_log2, partial_trace,
                    von_neumann_entropy)

# surplus over the classical bound above which a capacity counts as dense
# codeable; at or below it the capacity has collapsed
COLLAPSE_THRESHOLD = 1e-9

# the no-channel case of the noisy formulas
_NO_NOISE = KrausSet((I2,))


class LayoutError(ValueError):
    """Inconsistent sender/receiver layout."""


@dataclass(frozen=True)
class PartyLayout:
    n_senders: int
    n_receivers: int = 1
    split: int | None = None   # two receivers: senders [0, split) talk to R1

    def __post_init__(self):
        if self.n_senders < 1:
            raise LayoutError("need at least one sender")
        if self.n_receivers not in (1, 2):
            raise LayoutError("layout supports one or two receivers")
        if self.n_qubits > 5:
            raise LayoutError(f"{self.n_qubits} qubits exceed the 5-qubit limit")
        if self.n_receivers == 2:
            if self.split is None or not 1 <= self.split < self.n_senders:
                raise LayoutError(f"two-receiver split {self.split} invalid "
                                  f"for {self.n_senders} senders")
        elif self.split is not None:
            raise LayoutError("split only applies to two-receiver layouts")

    @property
    def n_qubits(self) -> int:
        return self.n_senders + self.n_receivers

    @property
    def sender_indices(self) -> list[int]:
        return list(range(self.n_senders))

    @property
    def receiver_indices(self) -> list[int]:
        return list(range(self.n_senders, self.n_qubits))

    @property
    def blocks(self) -> list[tuple[list[int], int]]:
        """(senders, receiver) pairs: all senders with the one receiver, or
        senders [0, split) with the first and the rest with the second."""
        big_n = self.n_senders
        if self.n_receivers == 1:
            return [(self.sender_indices, big_n)]
        return [(list(range(self.split)), big_n),
                (list(range(self.split, big_n)), big_n + 1)]

    def check(self, rho: np.ndarray) -> None:
        if rho.shape[0] != 2**self.n_qubits:
            raise LayoutError(f"state dimension {rho.shape[0]} does not match "
                              f"{self.n_qubits}-qubit layout")


@dataclass(frozen=True)
class CapacityResult:
    capacity_bits: float
    classical_bound_bits: float
    receiver_entropy_terms: tuple[float, ...]
    channel_output_entropy: float
    encoding: EncodingParams
    dense_codeable: bool = field(default=False)

    @property
    def surplus_bits(self) -> float:
        """Quantum advantage before the classical-bound max is applied.

        Can be negative; ``capacity_bits`` clamps it at zero.
        """
        return sum(self.receiver_entropy_terms) - self.channel_output_entropy


def _result(n_senders: int, receiver_terms: list[float], output_entropy: float,
            encoding: EncodingParams) -> CapacityResult:
    classical = float(n_senders)
    raw = classical + sum(receiver_terms) - output_entropy
    cap = max(classical, raw)
    return CapacityResult(
        capacity_bits=cap,
        classical_bound_bits=classical,
        receiver_entropy_terms=tuple(receiver_terms),
        channel_output_entropy=output_entropy,
        encoding=encoding,
        dense_codeable=cap - classical > COLLAPSE_THRESHOLD,
    )


def encode(rho: np.ndarray, encoding: EncodingParams) -> np.ndarray:
    """Apply one local unitary per sender; the senders are the leading qubits."""
    unitaries = unitary_from_params(encoding.to_flat().reshape(-1, 3))
    return _apply_local(rho, unitaries[:, None], range(len(unitaries)))


def _receiver_entropies(rho: np.ndarray, layout: PartyLayout) -> list[float]:
    return [von_neumann_entropy(partial_trace(rho, {r}))
            for r in layout.receiver_indices]


def _sender_kraus(spec: ChannelSpec | None, layout: PartyLayout,
                  kraus_override: list[KrausSet] | None,
                  rng: np.random.Generator | None) -> list[np.ndarray]:
    """Each sender's Kraus operators as an ``(m, 2, 2)`` array."""
    if kraus_override is not None:
        if len(kraus_override) != layout.n_senders:
            raise LayoutError("kraus_override must supply one KrausSet per sender")
        sets = kraus_override
    elif spec is None:
        sets = [_NO_NOISE] * layout.n_senders
    elif spec.is_random:
        if rng is None:
            raise ValueError("random channel needs either kraus_override or an rng")
        sets = sample_per_qubit_kraus(spec, layout.n_senders, rng)
    else:
        sets = [deterministic_kraus(spec)] * layout.n_senders
    return [np.asarray(ks.operators) for ks in sets]


def _block_entropy(block_rho: np.ndarray, ops) -> float | np.ndarray:
    """Entropy of one block (its senders leading, its receiver last) after
    the senders' noise, with the identity encoding.

    ``ops[i]`` holds sender i's Kraus operators, ``(m, 2, 2)`` or with a
    leading batch axis (then the entropy is one per row).
    """
    return von_neumann_entropy(_apply_local(block_rho, ops, range(len(ops))))


# U^dag dU/d(delta) for U = R_z(omega) R_y(theta) R_z(delta)
_HALF_IZ = 0.5j * SIGMA_Z


def _block_entropy_and_grad(block_rho: np.ndarray, ops,
                            x: np.ndarray) -> tuple[float, np.ndarray]:
    """Block entropy after the encoding ``x`` (flat (omega, theta, delta)
    per sender) and the senders' noise, and its gradient in ``x``.

    Sender i's unitary U_i is folded into its Kraus operators as K U_i, so
    the output is one kernel pass.  With L = log2 of the output (0 on its
    kernel), dS = -Tr(d rho_out L).  For a parameter with dU_i = U_i G this
    is -2 Re Tr(G Tr_{not i}(rho M)), where M = sum (K U)^dag L (K U) is one
    kernel pass with the adjoint operators; G = U^dag (i/2 Z) U for omega,
    R_z(delta)^dag (-i/2 Y) R_z(delta) for theta and (i/2) Z for delta.
    (With dU_i = A U_i, the same value is -2 Re Tr(A Tr_{not i}(sigma M'))
    for the encoded state sigma and M' = sum K^dag L K.)
    """
    params = x.reshape(-1, 3)
    u = unitary_from_params(params)
    folded = [k @ ui for k, ui in zip(ops, u)]
    targets = range(len(folded))
    entropy, log_out = entropy_and_log2(_apply_local(block_rho, folded, targets))
    pulled_back = _apply_local(log_out, [f.conj().swapaxes(-1, -2) for f in folded],
                               targets)
    product = block_rho @ pulled_back
    local = np.stack([partial_trace(product, {i}) for i in targets])
    # R_z(delta)^dag (-i/2 Y) R_z(delta), written out
    phase = np.exp(1j * params[:, 2])
    g_theta = np.zeros_like(u)
    g_theta[:, 0, 1], g_theta[:, 1, 0] = -0.5 * phase.conj(), 0.5 * phase
    gens = np.stack([u.conj().swapaxes(-1, -2) @ _HALF_IZ @ u, g_theta,
                     np.broadcast_to(_HALF_IZ, u.shape)], axis=1)
    grad = -2.0 * np.einsum("ikab,iba->ik", gens, local).real
    return entropy, grad.ravel()


def _blocks(rho: np.ndarray, layout: PartyLayout, ops) -> list[tuple]:
    """Each block's state, traced out of rho, with its senders' operators."""
    return [(partial_trace(rho, senders + [receiver]), [ops[q] for q in senders])
            for senders, receiver in layout.blocks]


def _identity_capacities(rho: np.ndarray, layout: PartyLayout,
                         kraus: np.ndarray) -> np.ndarray:
    """Identity-encoding capacity (or two-receiver bound) for each row of a
    ``(B, n_senders, m, 2, 2)`` Kraus batch; the block states and receiver
    marginals are traced out once for all rows."""
    layout.check(rho)
    ops = [kraus[:, q] for q in range(layout.n_senders)]
    outputs = np.max([_block_entropy(*block) for block in _blocks(rho, layout, ops)],
                     axis=0)
    classical = float(layout.n_senders)
    return np.maximum(classical,
                      classical + sum(_receiver_entropies(rho, layout)) - outputs)


def _capacity(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec | None,
              kraus_override: list[KrausSet] | None = None,
              opt: OptimizerConfig = OptimizerConfig(),
              optimize: bool = True,
              rng: np.random.Generator | None = None) -> CapacityResult:
    """Capacity (one block) or LOCC upper bound (two blocks).

    Each block's state is traced out of rho before it is encoded: local
    unitaries and noise on the traced qubits drop out, so the result is
    exact.  Each block entropy is minimized over the unitaries of its own
    senders, and the largest minimum enters the formula; the optimizer takes
    the block entropy and its exact gradient from ``_block_entropy_and_grad``.
    The encoding stays the identity, and no unitary is built, when
    ``optimize`` is False (the lower bound used by quenched runs), without a
    channel, or for deterministic depolarizing noise, which is covariant so
    that the encoding drops out.
    """
    layout.check(rho)
    ops = _sender_kraus(spec, layout, kraus_override, rng)
    covariant = spec is not None and spec.is_covariant and kraus_override is None
    fixed = not optimize or spec is None or covariant
    entropies, encodings = [], []
    for block_rho, block_ops in _blocks(rho, layout, ops):
        n = len(block_ops)
        if fixed:
            val, best = _block_entropy(block_rho, block_ops), EncodingParams.identity(n)
        else:
            val, best = minimize(partial(_block_entropy_and_grad, block_rho, block_ops),
                                 n, opt)
        entropies.append(val)
        encodings.extend(best.per_sender)
    return _result(layout.n_senders, _receiver_entropies(rho, layout),
                   max(entropies), EncodingParams(tuple(encodings)))


def capacity_noiseless(rho: np.ndarray, layout: PartyLayout) -> CapacityResult:
    """Capacity (one receiver) or LOCC upper bound (two) without channel noise."""
    return _capacity(rho, layout, None)


def capacity_one_receiver(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec | None,
                          kraus_override: list[KrausSet] | None = None,
                          opt: OptimizerConfig = OptimizerConfig(),
                          optimize: bool = True,
                          rng: np.random.Generator | None = None) -> CapacityResult:
    """Noisy capacity with N senders and a single receiver."""
    if layout.n_receivers != 1:
        raise LayoutError("capacity_one_receiver needs a one-receiver layout")
    return _capacity(rho, layout, spec, kraus_override, opt, optimize, rng)


def bound_two_receivers(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec | None,
                        kraus_override: list[KrausSet] | None = None,
                        opt: OptimizerConfig = OptimizerConfig(),
                        optimize: bool = True,
                        rng: np.random.Generator | None = None) -> CapacityResult:
    """Noisy LOCC upper bound with two receivers."""
    if layout.n_receivers != 2:
        raise LayoutError("bound_two_receivers needs a two-receiver layout")
    return _capacity(rho, layout, spec, kraus_override, opt, optimize, rng)


def evaluate(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec | None,
             **kwargs) -> CapacityResult:
    """Capacity or two-receiver bound for the layout (spec=None: noiseless)."""
    return _capacity(rho, layout, spec, **kwargs)

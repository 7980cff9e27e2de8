"""Dense-coding capacity (one receiver) and the LOCC upper bound (two).

Conventions: qubit order is senders first, receivers last.  With N senders
the classical bound is N bits.  Noise acts on the transmitted sender qubits
only, so receiver marginals are always taken from the pre-channel state.
Each sender's noise is a 4x4 superoperator S, and encoding with U and then
noise is the one superoperator S (U (x) conj(U)).  A fixed-encoding capacity
is one kernel pass per block (``_block_entropy``); the optimizer's objective,
``_block_entropy_and_grad``, folds each sender's unitary into its noise and
returns the block entropy with its exact gradient in the encoding
parameters, from one more kernel pass with the adjoint superoperators.

Every capacity, one or many, goes through one batched entry,
``_output_entropies``: a single ``evaluate`` is its batch of one, and a
quenched mean or a scan curve hands it many rows of superoperators at
once.  The block states and receiver entropies it needs are traced out of
rho once (``_marginals``) and may be shared by every call on the same state.
A block state with no imaginary part is kept real: with exact-Pauli noise
and the identity encoding its capacity then runs in real arithmetic.
An optimized block runs the (row, start) problems of all its rows in
lockstep (``optimizer.minimize``), each with its own stop rule, so a row's
result does not depend on the rows it runs with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channels import (ChannelSpec, KrausSet, _apply_local, _kron_conj,
                       deterministic_kraus, unitary_from_params)
from .optimizer import EncodingParams, OptimizerConfig, minimize
from .qmath import (I2, SIGMA_Z, _real_if_exact, entropy_and_log2,
                    partial_trace, von_neumann_entropy)

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
    return _apply_local(rho, _real_if_exact(_kron_conj(unitaries)),
                        range(len(unitaries)))


def _sender_superops(spec: ChannelSpec | None, layout: PartyLayout,
                     kraus_override: list[KrausSet] | None) -> list[np.ndarray]:
    """Each sender's noise superoperator, ``(4, 4)``."""
    if kraus_override is not None:
        if len(kraus_override) != layout.n_senders:
            raise LayoutError("kraus_override must supply one KrausSet per sender")
        sets = kraus_override
    elif spec is None:
        sets = [_NO_NOISE] * layout.n_senders
    elif spec.is_random:
        raise ValueError("a random channel needs kraus_override")
    else:
        sets = [deterministic_kraus(spec)] * layout.n_senders
    return [ks.superop for ks in sets]


def _block_entropy(block_rho: np.ndarray, sups) -> float | np.ndarray:
    """Entropy of one block (its senders leading, its receiver last) after
    the senders' noise, with the identity encoding.

    ``sups[i]`` is sender i's noise superoperator, ``(4, 4)`` or with a
    leading batch axis (then the entropy is one per row).
    """
    return von_neumann_entropy(_apply_local(block_rho, sups, range(len(sups))))


# U^dag dU/d(delta) for U = R_z(omega) R_y(theta) R_z(delta)
_HALF_IZ = 0.5j * SIGMA_Z


def _block_entropy_and_grad(block_rho: np.ndarray, sups,
                            x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block entropy after the encoding and the senders' noise, and its
    gradient in the encoding, for each row of a batch.

    ``x`` holds one flat encoding (omega, theta, delta per sender) per row,
    ``(k, 3 * n)``, and ``sups[i]`` sender i's noise superoperator per row,
    ``(k, 4, 4)``; the result is ``(k,)`` entropies and ``(k, 3 * n)``
    gradients.  Each row is computed as a batch of one would compute it.

    Sender i's unitary is folded into its noise as S_i (U_i (x) conj(U_i)),
    so the output is one kernel pass.  With L = log2 of the output (0 on its
    kernel), dS = -Tr(d rho_out L).  For a parameter with dU_i = U_i G this
    is -2 Re Tr(G Tr_{not i}(rho M)), where M is one kernel pass of L with
    the conjugate transposes (adjoints); G = U^dag (i/2 Z) U for omega,
    R_z(delta)^dag (-i/2 Y) R_z(delta) for theta and (i/2) Z for delta.
    (With dU_i = A U_i, the same value is -2 Re Tr(A Tr_{not i}(sigma M'))
    for the encoded state sigma and M' the adjoint of the noise applied to L.)
    """
    params = x.reshape(len(x), -1, 3)
    u = unitary_from_params(params)
    folded = [s @ _kron_conj(u[:, i]) for i, s in enumerate(sups)]
    targets = range(len(folded))
    entropy, log_out = entropy_and_log2(_apply_local(block_rho, folded, targets))
    pulled_back = _apply_local(log_out, [f.conj().swapaxes(-1, -2) for f in folded],
                               targets)
    product = block_rho @ pulled_back
    local = np.stack([partial_trace(product, {i}) for i in targets], axis=1)
    # R_z(delta)^dag (-i/2 Y) R_z(delta), written out
    phase = np.exp(1j * params[..., 2])
    g_theta = np.zeros_like(u)
    g_theta[..., 0, 1], g_theta[..., 1, 0] = -0.5 * phase.conj(), 0.5 * phase
    gens = np.stack([u.conj().swapaxes(-1, -2) @ _HALF_IZ @ u, g_theta,
                     np.broadcast_to(_HALF_IZ, u.shape)], axis=-3)
    # Re Tr(G local) term by term, summed in an order fixed by the number of
    # senders alone (an einsum's order also depends on the batch shape): the
    # orders numpy's einsum "ikab,iba->ik" takes without a batch axis.
    local_t = local.swapaxes(-1, -2)[..., None, :, :]
    t = gens.real * local_t.real - gens.imag * local_t.imag
    t00, t01, t10, t11 = t[..., 0, 0], t[..., 0, 1], t[..., 1, 0], t[..., 1, 1]
    if len(sups) == 1:
        re = 0.0 + (t00 + t01) + (t10 + t11)
    else:
        re = 0.0 + t00 + t01 + t10 + t11
    return entropy, -2.0 * re.reshape(len(x), -1)


@dataclass(frozen=True, eq=False)
class _Marginals:
    """What every capacity of one state and layout shares, whatever the
    channel: each block's state (its senders leading, its receiver last)
    (real if every entry is) with the indices of its senders, and the
    receiver entropies."""
    n_senders: int
    blocks: tuple[tuple[np.ndarray, list[int]], ...]
    receiver_terms: tuple[float, ...]


def _marginals(rho: np.ndarray, layout: PartyLayout) -> _Marginals:
    layout.check(rho)
    return _Marginals(layout.n_senders,
                      tuple((_real_if_exact(partial_trace(rho, senders + [r])), senders)
                            for senders, r in layout.blocks),
                      tuple(von_neumann_entropy(partial_trace(rho, {r}))
                            for r in layout.receiver_indices))


def _block_objective(block_rho: np.ndarray, sups, rows: np.ndarray,
                     x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The optimizer's objective: rows index the batch of ``sups``."""
    return _block_entropy_and_grad(block_rho, [s[rows] for s in sups], x)


def _output_entropies(marg: _Marginals, sups, opt: OptimizerConfig,
                      optimize: bool) -> tuple[np.ndarray, np.ndarray]:
    """Largest block entropy after the senders' noise, ``(B,)``, and the
    encoding that reaches it, ``(B, 3 * n_senders)``, for each row of a
    batch; ``sups[q]`` holds sender q's noise superoperators, ``(B, 4, 4)``.

    Each block's state is traced out of rho before it is encoded: local
    unitaries and noise on the traced qubits drop out, so the result is
    exact.  With ``optimize``, each block entropy is minimized over the
    unitaries of the block's own senders: its B x (restarts + 1) problems
    run in one lockstep group.  Else the encoding is the identity and no
    unitary is built.
    """
    n_rows = len(sups[0])
    if not optimize:
        return (np.max([_block_entropy(block, [sups[q] for q in senders])
                        for block, senders in marg.blocks], axis=0),
                np.zeros((n_rows, 3 * marg.n_senders)))
    entropies, encodings = zip(*(
        minimize(partial(_block_objective, block, [sups[q] for q in senders]),
                 n_rows, len(senders), opt)
        for block, senders in marg.blocks))
    return np.max(entropies, axis=0), np.concatenate(encodings, axis=1)


def _capacities(marg: _Marginals, sups: np.ndarray,
                opt: OptimizerConfig = OptimizerConfig(),
                optimize: bool = False) -> np.ndarray:
    """Capacity (or two-receiver bound) for each row of a batch of noise
    superoperators, ``(B, n_senders, 4, 4)`` or ``(B, 1, 4, 4)`` for one
    shared by all senders, with the identity encoding or, with ``optimize``,
    the encoding optimized per row."""
    per_sender = list(sups.swapaxes(0, 1)) * (marg.n_senders // sups.shape[1])
    outputs, _ = _output_entropies(marg, per_sender, opt, optimize)
    classical = float(marg.n_senders)
    return np.maximum(classical, classical + sum(marg.receiver_terms) - outputs)


def _capacity(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec | None,
              kraus_override: list[KrausSet] | None = None,
              opt: OptimizerConfig = OptimizerConfig(),
              optimize: bool = True) -> CapacityResult:
    """Capacity (one block) or LOCC upper bound (two blocks): the batch of
    one of ``_output_entropies``.

    The largest block entropy enters the formula.  The encoding stays the
    identity when ``optimize`` is False (the lower bound used by quenched
    runs), without a channel, or for deterministic depolarizing noise, which
    is covariant so that the encoding drops out.
    """
    marg = _marginals(rho, layout)
    sups = _sender_superops(spec, layout, kraus_override)
    covariant = spec is not None and spec.is_covariant and kraus_override is None
    fixed = not optimize or spec is None or covariant
    outputs, x = _output_entropies(marg, [s[None] for s in sups], opt, not fixed)
    return _result(layout.n_senders, list(marg.receiver_terms), float(outputs[0]),
                   EncodingParams.from_flat(x[0]))


def capacity_noiseless(rho: np.ndarray, layout: PartyLayout) -> CapacityResult:
    """Capacity (one receiver) or LOCC upper bound (two) without channel noise."""
    return _capacity(rho, layout, None)


def capacity_one_receiver(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec | None,
                          kraus_override: list[KrausSet] | None = None,
                          opt: OptimizerConfig = OptimizerConfig(),
                          optimize: bool = True) -> CapacityResult:
    """Noisy capacity with N senders and a single receiver."""
    if layout.n_receivers != 1:
        raise LayoutError("capacity_one_receiver needs a one-receiver layout")
    return _capacity(rho, layout, spec, kraus_override, opt, optimize)


def bound_two_receivers(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec | None,
                        kraus_override: list[KrausSet] | None = None,
                        opt: OptimizerConfig = OptimizerConfig(),
                        optimize: bool = True) -> CapacityResult:
    """Noisy LOCC upper bound with two receivers."""
    if layout.n_receivers != 2:
        raise LayoutError("bound_two_receivers needs a two-receiver layout")
    return _capacity(rho, layout, spec, kraus_override, opt, optimize)


def evaluate(rho: np.ndarray, layout: PartyLayout, spec: ChannelSpec | None,
             **kwargs) -> CapacityResult:
    """Capacity or two-receiver bound for the layout (spec=None: noiseless)."""
    return _capacity(rho, layout, spec, **kwargs)

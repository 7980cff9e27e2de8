"""Dense-coding capacity (one receiver) and the LOCC upper bound (two).

Conventions: qubit order is senders first, receivers last.  With N senders
the classical bound is N bits.  Noise acts on the transmitted sender qubits
only, so receiver marginals are always taken from the pre-channel state.
Each sender's noise is a weighted set of unitaries, w_0 rho + sum_j w_j U_j
rho U_j^dag: the senders share the channel's m weights and each has its own
unitaries.  A block takes one of two routes, decided from its rank r and m
alone (``_output_entropies``):

* The kernel.  Sender i's noise is a 4x4 superoperator S, and encoding with
  U and then noise is the one superoperator S (U (x) conj(U)).  A
  fixed-encoding capacity is one kernel pass per block (``_block_entropy``);
  the optimizer's objective, ``_block_entropy_and_grad``, folds each sender's
  unitary into its noise and returns the block entropy with its exact
  gradient in the encoding parameters, from one more kernel pass with the
  adjoint superoperators.
* The environment side, when r m^n < d (r counts no eigenvalue at or below
  ``qmath.RANK_TOL``, as no entropy does): in practice a pure one-receiver
  block under dephasing, 2^n Kraus products against d = 2^(n+1).  The
  block's output has the nonzero spectrum of the Gram matrix of the vectors
  (K_(1,j_1) U_1 (x) ... (x) K_(n,j_n) U_n) psi, half the block's size.
  With a fixed encoding that matrix is s s^T o G, s the roots of the
  weights and G a unit-weight Gram matrix made once per realization
  (``_Realizations.gram``), so no kernel pass runs per p.  A singular G
  (exact dephasing: rank 2 for GHZ, n + 1 for W) is kept as its range
  L L^dag = G, and each p reads the smaller (s L)^dag (s L).  The
  optimizer's objective (``_env_objective``) gets each row's Kraus
  products made once.
  Both routes share the encoding gradient's generators (``_encoding_grad``).

Every capacity, one or many, goes through one batched entry,
``_output_entropies``, over a grid of weight rows (a p-point each, shared
by the senders) by channel realizations (``_Realizations``: each sender's
unitaries, with the superoperator basis and Gram matrices derived from them
once): a single ``evaluate`` is its grid of one, the spec's weights with the
unitaries of ``kraus_override``, and a quenched mean or a scan curve hands
it many at once.  The block states, their vectors and the receiver
entropies it needs are traced out of rho once (``_marginals``) and may be
shared by every call on the same state.  A block state with no imaginary
part is kept real: with exact-Pauli noise and the identity encoding its
capacity then runs in real arithmetic.  An optimized block runs the
(row, start) problems of all its rows in lockstep (``optimizer.minimize``),
each with its own stop rule, so a row's result does not depend on the rows
it runs with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channels import (_PAULIS, ChannelError, ChannelSpec, KrausSet, _apply_local,
                       _channel_weights, _kron_conj, _strength, _superops,
                       unitary_from_params)
from .optimizer import EncodingParams, OptimizerConfig, minimize
from .qmath import (SIGMA_Z, _real_if_exact, entropy_and_log2, partial_trace,
                    support_vectors, von_neumann_entropy)

# surplus over the classical bound above which a capacity counts as dense
# codeable; at or below it the capacity has collapsed
COLLAPSE_THRESHOLD = 1e-9


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


def _sender_channels(spec: ChannelSpec | None, layout: PartyLayout,
                     kraus_override: list[KrausSet] | None
                     ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The weights every sender shares, ``(m,)``, and each sender's unitaries,
    ``(1, m-1, 2, 2)``: the spec's channel (the identity without one), or the
    realization of it that ``kraus_override`` gives, one KrausSet per sender.
    Senders given the same unitaries share the array."""
    if spec is None:
        if kraus_override is not None:
            raise ChannelError("kraus_override needs the spec of its channel")
        return np.ones(1), (np.empty((1, 0, 2, 2)),) * layout.n_senders
    weights = _channel_weights(spec.kind, _strength(spec.kind, spec.alpha, spec.p))
    if kraus_override is None:
        if spec.is_random:
            raise ValueError("a random channel needs kraus_override")
        return weights, (_PAULIS[spec.kind][None],) * layout.n_senders
    if len(kraus_override) != layout.n_senders:
        raise LayoutError("kraus_override must supply one KrausSet per sender")
    # bitwise, so a set of another kind (another m) or strength fails it
    if any(ks.weights.tobytes() != weights.tobytes() for ks in kraus_override):
        raise ChannelError(f"kraus_override is not the {spec.kind.value} channel at "
                           f"alpha={spec.alpha}, p={spec.p}")
    rows = {id(ks.unitaries): ks.unitaries[None] for ks in kraus_override}
    return weights, tuple(rows[id(ks.unitaries)] for ks in kraus_override)


def _block_entropy(block_rho: np.ndarray, sups) -> float | np.ndarray:
    """Entropy of one block (its senders leading, its receiver last) after
    the senders' noise, with the identity encoding.

    ``sups[i]`` is sender i's noise superoperator, ``(4, 4)`` or with a
    leading batch axis (then the entropy is one per row).
    """
    return von_neumann_entropy(_apply_local(block_rho, sups, range(len(sups))))


# U^dag dU/d(delta) for U = R_z(omega) R_y(theta) R_z(delta)
_HALF_IZ = 0.5j * SIGMA_Z


def _encoding_grad(params: np.ndarray, u: np.ndarray, local: np.ndarray) -> np.ndarray:
    """The entropy's gradient in the encoding, ``(k, 3 * n)``, from each
    sender's 2x2 matrix ``local`` ``(k, n, 2, 2)``: for a parameter of sender i
    with dU_i = U_i G, dS = -2 Re Tr(G local_i).  G = U^dag (i/2 Z) U for
    omega, R_z(delta)^dag (-i/2 Y) R_z(delta) for theta and (i/2) Z for delta;
    ``params`` ``(k, n, 3)`` and ``u`` ``(k, n, 2, 2)`` are the encoding."""
    k, n = u.shape[:2]
    gens = np.zeros((k, n, 3, 2, 2), dtype=complex)
    gens[:, :, 0] = u.conj().swapaxes(-1, -2) @ _HALF_IZ @ u
    # R_z(delta)^dag (-i/2 Y) R_z(delta), written out
    phase = np.exp(1j * params[..., 2])
    gens[:, :, 1, 0, 1], gens[:, :, 1, 1, 0] = -0.5 * phase.conj(), 0.5 * phase
    gens[:, :, 2] = _HALF_IZ
    # Re Tr(G local) term by term, summed in an order fixed by the number of
    # senders alone (an einsum's order also depends on the batch shape): the
    # orders numpy's einsum "ikab,iba->ik" takes without a batch axis.
    local_t = local.swapaxes(-1, -2)[..., None, :, :]
    t = gens.real * local_t.real - gens.imag * local_t.imag
    t00, t01, t10, t11 = t[..., 0, 0], t[..., 0, 1], t[..., 1, 0], t[..., 1, 1]
    if n == 1:
        re = 0.0 + (t00 + t01) + (t10 + t11)
    else:
        re = 0.0 + t00 + t01 + t10 + t11
    return -2.0 * re.reshape(k, -1)


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
    kernel), dS = -Tr(d rho_out L), which is ``_encoding_grad`` of
    Tr_{not i}(rho M), where M is one kernel pass of L with the conjugate
    transposes (adjoints).
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
    return entropy, _encoding_grad(params, u, local)


# The environment side.  A block state psi psi^dag of rank r (psi is d x r),
# after each of its n senders' channels sum_j K_j rho K_j^dag with m terms,
# is V V^dag for the d x (M r) matrix V of the vectors v_(j,a) =
# (K_(1,j_1) (x) ... (x) K_(n,j_n) (x) I) psi_a, M = m^n.  Its nonzero
# spectrum is that of the Gram matrix V^dag V, so when M r < d the entropy
# comes from that smaller matrix.


def _kron_rows(ops: list[np.ndarray]) -> np.ndarray:
    """Every product K_(1,j_1) (x) ... (x) K_(n,j_n) of per-sender operators
    ``(k, m, 2, 2)``, stacked: ``(k, M 2^n, 2^n)``, j_1 most significant."""
    out = ops[0]
    for op in ops[1:]:
        k, m, d = out.shape[0], out.shape[1] * op.shape[1], 2 * out.shape[-1]
        out = (out[:, :, None, :, None, :, None]
               * op[:, None, :, None, :, None, :]).reshape(k, m, d, d)
    return out.reshape(len(out), -1, out.shape[-1])


def _outputs(ops: np.ndarray, psi_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vectors v_(j,a) = A_j psi_a of each row, ``(k, M r, d)`` with (j, a)
    row-major, and their Gram matrices <v|v'>, ``(k, M r, M r)``.  ``ops``
    holds each row's operators A_j on the senders stacked, ``(k, M 2^n, 2^n)``,
    and ``psi_s`` the block vectors with the receiver and a as column,
    ``psi.reshape(2^n, -1)``."""
    dim, r = 2 * ops.shape[-1], psi_s.shape[-1] // 2
    m = ops.shape[-2] // ops.shape[-1]
    v = (ops @ psi_s).reshape(-1, m, dim, r).swapaxes(-1, -2).reshape(-1, m * r, dim)
    return v, v.conj() @ v.swapaxes(-1, -2)


def _sender_rows(a: np.ndarray, q: int) -> np.ndarray:
    """``(..., 2^n, c)`` with sender q's index alone on the rows: ``(..., 2, X)``."""
    lead = a.shape[:-2]
    return a.reshape(lead + (2**q, 2, -1)).swapaxes(-3, -2).reshape(lead + (2, -1))


def _env_objective(psi_s: np.ndarray, psi_rows: list[np.ndarray], noise: np.ndarray,
                   rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The optimizer's objective on the environment side: the entropy after
    the encoding and the noise, and its gradient, for the block vectors psi
    ``(d, r)``, given as ``psi.reshape(2^n, -1)`` and as ``_sender_rows`` of
    that for each sender, with ``noise`` the products N_j of each row's Kraus
    operators stacked (``_kraus_products``); ``rows`` index them.

    With E the encoding (x) U_i and A_j = N_j E, v_j = A_j psi, and with
    L = log2 of the Gram matrix (0 on its kernel), dS = -2 Re sum_j
    <dv_j|(L^T V)_j>, which is ``_encoding_grad`` of Tr_{not i}(|psi><z|) for
    z = sum_j A_j^dag (L^T V)_j.  Each row is computed as a batch of one would
    compute it.
    """
    k, n = len(x), len(psi_rows)
    params = x.reshape(k, n, 3)
    u = unitary_from_params(params)
    ops = noise[rows] @ _kron_rows([u[:, i, None] for i in range(n)])
    v, gram = _outputs(ops, psi_s)
    entropy, log_g = entropy_and_log2(gram)
    m, r = noise.shape[1] // noise.shape[2], psi_s.shape[1] // 2
    y = (log_g.swapaxes(-1, -2) @ v).reshape(k, m, r, -1).swapaxes(-1, -2)
    z = ops.conj().swapaxes(-1, -2) @ y.reshape(k, m * 2**n, -1)
    local = np.empty((k, n, 2, 2), dtype=complex)
    for i, psi_i in enumerate(psi_rows):
        np.matmul(psi_i, _sender_rows(z, i).conj().swapaxes(-1, -2), out=local[:, i])
    return entropy, _encoding_grad(params, u, local)


def _amplitudes(weights: np.ndarray, n: int, r: int) -> np.ndarray:
    """sqrt(w_j_1 ... w_j_n) for n senders at each row of weights ``(P, m)``,
    each repeated r times: ``(P, m^n r)``, as ``_outputs`` orders (j, a)."""
    root = s = np.sqrt(weights)
    for _ in range(n - 1):
        s = (s[:, :, None] * root[:, None, :]).reshape(len(s), -1)
    return np.repeat(s, r, axis=-1)


# realizations whose unit-weight Gram matrices are built at once
_GRAM_SLICE = 256


@dataclass(eq=False)
class _Realizations:
    """R realizations of each sender's noise unitaries (real if exact): at
    weights w, shared by the senders, sender q's channel in realization b is
    w_0 rho + sum_{j>=1} w_j U_j rho U_j^dag with U_j = ``unitaries[q][b, j-1]``
    (``(R, m - 1, 2, 2)``).  Senders given the same array share a group,
    and what it derives from them, whatever the weights: the superoperator
    basis U (x) conj(U), the identity and the unitaries as one stack, and
    the environment side's unit-weight Gram matrices, or their ranges.
    ``unitaries`` is None once only the bases are kept."""
    unitaries: tuple[np.ndarray, ...] | None
    groups: tuple[int, ...] = field(init=False)
    size: int = field(init=False)
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        first = {}
        self.groups = tuple(first.setdefault(id(u), len(first)) for u in self.unitaries)
        real = {id(u): _real_if_exact(u) for u in self.unitaries}
        self.unitaries = tuple(real[id(u)] for u in self.unitaries)
        self.size = len(self.unitaries[0])

    @staticmethod
    def of(u: np.ndarray, n_senders: int, marg: "_Marginals | None" = None
           ) -> "_Realizations":
        """From unitaries ``(R, rows, m-1, 2, 2)``: one row per sender or one
        for all.  When no block of ``marg`` can take the environment side
        under these channels, only the senders' bases are kept."""
        rows = [u[:, i] for i in range(u.shape[1])]
        real = _Realizations(tuple(rows[min(q, len(rows) - 1)] for q in range(n_senders)))
        if marg is not None and not any(
                _takes_environment_side(block, psi, u.shape[2] + 1)
                for block, _, psi in marg.blocks):
            for q in range(n_senders):
                real.basis(q)
            real.unitaries = None
        return real

    def __len__(self) -> int:
        return self.size

    def _keep(self, key, make):
        if key not in self._derived:
            self._derived[key] = make()
        return self._derived[key]

    def basis(self, q: int) -> np.ndarray:
        """U (x) conj(U) of sender q's unitaries, ``(R, m - 1, 4, 4)``."""
        return self._keep(("basis", self.groups[q]),
                          lambda: _real_if_exact(_kron_conj(self.unitaries[q])))

    def terms(self, q: int) -> np.ndarray:
        """The identity and sender q's unitaries, ``(R, m, 2, 2)``."""
        u = self.unitaries[q]
        return self._keep(("terms", self.groups[q]), lambda: np.concatenate(
            [np.broadcast_to(np.eye(2, dtype=u.dtype), (len(u), 1, 2, 2)), u], axis=1))

    def gram(self, psi: np.ndarray, senders: list[int]) -> np.ndarray:
        """Each realization's Gram matrix G of the block vectors ``psi`` after
        the senders' terms at unit weight, ``(R, M r, M r)``, or its range
        when the largest rank k in the stack is below M r: L ``(R, M r, k)``
        with L L^dag = G (``qmath.support_vectors``); real if exact."""
        def make():
            terms = [self.terms(q) for q in senders]
            psi_s = psi.reshape(2 ** len(senders), -1)
            gram = _real_if_exact(np.concatenate([
                _outputs(_kron_rows([t[a:a + _GRAM_SLICE] for t in terms]), psi_s)[1]
                for a in range(0, len(self), _GRAM_SLICE)]))
            factor = support_vectors(gram)
            # psi is kept with its matrices, so its id stays its own
            return psi, factor if factor.shape[-1] < gram.shape[-1] else gram
        return self._keep(("gram", id(psi), tuple(senders)), make)[1]


@dataclass(frozen=True, eq=False)
class _Marginals:
    """What every capacity of one state and layout shares, whatever the
    channel: each block's state (its senders leading, its receiver last)
    (real if every entry is), the indices of its senders and its vectors psi
    ``(d, r)`` (``qmath.support_vectors``), and the receiver entropies."""
    n_senders: int
    blocks: tuple[tuple[np.ndarray, list[int], np.ndarray], ...]
    receiver_terms: tuple[float, ...]


# A block state's rank r counts no eigenvalue at or below qmath.RANK_TOL
# (``qmath.support_vectors``).  A block of n senders with m Kraus terms each
# takes the environment side when r m^n < d: in practice the pure
# one-receiver blocks under dephasing (2^n against d = 2^(n+1)).


def _takes_environment_side(block: np.ndarray, psi: np.ndarray, m: int) -> bool:
    """Whether a block state with vectors psi ``(d, r)`` takes the environment
    side under senders with m Kraus terms each: r m^n < d, n = log2(d) - 1."""
    return psi.shape[1] * m ** (len(block).bit_length() - 2) < len(block)


def _marginals(rho: np.ndarray, layout: PartyLayout) -> _Marginals:
    layout.check(rho)
    states = [_real_if_exact(partial_trace(rho, senders + [r]))
              for senders, r in layout.blocks]
    return _Marginals(layout.n_senders,
                      tuple((b, senders, support_vectors(b))
                            for b, (senders, _) in zip(states, layout.blocks)),
                      tuple(von_neumann_entropy(partial_trace(rho, {r}))
                            for r in layout.receiver_indices))


def _block_objective(block_rho: np.ndarray, sups, rows: np.ndarray,
                     x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The optimizer's objective: rows index the batch of ``sups``."""
    return _block_entropy_and_grad(block_rho, [s[rows] for s in sups], x)


def _kernel_superops(weights: np.ndarray, real: _Realizations, lo: int,
                     hi: int) -> list[np.ndarray]:
    """Each sender's superoperator at each (row of ``weights`` ``(P, m)``,
    realization in [lo, hi)), a-major, ``(P (hi - lo), 4, 4)``: the weights
    contracted with the realizations' basis as it is stored, not a gathered
    copy of it, once for senders of one group."""
    made = {}
    for q, g in enumerate(real.groups):
        if g not in made:
            made[g] = _superops(weights[:, None],
                                real.basis(q)[None, lo:hi]).reshape(-1, 4, 4)
    return [made[g] for g in real.groups]


def _kraus_products(weights: np.ndarray, real: _Realizations, senders: list[int],
                    lo: int, hi: int) -> np.ndarray:
    """The products N_j of the senders' Kraus operators sqrt(w) U at each
    (row of ``weights`` ``(P, m)``, realization in [lo, hi)), a-major, stacked:
    ``(P (hi - lo), m^n 2^n, 2^n)`` (``_kron_rows``)."""
    roots = np.sqrt(weights)[:, None, :, None, None]
    return _kron_rows([(roots * real.terms(q)[None, lo:hi]).reshape(
        -1, weights.shape[1], 2, 2) for q in senders])


def _env_problem(psi: np.ndarray, noise: np.ndarray):
    """The environment-side objective of the block vectors ``psi`` under
    ``noise`` (``_kraus_products``)."""
    psi_s = psi.reshape(noise.shape[-1], -1)
    return partial(_env_objective, psi_s,
                   [_sender_rows(psi_s, i) for i in range(noise.shape[-1].bit_length() - 1)],
                   noise)


def _output_entropies(marg: _Marginals, weights: np.ndarray, real: _Realizations,
                      lo: int, hi: int, opt: OptimizerConfig,
                      optimize: bool) -> tuple[np.ndarray, np.ndarray]:
    """Largest block entropy after the senders' noise, and the encoding that
    reaches it, ``(P (hi - lo), 3 * n_senders)``, for each row of a grid:
    weight row a of ``weights`` ``(P, m)``, shared by the senders, by
    realization b in [lo, hi) of ``real``, a-major.

    Each block's state is traced out of rho before it is encoded: local
    unitaries and noise on the traced qubits drop out, so the result is
    exact.  A block takes the environment side when r m^n < d (r its rank),
    else the kernel with each sender's superoperator.  With ``optimize``,
    each block entropy is minimized over the unitaries of the block's own
    senders: its rows x (restarts + 1) problems run in one lockstep group.
    Else the encoding is the identity and no unitary is built.
    """
    n_rows = len(weights) * (hi - lo)
    sups, entropies, encodings = [], [], []
    for block, senders, psi in marg.blocks:
        env = _takes_environment_side(block, psi, weights.shape[1])
        if not env:
            sups = sups or _kernel_superops(weights, real, lo, hi)
        if optimize:
            objective = (_env_problem(psi, _kraus_products(weights, real, senders, lo, hi))
                         if env else partial(_block_objective, block,
                                             [sups[q] for q in senders]))
            e, x = minimize(objective, n_rows, len(senders), opt)
            encodings.append(x)
        elif env:
            s = _amplitudes(weights, len(senders), psi.shape[1])[:, None, :, None]
            w = s * real.gram(psi, senders)[None, lo:hi]
            if w.shape[-1] < w.shape[-2]:       # s L for the range L: W^dag W
                gram = w.conj().swapaxes(-1, -2) @ w
            else:                               # s s^T o G
                gram = w * s.swapaxes(-1, -2)
            e = von_neumann_entropy(gram.reshape((n_rows,) + gram.shape[-2:]))
        else:
            e = _block_entropy(block, [sups[q] for q in senders])
        entropies.append(e)
    if not optimize:
        return np.max(entropies, axis=0), np.zeros((n_rows, 3 * marg.n_senders))
    return np.max(entropies, axis=0), np.concatenate(encodings, axis=1)


def _capacities(marg: _Marginals, weights: np.ndarray, real: _Realizations,
                lo: int = 0, hi: int | None = None,
                opt: OptimizerConfig = OptimizerConfig(),
                optimize: bool = False) -> np.ndarray:
    """Capacity (or two-receiver bound) at each row of channel weights
    ``(P, m)``, shared by all senders, and each realization in [lo, hi) of
    ``real``: ``(P, hi - lo)``, with the identity encoding or, with
    ``optimize``, the encoding optimized per (row, realization)."""
    hi = len(real) if hi is None else hi
    outputs, _ = _output_entropies(marg, weights, real, lo, hi, opt, optimize)
    classical = float(marg.n_senders)
    return np.maximum(classical, classical + sum(marg.receiver_terms) - outputs
                      ).reshape(len(weights), hi - lo)


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
    weights, unitaries = _sender_channels(spec, layout, kraus_override)
    covariant = spec is not None and spec.is_covariant and kraus_override is None
    fixed = not optimize or spec is None or covariant
    outputs, x = _output_entropies(marg, weights[None], _Realizations(unitaries), 0, 1,
                                   opt, not fixed)
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

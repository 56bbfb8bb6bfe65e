"""Key-rate machinery: twisting, privacy squeezing, ccq states, one-way
and twirl-based key bounds, a two-way recurrence step, and a relative-
entropy-of-entanglement upper bound.

The central objects are states on (A, B, A', B') where the qubits A, B
hold the key bit and A'B' is the shield.  A *twisting* is a unitary
controlled by the AB computational basis acting on the shield; *privacy
squeezing* twists and then traces out the shield, concentrating the
privacy properties of the state into a two-qubit state sigma_AB whose
parameters certify key.  All entropies and rates are in bits.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    PAULI,
    PAULI_LETTERS,
    CertificationInfeasibleError,
    DensityOperator,
    MultipartiteOperator,
    UnsupportedStateError,
    as_state,
    eig_hermitian,
    entropy_from_spectrum,
    partial_trace,
    permute_subsystems,
    von_neumann_entropy,
)
from .states import _check_unitary, bell_states

_LN2 = float(np.log(2.0))

PSD_GUARANTEE_ATOL = 1e-9
EIGENVALUE_KEEP = 1e-12        # ensemble weights below this are dropped
SUPPORT_LEAK_TOL = 1e-10       # mass of rho outside supp(sigma) treated as infinite


def binary_entropy(p: float) -> float:
    """h(p) in bits, with h(0) = h(1) = 0."""
    p = float(p)
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"binary_entropy argument {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    if p in (0.0, 1.0):
        return 0.0
    return float(-(p * np.log(p) + (1.0 - p) * np.log(1.0 - p)) / _LN2)


# ---------------------------------------------------------------------------
# Twisting and privacy squeezing


@dataclass(frozen=True)
class TwistingUnitary:
    """A unitary controlled by the AB computational basis:
    U = sum_ij |ij><ij| (x) U^{ij}, with one shield block per key outcome.
    """

    u00: np.ndarray
    u01: np.ndarray
    u10: np.ndarray
    u11: np.ndarray

    def __post_init__(self):
        for name in ("u00", "u01", "u10", "u11"):
            block = _check_unitary(getattr(self, name), f"twisting block {name}")
            if block.shape != np.shape(self.u00):
                raise ValueError("twisting blocks must share one dimension")
            block.setflags(write=False)
            object.__setattr__(self, name, block)

    @property
    def shield_dim(self) -> int:
        return self.u00.shape[0]

    def full(self) -> np.ndarray:
        """The assembled unitary on (A, B, A', B'), block diagonal over the
        AB basis in the order |00>, |01>, |10>, |11>."""
        n = self.shield_dim
        out = np.zeros((4 * n, 4 * n), dtype=complex)
        for i, block in enumerate((self.u00, self.u01, self.u10, self.u11)):
            out[i * n : (i + 1) * n, i * n : (i + 1) * n] = block
        return out


def _polar_unitary_identity_completion(x: np.ndarray) -> np.ndarray:
    """The unitary factor of the polar decomposition X = V |X|, with
    directions of zero singular value completed by the identity.

    The completion V = U_r Vh_r + (I - projector onto the row space) is
    unitary whenever the row and column spaces of X coincide, which holds
    for every operator this package feeds it; assembly is asserted.
    """
    x = np.asarray(x, dtype=complex)
    u, s, vh = np.linalg.svd(x)
    if s.size == 0 or s[0] <= 0.0:
        return np.eye(x.shape[0], dtype=complex)
    r = int(np.sum(s > 1e-10 * s[0]))
    row_proj = vh[:r].conj().T @ vh[:r]
    v = u[:, :r] @ vh[:r] + (np.eye(x.shape[0]) - row_proj)
    return _check_unitary(v, "polar completion (row and column spaces differ)")


def _corner_blocks(rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """The blocks x1 = <00|rho|11> and x2 = <01|rho|10> on the shield,
    whose polar unitaries ``canonical_twisting`` takes."""
    d2 = rho.mat.shape[0] // 4
    return rho.mat[0:d2, 3 * d2 : 4 * d2], rho.mat[d2 : 2 * d2, 2 * d2 : 3 * d2]


def canonical_twisting(x1: np.ndarray, x2: np.ndarray) -> TwistingUnitary:
    """The twisting that makes both block operators positive semidefinite.

    U^00 (resp. U^01) is the adjoint of the polar unitary of x1 (x2), so
    that U^00 x1 = |x1| and U^01 x2 = |x2|; U^10 = U^11 = I.  Applied to a
    standard-form state this maximizes the Bell-diagonal coherences of
    the squeezed two-qubit state.  A vanishing block (a pure private bit
    has x2 = 0) gets the identity as its polar factor.
    """
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    if x1.shape != x2.shape or x1.ndim != 2 or x1.shape[0] != x1.shape[1]:
        raise ValueError("block operators must be square and of equal shape")
    v1 = _polar_unitary_identity_completion(x1)
    v2 = _polar_unitary_identity_completion(x2)
    n = x1.shape[0]
    tau = TwistingUnitary(v1.conj().T, v2.conj().T, np.eye(n), np.eye(n))
    for u, x, name in ((tau.u00, x1, "U00 x1"), (tau.u01, x2, "U01 x2")):
        prod = u @ x
        herm_dev = float(np.max(np.abs(prod - prod.conj().T)))
        lam_min = float(np.linalg.eigvalsh((prod + prod.conj().T) / 2.0)[0])
        if herm_dev > PSD_GUARANTEE_ATOL or lam_min < -PSD_GUARANTEE_ATOL:
            raise AssertionError(
                f"canonical twisting failed to positivize {name}: "
                f"hermiticity {herm_dev:.3e}, min eigenvalue {lam_min:.3e}"
            )
    return tau


def privacy_squeeze(rho: DensityOperator, tau: TwistingUnitary) -> DensityOperator:
    """Twist the state and trace out the shield, leaving sigma_AB on two
    qubits.  The result carries every parameter the verification scheme
    estimates."""
    dims = rho.dims
    if len(dims) < 3:
        raise ValueError("privacy_squeeze expects key qubits plus a shield")
    if dims[0] != 2 or dims[1] != 2:
        raise ValueError("first two subsystems must be qubits")
    shield = int(np.prod(dims[2:]))
    if tau.shield_dim != shield:
        raise ValueError(
            f"twisting acts on shield dimension {tau.shield_dim}, state has {shield}"
        )
    u = tau.full()
    twisted = u @ rho.mat @ u.conj().T
    reduced = partial_trace(
        MultipartiteOperator(twisted, rho.dims, rho.labels), range(2, len(dims))
    )
    return as_state(reduced.mat, (2, 2), ("A", "B"))


# ---------------------------------------------------------------------------
# ccq states and one-way rates


@dataclass(frozen=True)
class CcqState:
    """Outcome distribution of the key measurement plus Eve's conditional
    states: p[a, b] is the probability of Alice reading a and Bob b, and
    eve[(a, b)] is Eve's normalized conditional density matrix (present
    for outcomes with positive probability)."""

    p: np.ndarray
    eve: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.shape != (2, 2):
            raise ValueError("outcome table must be 2x2")
        if p.min() < -1e-12:
            raise ValueError(f"negative outcome probability {p.min():.3e}")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"outcome probabilities sum to {p.sum()}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        eve = dict(self.eve)
        for key, mat in eve.items():
            mat = np.asarray(mat, dtype=complex)
            tr = complex(np.trace(mat))
            if abs(tr - 1.0) > 1e-9:
                raise ValueError(f"Eve conditional for outcome {key} has trace {tr}")
            mat.setflags(write=False)
            eve[key] = mat
        object.__setattr__(self, "eve", eve)


def ccq_from_state(rho: DensityOperator, conservative: bool = True) -> CcqState:
    """Measure the key qubits in the computational basis against an
    eavesdropper holding a purification.

    The state is purified through its eigendecomposition.  For each
    outcome (a, b), Eve's conditional is the reduced state of the
    purifying system — joined with the shield when `conservative` is
    true, the pessimistic convention that grants Eve everything except
    the key bits themselves.
    """
    dims = rho.dims
    if len(dims) < 2 or dims[0] != 2 or dims[1] != 2:
        raise ValueError("ccq_from_state expects a state whose first two subsystems are qubits")
    rest = int(np.prod(dims[2:])) if len(dims) > 2 else 1
    w, v = eig_hermitian(rho.mat)
    keep = w > EIGENVALUE_KEEP
    n_env = int(np.sum(keep))
    amps = (v[:, keep] * np.sqrt(w[keep])).reshape(2, 2, rest, n_env)
    p = np.zeros((2, 2))
    eve: dict[tuple[int, int], np.ndarray] = {}
    for a in range(2):
        for b in range(2):
            block = amps[a, b]                       # (rest, n_env)
            prob = float(np.sum(np.abs(block) ** 2))
            p[a, b] = prob
            if prob <= EIGENVALUE_KEEP:
                continue
            if conservative:
                vec = block.reshape(-1)
                eve[(a, b)] = np.outer(vec, vec.conj()) / prob
            else:
                eve[(a, b)] = (block.T @ block.conj()) / prob
    p /= p.sum()
    return CcqState(p, eve)


def _classical_mutual_information(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    total = 0.0
    for a in range(2):
        for b in range(2):
            if p[a, b] > 0.0:
                total += p[a, b] * np.log(p[a, b] / (pa[a] * pb[b]))
    return float(total / _LN2)


def _eve_mixture(ccq: CcqState, entries: list[tuple[float, np.ndarray]]) -> float:
    """Entropy of a weighted mixture of Eve conditionals (weights need not
    be normalized; they are normalized here)."""
    total = sum(wt for wt, _ in entries)
    if total <= 0.0:
        return 0.0
    dim = next(iter(ccq.eve.values())).shape[0]
    mix = np.zeros((dim, dim), dtype=complex)
    for wt, mat in entries:
        mix += (wt / total) * mat
    return von_neumann_entropy(as_state(mix, (dim,)))


def dw_rate(ccq: CcqState) -> float:
    """One-way key rate I(A:B) - I(A:E) of a ccq state, in bits.

    I(A:E) is the Holevo quantity of Eve's states conditioned on Alice's
    bit.  The value may be negative and is reported as-is.
    """
    p = ccq.p
    i_ab = _classical_mutual_information(p)
    if not ccq.eve:
        return i_ab
    entries_all = [(p[a, b], ccq.eve[(a, b)]) for (a, b) in ccq.eve]
    s_total = _eve_mixture(ccq, entries_all)
    s_cond = 0.0
    for a in range(2):
        pa = float(p[a].sum())
        if pa <= 0.0:
            continue
        entries = [(p[a, b], ccq.eve[(a, b)]) for b in range(2) if (a, b) in ccq.eve]
        s_cond += pa * _eve_mixture(ccq, entries)
    return i_ab - (s_total - s_cond)


def holevo_rate(ccq: CcqState) -> float:
    """I(A:B) minus the full entropy of Eve's system.

    A deliberately pessimistic variant: Eve's accessible information can
    never exceed her state's entropy, so this is a valid but often very
    loose lower bound.  It is negative for the flagship state.
    """
    p = ccq.p
    i_ab = _classical_mutual_information(p)
    if not ccq.eve:
        return i_ab
    entries_all = [(p[a, b], ccq.eve[(a, b)]) for (a, b) in ccq.eve]
    return i_ab - _eve_mixture(ccq, entries_all)


# ---------------------------------------------------------------------------
# Twirl spectrum and certified bounds


@dataclass(frozen=True)
class TwirlSpectrum:
    """Bell-diagonal weights of a two-qubit state after bilateral Pauli
    twirling: weights[i] = <psi_i| sigma |psi_i> in the package's Bell
    order (00+11, 00-11, 01+10, 01-10)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (4,):
            raise ValueError("twirl spectrum has four weights")
        if w.min() < -1e-10:
            raise ValueError(f"negative twirl weight {w.min():.3e}")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"twirl weights sum to {w.sum()}")
        w = np.clip(w, 0.0, None)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def entropy(self) -> float:
        return entropy_from_spectrum(self.weights)


def bell_twirl(sigma: DensityOperator) -> TwirlSpectrum:
    """Project a two-qubit state onto the Bell-diagonal family (the effect
    of random bilateral Pauli averaging).  Twirling never decreases
    entropy and commutes with the computational-basis key measurement,
    so rates computed after twirling remain valid lower bounds."""
    if sigma.dims != (2, 2):
        raise ValueError("bell_twirl expects a two-qubit state")
    bells = bell_states()
    lams = np.real(np.einsum("ki,ij,kj->k", bells.conj(), sigma.mat, bells))
    return TwirlSpectrum(np.clip(lams, 0.0, None) / np.sum(np.clip(lams, 0.0, None)))


def _recurrence_on_spectrum(lams: np.ndarray) -> tuple[np.ndarray, float]:
    """One XOR-agreement recurrence step in the Bell-diagonal picture.

    Correlated weight q0 = w0 + w1 and anticorrelated q1 = w2 + w3 mix
    pairwise; acceptance probability is q0^2 + q1^2.
    """
    w = np.asarray(lams, dtype=float)
    accept = (w[0] + w[1]) ** 2 + (w[2] + w[3]) ** 2
    if accept <= 0.0:
        return w.copy(), 0.0
    out = np.array(
        [
            (w[0] ** 2 + w[1] ** 2) / accept,
            2.0 * w[0] * w[1] / accept,
            (w[2] ** 2 + w[3] ** 2) / accept,
            2.0 * w[2] * w[3] / accept,
        ]
    )
    return out, float(accept)


@dataclass(frozen=True)
class BoundsReport:
    """Key bounds computable from the diagonal and antidiagonal parameters
    of the squeezed two-qubit state.

    twirl_hashing is the certifying bound 1 - S(twirl spectrum):
    operationally valid because twirling can be applied before hashing.
    info_minus_twirl_entropy = I_cl(A:B) - S(twirl spectrum) is a
    stricter-looking variant reported for transparency; it is negative
    for the flagship state and is not used for certification.
    """

    spectrum: TwirlSpectrum
    twirl_hashing: float
    info_minus_twirl_entropy: float
    two_way_flag: bool
    recurrence_spectrum: TwirlSpectrum
    recurrence_acceptance: float
    recurrence_per_copy_rate: float


def certified_bounds(
    diag, re_a: float, im_a: float, re_b: float, im_b: float
) -> BoundsReport:
    """Key bounds from exact squeezed-state parameters.

    Parameters are the computational-basis diagonal (d00, d01, d10, d11)
    of sigma_AB plus its two antidiagonal coherences A = <00|sigma|11>
    and B = <01|sigma|10>, split into real and imaginary parts.  The
    twirl spectrum is ((d00+d11)/2 +- reA, (d01+d10)/2 +- reB).

    Raises CertificationInfeasibleError when no positive semidefinite
    two-qubit state has these parameters.
    """
    d = np.array(diag, dtype=float)
    if d.shape != (4,):
        raise ValueError("diag must have four entries")
    if abs(d.sum() - 1.0) > 1e-8:
        raise ValueError(f"diagonal sums to {d.sum()}")
    if d.min() < -1e-10:
        raise CertificationInfeasibleError(f"negative diagonal entry {d.min():.3e}")
    d = np.clip(d, 0.0, None)
    slack = 1e-10
    if abs(re_a + 1j * im_a) > np.sqrt(d[0] * d[3]) + slack:
        raise CertificationInfeasibleError(
            "correlated-sector coherence exceeds the Cauchy-Schwarz bound"
        )
    if abs(re_b + 1j * im_b) > np.sqrt(d[1] * d[2]) + slack:
        raise CertificationInfeasibleError(
            "anticorrelated-sector coherence exceeds the Cauchy-Schwarz bound"
        )
    corr, anti = (d[0] + d[3]) / 2.0, (d[1] + d[2]) / 2.0
    lams = np.array([corr + re_a, corr - re_a, anti + re_b, anti - re_b])
    lams = np.clip(lams, 0.0, None)
    spectrum = TwirlSpectrum(lams / lams.sum())
    hashing = 1.0 - spectrum.entropy()
    i_ab = _classical_mutual_information(d.reshape(2, 2))
    rec_lams, accept = _recurrence_on_spectrum(spectrum.weights)
    rec_spectrum = TwirlSpectrum(rec_lams)
    rec_hashing = 1.0 - rec_spectrum.entropy()
    return BoundsReport(
        spectrum=spectrum,
        twirl_hashing=hashing,
        info_minus_twirl_entropy=i_ab - spectrum.entropy(),
        two_way_flag=bool(rec_hashing > 0.0),
        recurrence_spectrum=rec_spectrum,
        recurrence_acceptance=accept,
        recurrence_per_copy_rate=(accept / 2.0) * rec_hashing,
    )


def recurrence_step(ccq: CcqState) -> tuple[CcqState, float]:
    """One two-way advantage-distillation step on the ccq level.

    Alice and Bob take two i.i.d. rounds, publicly compare the XORs of
    their bit pairs, and keep the first bit of a pair only when the XORs
    agree.  Eve keeps her two conditional states plus the announced XOR.
    Returns the post-selected ccq state and the per-copy rate
    (acceptance/2) * dw_rate(output).
    """
    p = ccq.p
    q = np.array([p[0, 0] + p[1, 1], p[0, 1] + p[1, 0]])  # parity weights
    accept = float(q[0] ** 2 + q[1] ** 2)
    if accept <= 0.0:
        raise ValueError("recurrence step has zero acceptance probability")
    dim = next(iter(ccq.eve.values())).shape[0] if ccq.eve else 1
    out_p = np.zeros((2, 2))
    out_eve: dict[tuple[int, int], np.ndarray] = {}
    for a1 in range(2):
        for b1 in range(2):
            e1 = a1 ^ b1
            out_p[a1, b1] = p[a1, b1] * q[e1] / accept
            if out_p[a1, b1] <= EIGENVALUE_KEEP or (a1, b1) not in ccq.eve:
                continue
            mix = np.zeros((dim * dim * 2, dim * dim * 2), dtype=complex)
            for a2 in range(2):
                b2 = a2 ^ e1
                if (a2, b2) not in ccq.eve or p[a2, b2] <= 0.0:
                    continue
                flag = np.zeros((2, 2))
                flag[a1 ^ a2, a1 ^ a2] = 1.0
                joint = np.kron(
                    np.kron(ccq.eve[(a1, b1)], ccq.eve[(a2, b2)]), flag
                )
                mix += (p[a2, b2] / q[e1]) * joint
            out_eve[(a1, b1)] = mix
    out = CcqState(out_p, out_eve)
    return out, (accept / 2.0) * dw_rate(out)


# ---------------------------------------------------------------------------
# Relative entropy of entanglement (upper bound by explicit search)


def rel_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Quantum relative entropy D(rho || sigma) in bits.

    Returns +inf when rho has more than SUPPORT_LEAK_TOL of its mass
    outside the support of sigma.
    """
    if rho.dims != sigma.dims:
        raise ValueError("states must share subsystem dimensions")
    w_s, v_s = eig_hermitian(sigma.mat)
    support = w_s > 1e-12 * max(float(w_s[-1]), 1e-30)
    overlaps = np.real(np.einsum("ij,jk,ik->i", v_s.conj().T, rho.mat, v_s.T))
    leak = float(np.sum(overlaps[~support]))
    if leak > SUPPORT_LEAK_TOL:
        return float("inf")
    w_r = np.linalg.eigvalsh(rho.mat)
    s_rho = entropy_from_spectrum(w_r)        # = -Tr rho log rho
    cross = float(np.sum(overlaps[support] * np.log(w_s[support]) / _LN2))
    return -s_rho - cross


@dataclass(frozen=True)
class SeparableWitness:
    """An explicitly separable state across the AA' | BB' cut:
    noise_weight on the maximally mixed state (the uniform mixture of the
    16 computational product states) plus a product-state mixture
    sum_k weights[k] P(a_k) (x) P(b_k), with a_k on AA' and b_k on BB'.
    The fields are the separability certificate; `sigma()` assembles the
    state with the E_r search's kernel, in (A, B, A', B') order."""

    noise_weight: float
    weights: np.ndarray
    vectors_a: np.ndarray = field(repr=False)
    vectors_b: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        va = np.array(self.vectors_a, dtype=complex)
        vb = np.array(self.vectors_b, dtype=complex)
        if w.ndim != 1 or va.shape != (w.size, 4) or vb.shape != (w.size, 4):
            raise ValueError("witness arrays must be (K,), (K,4), (K,4)")
        if self.noise_weight < 0.0 or w.min() < -1e-15:
            raise ValueError("witness weights must be nonnegative")
        total = self.noise_weight + w.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"witness weights sum to {total}")
        for arr in (w, va, vb):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors_a", va)
        object.__setattr__(self, "vectors_b", vb)

    def sigma(self) -> DensityOperator:
        mat = _witness_sigma_frame(
            self.noise_weight, self.weights, _product_vectors(self.vectors_a, self.vectors_b))
        op = MultipartiteOperator(mat, (2, 2, 2, 2), ("A", "A'", "B", "B'"))
        return as_state(permute_subsystems(op, [0, 2, 1, 3]).mat, (2, 2, 2, 2))


@dataclass(frozen=True)
class ErResult:
    """The search's value and witness, and how it ran.  `gap` (inf if not finite) is
    the Frank-Wolfe gap at the witness, which bounds value - E_r up to oracle exactness."""

    value: float
    witness: SeparableWitness
    restarts_completed: int
    iterations: int
    gap: float
    symmetry_order: int
    orbits: int
    starts: int


def _cross_entropy(rho_mat: np.ndarray, sigma_mat: np.ndarray):
    """-Tr[rho log2 sigma], plus the eigendata (w, V, V+ rho V, ln w) of
    sigma that `_cross_entropy_gradient` turns into its gradient.

    The value costs one 16x16 eigh; the gradient is a separate step so
    that a search pays for it only at the points it accepts.
    """
    w, v = np.linalg.eigh((sigma_mat + sigma_mat.conj().T) / 2.0)
    w = np.clip(w, 1e-300, None)
    r = v.conj().T @ rho_mat @ v
    logw = np.log(w)
    cross = float(np.sum(np.real(np.diag(r)) * logw))
    return -cross / _LN2, (w, v, r, logw)


def _cross_entropy_gradient(eig) -> np.ndarray:
    """Gradient of sigma -> -Tr[rho log2 sigma] from `_cross_entropy`'s
    eigendata.

    The gradient of sigma -> Tr[rho ln sigma] is V [(V+ rho V) o K] V+
    where sigma = V diag(w) V+ and K is the divided-difference table of
    ln on sigma's eigenvalues (the Daleckii-Krein formula), K_ii = 1/w_i.
    """
    w, v, r, logw = eig
    denom = w[:, None] - w[None, :]
    close = np.abs(denom) < 1e-14 * np.maximum(w[:, None], w[None, :])
    np.fill_diagonal(close, True)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = (logw[:, None] - logw[None, :]) / denom
    inv = np.broadcast_to(1.0 / w[:, None], table.shape)
    table = np.where(close, inv, table)
    grad_ln = v @ (r * table) @ v.conj().T
    grad_ln = (grad_ln + grad_ln.conj().T) / 2.0
    return -grad_ln / _LN2


def _product_vectors(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """The K x 16 matrix P of product vectors p_c = a_c (x) b_c in the
    AA' | BB' frame: P[c, 4 i + k] = a_c[i] b_c[k]."""
    return (va[:, :, None] * vb[:, None, :]).reshape(len(va), 16)


def _witness_sigma_frame(noise_w: float, weights: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Assemble sigma in the AA' | BB' frame (16x16): row index (i,k) and
    column index (j,l) with i,j on AA' and k,l on BB', so that
    kron(Pa, Pb)[(i,k),(j,l)] = Pa[i,j] Pb[k,l].

    With P from `_product_vectors`, sum_c w_c p_c p_c+ is the one matmul
    P^T (w o conj P).
    """
    sigma = products.T @ (weights[:, None] * products.conj())
    sigma[np.diag_indices(16)] += noise_w / 16.0
    return sigma


# E_r search: sigma holds at least ER_ORBITS twirled orbits and ER_PRODUCTS
# product terms, and a noise weight above ER_NOISE_FLOOR (under 1.5e-8 bits
# of cost) keeps the gradient on sigma's near-kernel, so the gap, accurate.
ER_ORBITS, ER_PRODUCTS, ER_NOISE_FLOOR = 4, 16, 1e-8
ER_STARTS = 8                 # starts per restart: a search runs restarts * ER_STARTS at most
ER_START_ITERATIONS = 500     # L-BFGS iterations per start
ER_GAP_TOL = 1e-6             # Frank-Wolfe gap at which a start has converged
ER_ORACLE_STARTS, ER_ORACLE_SWEEPS = 16, 20   # the product-state oracle's seesaw
SYMMETRY_ATOL = 1e-10         # max |P rho P - rho| of a symmetry


def _pauli_symmetries(rho: DensityOperator) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The local Pauli strings P with P rho P = rho, a group up to phases:
    their names (letters in A B A' B' order) and their factors g_AA', g_BB'
    in the AA' | BB' frame, as two (|G|, 4, 4) stacks."""
    rho_frame = permute_subsystems(rho, [0, 2, 1, 3]).mat
    pairs = np.einsum("aij,ckl->acikjl", PAULI, PAULI).reshape(4, 4, 4, 4)  # kron(P_a, P_c)
    idx = np.array(list(itertools.product(range(4), repeat=4)))
    ga, gb = pairs[idx[:, 0], idx[:, 2]], pairs[idx[:, 1], idx[:, 3]]
    keep = np.concatenate([  # 16 strings at a time, to keep the temporaries small
        np.max(np.abs(g @ rho_frame @ g - rho_frame), axis=(1, 2))
        for g in (np.einsum("nij,nkl->nikjl", ga[c], gb[c]).reshape(-1, 16, 16)
                  for c in np.split(np.arange(256), 16))]) <= SYMMETRY_ATOL
    return ["".join(PAULI_LETTERS[i] for i in row) for row in idx[keep]], ga[keep], gb[keep]


def _product_minimum(grad: np.ndarray, rng: np.random.Generator) -> float:
    """The least p+ G p over unit products p = a (x) b that a batched seesaw
    finds (a local method): from random b, alternately take a, then b, as
    the lowest eigenvector of the 4x4 operator G leaves on it."""
    g4 = grad.reshape(4, 4, 4, 4)           # G[(i,k),(j,l)] = g4[i,k,j,l]
    b = rng.normal(size=(ER_ORACLE_STARTS, 4)) + 1j * rng.normal(size=(ER_ORACLE_STARTS, 4))
    for _ in range(ER_ORACLE_SWEEPS):
        a = np.linalg.eigh(np.einsum("rk,ikjl,rl->rij", b.conj(), g4, b))[1][:, :, 0]
        lows, vecs = np.linalg.eigh(np.einsum("ri,ikjl,rj->rkl", a.conj(), g4, a))
        b = vecs[:, :, 0]
    return float(np.min(lows[:, 0]))


def _lbfgs(value, gradient, z: np.ndarray, max_iter: int):
    """Minimise value(z) -> (f, state) by L-BFGS (memory 10) with Armijo
    backtracking, a first step that moves no coordinate by more than 0.1,
    and `gradient(state)` for accepted points only; a non-finite f is
    rejected.  Stops when no step lowers f, or after max_iter iterations;
    returns (f, state, iterations)."""
    f, state = value(z)
    g = gradient(state)
    pairs, it = [], 0  # pairs: (s, y, 1 / s.y), the newest last
    for it in range(1, max_iter + 1):
        d, alphas = -g, []
        for s, y, inv_sy in reversed(pairs):
            alphas.append(inv_sy * float(s @ d))
            d -= alphas[-1] * y
        d *= 1.0 / (pairs[-1][2] * float(pairs[-1][1] @ pairs[-1][1])) if pairs else 1.0
        for (s, y, inv_sy), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - inv_sy * float(y @ d)) * s
        slope = float(g @ d)
        if not slope < 0.0:  # not a descent direction: forget the curvature
            pairs.clear()
            d, slope = -g, -float(g @ g)
        step = 1.0 if pairs else min(1.0, 0.1 / max(float(np.max(np.abs(d))), 1e-300))
        while True:
            trial = z + step * d
            f_trial, state_trial = value(trial)
            if f_trial <= f + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-14:
                return f, state, it
        g_trial = gradient(state_trial)
        s, y = trial - z, g_trial - g
        if float(s @ y) > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            pairs = (pairs + [(s, y, 1.0 / float(s @ y))])[-10:]
        z, f, state, g = trial, f_trial, state_trial, g_trial
    return f, state, it


def er_upper_bound(
    rho: DensityOperator,
    restarts: int = 4,
    seed: int = 0,
) -> ErResult:
    """Upper-bound the relative entropy of entanglement across AA' | BB'
    by an explicit separable state; the value is always an upper bound.

    rho is invariant under the local Pauli strings `_pauli_symmetries`
    finds, so twirling sigma over them keeps it separable and never raises
    D(rho || sigma) (Vollbrecht and Werner, PRA 64, 062307, 2001).  sigma
    is white noise plus K twirled product states, and L-BFGS moves their
    unnormalised seeds (a = x / |x|) and softmax weights; the gradient at
    a twirled sigma commutes with the group, so it comes from the seeds.
    Starts are seeded by (seed, restart, start), ER_STARTS per restart;
    the search ends at the first start whose Frank-Wolfe gap (see ErResult)
    is at most ER_GAP_TOL (on the flagship, the first or second start, of
    about 0.1 s each), or after restarts * ER_STARTS starts, so the result
    depends on rho, `restarts` and `seed` alone.  The value is
    `rel_entropy` of the witness (|G| terms per orbit).
    """
    if rho.dims != (2, 2, 2, 2):
        raise UnsupportedStateError("the search is implemented for four-qubit states")
    if restarts < 1:
        raise ValueError("at least one restart required")
    rho_frame = permute_subsystems(rho, [0, 2, 1, 3]).mat  # to AA'|BB' order
    s_rho = von_neumann_entropy(rho)
    group = np.stack(_pauli_symmetries(rho)[1:])  # (2, |G|, 4, 4)
    order = group.shape[1]
    k = max(ER_ORBITS, -(-ER_PRODUCTS // order))
    n = 8 * k  # reals in one stack of seed vectors

    def value(z):
        x = z[: 2 * n].view(complex).reshape(2, k, 4)
        norms = np.linalg.norm(x, axis=2, keepdims=True)
        soft = np.exp(z[2 * n :] - z[2 * n :].max())
        soft /= soft.sum()
        wts = (1.0 - ER_NOISE_FLOOR) * soft + ER_NOISE_FLOOR * (np.arange(k + 1) == 0)
        ea, eb = np.einsum("sgij,skj->skgi", group, x / norms).reshape(2, -1, 4)  # by orbit
        sigma = _witness_sigma_frame(
            wts[0], wts[1:].repeat(order) / order, _product_vectors(ea, eb))
        cross, eig = _cross_entropy(rho_frame, sigma)
        return cross - s_rho, (x / norms, norms, soft, wts, ea, eb, sigma, eig)

    def gradient(state):
        # From the seeds p_k alone, f_orbit = w_k Tr[G p_k p_k+]; with
        # GP = P G^T reshaped to (k, 4, 4), the Wirtinger gradients are
        #   df/d conj(a_ki) = w_k sum_l GP[k,i,l] conj(b_kl), and b alike,
        # taken through a = x / |x| (the part along a drops out) and the
        # softmax: df/dtheta_c = (1 - floor) s_c (v_c - s.v), v_c = Tr[G comp_c].
        v, norms, soft, wts, _, _, _, eig = state
        grad = _cross_entropy_gradient(eig)
        prods = _product_vectors(*v)
        gp = prods @ grad.T
        gp3 = gp.reshape(k, 4, 4)
        wg = wts[1:, None] * np.stack([np.einsum("cik,ck->ci", gp3, v[1].conj()),
                                       np.einsum("ci,cik->ck", v[0].conj(), gp3)])
        wg -= np.real(np.sum(v.conj() * wg, axis=2, keepdims=True)) * v
        vals = np.real(np.concatenate([[np.trace(grad) / 16.0], np.sum(prods.conj() * gp, axis=1)]))
        return np.concatenate([(2.0 * wg / norms).reshape(-1).view(float),
                               (1.0 - ER_NOISE_FLOOR) * soft * (vals - float(soft @ vals))])

    best, total_iter = None, 0
    for i in range(restarts * ER_STARTS):
        restart, start = divmod(i, ER_STARTS)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), restart, start]))
        z = np.concatenate([rng.normal(size=2 * n), np.zeros(k + 1)])
        f, state, it = _lbfgs(value, gradient, z, ER_START_ITERATIONS)
        total_iter += it
        grad = _cross_entropy_gradient(state[-1])
        gap = float(np.real(np.sum(grad * state[-2].T))) - _product_minimum(grad, rng)
        if np.isfinite(f) and (best is None or f < best[0]):
            best = (f, gap if np.isfinite(gap) else float("inf"), state)
        if np.isfinite(f) and gap <= ER_GAP_TOL:
            break

    _, gap, (_, _, _, wts, ea, eb, _, _) = best
    witness = SeparableWitness(float(wts[0]), wts[1:].repeat(order) / order, ea, eb)
    exact = float(rel_entropy(rho, witness.sigma()))
    return ErResult(exact, witness, restart + 1, total_iter, gap, order, k, i + 1)

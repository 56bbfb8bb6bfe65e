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

import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DensityOperator,
    MultipartiteOperator,
    as_state,
    eig_hermitian,
    entropy_from_spectrum,
    partial_trace,
    permute_subsystems,
    von_neumann_entropy,
)
from .states import bell_states

_LN2 = float(np.log(2.0))

BLOCK_UNITARITY_ATOL = 1e-9
PSD_GUARANTEE_ATOL = 1e-9
EIGENVALUE_KEEP = 1e-12        # ensemble weights below this are dropped
SUPPORT_LEAK_TOL = 1e-10       # mass of rho outside supp(sigma) treated as infinite


class CertificationInfeasibleError(ValueError):
    """No positive-semidefinite two-qubit state matches the given
    diagonal/antidiagonal parameter set (or confidence rectangle)."""


class UnsupportedStateError(ValueError):
    """A valid state that the requested analysis does not cover, such as
    a d = 3 family member handed to a four-qubit-only routine."""


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
            block = np.asarray(getattr(self, name), dtype=complex)
            if block.ndim != 2 or block.shape[0] != block.shape[1]:
                raise ValueError(f"twisting block {name} must be square")
            if block.shape != np.asarray(self.u00).shape:
                raise ValueError("twisting blocks must share one dimension")
            dev = float(np.max(np.abs(block.conj().T @ block - np.eye(block.shape[0]))))
            if dev > BLOCK_UNITARITY_ATOL:
                raise ValueError(f"twisting block {name} is not unitary (deviation {dev:.3e})")
            block.setflags(write=False)
            object.__setattr__(self, name, block)

    @property
    def shield_dim(self) -> int:
        return self.u00.shape[0]

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.u00, self.u01, self.u10, self.u11

    def full(self) -> np.ndarray:
        """The assembled unitary on (A, B, A', B'), block diagonal over the
        AB basis in the order |00>, |01>, |10>, |11>."""
        n = self.shield_dim
        out = np.zeros((4 * n, 4 * n), dtype=complex)
        for i, block in enumerate(self.blocks()):
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
    dev = float(np.max(np.abs(v.conj().T @ v - np.eye(x.shape[0]))))
    if dev > BLOCK_UNITARITY_ATOL:
        raise ValueError(
            "polar completion is not unitary (row and column spaces of the "
            f"block operator differ; deviation {dev:.3e})"
        )
    return v


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
    noise_weight on the maximally mixed state plus a product-state
    mixture sum_k weights[k] P(a_k) (x) P(b_k), with a_k on AA' and
    b_k on BB'.  `sigma()` reassembles it in (A, B, A', B') order."""

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

    def product_terms(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """Expand into pure product terms (weight, a on AA', b on BB'),
        including the 16 computational products that make up the
        maximally mixed part.  This list certifies separability."""
        terms = []
        eye = np.eye(4)
        for m in range(4):
            for n in range(4):
                terms.append((self.noise_weight / 16.0, eye[m], eye[n]))
        for k in range(self.weights.size):
            terms.append((float(self.weights[k]), self.vectors_a[k], self.vectors_b[k]))
        return [(w, a, b) for (w, a, b) in terms if w > 0.0]

    def sigma(self) -> DensityOperator:
        mat = np.zeros((16, 16), dtype=complex)
        for w, a, b in self.product_terms():
            mat += w * np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
        op = MultipartiteOperator(mat, (2, 2, 2, 2), ("A", "A'", "B", "B'"))
        back = permute_subsystems(op, [0, 2, 1, 3])
        return as_state(back.mat, (2, 2, 2, 2))


@dataclass(frozen=True)
class ErResult:
    value: float
    witness: SeparableWitness
    restarts_completed: int
    iterations: int


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


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return m / norms


# Product components in every E_r search restart: the 16 computational
# products of the diagonal-matched start plus 8 free ones.
ER_COMPONENTS = 24


def er_upper_bound(
    rho: DensityOperator,
    budget_seconds: float | None = 60.0,
    restarts: int = 256,
    seed: int = 0,
) -> ErResult:
    """Upper-bound the relative entropy of entanglement across AA' | BB'
    by searching over explicit separable mixtures.

    Block-coordinate descent with analytic gradients on the product
    vectors and softmax weights, multi-start.  Restarts are independent
    and merged by minimum, and each one depends only on (seed, restart).
    `budget_seconds` is checked between restarts only: it truncates how
    many restarts run, never a restart in progress, and the first one
    always runs (None = run them all).

    Returns the best value found together with its separability witness.
    The value is always an upper bound on E_r; tightness depends on the
    search budget.
    """
    if rho.dims != (2, 2, 2, 2):
        raise UnsupportedStateError("the search is implemented for four-qubit states")
    if restarts < 1:
        raise ValueError("at least one restart required")
    rho_frame = permute_subsystems(rho, [0, 2, 1, 3]).mat  # to AA'|BB' order
    s_rho = von_neumann_entropy(rho)
    deadline = None if budget_seconds is None else time.monotonic() + float(budget_seconds)

    diag_rho = np.real(np.diag(rho_frame))

    def initial(restart: int, rng: np.random.Generator):
        if restart == 0:
            # Diagonal-matched start: computational products weighted by
            # the state's own diagonal, a separable state by construction.
            va = np.zeros((ER_COMPONENTS, 4), dtype=complex)
            vb = np.zeros((ER_COMPONENTS, 4), dtype=complex)
            theta = np.full(ER_COMPONENTS + 1, -12.0)
            theta[0] = np.log(0.05)
            for idx in range(16):
                m, n = divmod(idx, 4)
                va[idx, m] = 1.0
                vb[idx, n] = 1.0
                theta[idx + 1] = np.log(max(diag_rho[4 * m + n] * 0.95, 1e-8))
            for idx in range(16, ER_COMPONENTS):
                va[idx] = rng.normal(size=4) + 1j * rng.normal(size=4)
                vb[idx] = rng.normal(size=4) + 1j * rng.normal(size=4)
            return theta, _normalize_rows(va), _normalize_rows(vb)
        va = rng.normal(size=(ER_COMPONENTS, 4)) + 1j * rng.normal(size=(ER_COMPONENTS, 4))
        vb = rng.normal(size=(ER_COMPONENTS, 4)) + 1j * rng.normal(size=(ER_COMPONENTS, 4))
        theta = np.concatenate([[np.log(0.2)], rng.normal(scale=0.3, size=ER_COMPONENTS)])
        return theta, _normalize_rows(va), _normalize_rows(vb)

    def objective(theta, va, vb):
        """Value at a point, with its softmax weights, its product vectors
        and the eigendata its gradient is built from."""
        wts = np.exp(theta - theta.max())
        wts /= wts.sum()
        prods = _product_vectors(va, vb)
        cross, eig = _cross_entropy(rho_frame, _witness_sigma_frame(wts[0], wts[1:], prods))
        return cross - s_rho, wts, prods, eig

    def line_search(step, direction_apply, f):
        """Backtracking along the supplied update.  Returns the accepted
        point (trial, value, weights, product vectors, gradient) or None,
        and the next step; rejected trials get no gradient."""
        while step >= 1e-12:
            trial, (f2, wts2, prods2, eig2) = direction_apply(step)
            if f2 < f - 1e-15:
                point = (trial, f2, wts2, prods2, _cross_entropy_gradient(eig2))
                return point, min(step * 2.0, 64.0)
            step *= 0.5
        return None, 1e-6

    best_val = np.inf
    best = None
    total_iter = 0
    completed = 0

    for restart in range(restarts):
        if deadline is not None and restart > 0 and time.monotonic() > deadline:
            break
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), restart]))
        theta, va, vb = initial(restart, rng)
        f, wts, prods, eig = objective(theta, va, vb)
        grad = _cross_entropy_gradient(eig)
        step_a = step_b = step_t = 0.5
        stale = 0
        anchor = f
        it = 0
        for it in range(1, 4001):
            # Gradients of f with respect to the conjugated product
            # vectors (Wirtinger) at fixed weights, from one matmul:
            #   f_component = w_c Tr[G p_c p_c+] = w_c p_c+ G p_c,
            #   GP[c, i, k] = (G p_c)[(i,k)],  GP = P G^T,
            #   df/d conj(a_ci) = w_c sum_k GP[c,i,k] conj(b_ck),
            #   df/d conj(b_ck) = w_c sum_i conj(a_ci) GP[c,i,k].
            improved = False

            gp = (prods @ grad.T).reshape(ER_COMPONENTS, 4, 4)
            grad_a = wts[1:, None] * np.einsum("cik,ck->ci", gp, vb.conj())

            def apply_a(s, grad_a=grad_a):
                trial = _normalize_rows(va - s * grad_a)
                return trial, objective(theta, trial, vb)

            point, step_a = line_search(step_a, apply_a, f)
            if point is not None:
                va, f, wts, prods, grad = point
                improved = True

            gp = (prods @ grad.T).reshape(ER_COMPONENTS, 4, 4)
            grad_b = wts[1:, None] * np.einsum("ci,cik->ck", va.conj(), gp)

            def apply_b(s, grad_b=grad_b):
                trial = _normalize_rows(vb - s * grad_b)
                return trial, objective(theta, va, trial)

            point, step_b = line_search(step_b, apply_b, f)
            if point is not None:
                vb, f, wts, prods, grad = point
                improved = True

            # Weight block through the softmax parametrization:
            # df/dtheta_c = w_c (v_c - sum_m w_m v_m), v_c = Tr[G comp_c],
            # which is Re p_c+ G p_c = Re sum conj(P) o GP for the products.
            comp_vals = np.empty(ER_COMPONENTS + 1)
            comp_vals[0] = float(np.real(np.trace(grad))) / 16.0
            comp_vals[1:] = np.real(np.sum(prods.conj() * (prods @ grad.T), axis=1))
            grad_t = wts * (comp_vals - float(np.dot(wts, comp_vals)))

            def apply_t(s, grad_t=grad_t):
                trial = theta - s * grad_t
                trial = trial - trial.max()
                return trial, objective(trial, va, vb)

            point, step_t = line_search(step_t, apply_t, f)
            if point is not None:
                theta, f, wts, prods, grad = point
                improved = True

            stale += 1
            if stale >= 50:
                if anchor - f < 1e-7:
                    break
                anchor = f
                stale = 0
            if not improved and max(step_a, step_b, step_t) <= 1e-6:
                break
        total_iter += it
        completed = restart + 1
        if f < best_val - 1e-15:
            best_val = f
            best = (va.copy(), vb.copy(), wts.copy())

    va, vb, wts = best
    witness = SeparableWitness(float(wts[0]), wts[1:], va, vb)
    exact = rel_entropy(rho, witness.sigma())
    return ErResult(
        value=float(exact),
        witness=witness,
        restarts_completed=completed,
        iterations=total_iter,
    )

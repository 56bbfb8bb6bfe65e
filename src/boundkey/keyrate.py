"""Key-rate machinery: twisting, privacy squeezing, ccq states, one-way
and twirl-based key bounds with the closed-form two-way recurrence, and a
relative-entropy-of-entanglement upper bound.  The twirl-hashing bound
of a state (`twirl_hashing_bound`), on its noise ray (`twirl_hashing_ray`)
and over a box of parameters (`twirl_hashing_minimum`, the floor) live here.

The central objects are key states: the first two subsystems are the
qubits A, B that hold the key bit, and everything after them is the shield
(A'B' for the family, possibly nothing).  Every function here reads such
a state through its 4 x 4 grid of shield blocks rho_IK, and any other
state is refused (UnsupportedStateError).  A *twisting* is a unitary
controlled by the AB computational basis acting on the shield, seen only
through its block products U^I+ U^K; *privacy squeezing* twists and then
traces out the shield, concentrating the privacy properties of the state
into a two-qubit state sigma_AB whose parameters certify key.  All
entropies and rates are in bits.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .linalg import (
    PAULI,
    PAULI_LETTERS,
    CertificationInfeasibleError,
    DensityOperator,
    MultipartiteOperator,
    UnsupportedStateError,
    _check_blocks,
    _check_square,
    _refuse_non_unitary,
    _unitarity_deviations,
    check_four_qubits,
    check_seed,
    check_whole,
    eig_hermitian,
    entropy_from_spectrum,
    frozen_copy,
    pauli_decompose,
    permute_subsystems,
    von_neumann_entropy,
)

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
    A key state sees it only through the read-only table
    ``products[I, K] = U^I+ U^K`` (outcomes I, K in the order |00>, |01>,
    |10>, |11>), built once here; its diagonal U^I+ U^I is each block's
    unitarity check.
    """

    u00: np.ndarray
    u01: np.ndarray
    u10: np.ndarray
    u11: np.ndarray
    products: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        names = ("u00", "u01", "u10", "u11")
        blocks = [np.asarray(getattr(self, name), dtype=complex) for name in names]
        for name, block in zip(names, blocks):
            _check_square(block, f"twisting block {name}")
            if block.shape != blocks[0].shape:
                raise ValueError("twisting blocks must share one dimension")
        u = frozen_copy(blocks)  # each block is a read-only, C-ordered view of it
        products = u.conj().transpose(0, 2, 1)[:, None] @ u[None, :]
        deviations = _unitarity_deviations(np.diagonal(products).transpose(2, 0, 1))
        for name, block, dev in zip(names, u, deviations):
            _refuse_non_unitary(dev, f"twisting block {name}")
            object.__setattr__(self, name, block)
        products.setflags(write=False)
        object.__setattr__(self, "products", products)

    @property
    def shield_dim(self) -> int:
        return self.u00.shape[0]


def _polar_unitary_identity_completion(x: np.ndarray) -> np.ndarray:
    """The unitary factors of the polar decompositions X = V |X| of a
    (k, n, n) stack of blocks, with directions of zero singular value
    completed by the identity, as a (k, n, n) stack; a vanishing block
    gets the identity.

    One SVD runs over the stack; each block is completed on its own rank,
    V = U_r Vh_r + (I - projector onto the row space).  That is unitary
    whenever the row and column spaces of X coincide, which holds for
    every operator this package feeds it; assembly is asserted for the
    whole stack at once.
    """
    u, s, vh = np.linalg.svd(x)
    eye = np.eye(x.shape[-1])
    v = np.empty_like(x)
    for k in range(len(x)):
        if s[k].size == 0 or s[k, 0] <= 0.0:
            v[k] = eye
            continue
        r = np.count_nonzero(s[k] > 1e-10 * s[k, 0])
        row_proj = vh[k, :r].conj().T @ vh[k, :r]
        v[k] = u[k, :, :r] @ vh[k, :r] + (eye - row_proj)
    _refuse_non_unitary(np.max(_unitarity_deviations(v.conj().transpose(0, 2, 1) @ v)),
                        "polar completion (row and column spaces differ)")
    return v


def _key_grid(rho: DensityOperator, shield: int | None = None) -> np.ndarray:
    """The (4, n, 4, n) block view of a key state: grid[I, :, K] is the
    shield block rho_IK = <I|rho|K> for key outcomes I, K in the order
    |00>, |01>, |10>, |11>.  The first two subsystems are the key qubits
    and everything after them is the shield (possibly nothing, n = 1); any
    other state is refused (UnsupportedStateError), and so is a shield of
    another dimension than ``shield`` when one is given (ValueError)."""
    if rho.dims[:2] != (2, 2):
        raise UnsupportedStateError(
            f"a key state's first two subsystems are the key qubits, not dims {rho.dims}"
        )
    n = math.prod(rho.dims[2:])
    if shield is not None and n != shield:
        raise ValueError(f"twisting acts on shield dimension {shield}, state has {n}")
    return rho.mat.reshape(4, n, 4, n)


def corner_blocks(rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """The blocks x1 = <00|rho|11> and x2 = <01|rho|10> on the shield,
    whose polar unitaries ``canonical_twisting`` takes."""
    grid = _key_grid(rho)
    return grid[0, :, 3], grid[1, :, 2]


def canonical_twisting(x1: np.ndarray, x2: np.ndarray) -> TwistingUnitary:
    """The twisting that makes both block operators positive semidefinite.

    U^00 (resp. U^01) is the adjoint of the polar unitary of x1 (x2), so
    that U^00 x1 = |x1| and U^01 x2 = |x2|; U^10 = U^11 = I.  Applied to a
    standard-form state this maximizes the Bell-diagonal coherences of
    the squeezed two-qubit state.  A vanishing block (a pure private bit
    has x2 = 0) gets the identity as its polar factor.

    The twisting is recalled, from a cache bounded at
    ``_TWISTING_CACHE_SIZE`` entries, for blocks with the same entries in
    C order, whatever their memory layout; the same read-only object is
    returned each time.
    """
    x1, x2 = _check_blocks(x1, x2)
    return _cached_twisting(x1.shape[0], x1.tobytes(), x2.tobytes())


#: distinct block pairs whose canonical twisting is kept; a state's twisting
#: is asked for by its squeeze and again by each bound derived from it
_TWISTING_CACHE_SIZE = 16


@lru_cache(maxsize=_TWISTING_CACHE_SIZE)
def _cached_twisting(n: int, x1_bytes: bytes, x2_bytes: bytes) -> TwistingUnitary:
    """``canonical_twisting`` of the n x n complex blocks stored in
    ``x1_bytes`` and ``x2_bytes`` in C order: one polar pass over their
    stack, and U^00 x1, U^01 x2 checked positive in one stacked pass."""
    x = np.frombuffer(x1_bytes + x2_bytes, dtype=complex).reshape(2, n, n)
    u = _polar_unitary_identity_completion(x).conj().transpose(0, 2, 1)  # U^00, U^01
    eye = np.eye(n)
    tau = TwistingUnitary(u[0], u[1], eye, eye)
    prod = u @ x
    prod_h = prod.conj().transpose(0, 2, 1)
    herm_dev = np.max(np.abs(prod - prod_h), axis=(1, 2))
    lam_min = np.linalg.eigvalsh((prod + prod_h) / 2.0)[:, 0]
    for name, dev, lam in zip(("U00 x1", "U01 x2"), herm_dev, lam_min):
        if dev > PSD_GUARANTEE_ATOL or lam < -PSD_GUARANTEE_ATOL:
            raise AssertionError(
                f"canonical twisting failed to positivize {name}: "
                f"hermiticity {dev:.3e}, min eigenvalue {lam:.3e}"
            )
    return tau


def privacy_squeeze(rho: DensityOperator, tau: TwistingUnitary) -> DensityOperator:
    """Twist the state and trace out the shield, leaving sigma_AB on two
    qubits.  The result carries every parameter the verification scheme
    estimates.

    The twisting is block diagonal over the AB basis, so each entry is one
    sum over a shield block, sigma_IK = Tr[U^I rho_IK U^K+] =
    sum (U^K+ U^I)^T o rho_IK (o the entrywise product), read off the
    twisting's `products` table; the assembled 4n x 4n unitary is never
    built."""
    grid = _key_grid(rho, tau.shield_dim)
    return DensityOperator(np.einsum("kiba,iakb->ik", tau.products, grid), (2, 2), ("A", "B"))


# ---------------------------------------------------------------------------
# ccq states and one-way rates


@dataclass(frozen=True)
class CcqState:
    """A ccq state as Eve's unnormalised conditional blocks: omega[a, b] =
    p(a, b) rho_E|ab, of shape (2, 2, n, n), where p(a, b) is the
    probability of Alice reading a and Bob b and rho_E|ab is Eve's state
    given that outcome.  An outcome that never happens is a zero block.

    Eve's states matter only up to a common isometry (every rate here is
    an entropy of her blocks and their sums), so they may be given on any
    space that holds all of them, as `ccq_from_state` does.  Blocks that
    are malformed, not finite, not Hermitian within 1e-10 or whose traces
    are not a distribution are refused (ValueError)."""

    omega: np.ndarray

    def __post_init__(self):
        omega = frozen_copy(self.omega, dtype=complex)
        if omega.ndim != 4 or omega.shape[:2] != (2, 2) or omega.shape[2] != omega.shape[3]:
            raise ValueError(f"Eve's blocks must have shape (2, 2, n, n), got {omega.shape}")
        if not np.isfinite(omega).all():
            raise ValueError("Eve's blocks must be finite")
        herm = float(np.max(np.abs(omega - omega.conj().swapaxes(2, 3)), initial=0.0))
        if herm > 1e-10:
            raise ValueError(f"Eve's blocks are not Hermitian: max|M - M^dag| = {herm:.3e}")
        object.__setattr__(self, "omega", omega)
        p = self.p
        if p.min() < -1e-12:
            raise ValueError(f"negative outcome probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"outcome probabilities sum to {p.sum()}")

    @property
    def p(self) -> np.ndarray:
        """The outcome table p[a, b]: the real traces of Eve's blocks."""
        return np.einsum("abii->ab", self.omega).real


def ccq_from_state(rho: DensityOperator, conservative: bool = True) -> CcqState:
    """Measure the key qubits in the computational basis against an
    eavesdropper holding a purification.

    For each outcome (a, b), Eve's block is the reduced state of the
    purifying system of an eigendecomposition, restricted to that outcome.
    When `conservative` is true she also holds the shield, everything but
    the key bits; her view is then a purification of rho_AB (Horodecki,
    Horodecki, Horodecki & Oppenheim, PRL 94, 160502, 2005), so rho_AB is
    purified and her blocks are at most 4x4.
    """
    grid = _key_grid(rho)
    mat, rest = (np.einsum("iaka->ik", grid), 1) if conservative else (rho.mat, grid.shape[1])
    w, v = eig_hermitian(mat)
    keep = w > EIGENVALUE_KEEP
    amps = (v[:, keep] * np.sqrt(w[keep])).reshape(2, 2, rest, -1)
    omega = amps.swapaxes(2, 3) @ amps.conj()
    return CcqState(omega / np.einsum("abii->", omega).real)


def dw_rate(ccq: CcqState) -> float:
    """Devetak-Winter one-way key rate S(A|E) - H(A|B) of a ccq state, in
    bits (Devetak & Winter, Proc. R. Soc. A 461, 207, 2005).

    With omega_a = sum_b omega[a, b] and f(X) = -Tr X log2 X on the
    unnormalised blocks, S(A|E) = f(omega_0) + f(omega_1) - f(omega_0 +
    omega_1) and H(A|B) = H(AB) - H(B) of the outcome table.  The value
    may be negative and is reported as-is.
    """
    alice = ccq.omega.sum(axis=1)
    w = np.linalg.eigvalsh(np.concatenate([alice, alice.sum(axis=0, keepdims=True)]))
    p = ccq.p
    s_a_given_e = entropy_from_spectrum(w[:2]) - entropy_from_spectrum(w[2])
    return s_a_given_e - (entropy_from_spectrum(p) - entropy_from_spectrum(p.sum(axis=0)))


# ---------------------------------------------------------------------------
# Twirl-hashing bound and certified bounds


def _twirl_weights(corr: float, re_a: float, re_b: float) -> list[float]:
    """The Bell weights (corr/2 +- re_a, (1 - corr)/2 +- re_b) in the
    package's Bell order, each coherence first projected onto its sector's
    half-weight (sampling noise can push an estimate past it)."""
    weights = []
    for center, offset in ((corr / 2.0, re_a), ((1.0 - corr) / 2.0, re_b)):
        offset = math.copysign(min(abs(offset), center), offset)
        weights += [center + offset, center - offset]
    return weights


def twirl_hashing(corr: float, re_a: float, re_b: float) -> float:
    """The certifying key bound 1 - S(twirl spectrum), in bits.

    Bilateral Pauli twirling projects a two-qubit state onto its Bell
    weights (corr/2 +- re_a, (1 - corr)/2 +- re_b) without changing the
    key-basis statistics, and the one-way (Devetak-Winter) rate of the
    twirled state is 1 - S(weights).  corr = d00 + d11 is the correlated
    weight, re_a = Re <00|sigma|11> and re_b = Re <01|sigma|10>; a
    coherence past its sector's weight is projected back onto it
    (`_twirl_weights`).  Non-finite arguments are refused (ValueError).
    """
    if not (math.isfinite(corr) and math.isfinite(re_a) and math.isfinite(re_b)):
        raise ValueError(f"twirl_hashing needs finite arguments, got {(corr, re_a, re_b)}")
    weights = _twirl_weights(corr, re_a, re_b)
    entropies = []
    for sector in (weights[:2], weights[2:]):
        entropy = 0.0
        for w in sector:
            if w > 0.0:
                entropy -= w * math.log2(w)
        entropies.append(entropy)
    return 1.0 - entropies[0] - entropies[1]


#: rounding slack for the spectrum-validity guards of `twirl_hashing_minimum`;
#: points inside it are projected onto the validity boundary, which is the
#: limit of valid points, so the minimum stays sound
FEASIBILITY_SLACK = 1e-9


def _toward_zero(center: float, radius: float) -> float:
    """The point of [center - radius, center + radius] closest to zero."""
    if abs(center) <= radius:
        return 0.0
    return center - math.copysign(radius, center)


def twirl_hashing_minimum(corr: float, corr_radius: float, re_a: float, re_a_radius: float,
                          re_b: float, re_b_radius: float) -> float | None:
    """Minimum of `twirl_hashing` over the box of parameters within the
    given radius of (corr, re_a, re_b).

    For a fixed correlated weight D the bound is monotone in the
    magnitude of each real coherence, so the inner minimizers are the
    in-interval points closest to zero, ra and rb.  With those fixed the
    bound is convex in D wherever the spectrum is valid (2|ra| <= D <=
    1 - 2|rb|), with stationary point D* = 1/2 + 2(ra^2 - rb^2), the
    root of (D/2)^2 - ra^2 = ((1 - D)/2)^2 - rb^2.  The minimum is the
    smallest of three evaluations of `twirl_hashing`, which projects the
    coherences onto the valid range: D* clipped to the valid part of the
    correlated-weight interval, and both ends of that part widened by the
    FEASIBILITY_SLACK projection.  If no point of the box is valid, even
    within the slack, the result is None.
    """
    lo = max(corr - corr_radius, 0.0)
    hi = min(corr + corr_radius, 1.0)
    ra = _toward_zero(re_a, re_a_radius)
    rb = _toward_zero(re_b, re_b_radius)
    core_lo = max(lo, 2.0 * abs(ra))
    core_hi = min(hi, 1.0 - 2.0 * abs(rb))
    first = max(lo, core_lo - 2.0 * FEASIBILITY_SLACK)
    last = min(hi, core_hi + 2.0 * FEASIBILITY_SLACK)
    if first > last:
        return None

    points = [first, last]
    if core_lo <= core_hi:
        stationary = 0.5 + 2.0 * (ra * ra - rb * rb)
        points.append(min(max(stationary, core_lo), core_hi))
    return min(twirl_hashing(d, ra, rb) for d in points)


def _twirl_parameters(state: DensityOperator, tau: TwistingUnitary) -> tuple[float, float, float]:
    """(corr, re_a, re_b) of `state` squeezed with `tau` (sigma00 + sigma33,
    Re sigma03, Re sigma12) without building sigma: the twisting is block
    diagonal, so sigma_IK = sum (U^K+ U^I)^T o rho_IK (o entrywise, summed)
    over the shield block rho_IK, read off the twisting's `products` table.
    A state that `privacy_squeeze` would refuse is refused the same way."""
    grid = _key_grid(state, tau.shield_dim)
    diag = np.einsum("iaia->ia", grid).real
    corr = float(diag[0].sum() + diag[3].sum())
    re_a = float((tau.products[3, 0].T * grid[0, :, 3]).sum().real)
    re_b = float((tau.products[2, 1].T * grid[1, :, 2]).sum().real)
    return corr, re_a, re_b


def twirl_hashing_bound(rho: DensityOperator) -> Callable[[DensityOperator], float]:
    """Certified-key bound derived once from a clean reference state: the
    callable evaluates `twirl_hashing` on `_twirl_parameters` of its
    argument under the reference's canonical twisting.  Squeezing and
    twirling only ever discard key, so the value is a valid lower bound on
    distillable key for any state it is applied to, not just the reference."""
    tau = canonical_twisting(*corner_blocks(rho))
    return lambda state: twirl_hashing(*_twirl_parameters(state, tau))


def twirl_hashing_ray(rho: DensityOperator) -> Callable[[float], float]:
    """p -> `twirl_hashing_bound(rho)` of (1 - p) rho + p I/dim, in closed
    form.  The squeeze of I/dim is I/4, so the three numbers the bound
    reads are affine in p: (1 - p) corr + p/2, (1 - p) re_a and
    (1 - p) re_b, read once off rho with its own canonical twisting."""
    corr, re_a, re_b = _twirl_parameters(rho, canonical_twisting(*corner_blocks(rho)))
    return lambda p: twirl_hashing((1.0 - p) * corr + p / 2.0, (1.0 - p) * re_a, (1.0 - p) * re_b)


@dataclass(frozen=True)
class BoundsReport:
    """Key bounds computable from the diagonal and antidiagonal parameters
    of the squeezed two-qubit state.

    spectrum holds the twirl weights in the package's Bell order (00+11,
    00-11, 01+10, 01-10), projected as `twirl_hashing` projects them and
    with non-positive weights reported as 0.  twirl_hashing is the
    certifying bound 1 - S(spectrum): operationally valid because
    twirling can be applied before hashing.  info_minus_twirl_entropy = I_cl(A:B) - S(spectrum) is
    a stricter-looking variant reported for transparency; it is negative
    for the flagship state and is not used for certification.  The
    recurrence fields describe one XOR-agreement step before hashing;
    two_way_flag says whether the hashing bound after it is positive.
    """

    spectrum: np.ndarray
    twirl_hashing: float
    info_minus_twirl_entropy: float
    two_way_flag: bool
    recurrence_acceptance: float
    recurrence_per_copy_rate: float


def certified_bounds(
    diag, re_a: float, im_a: float, re_b: float, im_b: float
) -> BoundsReport:
    """Key bounds from exact squeezed-state parameters.

    Parameters are the computational-basis diagonal (d00, d01, d10, d11)
    of sigma_AB plus its two antidiagonal coherences A = <00|sigma|11>
    and B = <01|sigma|10>, split into real and imaginary parts.  The
    bounds depend on c = d00 + d11, reA and reB alone (`twirl_hashing`).
    This is the package's one two-way recurrence: one XOR-agreement step
    keeps a pair with probability c^2 + (1 - c)^2 and maps (c, reA, reB)
    to (c^2, 2 reA^2, 2 reB^2) divided by that acceptance, in closed form.

    Raises ValueError for non-finite parameters, and
    CertificationInfeasibleError when no positive semidefinite two-qubit
    state has these parameters.
    """
    d = np.array(diag, dtype=float)
    if d.shape != (4,):
        raise ValueError("diag must have four entries")
    if not np.isfinite([*d, re_a, im_a, re_b, im_b]).all():
        raise ValueError("certified_bounds needs finite parameters")
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
    corr = float(d[0] + d[3])
    p = d.reshape(2, 2)
    info = (entropy_from_spectrum(p.sum(axis=1)) + entropy_from_spectrum(p.sum(axis=0))
            - entropy_from_spectrum(p))
    spectrum = np.clip(_twirl_weights(corr, re_a, re_b), 0.0, None)
    spectrum.setflags(write=False)
    hashing = twirl_hashing(corr, re_a, re_b)
    accept = corr * corr + (1.0 - corr) ** 2
    rec_hashing = twirl_hashing(corr * corr / accept, 2.0 * re_a * re_a / accept,
                                2.0 * re_b * re_b / accept)
    return BoundsReport(
        spectrum=spectrum,
        twirl_hashing=hashing,
        info_minus_twirl_entropy=info - (1.0 - hashing),
        two_way_flag=bool(rec_hashing > 0.0),
        recurrence_acceptance=accept,
        recurrence_per_copy_rate=(accept / 2.0) * rec_hashing,
    )


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
        w = frozen_copy(self.weights, dtype=float)
        va = frozen_copy(self.vectors_a, dtype=complex)
        vb = frozen_copy(self.vectors_b, dtype=complex)
        if w.ndim != 1 or va.shape != (w.size, 4) or vb.shape != (w.size, 4):
            raise ValueError("witness arrays must be (K,), (K,4), (K,4)")
        if self.noise_weight < 0.0 or w.min(initial=0.0) < -1e-15:
            raise ValueError("witness weights must be nonnegative")
        total = self.noise_weight + w.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"witness weights sum to {total}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors_a", va)
        object.__setattr__(self, "vectors_b", vb)

    def sigma(self) -> DensityOperator:
        mat = _witness_sigma_frame(
            self.noise_weight, self.weights, _product_vectors(self.vectors_a, self.vectors_b))
        op = MultipartiteOperator(mat, (2, 2, 2, 2), ("A", "A'", "B", "B'"))
        return DensityOperator(permute_subsystems(op, [0, 2, 1, 3]).mat, (2, 2, 2, 2))


@dataclass(frozen=True)
class ErResult:
    """The search's value and witness, and how it ran.  `evaluations` counts the
    value calls of all starts; each diagonalises sigma's nb blocks of n x n in
    the symmetry-adapted frame, `blocks` = (nb, n, m), where sigma is
    (+)_i S_i (x) I_m (see `_symmetry_frame`).  `gap` (inf if not finite) is
    the Frank-Wolfe gap at the witness, which bounds value - E_r up to oracle exactness.
    The witness is the best run, the one of lowest value, and `gap` belongs
    to it: when a later run met ER_GAP_TOL at a slightly higher value and so
    ended the search, `gap` can exceed ER_GAP_TOL.
    `continuations` counts the L-BFGS runs of all starts that went on from
    the gap oracle's product after a run ended above ER_GAP_TOL; their
    iterations and evaluations are in the totals."""

    value: float
    witness: SeparableWitness
    restarts_completed: int
    iterations: int
    evaluations: int
    gap: float
    symmetry_order: int
    orbits: int
    starts: int
    blocks: tuple[int, int, int]
    continuations: int


def _block_cross_entropy(r_blocks: np.ndarray, s_blocks: np.ndarray):
    """-sum_i Tr[R_i log2 S_i] over the (nb, n, n) blocks of `_symmetry_frame`,
    plus the eigendata (w, V, V+ R V, ln w) of the S_i that `_block_gradient`
    turns into the gradient.

    The value costs one batched eigh; the gradient is a separate step so
    that a search pays for it only at the points it accepts.
    """
    w, v = np.linalg.eigh(s_blocks)
    w = np.maximum(w, 1e-300)
    r = v.conj().transpose(0, 2, 1) @ r_blocks @ v
    logw = np.log(w)
    return -float(np.einsum("iaa,ia->", r, logw).real) / _LN2, (w, v, r, logw)


def _block_gradient(eig, m: int) -> np.ndarray:
    """The blocks G_i of the gradient G = (+)_i G_i (x) I_m of sigma ->
    -Tr[rho log2 sigma] at sigma = (+)_i S_i (x) I_m, from
    `_block_cross_entropy`'s eigendata, with R_i = Tr_m of rho's block.

    The gradient of S -> Tr[R ln S] is V [(V+ R V) o K] V+ where S = V
    diag(w) V+ and K is the divided-difference table of ln on S's
    eigenvalues (the Daleckii-Krein formula), K_ii = 1/w_i; a change dS_i
    moves sigma by dS_i (x) I_m, hence the 1/m.
    """
    w, v, r, logw = eig
    denom = w[:, :, None] - w[:, None, :]
    close = np.abs(denom) < 1e-14 * np.maximum(w[:, :, None], w[:, None, :])
    close.reshape(len(w), -1)[:, :: w.shape[1] + 1] = True  # the diagonals
    with np.errstate(divide="ignore", invalid="ignore"):
        table = (logw[:, :, None] - logw[:, None, :]) / denom
    table = np.where(close, 1.0 / w[:, :, None], table)
    grad = v @ (r * table) @ v.conj().transpose(0, 2, 1)
    return -(grad + grad.conj().transpose(0, 2, 1)) / (2.0 * m * _LN2)


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
ER_CONTINUATIONS = 3          # times a start above ER_GAP_TOL goes on from the oracle's product
ER_ORACLE_STARTS, ER_ORACLE_SWEEPS = 16, 20   # the product-state oracle's seesaw
SYMMETRY_ATOL = 1e-10         # |Pauli coefficient| of rho above which a string is in its support


def _pauli_symmetries(rho: DensityOperator) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The local Pauli strings P with P rho P = rho, a group up to phases:
    their names (letters in A B A' B' order) and their factors g_AA', g_BB'
    in the AA' | BB' frame, as two (|G|, 4, 4) stacks.  P rho P = rho exactly
    when P commutes with every string of rho's Pauli support (`pauli_decompose`
    above SYMMETRY_ATOL); two strings anticommute when they differ on an odd
    number of qubits where neither letter is I."""
    idx = np.array(list(itertools.product(range(4), repeat=4)))
    support = idx[np.abs(pauli_decompose(rho.mat)).reshape(-1) > SYMMETRY_ATOL]
    clash = (idx[:, None] != support[None]) & (idx[:, None] > 0) & (support[None] > 0)
    kept = idx[np.all(clash.sum(axis=2) % 2 == 0, axis=1)]
    pairs = np.einsum("aij,ckl->acikjl", PAULI, PAULI).reshape(4, 4, 4, 4)  # kron(P_a, P_c)
    ga, gb = pairs[kept[:, 0], kept[:, 2]], pairs[kept[:, 1], kept[:, 3]]
    return ["".join(PAULI_LETTERS[i] for i in row) for row in kept], ga, gb


def _string_bits(name: str) -> int:
    """A Pauli string named in A B A' B' order as its symplectic bit vector
    over the frame's qubits A A' B B': bit q is x_q, bit 4 + q is z_q, so
    that a product of strings is, up to phase, the XOR of their vectors."""
    bits = 0
    for q, letter in enumerate(name[0] + name[2] + name[1] + name[3]):
        bits |= (letter in "XY") << q | (letter in "YZ") << (4 + q)
    return bits


def _anticommute(u: int, v: int) -> int:
    """1 when the strings with bit vectors u and v anticommute, else 0."""
    return ((u & 15 & v >> 4).bit_count() + (u >> 4 & v & 15).bit_count()) & 1


def _string_matrix(bits: int) -> np.ndarray:
    """The 16 x 16 Hermitian Pauli string of a bit vector, in the AA' | BB' frame."""
    letters = [(0, 3, 1, 2)[2 * (bits >> q & 1) + (bits >> (4 + q) & 1)]  # (x, z) -> I Z X Y
               for q in range(4)]
    return reduce(np.kron, PAULI[letters])


@lru_cache(maxsize=None)
def _symmetry_frame(names: tuple[str, ...]) -> tuple[np.ndarray, tuple[int, int, int]]:
    """A read-only 16 x 16 unitary B in the AA' | BB' frame, and the shape
    (nb, n, m), such that every operator that commutes with the Pauli
    group G named by `names` (as `_pauli_symmetries` gives them) is
    (+)_i S_i (x) I_m in B: nb blocks S_i of size n x n.

    Built from the letters alone (Schur's lemma for the Pauli group): a
    basis of G's bit vectors is split by symplectic Gram-Schmidt into
    generators of the centre Z and t pairs (x_j, z_j) that anticommute
    with each other and commute with the rest, so m = 2^t.  Block i is a
    joint eigenspace of Z's generators; with e_s spanning its part where
    every z_j is +1, its columns are e_(s, mu) = x^mu e_s.  Cached per
    tuple of names; nothing is built at import.
    """
    basis = []  # GF(2) elimination, kept sorted so that leading bits differ
    for v in map(_string_bits, names):
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted(basis + [v], reverse=True)
    centre, pairs = [], []
    while basis:
        u = basis.pop(0)
        j = next((j for j, w in enumerate(basis) if _anticommute(u, w)), None)
        if j is None:
            centre.append(u)
            continue
        v = basis.pop(j)
        pairs.append((_string_matrix(u), _string_matrix(v)))
        basis = [w ^ (u if _anticommute(w, v) else 0) ^ (v if _anticommute(w, u) else 0)
                 for w in basis]
    m = 2 ** len(pairs)
    eye = np.eye(16, dtype=complex)
    plus = [(eye + z) / 2.0 for _, z in pairs]
    columns = []
    for signs in itertools.product((1.0, -1.0), repeat=len(centre)):
        proj = reduce(np.matmul, [(eye + s * _string_matrix(g)) / 2.0
                                  for s, g in zip(signs, centre)] + plus, eye)
        seeds = []  # Gram-Schmidt on the projector's columns spans its range
        for col in proj.T:
            for e in seeds:
                col = col - e * (e.conj() @ col)
            if np.linalg.norm(col) > 1e-6:
                seeds.append(col / np.linalg.norm(col))
        for e in seeds:
            for mu in range(m):
                column = e
                for j, (x, _) in enumerate(pairs):
                    if mu >> j & 1:
                        column = x @ column
                columns.append(column)
    frame = np.stack(columns, axis=1)
    frame.setflags(write=False)
    nb = 2 ** len(centre)
    return frame, (nb, 16 // (nb * m), m)


def _frame_blocks(mat: np.ndarray, frame: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Tr_m of the diagonal blocks of B+ X B, as an (nb, n, n) stack: the
    blocks R_i of a G-invariant X = (+)_i (R_i / m) (x) I_m, and m times
    the blocks of the G-twirl of any X."""
    nb, n, m = shape
    t = (frame.conj().T @ mat @ frame).reshape(nb, n, m, nb, n, m)
    return np.einsum("isuitu->ist", t)


def _sigma_blocks(q: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The blocks S_i of sigma = weights[0] I / 16 + sum_c weights[c + 1]
    T(p_c p_c+), T the G-twirl, from the seed products' frame coordinates:
    q = B+ [p_1 ... p_k] reshaped to (nb, n, m, k), so that S_i = sum_c w_c
    Tr_m(q_c q_c+)_i / m + (weights[0] / 16) I is one product per block."""
    nb, n, m, k = q.shape
    y = q.reshape(nb, n, m * k)
    s = (q * (weights[1:] / m)).reshape(nb, n, m * k) @ y.conj().transpose(0, 2, 1)
    s.reshape(nb, n * n)[:, :: n + 1] += weights[0] / 16.0  # the diagonals, in place
    return s


def _frame_operator(blocks: np.ndarray, frame: np.ndarray, m: int) -> np.ndarray:
    """B [(+)_i blocks_i (x) I_m] B+, the 16 x 16 operator in the AA' | BB' frame."""
    nb, n, _ = blocks.shape
    inner = np.zeros((nb, n * m, nb, n * m), dtype=complex)
    inner[np.arange(nb), :, np.arange(nb), :] = np.kron(blocks, np.eye(m))
    return frame @ inner.reshape(16, 16) @ frame.conj().T


def _product_minimum(grad: np.ndarray, rng: np.random.Generator
                     ) -> tuple[float, np.ndarray, np.ndarray]:
    """The least p+ G p over unit products p = a (x) b that a batched seesaw
    finds (a local method), with the unit vectors a on AA' and b on BB' of
    the best seesaw start: from random b, alternately take a, then b, as
    the lowest eigenvector of the 4x4 operator G leaves on it.  With G
    regrouped as g[(i,j),(k,l)] = G[(i,k),(j,l)], the operator on a is one
    product g (conj(b) (x) b) and the operator on b is (conj(a) (x) a) g."""
    g = grad.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
    starts = ER_ORACLE_STARTS
    b = rng.normal(size=(starts, 4)) + 1j * rng.normal(size=(starts, 4))
    for _ in range(ER_ORACLE_SWEEPS):
        on_a = (b.conj()[:, :, None] * b[:, None, :]).reshape(starts, 16) @ g.T
        a = np.linalg.eigh(on_a.reshape(starts, 4, 4))[1][:, :, 0]
        on_b = (a.conj()[:, :, None] * a[:, None, :]).reshape(starts, 16) @ g
        lows, vecs = np.linalg.eigh(on_b.reshape(starts, 4, 4))
        b = vecs[:, :, 0]
    best = int(np.argmin(lows[:, 0]))
    return float(lows[best, 0]), a[best], b[best]


def _lbfgs(value, gradient, z: np.ndarray, max_iter: int):
    """Minimise value(z) -> (f, state) by L-BFGS (memory 10) with Armijo
    backtracking, a first step that moves no coordinate by more than 0.1,
    and `gradient(state)` for accepted points only; a non-finite f is
    rejected.  A trial is accepted when it meets the Armijo target f + 1e-4
    step slope and lies below f (the target may have rounded to f).  Stops
    at a zero gradient, when a trial is refused and the target has rounded
    to f (no shorter step can pass it), when the step falls below 1e-14
    (the backstop for f near 0), or after max_iter iterations; returns (f, z, state,
    iterations, value calls) at the last accepted point."""
    f, state = value(z)
    g = gradient(state)
    pairs, it, calls = [], 0, 1  # pairs: (s, y, 1 / s.y), the newest last
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
            if not slope < 0.0:  # g = 0: a stationary point
                return f, z, state, it, calls
        step = 1.0 if pairs else min(1.0, 0.1 / max(float(np.max(np.abs(d))), 1e-300))
        while True:
            trial = z + step * d
            f_trial, state_trial = value(trial)
            calls += 1
            target = f + 1e-4 * step * slope
            if f_trial <= target and f_trial < f:
                break
            step *= 0.5
            if target == f or step < 1e-14:
                return f, z, state, it, calls
        g_trial = gradient(state_trial)
        s, y = trial - z, g_trial - g
        if float(s @ y) > 1e-12 * (math.sqrt(float(s @ s)) * math.sqrt(float(y @ y))):
            pairs = (pairs + [(s, y, 1.0 / float(s @ y))])[-10:]
        z, f, state, g = trial, f_trial, state_trial, g_trial
    return f, z, state, it, calls


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
    unnormalised seeds (a = x / |x|) and softmax weights.  Twirled sigma
    and rho commute with the group, so in its symmetry-adapted frame
    (`_symmetry_frame`) both are (+)_i S_i (x) I_m: each value is read off
    the nb small blocks S_i, built from the K seed products alone, and the
    gradient, which commutes with the group too, comes from the seeds.
    Starts are seeded by (seed, restart, start), ER_STARTS per restart.
    A start whose Frank-Wolfe gap (see ErResult) is above ER_GAP_TOL takes
    the product state that the gap's oracle found, a fully corrective
    Frank-Wolfe step (Lacoste-Julien and Jaggi, NeurIPS 2015): the product
    replaces the product seed of least weight, at 0.2 of the largest
    weight, and L-BFGS runs on, at most ER_CONTINUATIONS times per start.  The search
    ends at the first start that reaches a gap of at most ER_GAP_TOL (on
    the flagship, the first start, after at most one continuation, in
    about 0.04 s), or after restarts * ER_STARTS starts; the oracle draws
    from its start's generator, so the result depends on rho, `restarts`
    and `seed` alone.  The value is `rel_entropy` of the witness (|G|
    terms per orbit), whose sigma is the best of all L-BFGS runs.
    ``restarts`` (at least 1) is a whole number and not a bool and ``seed``
    passes the sampler's ``linalg.check_seed``, or ValueError is raised; a
    state that is not four qubits fails ``linalg.check_four_qubits``.
    """
    check_four_qubits(rho, "the E_r search")
    check_whole("restarts", restarts)
    check_seed(seed)
    restarts, seed = int(restarts), int(seed)
    if restarts < 1:
        raise ValueError("at least one restart required")
    rho_frame = permute_subsystems(rho, [0, 2, 1, 3]).mat  # to AA'|BB' order
    s_rho = von_neumann_entropy(rho)
    names, ga, gb = _pauli_symmetries(rho)
    group = np.stack((ga, gb))  # (2, |G|, 4, 4)
    order = group.shape[1]
    frame, shape = _symmetry_frame(tuple(names))
    frame_h, m = frame.conj().T, shape[2]
    r_blocks = _frame_blocks(rho_frame, frame, shape)
    k = max(ER_ORBITS, -(-ER_PRODUCTS // order))
    n = 8 * k  # reals in one stack of seed vectors
    floor = ER_NOISE_FLOOR * (np.arange(k + 1) == 0)
    stacked = (shape[0], shape[1], m * k)  # block i's n x (m k) columns

    def value(z):
        x = z[: 2 * n].view(complex).reshape(2, k, 4)
        norms = np.linalg.norm(x, axis=2, keepdims=True)
        v = x / norms
        soft = np.exp(z[2 * n :] - z[2 * n :].max())
        soft /= soft.sum()
        wts = (1.0 - ER_NOISE_FLOOR) * soft + floor
        q = frame_h @ _product_vectors(*v).T  # column c is B+ p_c
        s_blocks = _sigma_blocks(q.reshape(*shape, k), wts)
        cross, eig = _block_cross_entropy(r_blocks, s_blocks)
        return cross - s_rho, (v, norms, soft, wts, q, s_blocks, eig)

    def gradient(state):
        # From the seeds p_k alone, f_orbit = w_k Tr[G p_k p_k+]; with
        # GP = (G p_k)_k = (B (+)_i G_i (x) I_m q_k)_k reshaped to (k, 4, 4),
        # the Wirtinger gradients are
        #   df/d conj(a_ki) = w_k sum_l GP[k,i,l] conj(b_kl), and b alike,
        # taken through a = x / |x| (the part along a drops out) and the
        # softmax: df/dtheta_c = (1 - floor) s_c (v_c - s.v), v_c = Tr[G comp_c].
        v, norms, soft, wts, q, _, eig = state
        g_blocks = _block_gradient(eig, m)
        gq = (g_blocks @ q.reshape(stacked)).reshape(16, k)  # column c is B+ G p_c
        gp3 = (frame @ gq).T.reshape(k, 4, 4)
        wg = wts[1:, None] * np.array([(gp3 @ v[1, :, :, None].conj())[:, :, 0],
                                       (v[0, :, None, :].conj() @ gp3)[:, 0, :]])
        wg -= np.real(np.sum(v.conj() * wg, axis=2, keepdims=True)) * v
        vals = np.concatenate([[m * np.real(np.trace(g_blocks, axis1=1, axis2=2).sum()) / 16.0],
                               np.real(np.sum(q.conj() * gq, axis=0))])
        return np.concatenate([(2.0 * wg / norms).reshape(-1).view(float),
                               (1.0 - ER_NOISE_FLOOR) * soft * (vals - float(soft @ vals))])

    def continued(z, a, b):
        # the oracle's product a (x) b replaces the product seed of least
        # weight, at 0.2 of the largest weight (the noise keeps its own)
        z = z.copy()
        logits = z[2 * n :]
        c = int(np.argmin(logits[1:]))
        z[: 2 * n].view(complex).reshape(2, k, 4)[:, c] = a, b
        logits[c + 1] = logits.max() + math.log(0.2)
        return z

    best, total_iter, total_calls, total_continued = None, 0, 0, 0
    for i in range(restarts * ER_STARTS):
        restart, start = divmod(i, ER_STARTS)
        rng = np.random.default_rng(np.random.SeedSequence([seed, restart, start]))
        z = np.concatenate([rng.normal(size=2 * n), np.zeros(k + 1)])
        for continuation in range(ER_CONTINUATIONS + 1):
            if continuation:
                z = continued(z, a, b)
                total_continued += 1
            f, z, state, it, calls = _lbfgs(value, gradient, z, ER_START_ITERATIONS)
            total_iter += it
            total_calls += calls
            g_blocks = _block_gradient(state[-1], m)
            on_sigma = m * float(np.real(np.sum(g_blocks * state[-2].transpose(0, 2, 1))))
            low, a, b = _product_minimum(_frame_operator(g_blocks, frame, m), rng)
            gap = on_sigma - low
            if np.isfinite(f) and (best is None or f < best[0]):
                best = (f, gap if np.isfinite(gap) else float("inf"), state)
            if not (np.isfinite(f) and np.isfinite(gap) and gap > ER_GAP_TOL):
                break
        if np.isfinite(f) and gap <= ER_GAP_TOL:
            break

    _, gap, (v, _, _, wts, _, _, _) = best
    ea, eb = np.einsum("sgij,skj->skgi", group, v).reshape(2, -1, 4)  # by orbit
    witness = SeparableWitness(float(wts[0]), wts[1:].repeat(order) / order, ea, eb)
    exact = float(rel_entropy(rho, witness.sigma()))
    return ErResult(exact, witness, restart + 1, total_iter, total_calls, gap, order, k, i + 1,
                    shape, total_continued)

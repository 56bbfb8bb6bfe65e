"""Construction of key-carrying four-party states on 2 x 2 x d x d systems.

The states live on (A, B, A', B'): a qubit pair holding the key bit and a
d x d shield pair.  Each state is a two-term mixture, in a standard block
form on the key qubits, of flip operators built from a unitary matrix U:

    flip_operator(U)[i*d+j, j*d+i] = U[i, j]   (all other entries 0),

i.e. the operator sending |ji> to U[i,j] |ij>.  The first mixture term
uses flip_operator(U) on the key-correlated block (|00>, |11>), the
second uses its partial transpose on the anticorrelated block
(|01>, |10>), and the mixing weights are chosen so that the assembled
state is exactly invariant under partial transposition of the B B' pair.

`hadamard()` gives the 2x2 instance; `rho_h()` is the state that most of
the analysis and the verification scheme target.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (DensityOperator, MultipartiteOperator, check_unitary, partial_transpose,
                     trace_norm)


def hadamard() -> np.ndarray:
    """The 2x2 Hadamard matrix."""
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def fourier(d: int) -> np.ndarray:
    """The d x d discrete Fourier transform unitary, F[j,k] = w^{jk}/sqrt(d)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def bell_states() -> np.ndarray:
    """The four Bell vectors as rows, in the order used package-wide.

    Row 0: (|00> + |11>)/sqrt2     row 1: (|00> - |11>)/sqrt2
    Row 2: (|01> + |10>)/sqrt2     row 3: (|01> - |10>)/sqrt2
    """
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [s, 0.0, 0.0, s],
            [s, 0.0, 0.0, -s],
            [0.0, s, s, 0.0],
            [0.0, s, -s, 0.0],
        ]
    )


def flip_operator(u: np.ndarray) -> np.ndarray:
    """Flip operator of a unitary: the d^2 x d^2 matrix W with
    W[i*d+j, j*d+i] = U[i,j] and zeros elsewhere.

    Its trace norm is sum_ij |U[i,j]| and the trace norm of its partial
    transpose (on the second factor) is exactly d.
    """
    u = check_unitary(u, "flip_operator input")
    d = u.shape[0]
    w = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            w[i * d + j, j * d + i] = u[i, j]
    return w


@dataclass(frozen=True)
class KeyMixture:
    """Two-block mixture data: shield operators and weights.

    ``x1`` acts with weight ``p1`` on the key-correlated block and ``x2``
    with weight ``p2`` on the anticorrelated block.  Both operators are
    normalized to unit trace norm on construction; weights must be a
    probability pair with ``p1 >= p2 > 0``.
    """

    x1: np.ndarray
    x2: np.ndarray
    p1: float
    p2: float

    def __post_init__(self):
        x1 = np.asarray(self.x1, dtype=complex)
        x2 = np.asarray(self.x2, dtype=complex)
        if x1.shape != x2.shape or x1.ndim != 2 or x1.shape[0] != x1.shape[1]:
            raise ValueError("block operators must be square and same shape")
        n1, n2 = trace_norm(x1), trace_norm(x2)
        if n1 <= 0 or n2 <= 0:
            raise ValueError("block operators must be nonzero")
        x1 = x1 / n1
        x2 = x2 / n2
        x1.setflags(write=False)
        x2.setflags(write=False)
        p1, p2 = float(self.p1), float(self.p2)
        if abs(p1 + p2 - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {p1 + p2}")
        if p2 <= 0:
            raise ValueError("second weight must be positive")
        if p1 < p2 - 1e-12:
            raise ValueError("first weight must carry at least half the mass")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    @property
    def shield_dim(self) -> int:
        return int(round(np.sqrt(self.x1.shape[0])))


def _sqrt_factors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(X X+) and sqrt(X+ X) from one SVD of X.

    Building the roots from the singular values of X (rather than from
    eigenvalues of the squared Gram matrices) keeps rank-deficient cases
    accurate: no square roots of numerical-noise eigenvalues.
    """
    u, s, vh = np.linalg.svd(np.asarray(x, dtype=complex))
    left = (u * s) @ u.conj().T
    right = (vh.conj().T * s) @ vh
    return left, right


def assemble_standard_form(x1: np.ndarray, x2: np.ndarray, weight1: float) -> np.ndarray:
    """Assemble the 4 d^2-dimensional matrix of the standard two-block form.

    Key-qubit basis order is |00>, |01>, |10>, |11>; each block below is a
    d^2 x d^2 operator on the shield pair.  ``x1`` and ``x2`` must already
    have unit trace norm.

        (00,00) = (p1/2) sqrt(x1 x1+)    (00,11) = (p1/2) x1
        (01,01) = (p2/2) sqrt(x2 x2+)    (01,10) = (p2/2) x2
        (10,01) = (p2/2) x2+             (10,10) = (p2/2) sqrt(x2+ x2)
        (11,00) = (p1/2) x1+             (11,11) = (p1/2) sqrt(x1+ x1)
    """
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    p1 = float(weight1)
    p2 = 1.0 - p1
    n = x1.shape[0]
    s1l, s1r = _sqrt_factors(x1)
    s2l, s2r = _sqrt_factors(x2)
    out = np.zeros((4 * n, 4 * n), dtype=complex)

    def put(a: int, b: int, block: np.ndarray):
        out[a * n : (a + 1) * n, b * n : (b + 1) * n] = block

    put(0, 0, (p1 / 2.0) * s1l)
    put(0, 3, (p1 / 2.0) * x1)
    put(1, 1, (p2 / 2.0) * s2l)
    put(1, 2, (p2 / 2.0) * x2)
    put(2, 1, (p2 / 2.0) * x2.conj().T)
    put(2, 2, (p2 / 2.0) * s2r)
    put(3, 0, (p1 / 2.0) * x1.conj().T)
    put(3, 3, (p1 / 2.0) * s1r)
    return out


def pbit_from_X(x: np.ndarray) -> DensityOperator:
    """Private bit in X-form: the state on (2, 2, d, d) whose corner blocks
    on the key qubits are sqrt(X X+), X, X+, sqrt(X+ X), all times 1/2.

    Measuring the key qubits of the result in the computational basis gives
    outcomes 00 and 11 with probability 1/2 each, perfectly correlated and
    uncorrelated with any purifying system.  ``x`` must come with unit trace
    norm already; an off-normalized block is rejected rather than rescaled,
    since silent rescaling here usually hides an upstream bug.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"block operator must be square, got shape {x.shape}")
    d = int(round(np.sqrt(x.shape[0])))
    if d * d != x.shape[0]:
        raise ValueError(f"block of dimension {x.shape[0]} is not on a d x d pair")
    norm = trace_norm(x)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"block operator must have unit trace norm, got {norm}")
    mat = assemble_standard_form(x, x, 1.0)
    return DensityOperator(mat, (2, 2, d, d))


def rho_from_mixture(mix: KeyMixture) -> DensityOperator:
    """Assemble the mixture into a validated state on (2, 2, d, d).

    The key qubits A and B address the four blocks; basis order on AB is
    |00>, |01>, |10>, |11>.
    """
    d = mix.shield_dim
    mat = assemble_standard_form(mix.x1, mix.x2, mix.p1)
    return DensityOperator(mat, (2, 2, d, d))


def mixture_from_unitary(u: np.ndarray) -> KeyMixture:
    """Build the mixture whose assembled state is invariant under partial
    transposition of (B, B').

    The flip operator of U goes on the correlated block and its shield
    partial transpose on the anticorrelated block, with weights
    proportional to their trace norms: p1 = |W| / (|W| + d),
    p2 = d / (|W| + d).
    """
    w = flip_operator(u)
    d = u.shape[0]
    wg = partial_transpose(MultipartiteOperator(w, (d, d)), [1]).mat
    norm_w = trace_norm(w)
    p1 = norm_w / (norm_w + d)
    p2 = d / (norm_w + d)
    return KeyMixture(x1=w, x2=wg, p1=p1, p2=p2)


def rho_u(u: np.ndarray) -> tuple[DensityOperator, float, float]:
    """State of the family for a given unitary, with its mixture weights."""
    mix = mixture_from_unitary(u)
    return rho_from_mixture(mix), mix.p1, mix.p2


def key_ratio(u: np.ndarray) -> float:
    """Ratio |W|_1 / d controlling the weight split for a given unitary.

    Equals sum_ij |U[i,j]| / d; it exceeds 1 (and the state carries key)
    exactly when U is not a monomial matrix.
    """
    u = check_unitary(u)
    d = u.shape[0]
    return float(np.sum(np.abs(u))) / d


def rho_h() -> DensityOperator:
    """The flagship four-qubit instance: the family member for the 2x2
    Hadamard.  Rank 6, invariant under partial transposition of (B, B'),
    with weights p1 = sqrt2/(1+sqrt2), p2 = 1/(1+sqrt2).
    """
    state, _, _ = rho_u(hadamard())
    return state


def rho_h_weights() -> tuple[float, float]:
    """The (p1, p2) weights of the Hadamard instance in closed form."""
    s = np.sqrt(2.0)
    return s / (1.0 + s), 1.0 / (1.0 + s)


@dataclass(frozen=True)
class PreparedComponent:
    """One term of a locally preparable ensemble: a state on the key pair
    tensored with a state on the shield pair, drawn with ``weight``.
    Mixing such terms creates no entanglement across the key/shield cut,
    which is what makes the ensemble a lab-friendly recipe."""

    weight: float
    key_part: np.ndarray = field(repr=False)
    shield_part: np.ndarray = field(repr=False)


def rho_h_preparation() -> list[PreparedComponent]:
    """The flagship state as a four-term prepared ensemble: Bell projectors
    on the key qubits, each tensored with a shield state.

    The terms, with weights (p1/2, p1/2, p2/2, p2/2):

        psi0 x [P(|00>) + P(psi2)] / 2      psi2 x P(chi+)
        psi1 x [P(|11>) + P(psi3)] / 2      psi3 x P(chi-)

    where chi+- = (sqrt(2 +- sqrt2)|00> +- sqrt(2 -+ sqrt2)|11>)/2 on the
    shield.
    """
    s2 = np.sqrt(2.0)
    p1, p2 = rho_h_weights()
    bells = bell_states()

    def proj(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        return np.outer(v, v.conj())

    e00 = np.array([1.0, 0.0, 0.0, 0.0])
    e11 = np.array([0.0, 0.0, 0.0, 1.0])
    chi_p = np.array([np.sqrt(2.0 + s2), 0.0, 0.0, np.sqrt(2.0 - s2)]) / 2.0
    chi_m = np.array([np.sqrt(2.0 - s2), 0.0, 0.0, -np.sqrt(2.0 + s2)]) / 2.0
    shield = [
        (proj(e00) + proj(bells[2])) / 2.0,
        (proj(e11) + proj(bells[3])) / 2.0,
        proj(chi_p),
        proj(chi_m),
    ]
    weights = [p1 / 2.0, p1 / 2.0, p2 / 2.0, p2 / 2.0]
    return [
        PreparedComponent(w, proj(bells[i]), shield[i])
        for i, w in enumerate(weights)
    ]


def rho_h_mixture_form() -> DensityOperator:
    """The flagship state assembled the second way, from the prepared
    ensemble of ``rho_h_preparation``.  Built without touching the block
    assembly, so the two construction paths check each other."""
    mat = sum(
        c.weight * np.kron(c.key_part, c.shield_part)
        for c in rho_h_preparation()
    )
    return DensityOperator(mat, (2, 2, 2, 2))


def depolarize(rho: DensityOperator, noise: float) -> DensityOperator:
    """Mix a state with white noise: (1 - noise) rho + noise I/dim."""
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise weight must lie in [0, 1], got {noise}")
    dim = rho.mat.shape[0]
    mat = (1.0 - noise) * rho.mat
    mat.flat[:: dim + 1] += noise / dim
    return DensityOperator(mat, rho.dims, rho.labels)

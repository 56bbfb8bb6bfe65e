"""Construction of key-carrying four-party states on 2 x 2 x d x d systems.

The states live on (A, B, A', B'): a qubit pair holding the key bit and a
d x d shield pair.  Each state is a two-term mixture, in a standard block
form on the key qubits, of flip operators built from a unitary matrix U:

    flip_operator(U)[i*d+j, j*d+i] = U[i, j]   (all other entries 0),

i.e. the operator sending |ji> to U[i,j] |ij>.  There is one builder:
`rho_u` puts flip_operator(U) on the key-correlated block (|00>, |11>)
and its partial transpose on the anticorrelated block (|01>, |10>), with
mixing weights that make the state exactly invariant under partial
transposition of the B B' pair, and `assemble_standard_form` turns the
two blocks and the weight into the validated state by filling its 4 x 4
grid of shield blocks, the layout `keyrate` reads every key state
through.  The blocks and the twisting that the analysis needs are read
back off a state with `keyrate.corner_blocks`.

`hadamard()` gives the 2x2 instance; `rho_h()` is the state that most of
the analysis and the verification scheme target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (DensityOperator, MultipartiteOperator, _derived_state, check_unitary,
                     frozen_copy, partial_transpose, trace_norm)


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


def assemble_standard_form(x1: np.ndarray, x2: np.ndarray, weight1: float) -> DensityOperator:
    """The validated state on (2, 2, d, d) of the standard two-block form.

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
    if x1.ndim != 2 or x1.shape[0] != x1.shape[1] or x2.shape != x1.shape:
        raise ValueError(f"blocks must be square and of one shape, got {x1.shape}, {x2.shape}")
    n = x1.shape[0]
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"block of dimension {n} is not on a d x d pair")
    p1 = float(weight1)
    p2 = 1.0 - p1
    s1l, s1r = _sqrt_factors(x1)
    s2l, s2r = _sqrt_factors(x2)
    grid = np.zeros((4, n, 4, n), dtype=complex)  # grid[I, :, K] is the block (I, K)
    grid[0, :, 0] = (p1 / 2.0) * s1l
    grid[0, :, 3] = (p1 / 2.0) * x1
    grid[1, :, 1] = (p2 / 2.0) * s2l
    grid[1, :, 2] = (p2 / 2.0) * x2
    grid[2, :, 1] = (p2 / 2.0) * x2.conj().T
    grid[2, :, 2] = (p2 / 2.0) * s2r
    grid[3, :, 0] = (p1 / 2.0) * x1.conj().T
    grid[3, :, 3] = (p1 / 2.0) * s1r
    return DensityOperator(grid.reshape(4 * n, 4 * n), (2, 2, d, d))


def key_ratio(u: np.ndarray) -> float:
    """Ratio |W|_1 / d controlling the weight split for a given unitary.

    Equals r = sum_ij |U[i,j]| / d; it exceeds 1 (and the state carries
    key) exactly when U is not a monomial matrix.  By Cauchy-Schwarz r <=
    sqrt(d), with equality exactly for complex Hadamard matrices (every
    |U[i,j]| = 1/sqrt(d)), such as `fourier(d)`.
    """
    u = check_unitary(u)
    d = u.shape[0]
    return float(np.sum(np.abs(u))) / d


def rho_u(u: np.ndarray) -> tuple[DensityOperator, float, float]:
    """The family member of a unitary U, with its weights (p1, p2).

    The flip operator W of U goes on the correlated block and its shield
    partial transpose W^Gamma on the anticorrelated block, each scaled to
    unit trace norm, with weights proportional to their trace norms:
    p1 = |W|_1 / (|W|_1 + d), p2 = d / (|W|_1 + d), since |W^Gamma|_1 = d.
    Partial transposition of (B, B') swaps the two blocks' roles, so with
    these weights the state is invariant under it.  The squeezed twirl
    spectrum is (p1, 0, p2, 0), so the twirl bound is 1 - h(p1) =
    1 - h(r/(1 + r)) with r = `key_ratio(U)`, at most 1 - h(sqrt(d)/(1 + sqrt(d))).
    """
    w = flip_operator(u)
    d = np.shape(u)[0]
    wg = partial_transpose(MultipartiteOperator(w, (d, d)), [1]).mat
    norm_w = trace_norm(w)
    p1 = norm_w / (norm_w + d)
    p2 = d / (norm_w + d)
    return assemble_standard_form(w / norm_w, wg / trace_norm(wg), p1), p1, p2


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
    which is what makes the ensemble a lab-friendly recipe.  Each part is
    held as a private, C-ordered, read-only complex copy."""

    weight: float
    key_part: np.ndarray = field(repr=False)
    shield_part: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("key_part", "shield_part"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name), dtype=complex))


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


def check_noise(noise) -> None:
    """ValueError unless the white-noise weight ``noise`` lies in [0, 1]: the
    one rule of ``depolarize`` and ``ppt.robustness_scan``."""
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise weight must lie in [0, 1], got {noise}")


def depolarize(rho: DensityOperator, noise: float) -> DensityOperator:
    """Mix a state with white noise: (1 - noise) rho + noise I/dim.

    A mixture of a state with white noise is a state, so the result is
    built without validating it again.  With p = noise in [0, 1], the
    matrix is rho's scaled by the real 1 - p, with the real p/dim added to
    its diagonal, and it keeps every property ``DensityOperator`` checks:

    * its entries are finite, and its Hermiticity deviation is rho's times
      1 - p, since a real diagonal adds nothing to M - M^dag;
    * its trace is (1 - p) Tr(rho) + p, off by at most (1 - p) TRACE_ATOL;
    * its smallest eigenvalue is (1 - p) lambda_min(rho) + p/dim, at least
      -(1 - p) PSD_SLACK.

    Each holds up to rounding in the last place of the entries, orders
    below the tolerances.  An input that is not a ``DensityOperator``,
    such as a bare ``MultipartiteOperator``, is validated as a state first.
    """
    check_noise(noise)
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(rho.mat, rho.dims, rho.labels)
    dim = rho.mat.shape[0]
    mat = (1.0 - noise) * rho.mat
    mat.flat[:: dim + 1] += noise / dim
    return _derived_state(mat, rho)

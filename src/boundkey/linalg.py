"""Dense operator algebra for small multipartite quantum systems.

Everything in this package works on explicit complex matrices over a
tensor product of small Hilbert spaces.  Subsystems are ordered, and all
partial operations (trace, transpose) address subsystems by index into
that order.  The package-wide convention for the four-party states built
in :mod:`boundkey.states` is the order (A, B, A', B'): two key qubits
followed by the two shield systems.

Conventions
-----------
* logarithms are base 2 throughout (entropies in bits),
* eigenvalues from :func:`eig_hermitian` are ascending,
* the tolerance constants below are this module's and ``ppt``'s; other
  checks keep their own (``keyrate.CcqState``'s 1e-10,
  ``certified_bounds``' 1e-8 and 1e-10, ``FEASIBILITY_SLACK``).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Validation tolerances.
HERMITICITY_ATOL = 1e-12     # max |M - M^dag| for density operators
TRACE_ATOL = 1e-12           # |Tr(rho) - 1|
PSD_SLACK = 1e-10            # eigenvalues of a state may dip this far below 0
EIG_HERMITICITY_ATOL = 1e-10  # Hermiticity required by eig_hermitian
UNITARITY_ATOL = 1e-9        # max |U^dag U - I| accepted by check_unitary
ENTROPY_CLAMP = 1e-10        # eigenvalues in [-ENTROPY_CLAMP, 0) are clamped to 0
#: membership threshold on the smallest partial-transpose eigenvalue
PPT_MEMBERSHIP_TOL = 1e-10
#: looser flag used by grid scans, whose points sit far from the boundary
NPT_FLAG_TOL = 1e-5

DEFAULT_LABELS = ("A", "B", "A'", "B'")

PAULI_LETTERS = "IXYZ"
PAULI = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
#: _PAULI_TRACE[a, 2 r + c] = PAULI[a][c, r]: one qubit's Tr(P_a m) as a
#: contraction over its (row, column) pair of m
_PAULI_TRACE = PAULI.transpose(0, 2, 1).reshape(4, 4)
# read-only, like every constant array of the package: one write would move
# every later expansion and estimate in the process
PAULI.setflags(write=False)
_PAULI_TRACE.setflags(write=False)

_LN2 = float(np.log(2.0))


class CertificationInfeasibleError(ValueError):
    """No positive-semidefinite two-qubit state matches the given
    diagonal/antidiagonal parameter set (or confidence rectangle)."""


class UnsupportedStateError(ValueError):
    """A valid state that the requested analysis does not cover, such as
    a d = 3 family member handed to a four-qubit-only routine."""


def frozen_copy(values, dtype=None) -> np.ndarray:
    """A private, C-ordered, read-only copy of ``values``: the one way a
    value object keeps an array it is given."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MultipartiteOperator:
    """A square operator on an ordered tensor product of subsystems.

    Parameters
    ----------
    mat : ndarray
        Square complex matrix of dimension ``prod(dims)``.
    dims : list or tuple of int
        Local dimension of each subsystem, in order, kept as a tuple; any
        other container, floats and booleans are refused, not converted.
    labels : list or tuple of str, optional
        Subsystem names, one per subsystem (default A, B, A', B').  Every
        operation in this module addresses subsystems by integer index, but
        labels are not cosmetic: ``ppt.bob_cut`` transposes the subsystems
        whose labels start with B or b, so they decide ``ppt_check``,
        ``ppt_invariance`` and the CLI's ``membership`` record.

    ``mat`` is kept as a private, C-ordered, read-only copy
    (``frozen_copy``), so equal matrices are held in equal bytes.  These are
    a state file's rules too: ``serialize`` only parses.
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        mat = frozen_copy(_check_square(self.mat, "operator matrix"))
        if not isinstance(self.dims, (list, tuple)):
            raise ValueError(f"dims must be a list or tuple of integers, got {self.dims!r}")
        dims = _integers(self.dims, "dims")
        if any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if mat.shape[0] != math.prod(dims):
            raise ValueError(f"matrix dimension {mat.shape[0]} does not match prod{dims}")
        n = len(dims)
        labels = self.labels
        if labels is None:
            labels = DEFAULT_LABELS[:n] if n <= len(DEFAULT_LABELS) else [f"s{i}" for i in range(n)]
        elif not (isinstance(labels, (list, tuple)) and all(isinstance(lab, str) for lab in labels)):
            raise ValueError(f"labels must be a list or tuple of strings, got {labels!r}")
        if len(labels) != n:
            raise ValueError(f"one label per subsystem required, got labels {labels!r}")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"MultipartiteOperator(dims={self.dims}, labels={self.labels})"


@dataclass(frozen=True, eq=False)
class DensityOperator(MultipartiteOperator):
    """A validated quantum state: an operator that passed the checks.

    Construction enforces finite entries, Hermiticity within
    ``HERMITICITY_ATOL``, unit trace within ``TRACE_ATOL`` and positive
    semidefiniteness with slack ``PSD_SLACK`` on the minimum eigenvalue.
    Positivity is tested by a Cholesky factorisation of the Hermitian part
    with ``PSD_SLACK`` added to its diagonal; only when that fails is the
    minimum eigenvalue computed (``eigvalsh``), and the state is refused
    when it lies below ``-PSD_SLACK``.

    Every state built from a raw matrix runs these checks.  A state derived
    from a validated one is built without them only where the derivation is
    proven to keep every property they enforce: ``states.depolarize``'s
    mixtures with white noise, the one such derivation.
    """

    def __post_init__(self):
        super().__post_init__()
        m = self.mat
        # first: NaN passes every check below, and inf - inf would warn
        if not np.isfinite(m).all():
            raise ValueError("state entries must be finite")
        adjoint = m.conj().T
        herm = float(np.max(np.abs(m - adjoint))) if m.size else 0.0
        if herm > HERMITICITY_ATOL:
            raise ValueError(f"state is not Hermitian: max|M - M^dag| = {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"state trace deviates from 1 by {abs(tr - 1.0):.3e}")
        shifted = (m + adjoint) / 2.0
        shifted.flat[:: m.shape[0] + 1] += PSD_SLACK
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lam_min = float(np.linalg.eigvalsh((m + adjoint) / 2.0)[0])
            if lam_min < -PSD_SLACK:
                raise ValueError(f"state has negative eigenvalue {lam_min:.3e}") from None

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"DensityOperator(dims={self.dims})"


def _derived_state(mat: np.ndarray, parent: DensityOperator) -> DensityOperator:
    """A state holding ``mat`` itself, made read-only in place, on
    ``parent``'s dims and labels, built without ``DensityOperator``'s
    checks.  ``mat`` must be fresh and held by no one else, so the state's
    matrix is as private as ``frozen_copy`` would make it; a C-ordered
    complex one, as ``states.depolarize`` builds, is kept without a copy.
    Only for a matrix proven to be a state whenever ``parent`` is one; see
    ``states.depolarize``, its one caller."""
    mat = np.asarray(mat, dtype=complex, order="C")
    mat.setflags(write=False)
    state = object.__new__(DensityOperator)
    object.__setattr__(state, "mat", mat)
    object.__setattr__(state, "dims", parent.dims)
    object.__setattr__(state, "labels", parent.labels)
    return state


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; ValueError naming ``what`` unless each is
    an integer and not a bool (numpy integers pass): floats are not truncated."""
    values = tuple(values)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
        raise ValueError(f"{what} must be integers, got {values!r}")
    return tuple(int(v) for v in values)


def _check_indices(indices: Iterable[int], n: int, what: str) -> list[int]:
    idx = sorted(set(_integers(indices, f"{what} indices")))
    for i in idx:
        if i < 0 or i >= n:
            raise ValueError(f"{what} index {i} out of range for {n} subsystems")
    return idx


def partial_trace(op, discard: Iterable[int]) -> MultipartiteOperator:
    """Trace out the subsystems listed in `discard` (by index).

    Returns an operator on the remaining subsystems, in their original
    order.  Tracing out everything yields a 1x1 operator with no
    subsystems.
    """
    n = op.n_subsystems
    idx = _check_indices(discard, n, "partial_trace")
    t = op.mat.reshape(list(op.dims) * 2)
    remaining = n
    for i in reversed(idx):
        t = np.trace(t, axis1=i, axis2=i + remaining)
        remaining -= 1
    keep = [i for i in range(n) if i not in idx]
    new_dims = tuple(op.dims[i] for i in keep)
    new_labels = tuple(op.labels[i] for i in keep)
    d = math.prod(new_dims)
    return MultipartiteOperator(t.reshape(d, d), new_dims, new_labels)


def partial_transpose(op, subset: Iterable[int]) -> MultipartiteOperator:
    """Transpose the subsystems listed in `subset`, leaving the rest alone."""
    n = op.n_subsystems
    idx = _check_indices(subset, n, "partial_transpose")
    axes = list(range(2 * n))
    for i in idx:
        axes[i], axes[i + n] = axes[i + n], axes[i]
    t = op.mat.reshape(list(op.dims) * 2).transpose(axes)
    return MultipartiteOperator(t.reshape(op.dim, op.dim), op.dims, op.labels)


def permute_subsystems(op, order: Sequence[int]) -> MultipartiteOperator:
    """Reorder subsystems so that new position k holds old subsystem order[k]."""
    n = op.n_subsystems
    order = list(_integers(order, "permute_subsystems indices"))
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}, got {order}")
    t = op.mat.reshape(list(op.dims) * 2).transpose(order + [i + n for i in order])
    new_dims = tuple(op.dims[i] for i in order)
    new_labels = tuple(op.labels[i] for i in order)
    return MultipartiteOperator(t.reshape(op.dim, op.dim), new_dims, new_labels)


def pauli_decompose(op) -> np.ndarray:
    """Expand a four-qubit operator over the 256 Pauli strings.

    Returns the complex (4, 4, 4, 4) coefficient array: ``[a, b, c, d]``
    multiplies the string with letter indices (a, b, c, d) into "IXYZ".
    The strings are orthogonal with squared norm 16, so a coefficient is
    Tr(string . op) / 16, the expansion is unique, and for a Hermitian
    operator the coefficients are real up to rounding.
    """
    mat = np.asarray(op, dtype=complex)
    if mat.shape != (16, 16):
        raise ValueError(f"expected a 16 x 16 operator, got shape {mat.shape}")
    # axis q pairs qubit q's (row, column) indices; each pass contracts the
    # leading qubit with _PAULI_TRACE and appends its letter axis
    t = mat.reshape((2,) * 8).transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(4, 4, 4, 4)
    for _ in range(4):
        t = np.tensordot(t, _PAULI_TRACE, axes=([0], [1]))
    return t / 16.0


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns ``(w, V)`` with ascending real eigenvalues ``w`` and
    eigenvectors in the columns of ``V``.  Raises ``ValueError`` when the
    input deviates from Hermiticity by more than ``EIG_HERMITICITY_ATOL``.
    """
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > EIG_HERMITICITY_ATOL:
        raise ValueError(f"eig_hermitian: operator is not Hermitian (deviation {dev:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w, v


def check_unitary(u: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``u`` as a complex array; ValueError unless it is square and unitary."""
    u = _check_square(u, what)
    _refuse_non_unitary(float(_unitarity_deviations(u.conj().T @ u)), what)
    return u


def _check_blocks(x1, x2) -> tuple[np.ndarray, np.ndarray]:
    """Corner blocks as complex arrays; ValueError unless square and of one shape."""
    x1, x2 = np.asarray(x1, dtype=complex), np.asarray(x2, dtype=complex)
    if x1.ndim != 2 or x1.shape[0] != x1.shape[1] or x2.shape != x1.shape:
        raise ValueError(f"blocks must be square and of one shape, got {x1.shape}, {x2.shape}")
    return x1, x2


def _check_square(values, what: str) -> np.ndarray:
    """``values`` as a complex array; ValueError unless it is a square,
    non-empty matrix of numbers (booleans are refused, not cast)."""
    u = np.asarray(values)
    if u.dtype == bool:
        raise ValueError(f"{what} must hold numbers, not booleans")
    u = u.astype(complex, copy=False)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{what} must be square, got shape {u.shape}")
    if u.size == 0:
        raise ValueError(f"{what} is empty")
    return u


def _unitarity_deviations(gram: np.ndarray) -> np.ndarray:
    """max |G - I| of each Gram matrix G = U+ U in a (..., n, n) stack (0
    for n = 0); NaN when G holds one."""
    return np.max(np.abs(gram - np.eye(gram.shape[-1])), axis=(-2, -1), initial=0.0)


def _refuse_non_unitary(dev: float, what: str) -> None:
    """ValueError unless the deviation ``dev`` is within UNITARITY_ATOL."""
    if not dev <= UNITARITY_ATOL:  # NaN entries fail too
        raise ValueError(f"{what} is not unitary (deviation {dev:.3e})")


def check_whole(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is a whole, finite real
    number and not a bool (numpy integers and whole floats pass)."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")


def check_seed(seed) -> None:
    """ValueError unless ``seed`` is a whole, finite, nonnegative number and
    not a bool: the seed rule of the sampler, the E_r search and records files."""
    check_whole("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def check_four_qubits(rho, subject: str) -> None:
    """UnsupportedStateError naming ``subject`` and the dims unless ``rho``
    is four qubits: the one gate of the verification layer and the E_r search."""
    if rho.dims != (2, 2, 2, 2):
        raise UnsupportedStateError(
            f"{subject} is defined for four-qubit states, not dims {rho.dims}")


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)))


def max_abs_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def entropy_from_spectrum(eigs: np.ndarray) -> float:
    """Shannon entropy (bits) of a nonnegative spectrum summing to ~1.

    Values in ``[-ENTROPY_CLAMP, 0)`` are clamped to 0; anything more
    negative, and any non-finite value, raises ``ValueError``.
    """
    w = np.asarray(eigs, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("entropy: spectrum must be finite")
    if w.size and float(w.min()) < -ENTROPY_CLAMP:
        raise ValueError(f"entropy: spectrum has negative weight {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    nz = w[w > 0.0]
    if nz.size == 0:
        return 0.0
    return float(-np.sum(nz * np.log(nz)) / _LN2)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy in bits of a state.

    Takes a DensityOperator, so its input is validated already; wrap a
    raw matrix as ``DensityOperator(mat, dims)`` first.
    """
    return entropy_from_spectrum(np.linalg.eigvalsh(rho.mat))

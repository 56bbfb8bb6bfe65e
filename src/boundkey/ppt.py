"""Positivity under partial transposition: membership, invariance,
extremality and the noise-robustness region.

Everything here certifies the non-distillability side of the story: the
states this package builds stay positive under partial transposition of
Bob's subsystems (so no entanglement can be distilled from them), they
are in fact *invariant* under it, the construction's weight split is the
unique PPT point of its mixing family, and both properties survive a
small but finite amount of white noise while the certified key bound
stays positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .keyrate import _corner_blocks, bell_twirl, canonical_twisting, privacy_squeeze
from .linalg import (
    NPT_FLAG_TOL,
    PPT_MEMBERSHIP_TOL,
    DensityOperator,
    as_state,
    eig_hermitian,
    entropy_from_spectrum,
    max_abs_distance,
    partial_transpose,
    trace_norm,
)
from .states import assemble_standard_form, depolarize


def _bob_cut(rho: DensityOperator) -> tuple[int, ...]:
    """Subsystem indices on Bob's side, inferred from labels (B, B', ...)."""
    cut = tuple(i for i, lab in enumerate(rho.labels) if lab.upper().startswith("B"))
    if not cut:
        raise ValueError(
            f"cannot infer the transposed side from labels {rho.labels}; "
            "label Bob's subsystems B, B', ..."
        )
    return cut


def ppt_check(rho: DensityOperator, cut: Iterable[int] | None = None):
    """Whether the state stays positive under partial transposition.

    Returns ``(is_ppt, min_eig)`` where ``min_eig`` is the smallest
    eigenvalue of the partial transpose over ``cut`` (default: Bob's
    subsystems) and ``is_ppt`` tests it against ``-PPT_MEMBERSHIP_TOL``.
    """
    if cut is None:
        cut = _bob_cut(rho)
    gamma = partial_transpose(rho, cut)
    w, _ = eig_hermitian(gamma)
    min_eig = float(w[0])
    return min_eig >= -PPT_MEMBERSHIP_TOL, min_eig


def ppt_invariance(rho: DensityOperator) -> float:
    """Largest elementwise deviation between the state and its partial
    transpose over Bob's subsystems.  Zero (to rounding) for every state
    this package's two-block construction produces."""
    return max_abs_distance(rho.mat, partial_transpose(rho, _bob_cut(rho)).mat)


@dataclass(frozen=True)
class ExtremalityPoint:
    """One row of an extremality scan: the correlated-block weight, the
    smallest partial-transpose eigenvalue of the state built with it, and
    whether that clears the scan's NPT flag."""

    weight: float
    min_eig: float
    is_npt: bool


def extremality_scan(
    x1: np.ndarray, x2: np.ndarray, q_grid: Sequence[float]
) -> list[ExtremalityPoint]:
    """Sweep the correlated-block weight of the standard two-block form.

    ``x1`` and ``x2`` are the shield-pair block operators (normalized
    here to unit trace norm); for each q in ``q_grid`` the state is
    assembled with correlated weight q and anticorrelated weight 1 - q,
    and the smallest eigenvalue of its Bob-side partial transpose is
    recorded.  For the operators coming out of the unitary construction
    exactly one weight yields a PPT state -- the construction's own --
    which is what makes that state extremal in the PPT set of its family.

    Entries are flagged NPT against ``-NPT_FLAG_TOL``, looser than the
    membership threshold, because scan points sit far from the boundary
    and the tight cut would promote rounding noise to a verdict.
    """
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    d = math.isqrt(x1.shape[0])
    if d * d != x1.shape[0] or x1.shape != x2.shape or x1.ndim != 2:
        raise ValueError("block operators must be square on a d x d shield pair")
    x1 = x1 / trace_norm(x1)
    x2 = x2 / trace_norm(x2)

    points = []
    for q in q_grid:
        q = float(q)
        if not 0.0 < q < 1.0:
            raise ValueError(f"weights must lie strictly inside (0, 1), got {q}")
        mat = assemble_standard_form(x1, x2, q)
        state = as_state(mat, (2, 2, d, d))
        _, min_eig = ppt_check(state)
        points.append(ExtremalityPoint(q, min_eig, min_eig < -NPT_FLAG_TOL))
    return points


@dataclass(frozen=True)
class RobustnessPoint:
    """One row of a robustness scan, at white-noise weight ``noise``:
    the smallest Bob-side partial-transpose eigenvalue of the noisy state
    and the certified key bound evaluated on it."""

    noise: float
    min_eig: float
    key_bound: float


@dataclass(frozen=True)
class RobustnessReport:
    points: tuple[RobustnessPoint, ...]
    #: largest scanned noise with a positive certified bound, None if none
    largest_positive_noise: float | None


def twirl_hashing_bound(rho: DensityOperator) -> Callable[[DensityOperator], float]:
    """Certified-key bound derived once from a clean reference state.

    The returned callable squeezes its argument with the reference
    state's own canonical twisting, projects the resulting two-qubit
    state onto the Bell-diagonal family, and returns one minus the
    entropy of the weights.  Both steps only ever discard key, so the
    value is a valid lower bound on distillable key for any state the
    callable is applied to, not just the reference.
    """
    tau = canonical_twisting(*_corner_blocks(rho))

    def bound(state: DensityOperator) -> float:
        sigma = privacy_squeeze(state, tau)
        return 1.0 - entropy_from_spectrum(bell_twirl(sigma).weights)

    return bound


def robustness_scan(rho: DensityOperator, noise_grid: Sequence[float]) -> RobustnessReport:
    """Certify key and PPT membership along a white-noise ray.

    For each noise weight eps the state (1 - eps) rho + eps I/dim is
    checked for PPT membership (smallest partial-transpose eigenvalue)
    and bounded by ``twirl_hashing_bound(rho)``; the report also carries
    the largest scanned noise whose bound stays positive.  A strictly
    positive answer at nonzero noise certifies that key-carrying PPT
    states fill a region of nonzero volume around the input.
    """
    bound = twirl_hashing_bound(rho)
    points = []
    for noise in noise_grid:
        noisy = depolarize(rho, float(noise))
        _, min_eig = ppt_check(noisy)
        points.append(RobustnessPoint(float(noise), min_eig, bound(noisy)))
    positive = [p.noise for p in points if p.key_bound > 0.0]
    return RobustnessReport(tuple(points), max(positive) if positive else None)


def robustness_threshold(
    rho: DensityOperator,
    bound_fn: Callable[[DensityOperator], float] | None = None,
    hi: float = 0.05,
    tol: float = 1e-6,
) -> float:
    """Noise weight at which the certified key bound crosses zero.

    Bisects on the exact bound curve between zero noise (where the bound
    must be positive) and ``hi``; while the bound at ``hi`` is not yet
    negative the bracket moves up, ``hi`` doubling (capped at full
    noise).  The returned bracket midpoint is accurate to ``tol``.
    """
    if bound_fn is None:
        bound_fn = twirl_hashing_bound(rho)
    lo = 0.0
    f_lo = bound_fn(depolarize(rho, lo))
    if f_lo <= 0.0:
        raise ValueError(f"bound is not positive at zero noise ({f_lo:.3e})")
    f_hi = bound_fn(depolarize(rho, hi))
    while f_hi >= 0.0 and hi < 1.0:
        lo, hi = hi, min(2.0 * hi, 1.0)
        f_hi = bound_fn(depolarize(rho, hi))
    if f_hi >= 0.0:
        raise ValueError(f"bound has not crossed zero by noise {hi} ({f_hi:.3e})")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if bound_fn(depolarize(rho, mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0

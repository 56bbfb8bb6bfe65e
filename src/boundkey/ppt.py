"""Positivity under partial transposition: membership, invariance,
extremality and the noise-robustness region.

Everything here certifies the non-distillability side of the story: the
states this package builds stay positive under partial transposition of
Bob's subsystems (so no entanglement can be distilled from them), they
are in fact *invariant* under it, the construction's weight split is the
unique PPT point of its mixing family, and both properties survive a
small but finite amount of white noise while the certified key bound
stays positive.  The key bound those scans evaluate in closed form,
`keyrate.twirl_hashing_ray`, lives with the other key-rate maths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .keyrate import twirl_hashing_ray
from .linalg import (
    NPT_FLAG_TOL,
    PPT_MEMBERSHIP_TOL,
    DensityOperator,
    UnsupportedStateError,
    _check_blocks,
    eig_hermitian,
    max_abs_distance,
    partial_transpose,
    trace_norm,
)
from .states import assemble_standard_form, check_noise, depolarize

THRESHOLD_BRACKET = 0.05  # robustness_threshold's first noise bracket
THRESHOLD_TOL = 1e-6  # the bracket width at which its bisection stops


def bob_cut(rho: DensityOperator) -> tuple[int, ...]:
    """Subsystem indices on Bob's side, inferred from labels (B, B', ...).
    A state whose labels name no Bob side is valid but has no cut to
    transpose: UnsupportedStateError."""
    cut = tuple(i for i, lab in enumerate(rho.labels) if lab.upper().startswith("B"))
    if not cut:
        raise UnsupportedStateError(
            f"cannot infer the transposed side from labels {rho.labels}; "
            "label Bob's subsystems B, B', ..."
        )
    return cut


def ppt_check(rho: DensityOperator):
    """Whether the state stays positive under partial transposition.

    Always transposes Bob's subsystems (`bob_cut`).  Returns
    ``(is_ppt, min_eig)`` where ``min_eig`` is the smallest eigenvalue of
    the partial transpose and ``is_ppt`` tests it against
    ``-PPT_MEMBERSHIP_TOL``.
    """
    gamma = partial_transpose(rho, bob_cut(rho))
    w, _ = eig_hermitian(gamma.mat)
    min_eig = float(w[0])
    return min_eig >= -PPT_MEMBERSHIP_TOL, min_eig


def ppt_invariance(rho: DensityOperator) -> float:
    """Largest elementwise deviation between the state and its partial
    transpose over Bob's subsystems.  Zero (to rounding) for every state
    this package's two-block construction produces."""
    return max_abs_distance(rho.mat, partial_transpose(rho, bob_cut(rho)).mat)


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

    ``x1`` and ``x2`` are the shield-pair block operators, normalized
    here to unit trace norm.  Blocks not square and of one shape (ValueError),
    not on a d x d shield pair or vanishing (x2 of a pure private bit, both
    under full white noise; UnsupportedStateError) are refused up front.
    For each q in ``q_grid`` the state is assembled with correlated
    weight q and anticorrelated weight 1 - q, and the smallest eigenvalue
    of its Bob-side partial transpose is recorded.  For the operators coming out of the unitary construction
    exactly one weight yields a PPT state -- the construction's own --
    which is what makes that state extremal in the PPT set of its family.

    Entries are flagged NPT against ``-NPT_FLAG_TOL``, looser than the
    membership threshold, because scan points sit far from the boundary
    and the tight cut would promote rounding noise to a verdict.
    """
    x1, x2 = _check_blocks(x1, x2)
    if math.isqrt(len(x1)) ** 2 != len(x1):
        raise UnsupportedStateError(f"extremality scan: corner blocks of shape {x1.shape} "
                                    "are not on a d x d shield pair")
    n1, n2 = trace_norm(x1), trace_norm(x2)
    for block, norm in (("x1 = <00|rho|11>", n1), ("x2 = <01|rho|10>", n2)):
        if not norm > 0.0:
            raise UnsupportedStateError(f"extremality scan: the corner block {block} vanishes")
    x1 = x1 / n1
    x2 = x2 / n2

    points = []
    for q in q_grid:
        q = float(q)
        if not 0.0 < q < 1.0:
            raise ValueError(f"weights must lie strictly inside (0, 1), got {q}")
        _, min_eig = ppt_check(assemble_standard_form(x1, x2, q))
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


def robustness_scan(rho: DensityOperator, noise_grid: Sequence[float]) -> RobustnessReport:
    """Certify key and PPT membership along a white-noise ray.

    For each noise weight eps the state (1 - eps) rho + eps I/dim is
    checked for PPT membership (smallest partial-transpose eigenvalue)
    and bounded by `twirl_hashing_bound`; the report also carries
    the largest scanned noise whose bound stays positive.  A strictly
    positive answer at nonzero noise certifies that key-carrying PPT
    states fill a region of nonzero volume around the input.  No noisy
    state is built: (I/dim)^Gamma = I/dim, so the eigenvalue is
    (1 - eps) mu + eps/dim with mu that of rho, and the bound is
    `keyrate.twirl_hashing_ray`'s.
    """
    ray = twirl_hashing_ray(rho)
    _, mu = ppt_check(rho)
    points = []
    for noise in map(float, noise_grid):
        check_noise(noise)
        points.append(RobustnessPoint(noise, (1.0 - noise) * mu + noise / rho.dim, ray(noise)))
    positive = [p.noise for p in points if p.key_bound > 0.0]
    return RobustnessReport(tuple(points), max(positive) if positive else None)


def robustness_threshold(
    rho: DensityOperator,
    bound_fn: Callable[[DensityOperator], float] | None = None,
) -> float | None:
    """Noise weight at which the certified key bound crosses zero; None
    when the bound is not positive at zero noise.

    Bisects on the exact bound curve between zero noise and
    ``THRESHOLD_BRACKET``; while the bound there is not yet negative the
    bracket moves up, its top doubling (capped at full noise).  The
    returned bracket midpoint is accurate to ``THRESHOLD_TOL``.  The curve
    is `keyrate.twirl_hashing_ray`'s closed form, or ``bound_fn``
    evaluated on each depolarised state when one is given; a ``bound_fn``
    still nonnegative at full noise raises ValueError.
    """
    curve = twirl_hashing_ray(rho) if bound_fn is None else (lambda p: bound_fn(depolarize(rho, p)))
    if curve(0.0) <= 0.0:
        return None
    lo, hi = 0.0, THRESHOLD_BRACKET
    f_hi = curve(hi)
    while f_hi >= 0.0 and hi < 1.0:
        lo, hi = hi, min(2.0 * hi, 1.0)
        f_hi = curve(hi)
    if f_hi >= 0.0:
        raise ValueError(f"bound has not crossed zero by noise {hi} ({f_hi:.3e})")
    while hi - lo > THRESHOLD_TOL:
        mid = (lo + hi) / 2.0
        if curve(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0

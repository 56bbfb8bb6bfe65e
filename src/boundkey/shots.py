"""Finite-shot simulation of the local verification scheme and the
statistically conservative key certification built on top of it.

The flow mirrors a desk experiment: pick a scheme of collective settings
(four local measurement directions at a time), sample outcome counts per
setting from the Born distribution, reconstruct the squeezed two-qubit
parameters from the counts, wrap every estimate in a confidence radius,
and certify a key bound that holds for *every* parameter assignment
inside the confidence rectangle.  The two real coherences the
certificate consumes get empirical Bernstein radii (Maurer & Pontil,
COLT 2009), which adapt to the measured per-setting variances; every
other radius is a Hoeffding bound.  All radii hold jointly at level
1 - delta by a union bound, so the certified number is sound by
construction; the price is paid in shots, not in assumptions.  The
minimum over the rectangle is exact, not searched, and is key-rate maths:
`keyrate.twirl_hashing_minimum` computes it, and this module keeps only
the statistics.  Each measurement basis is built once per letter string
and reused by every later draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .keyrate import twirl_hashing, twirl_hashing_minimum
from .linalg import CertificationInfeasibleError, DensityOperator, UnsupportedStateError
from .observables import DIRECTIONS, CollectiveSetting, SettingsCover

#: outcome tuples (sign on A, B, A', B'), index order matching the state's
#: subsystem order: qubit A varies slowest
OUTCOMES: tuple[tuple[int, int, int, int], ...] = tuple(
    itertools.product((1, -1), repeat=4)
)

#: number of estimated expectations sharing the union bound: the four
#: key-basis bucket frequencies, their correlated-sector sum, and the
#: four coherence functionals.  Each term gets delta / UNION_BOUND_TERMS:
#: the Hoeffding terms spend it whole on their deviation, the two
#: empirical Bernstein terms (the real coherences) split it by
#: VARIANCE_SHARE
UNION_BOUND_TERMS = 9

#: share of an empirical Bernstein term's delta / UNION_BOUND_TERMS that
#: pays for the per-setting variance bounds (split evenly over the
#: settings); the rest pays for the deviation of the summed means
VARIANCE_SHARE = 0.1

#: largest shot count per setting: a record's shots and counts travel as
#: floats, which hold every whole number up to 2**53 exactly and no further
MAX_SHOTS = 2**53


def _functional_values() -> np.ndarray:
    """values[mask, o]: the product of the outcome signs of the qubits in
    ``mask`` (bit q of the mask is qubit q, with A as bit 0)."""
    vals = np.ones((16, 16))
    for mask in range(16):
        for o, signs in enumerate(OUTCOMES):
            v = 1.0
            for q in range(4):
                if (mask >> q) & 1:
                    v *= signs[q]
            vals[mask, o] = v
    return vals


FUNCTIONAL_VALUES = _functional_values()


@dataclass(frozen=True)
class ShotRecord:
    """Measured counts for one collective setting.

    ``counts`` holds how often each outcome occurred, 16 nonnegative whole
    numbers in canonical ``OUTCOMES`` order that sum to ``shots`` exactly;
    any sequence of 16 numbers is stored as a tuple, so a record cannot
    change once built.  ``shots`` is a whole number from 1 to MAX_SHOTS.
    """

    setting: CollectiveSetting
    counts: tuple = field(repr=False)
    shots: float

    def __post_init__(self):
        try:
            # a safe cast refuses text and integers too large for uint64
            values = np.asarray(self.counts).astype(float, casting="safe")
            finite_shots = math.isfinite(self.shots)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"counts and shots must be real numbers ({exc})") from None
        if not (finite_shots and self.shots > 0):
            raise ValueError(f"shots must be positive and finite, got {self.shots}")
        if self.shots > MAX_SHOTS:
            raise ValueError(f"shots must be at most {MAX_SHOTS}, got {self.shots}")
        if values.shape != (16,):
            raise ValueError(f"counts must be 16 numbers, one per outcome, got {self.counts!r}")
        total = float(values.sum())  # not finite if a count is not
        if not (math.isfinite(total) and values.min() >= 0):
            raise ValueError(f"counts must be finite and >= 0, got {self.counts!r}")
        if not (float(self.shots).is_integer() and (values == np.floor(values)).all()):
            raise ValueError("a record needs whole-number shots and counts")
        whole = sum(int(c) for c in self.counts)  # exact, unlike a float sum
        if whole != self.shots:
            raise ValueError(f"counts sum to {whole}, not {self.shots}")
        object.__setattr__(self, "counts", tuple(self.counts))
        object.__setattr__(self, "shots", float(self.shots))  # exact up to MAX_SHOTS


def _direction_basis(n: np.ndarray) -> np.ndarray:
    """Columns: the +1 and -1 eigenvectors of n . sigma, in that order."""
    nx, ny, nz = (float(x) for x in n)
    op = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
    _, v = np.linalg.eigh(op)
    return v[:, ::-1]


@lru_cache(maxsize=None)
def _setting_basis(letters: str) -> np.ndarray:
    """Read-only product eigenbasis of measuring qubit q along
    ``DIRECTIONS[letters[q]]``: column i is outcome i in canonical order
    (first qubit slowest).  Built on first use, then cached per string."""
    basis = reduce(np.kron, [_direction_basis(DIRECTIONS[l]) for l in letters])
    basis.setflags(write=False)
    return basis


def outcome_distribution(rho: DensityOperator, setting: CollectiveSetting) -> np.ndarray:
    """Born probabilities of the 16 sign outcomes of measuring each qubit
    along its letter's direction, in canonical order (first qubit
    slowest)."""
    if rho.dims != (2, 2, 2, 2):
        raise UnsupportedStateError(f"collective settings act on four qubits, state has {rho.dims}")
    basis = _setting_basis(setting.letters)
    probs = np.real(np.einsum("ji,jk,ki->i", basis.conj(), rho.mat, basis))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def check_sampling(shots: int, seed: int) -> None:
    """Refuse a shot count below one or above MAX_SHOTS, which a record
    cannot hold exactly, or a negative seed (ValueError)."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}, got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def sample_scheme(
    rho: DensityOperator,
    settings: Sequence[CollectiveSetting],
    shots: int,
    seed: int,
) -> list[ShotRecord]:
    """Sample each setting's outcome counts from the Born distribution.

    Setting i draws from its own stream, ``SeedSequence([seed, i])``, so its
    counts depend on the seed and its position in the scheme only, and are
    deterministic for a fixed seed within one build.
    """
    check_sampling(shots, seed)
    records = []
    for i, setting in enumerate(settings):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        counts = rng.multinomial(int(shots), outcome_distribution(rho, setting))
        records.append(ShotRecord(setting, tuple(counts.tolist()), float(shots)))
    return records


@dataclass(frozen=True)
class EstimateReport:
    """Estimated squeezed-state parameters with confidence radii and the
    key bounds they support.

    ``diag`` is the key-basis diagonal (d00, d01, d10, d11) of the
    squeezed two-qubit state, ``re_a``/``im_a`` its (00,11) coherence and
    ``re_b``/``im_b`` its (01,10) coherence.  All radii hold jointly with
    probability at least 1 - ``delta``: ``coherence_radii[0]`` (``re_a``)
    and ``coherence_radii[2]`` (``re_b``) are empirical Bernstein radii,
    the rest -- diagonal, correlated weight, ``im_a``, ``im_b`` -- are
    Hoeffding radii.  Estimates and radii must be finite.  The bounds
    are derived from them, never stored: ``raw_bound`` evaluates the
    twirl-hashing bound at the point estimates, ``certified_bound`` is its
    minimum over the whole confidence rectangle (None when the rectangle
    contains no valid parameter assignment at all).
    """

    diag: np.ndarray
    diag_radii: np.ndarray
    re_a: float
    im_a: float
    re_b: float
    im_b: float
    coherence_radii: np.ndarray
    corr_weight: float
    corr_weight_radius: float
    delta: float

    def __post_init__(self):
        numbers = [
            self.diag,
            self.diag_radii,
            [self.re_a, self.im_a, self.re_b, self.im_b],
            self.coherence_radii,
            [self.corr_weight, self.corr_weight_radius],
        ]
        if not all(np.all(np.isfinite(x)) for x in numbers):
            raise ValueError("estimates and radii must be finite")
        if min(np.min(self.diag_radii), np.min(self.coherence_radii), self.corr_weight_radius) < 0:
            raise ValueError("confidence radii must be nonnegative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"confidence level parameter {self.delta} outside (0, 1)")

    @property
    def raw_bound(self) -> float:
        return twirl_hashing(self.corr_weight, self.re_a, self.re_b)

    @property
    def certified_bound(self) -> float | None:
        scanned = twirl_hashing_minimum(self.corr_weight, self.corr_weight_radius, self.re_a,
                                        float(self.coherence_radii[0]), self.re_b,
                                        float(self.coherence_radii[2]))
        return None if scanned is None else min(scanned, self.raw_bound)


def _diag_setting_index(settings: Sequence[CollectiveSetting]) -> int:
    for i, s in enumerate(settings):
        if s.letters.startswith("zz"):
            return i
    raise ValueError(
        "scheme has no setting measuring both key qubits in the computational basis"
    )


def _bernstein_radius(
    outcome_values: np.ndarray,
    freqs: np.ndarray,
    ranges: np.ndarray,
    shots: np.ndarray,
    term_delta: float,
) -> float:
    """Two-sided empirical Bernstein radius of sum_s mean_s at level
    1 - ``term_delta``, where mean_s averages ``shots[s]`` independent
    per-shot values ``outcome_values[s, o]`` bounded by ``ranges[s]`` in
    magnitude and observed with frequencies ``freqs[s, o]``.

    Each setting's standard deviation is bounded above by the sample
    standard deviation plus the Maurer-Pontil penalty
    2 R_s sqrt(2 ln(1/delta_v) / (N_s - 1)) and capped at the range
    bound R_s; settings with fewer than two shots use the cap alone.
    Bernstein's inequality for the sum then runs at the bounded variance.
    """
    var_delta = VARIANCE_SHARE * term_delta / len(shots)
    dev_log = math.log(2.0 / ((1.0 - VARIANCE_SHARE) * term_delta))
    first = np.einsum("so,so->s", outcome_values, freqs)
    second = np.einsum("so,so->s", outcome_values * outcome_values, freqs)
    variance_cap = ranges * ranges
    sampled = shots >= 2.0
    dof = np.where(sampled, shots - 1.0, 1.0)
    sample_var = np.clip(second - first * first, 0.0, None) * shots / dof
    sd_upper = np.sqrt(sample_var) + 2.0 * ranges * np.sqrt(
        2.0 * math.log(1.0 / var_delta) / dof
    )
    variance = np.where(sampled, np.minimum(sd_upper * sd_upper, variance_cap), variance_cap)
    total_variance = float(np.sum(variance / shots))
    linear = float(np.max(2.0 * ranges / shots)) * dev_log / 3.0
    return linear + math.sqrt(linear * linear + 2.0 * total_variance * dev_log)


def estimate_parameters(
    records: Sequence[ShotRecord], scheme: SettingsCover, delta: float = 0.05
) -> EstimateReport:
    """Reconstruct the squeezed-state parameters from measured counts.

    ``scheme`` must be a feasible cover of the five verification targets
    in canonical order (key correlation first, then the real/imaginary
    coherence pairs), and ``records`` must contain a record for every one
    of its settings.  Point estimates apply the scheme's reconstruction
    weights to the empirical functional means; the key-basis diagonal
    comes from the computational-basis setting's key-qubit marginals.

    The confidence radii are union-bounded over the UNION_BOUND_TERMS
    estimated expectations, delta / UNION_BOUND_TERMS each, so that all
    of them hold jointly with probability at least 1 - ``delta``.  Bucket
    frequencies are means of indicator variables (range one) and get
    Hoeffding radii.  A reconstructed expectation sums per-setting means
    whose per-shot values are bounded by the reconstruction weights: the
    two real coherences, which the certificate consumes, get empirical
    Bernstein radii (their term's delta split by VARIANCE_SHARE between
    the per-setting variance bounds and the deviation), the imaginary
    ones Hoeffding radii from the per-shot ranges.  The report holds
    estimates and radii only; it derives its bounds from them.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not scheme.feasible:
        raise ValueError("scheme is not a feasible cover of the targets")
    if len(scheme.coefficients) != 5:
        raise ValueError(
            f"scheme covers {len(scheme.coefficients)} targets, expected the five "
            "verification observables"
        )
    by_name = {rec.setting.letters: rec for rec in records}
    ordered = []
    for s in scheme.settings:
        rec = by_name.get(s.letters)
        if rec is None:
            raise ValueError(f"records do not cover the scheme: missing {s.letters!r}")
        ordered.append(rec)

    log_term = math.log(2.0 * UNION_BOUND_TERMS / delta)
    shots = np.array([rec.shots for rec in ordered])
    freqs = np.array([rec.counts for rec in ordered], dtype=float) / shots[:, None]
    means = freqs @ FUNCTIONAL_VALUES.T

    # Reconstructed expectations of the four coherence targets (target 0,
    # the key correlation, is not needed: the diagonal below carries it)
    # and their radii; the real coherences, entries 0 and 2, are the ones
    # the certificate consumes.
    estimates = np.zeros(4)
    radii = np.zeros(4)
    for j, coeff in enumerate(scheme.coefficients[1:]):
        per_setting = coeff.reshape(len(ordered), 16)
        estimates[j] = float(np.sum(per_setting * means))
        outcome_values = per_setting @ FUNCTIONAL_VALUES
        ranges = np.max(np.abs(outcome_values), axis=1)
        if j in (0, 2):
            radii[j] = _bernstein_radius(
                outcome_values, freqs, ranges, shots, delta / UNION_BOUND_TERMS
            )
        else:
            radii[j] = math.sqrt(2.0 * log_term * float(np.sum(ranges * ranges / shots)))

    # Key-basis diagonal from the computational setting's marginals.
    diag_idx = _diag_setting_index([r.setting for r in ordered])
    diag_rec = ordered[diag_idx]
    z_a, z_b, z_ab = means[diag_idx][1], means[diag_idx][2], means[diag_idx][3]
    diag = 0.25 * np.array(
        [
            1.0 + z_a + z_b + z_ab,
            1.0 + z_a - z_b - z_ab,
            1.0 - z_a + z_b - z_ab,
            1.0 - z_a - z_b + z_ab,
        ]
    )
    # Each diagonal entry, and the correlated-sector weight, is the mean
    # of an indicator over the same record's shots.
    bucket_radius = math.sqrt(log_term / (2.0 * diag_rec.shots))
    return EstimateReport(
        diag=diag,
        diag_radii=np.full(4, bucket_radius),
        re_a=float(estimates[0] / 2.0),
        im_a=float(estimates[1] / 2.0),
        re_b=float(estimates[2] / 2.0),
        im_b=float(estimates[3] / 2.0),
        coherence_radii=radii / 2.0,
        corr_weight=float(diag[0] + diag[3]),
        corr_weight_radius=bucket_radius,
        delta=delta,
    )


def certify(report: EstimateReport) -> float:
    """The certified key bound of a report, ``report.certified_bound``: the
    twirl-hashing bound minimized over the report's confidence rectangle
    (never above the point-estimate bound).

    Raises CertificationInfeasibleError when no parameter assignment in
    the rectangle corresponds to a quantum state, i.e. when the data are
    inconsistent beyond their own error bars.
    """
    floor = report.certified_bound
    if floor is None:
        raise CertificationInfeasibleError(
            "no point of the confidence rectangle is a valid spectrum"
        )
    return floor

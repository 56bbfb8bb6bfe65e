"""Finite-shot simulation of the local verification scheme and the
statistically conservative key certification built on top of it.

The flow mirrors a desk experiment: pick a scheme of collective settings
(four local measurement directions at a time), sample outcome counts per
setting from the Born distribution (one seeded stream per call, so a
setting's counts depend on the seed and on the settings up to and
including it), reconstruct the squeezed two-qubit
parameters from the counts, wrap every estimate in a confidence radius,
and certify a key bound that holds for *every* parameter assignment
inside the confidence rectangle.  The four coherences are estimated in
one stacked pass over their reconstruction weights, whose rows the
scheme's tables find by the names ``observables.COHERENCES`` (R1, I1,
R2, I2); the two real ones, R1 and R2, the only ones the certificate
consumes, get empirical Bernstein radii (Maurer & Pontil, COLT 2009),
which adapt to the measured per-setting variances; every other radius is
a Hoeffding bound.  All radii hold jointly at level 1 - delta by a
union bound, so the certified number is sound by construction; the
price is paid in shots, not in assumptions.  The minimum over the
rectangle is exact, not searched, and is key-rate maths:
`keyrate.twirl_hashing_minimum` computes it, and this module keeps only
the statistics.  How a scheme is sampled (``sample_scheme``), what a
record holds (``ShotRecord``) and what an estimate reads
(``estimate_parameters``) is said where each is defined.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .keyrate import twirl_hashing, twirl_hashing_minimum
from .linalg import (CertificationInfeasibleError, DensityOperator, check_four_qubits, check_seed,
                     check_whole, frozen_copy, pauli_decompose)
from .observables import (COHERENCES, DIRECTIONS, FUNCTIONAL_VALUES, CollectiveSetting,
                          SettingsCover)

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

#: largest shot count per setting: a record's shots, and its counts in an
#: estimate, are floats, which hold every whole number up to 2**53 exactly
MAX_SHOTS = 2**53


@dataclass(frozen=True)
class ShotRecord:
    """Measured counts for one collective setting.

    ``counts`` holds how often each outcome occurred: 16 nonnegative Python
    or numpy integers, never bools, in canonical ``observables.OUTCOMES``
    order, summing to ``shots`` exactly and kept as a tuple of Python ints,
    so a record cannot change once built.  ``shots`` passes the sampler's
    shots check (``_check_shots``) and is kept as a float.  ``setting`` must
    be a ``CollectiveSetting``.
    """

    setting: CollectiveSetting
    counts: tuple = field(repr=False)
    shots: float

    def __post_init__(self):
        if not isinstance(self.setting, CollectiveSetting):
            raise ValueError(
                f"a record's setting must be a CollectiveSetting, got {self.setting!r}")
        _check_shots(self.shots)
        try:
            given = tuple(self.counts)
            if bool in map(type, given):  # operator.index takes a bool
                raise TypeError("a bool is not a count")
            counts = tuple(map(operator.index, given))
        except TypeError as exc:
            raise ValueError("a record needs whole-number shots and counts: counts must be "
                             f"integers ({exc})") from None
        if len(counts) != 16:
            raise ValueError(f"counts must be 16 numbers, one per outcome, got {self.counts!r}")
        if min(counts) < 0:
            raise ValueError(f"counts must be >= 0, got {self.counts!r}")
        if sum(counts) != self.shots:  # exact: a sum of Python ints
            raise ValueError(f"counts sum to {sum(counts)}, not {self.shots}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", float(self.shots))  # exact up to MAX_SHOTS


def _sampled_records(settings: Sequence[CollectiveSetting], counts: np.ndarray,
                     shots: int) -> list[ShotRecord]:
    """One record per row of the integer array ``counts``, (k, 16), for
    ``settings`` in order, each drawn with ``shots`` shots, which
    ``check_sampling`` has passed.  The array is checked once, as a whole:
    every count lies in [0, shots], which also keeps the row sums far from
    int64 overflow, and each row sums to ``shots``.  With integer counts
    and checked shots, that is every ``ShotRecord`` rule left, so the
    records are built without its per-record checks."""
    if counts.min() < 0 or counts.max() > shots or (counts.sum(axis=1) != shots).any():
        raise ValueError(f"sampled counts must be nonnegative and sum to {shots} in each row")
    n = float(shots)
    records = []
    for setting, row in zip(settings, counts.tolist()):
        record = object.__new__(ShotRecord)
        object.__setattr__(record, "setting", setting)
        object.__setattr__(record, "counts", tuple(row))
        object.__setattr__(record, "shots", n)
        records.append(record)
    return records


#: distinct (state, settings) pairs whose Born distributions are kept; a
#: study samples a handful of states many times
_BORN_CACHE_SIZE = 16

#: _LETTER_TRACES[c][j, a]: Tr(P_a (I + o n . sigma)) / 2 for outcome
#: o = +1 (j = 0) or -1 (j = 1) along the direction of letter c, with P_a
#: the Pauli letter a of "IXYZ": (1, +n) and (1, -n)
_LETTER_TRACES = {c: frozen_copy([[1.0, *n], [1.0, *-n]]) for c, n in DIRECTIONS.items()}


def _born_distributions(rho: DensityOperator,
                        settings: Sequence[CollectiveSetting]) -> np.ndarray:
    """Row s: the Born probabilities of the 16 sign outcomes of
    ``settings[s]``, in canonical order, as a read-only (k, 16) array.
    Read off the state's Pauli expansion: outcome o of a setting with
    directions n_q has probability sum_P r_P prod_q Tr(P_q (I + o_q n_q .
    sigma)) / 2, one einsum over the settings' per-letter trace tables,
    then each row clipped at zero and normalised; a row's bytes do not
    depend on the other settings in the stack.  The rows are recalled, from
    a cache bounded at ``_BORN_CACHE_SIZE`` entries, for a state with the
    same matrix bytes and the same settings' letters in the same order;
    every state holds its matrix as a private C-ordered copy, so bytes and
    letters are the key."""
    check_four_qubits(rho, "a collective setting")
    # from a list, not a generator: a tuple grown by resizing is freed onto a
    # CPython free list that no call takes from, up to 2000 tuples deep
    letters = tuple([s.letters for s in settings])
    return _cached_born(rho.mat.tobytes(), letters)


@lru_cache(maxsize=_BORN_CACHE_SIZE)
def _cached_born(mat_bytes: bytes, letters: tuple[str, ...]) -> np.ndarray:
    """``_born_distributions`` of the 16 x 16 complex matrix stored in
    ``mat_bytes`` in C order, for the settings ``letters``."""
    mat = np.frombuffer(mat_bytes, dtype=complex).reshape(16, 16)
    traces = np.array([[_LETTER_TRACES[c] for c in l] for l in letters])
    probs = np.einsum("abcd,swa,sxb,syc,szd->swxyz", pauli_decompose(mat).real,
                      *traces.transpose(1, 0, 2, 3)).reshape(len(letters), 16)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum(axis=1, keepdims=True)
    probs.setflags(write=False)
    return probs


def _check_shots(shots) -> None:
    """ValueError unless ``shots`` is a whole finite number from 1 to
    MAX_SHOTS and not a bool: the one shots rule, sampler's and record's."""
    check_whole("shots", shots)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}, got {shots}")


def _check_delta(delta) -> None:
    """ValueError unless ``delta`` is a real number in (0, 1): the one rule of
    the estimator's and the report's confidence level parameter."""
    if np.iscomplexobj(delta) or not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def check_sampling(shots: int, seed: int) -> None:
    """Refuse (ValueError), before any draw, a shots or seed that is a bool
    or not a whole finite number, shots outside 1..MAX_SHOTS (the rule every
    ``ShotRecord`` follows) or a negative seed."""
    _check_shots(shots)
    check_seed(seed)


def sample_scheme(
    rho: DensityOperator,
    settings: Iterable[CollectiveSetting],
    shots: int,
    seed: int,
) -> list[ShotRecord]:
    """Sample each setting's outcome counts from the Born distribution.

    The distributions of all settings come from one batched Born pass,
    each row bit for bit the one a pass over that setting alone gives;
    they are recalled, from a bounded cache keyed by the matrix bytes and
    the settings' letters, when an equal state was sampled with the same
    settings before; a state holds its matrix as a private, read-only
    C-order copy, so the memory order it was built from does not matter.
    One stream, ``default_rng(seed)``, then draws every row in scheme
    order, in one multinomial call over the (k, 16) rows: a setting's
    counts depend on the seed and on the settings up to and including it,
    so a prefix of the settings draws a prefix of the records, and they
    are deterministic for a fixed seed within one build.  The draws form
    one (k, 16) integer array, checked once as a whole; the records hold
    its rows as Python ints.  ``settings`` may be any iterable; it is read
    once.
    """
    settings = tuple(settings)
    check_sampling(shots, seed)
    if not settings:
        return []
    n = int(shots)
    counts = np.random.default_rng(int(seed)).multinomial(n, _born_distributions(rho, settings))
    return _sampled_records(settings, counts, n)


@dataclass(frozen=True)
class EstimateReport:
    """Estimated squeezed-state parameters with confidence radii and the
    key bounds they support.

    ``diag`` is the key-basis diagonal (d00, d01, d10, d11) of the
    squeezed two-qubit state, ``re_a``/``im_a`` its (00,11) coherence and
    ``re_b``/``im_b`` its (01,10) coherence.  All radii hold jointly with
    probability at least 1 - ``delta``.  ``coherence_radii`` holds the
    radii of (``re_a``, ``im_a``, ``re_b``, ``im_b``) in that order, the
    targets ``observables.COHERENCES`` names; the ``re_a`` and ``re_b`` radii
    are empirical Bernstein radii, the rest -- diagonal, correlated weight, ``im_a``,
    ``im_b`` -- are Hoeffding radii.  Estimates and radii must be finite
    real numbers; once checked, the three arrays are kept as private,
    read-only float copies.  The bounds are derived from them, never stored: ``raw_bound``
    evaluates the twirl-hashing bound at the point estimates,
    ``certified_bound`` is its minimum over the whole confidence rectangle
    (None when the rectangle contains no valid parameter assignment at
    all); the ``re_a`` and ``re_b`` radii are the only coherence radii it reads.
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
        # every number in one array, the radii first: one finiteness test,
        # then one minimum over the radii
        diag_radii, coherence_radii = np.ravel(self.diag_radii), np.ravel(self.coherence_radii)
        numbers = np.concatenate((
            diag_radii, coherence_radii, [self.corr_weight_radius], np.ravel(self.diag),
            [self.re_a, self.im_a, self.re_b, self.im_b, self.corr_weight],
        ))
        if not np.isfinite(numbers).all():
            raise ValueError("estimates and radii must be finite")
        if not (diag_radii.size and coherence_radii.size):
            raise ValueError("confidence radii must not be empty")
        radii = numbers[:diag_radii.size + coherence_radii.size + 1]
        if radii.min() < 0 or (radii.dtype.kind == "c" and radii.imag.any()):
            raise ValueError("confidence radii must be nonnegative")
        if numbers.dtype.kind == "c":  # even with a zero imaginary part
            raise ValueError("estimates and radii must be real numbers, not complex")
        _check_delta(self.delta)
        for name in ("diag", "diag_radii", "coherence_radii"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name), dtype=float))

    @property
    def raw_bound(self) -> float:
        return twirl_hashing(self.corr_weight, self.re_a, self.re_b)

    @property
    def certified_bound(self) -> float | None:
        radius_a, radius_b = self.coherence_radii[::2].tolist()  # re_a's and re_b's
        scanned = twirl_hashing_minimum(self.corr_weight, self.corr_weight_radius,
                                        self.re_a, radius_a, self.re_b, radius_b)
        return None if scanned is None else min(scanned, self.raw_bound)


def _bernstein_radius(
    outcome_values: np.ndarray,
    freqs: np.ndarray,
    ranges: np.ndarray,
    shots: np.ndarray,
    term_delta: float,
) -> np.ndarray:
    """Two-sided empirical Bernstein radii of sum_s mean_rs, one per row r,
    each at level 1 - ``term_delta``, where mean_rs averages ``shots[s]``
    independent per-shot values ``outcome_values[r, s, o]`` bounded by
    ``ranges[r, s]`` in magnitude and observed with frequencies ``freqs[s, o]``.

    Each setting's standard deviation is bounded above by the sample
    standard deviation plus the Maurer-Pontil penalty
    2 R_s sqrt(2 ln(1/delta_v) / (N_s - 1)) and capped at the range
    bound R_s; settings with fewer than two shots use the cap alone.
    Bernstein's inequality for the sum then runs at the bounded variance.
    """
    var_delta = VARIANCE_SHARE * term_delta / len(shots)
    dev_log = math.log(2.0 / ((1.0 - VARIANCE_SHARE) * term_delta))
    first = np.einsum("rso,so->rs", outcome_values, freqs)
    second = np.einsum("rso,so->rs", outcome_values * outcome_values, freqs)
    sampled = shots >= 2.0
    dof = np.where(sampled, shots - 1.0, 1.0)
    sample_var = np.clip(second - first * first, 0.0, None) * shots / dof
    sd_upper = np.sqrt(sample_var) + 2.0 * ranges * np.sqrt(
        2.0 * math.log(1.0 / var_delta) / dof
    )
    ranges_sq = ranges * ranges
    variance = np.where(sampled, np.minimum(sd_upper * sd_upper, ranges_sq), ranges_sq)
    total_variance = np.sum(variance / shots, axis=1)
    linear = np.max(2.0 * ranges / shots, axis=1) * dev_log / 3.0
    return linear + np.sqrt(linear * linear + 2.0 * total_variance * dev_log)


def estimate_parameters(
    records: Iterable[ShotRecord], scheme: SettingsCover, delta: float = 0.05
) -> EstimateReport:
    """Reconstruct the squeezed-state parameters from measured counts.

    ``scheme`` must be a feasible cover that names the four
    ``observables.COHERENCES`` among its targets, in any order.  ``records``
    must hold exactly one record per setting of the scheme, in the scheme's
    order; records in another order make a scheme of their own with
    ``cover_from_settings``, as ``certify`` does.  ``records`` may be any
    iterable; it is read once.  The scheme's weights, per-outcome values,
    ranges, key-basis setting and coherence rows (found by name) are read
    from its tables, built once per scheme object
    (``SettingsCover._tables``).  Point estimates apply the scheme's reconstruction
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
    _check_delta(delta)
    if not scheme.feasible:
        raise ValueError("scheme is not a feasible cover of the targets")
    tables = scheme._tables
    if tables.coherences is None:
        missing = ", ".join(name for name in COHERENCES if name not in scheme.targets)
        raise ValueError(f"scheme does not name the coherence targets {missing}: cover a "
                         "mapping of names to operators, such as VerificationObservables.named()")
    records = list(records)
    letters = [rec.setting.letters for rec in records]
    expected = [s.letters for s in scheme.settings]
    if letters != expected:
        raise ValueError(
            f"records must hold one record per scheme setting, in scheme order {expected}, "
            f"got {letters}: follow the scheme's order, or rebuild the cover from the "
            "records' settings with cover_from_settings, as certify does")

    log_term = math.log(2.0 * UNION_BOUND_TERMS / delta)
    shots = np.array([rec.shots for rec in records])
    freqs = np.array([rec.counts for rec in records], dtype=float) / shots[:, None]
    means = freqs @ FUNCTIONAL_VALUES.T

    # The coherence rows of the scheme's tables, found by name (the key
    # correlation's is not needed: the diagonal below carries it).  Every
    # row gets a Hoeffding radius, which the floor's rows, R1 and R2, replace.
    rows = tables.coherences
    weights, ranges = tables.weights[rows], tables.ranges[rows]
    estimates = np.sum(weights * means, axis=(1, 2))
    radii = np.sqrt(2.0 * log_term * np.sum(ranges * ranges / shots, axis=1))
    radii[::2] = _bernstein_radius(tables.values[rows[::2]], freqs, ranges[::2],
                                   shots, delta / UNION_BOUND_TERMS)

    # Key-basis diagonal from the computational setting's marginals.
    diag_idx = tables.zz
    if diag_idx is None:
        raise ValueError(
            "scheme has no setting measuring both key qubits in the computational basis"
        )
    diag_rec = records[diag_idx]
    z_a, z_b, z_ab = means[diag_idx, 1:4]
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
    re_a, im_a, re_b, im_b = (estimates / 2.0).tolist()
    return EstimateReport(
        diag=diag,
        diag_radii=np.full(4, bucket_radius),
        re_a=re_a,
        im_a=im_a,
        re_b=re_b,
        im_b=im_b,
        coherence_radii=radii / 2.0,
        corr_weight=float(diag[0] + diag[3]),
        corr_weight_radius=bucket_radius,
        delta=delta,
    )


def certify(report: EstimateReport) -> float:
    """The certified key bound of a report, ``report.certified_bound``: the
    twirl-hashing bound minimized over the report's confidence rectangle
    (never above the point-estimate bound).

    The floor holds with probability 1 - delta for a shot count fixed
    before the data are drawn.  Certifying a growing records file again
    and again, until the floor turns positive, is not covered by delta:
    the radii are not uniform over the number of shots.

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

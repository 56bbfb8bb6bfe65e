"""Finite-shot simulation and sound parameter estimation."""

import dataclasses
import math
from functools import reduce

import numpy as np
import pytest

import boundkey as bk
from boundkey import shots
from boundkey.keyrate import twirl_hashing
from boundkey.linalg import max_abs_distance
from boundkey.observables import DIRECTIONS

P1 = 2.0 - math.sqrt(2.0)
P2 = math.sqrt(2.0) - 1.0
TRUE_DIAG = np.array([P1 / 2, P2 / 2, P2 / 2, P1 / 2])

# frozen regression values at one million shots per setting, seed 7
SEED7_RAW = 0.021115299957035205
SEED7_CERTIFIED = 0.00041277893644597885
SEED7_BUCKET_RADIUS = 0.0017155325749530605


def exact_report():
    return bk.EstimateReport(
        diag=TRUE_DIAG.copy(),
        diag_radii=np.zeros(4),
        re_a=P1 / 2,
        im_a=0.0,
        re_b=P2 / 2,
        im_b=0.0,
        coherence_radii=np.zeros(4),
        corr_weight=P1,
        corr_weight_radius=0.0,
        delta=0.05,
    )


def test_outcome_distribution_is_a_distribution(flagship, full_scheme):
    for setting in full_scheme.settings:
        p = bk.outcome_distribution(flagship, setting)
        assert p.shape == (16,)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-12


def test_outcome_distribution_declines_other_dims(flagship):
    # a valid state on (2, 2, 4) is not four qubits: unsupported, not malformed
    other = bk.DensityOperator(flagship.mat, (2, 2, 4))
    with pytest.raises(bk.UnsupportedStateError):
        bk.outcome_distribution(other, bk.CollectiveSetting("zzxx"))


def test_key_marginal_of_diagonal_setting(flagship):
    # measuring z on both key qubits reads the key statistics directly,
    # whatever happens on the shield
    p = bk.outcome_distribution(flagship, bk.CollectiveSetting("zzxx"))
    marg = p.reshape(2, 2, 4).sum(axis=2)  # qubit order A, B, shield pair
    expect = np.array([[P1 / 2, P2 / 2], [P2 / 2, P1 / 2]])
    assert max_abs_distance(marg, expect) < 1e-12


def oracle_distribution(mat, letters):
    """The Born distribution built from scratch: a per-qubit eigh of n . sigma
    (+1 eigenvector first), their Kronecker product, then the same
    contraction, clip and normalisation as the library."""
    columns = []
    for letter in letters:
        nx, ny, nz = (float(x) for x in DIRECTIONS[letter])
        _, v = np.linalg.eigh(np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]]))
        columns.append(v[:, ::-1])
    basis = reduce(np.kron, columns)
    probs = np.clip(np.real(np.einsum("ji,jk,ki->i", basis.conj(), mat, basis)), 0.0, None)
    return probs / probs.sum()


def test_cached_bases_give_the_same_bytes_as_a_fresh_construction(flagship):
    # every sampled count depends on these bits: the cached product bases
    # must not move the last bit of any distribution
    for rho in (flagship, bk.depolarize(flagship, 0.003)):
        for setting in bk.default_candidates():
            assert np.array_equal(bk.outcome_distribution(rho, setting),
                                  oracle_distribution(rho.mat, setting.letters))


def test_cached_basis_is_read_only(flagship):
    setting = bk.CollectiveSetting("uvzz")
    before = bk.sample_setting(flagship, setting, 5000, seed=4, index=2)
    basis = shots._setting_basis(setting.letters)
    assert basis is shots._setting_basis(setting.letters)
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0
    a = bk.sample_setting(flagship, setting, 5000, seed=4, index=2)
    b = bk.sample_setting(flagship, setting, 5000, seed=4, index=2)
    assert a == b == before


def test_shot_counts_past_int64_are_refused(flagship):
    # numpy draws multinomial counts as int64: a larger count is malformed
    # input, refused before any draw, not an OverflowError inside one
    shots.check_sampling(shots.MAX_SHOTS, 0)
    setting = bk.CollectiveSetting("zzxx")
    for n in (shots.MAX_SHOTS + 1, 10**20):
        with pytest.raises(ValueError, match="shots must be at most"):
            shots.check_sampling(n, 0)
        with pytest.raises(ValueError, match="shots must be at most"):
            bk.sample_setting(flagship, setting, n, seed=1)


def test_sampling_is_deterministic_per_seed_and_index(flagship):
    s = bk.CollectiveSetting("xxzz")
    a = bk.sample_setting(flagship, s, 5000, seed=11)
    b = bk.sample_setting(flagship, s, 5000, seed=11)
    assert a.counts == b.counts
    assert a.shots == 5000
    assert len(a.counts) == 16 and all(type(c) is int for c in a.counts)
    assert sum(a.counts) == 5000
    c = bk.sample_setting(flagship, s, 5000, seed=11, index=1)
    d = bk.sample_setting(flagship, s, 5000, seed=12)
    assert c.counts != a.counts
    assert d.counts != a.counts


def test_scheme_sampling_uses_one_stream_per_setting(flagship, full_scheme):
    records = bk.sample_scheme(flagship, full_scheme.settings, 2000, seed=3)
    assert len(records) == len(full_scheme.settings)
    for i, (rec, setting) in enumerate(zip(records, full_scheme.settings)):
        assert rec.setting.letters == setting.letters
        alone = bk.sample_setting(flagship, setting, 2000, seed=3, index=i)
        assert rec.counts == alone.counts


def test_preparation_mixture_reproduces_the_state_distribution(flagship):
    # the four product components, mixed with their preparation weights,
    # generate exactly the statistics of the assembled state
    prep = bk.rho_h_preparation()
    for name in ("zzxx", "uvzz", "xyyy"):
        setting = bk.CollectiveSetting(name)
        direct = bk.outcome_distribution(flagship, setting)
        mixed = np.zeros(16)
        for c in prep:
            comp = bk.DensityOperator(np.kron(c.key_part, c.shield_part), (2, 2, 2, 2))
            mixed += c.weight * bk.outcome_distribution(comp, setting)
        assert np.abs(mixed - direct).max() < 1e-12


def counts_of(table):
    """The 16 counts in canonical outcome order of an {outcome: count} table."""
    return [table.get(o, 0) for o in shots.OUTCOMES]


def test_record_validation():
    s = bk.CollectiveSetting("zzxx")
    good = counts_of({(1, 1, 1, 1): 3, (-1, -1, -1, -1): 7})
    rec = bk.ShotRecord(s, good, 10)
    assert abs(rec.frequencies().sum() - 1.0) < 1e-12
    assert rec.frequencies()[0] == 0.3 and rec.frequencies()[15] == 0.7
    with pytest.raises(ValueError):
        bk.ShotRecord(s, good, 11)  # counts do not sum to shots
    with pytest.raises(ValueError):
        bk.ShotRecord(s, counts_of({(1, 1, 1, 1): -3}), -3)  # negative count
    with pytest.raises(ValueError):
        bk.ShotRecord(s, counts_of({(1, 1, 1, 1): 8, (1, -1, 1, 1): -3}), 5)  # negative count
    for wrong_length in ([5], good[:15], good + [0]):
        with pytest.raises(ValueError):
            bk.ShotRecord(s, wrong_length, 5)  # not one count per outcome
    with pytest.raises(ValueError):
        bk.ShotRecord(s, [str(c) for c in good], 10)  # text, not numbers
    with pytest.raises(ValueError):
        bk.ShotRecord(s, {(1, 1, 1, 1): 3, (-1, -1, -1, -1): 7}, 10)  # a table, not 16 counts
    with pytest.raises(ValueError):
        bk.ShotRecord(s, counts_of({(1, 1, 1, 1): 2.5, (-1, -1, -1, -1): 7.5}), 10)  # fractional counts
    with pytest.raises(ValueError):
        bk.ShotRecord(s, counts_of({(1, 1, 1, 1): 2.5}), 2.5)  # fractional shots
    # whole-number counts must sum to shots exactly, however many there are
    with pytest.raises(ValueError, match="counts sum to"):
        bk.ShotRecord(s, [10**10 + 5] + [0] * 15, 10**10)
    bk.ShotRecord(s, [10**10] + [0] * 15, 10**10)
    bk.ShotRecord(s, [shots.MAX_SHOTS] + [0] * 15, float(shots.MAX_SHOTS))
    # only a probability record (shots = 1) holds fractions
    bk.ShotRecord(s, counts_of({(1, 1, 1, 1): 0.25, (-1, -1, -1, -1): 0.75}), 1.0)
    bk.ShotRecord(s, counts_of({(1, 1, 1, 1): 0.25, (-1, -1, -1, -1): 0.75 + 1e-12}), 1.0)
    with pytest.raises(ValueError, match="counts sum to"):
        bk.ShotRecord(s, counts_of({(1, 1, 1, 1): 0.25, (-1, -1, -1, -1): 0.5}), 1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            bk.ShotRecord(s, counts_of({(1, 1, 1, 1): bad, (-1, -1, -1, -1): 5}), 5.0)
        with pytest.raises(ValueError):
            bk.ShotRecord(s, good, bad)  # non-finite shot count


def test_record_counts_cannot_change_after_construction(flagship):
    # the counts are validated once, at construction: no later write may
    # move them away from what passed
    s = bk.CollectiveSetting("zzxx")
    table = counts_of({(1, 1, 1, 1): 3, (-1, -1, -1, -1): 7})
    rec = bk.ShotRecord(s, table, 10)
    table[0] = -50  # the caller's list is not the record's counts
    assert rec.counts == tuple(counts_of({(1, 1, 1, 1): 3, (-1, -1, -1, -1): 7}))
    with pytest.raises(TypeError):
        rec.counts[0] = -50
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.counts = (10,) + (0,) * 15
    assert abs(rec.frequencies().sum() - 1.0) < 1e-12
    for sampled in (bk.sample_setting(flagship, s, 100, seed=0), bk.exact_record(flagship, s)):
        assert type(sampled.counts) is tuple and len(sampled.counts) == 16


def test_exact_record_functional_means(flagship):
    rec = bk.exact_record(flagship, bk.CollectiveSetting("zzxx"))
    assert rec.shots == 1.0
    means = shots.FUNCTIONAL_VALUES @ rec.frequencies()
    assert abs(means[0] - 1.0) < 1e-12  # empty mask
    # mask with bits 0 and 1 set: the key-agreement correlation z_A z_B
    assert abs(means[3] - (P1 - P2)) < 1e-12


def test_estimates_from_exact_records(flagship, full_scheme):
    records = [bk.exact_record(flagship, s) for s in full_scheme.settings]
    rep = bk.estimate_parameters(records, full_scheme)
    assert np.abs(rep.diag - TRUE_DIAG).max() < 1e-12
    assert abs(rep.re_a - P1 / 2) < 1e-12
    assert abs(rep.im_a) < 1e-12
    assert abs(rep.re_b - P2 / 2) < 1e-12
    assert abs(rep.im_b) < 1e-12
    assert abs(rep.corr_weight - P1) < 1e-12
    assert abs(rep.raw_bound - 0.0213399156498) < 1e-9
    # probability records carry a single effective shot, so the confidence
    # rectangle is vacuous and certification collapses to the trivial -1
    assert rep.certified_bound == -1.0


def test_flagship_million_shot_regression(flagship, full_scheme):
    records = bk.sample_scheme(flagship, full_scheme.settings, 10**6, seed=7)
    rep = bk.estimate_parameters(records, full_scheme)
    assert abs(rep.raw_bound - SEED7_RAW) < 1e-12
    assert abs(rep.certified_bound - SEED7_CERTIFIED) < 1e-12
    assert np.abs(rep.diag_radii - SEED7_BUCKET_RADIUS).max() < 1e-12
    assert abs(rep.corr_weight_radius - SEED7_BUCKET_RADIUS) < 1e-12
    assert rep.certified_bound <= rep.raw_bound
    assert bk.certify(rep) == rep.certified_bound
    for name in ("re_a", "im_a", "re_b", "im_b", "corr_weight", "raw_bound", "certified_bound"):
        assert type(getattr(rep, name)) is float, name
    # estimates sit within their own radii of the truth on this seed
    assert np.abs(rep.diag - TRUE_DIAG).max() < SEED7_BUCKET_RADIUS
    assert abs(rep.corr_weight - P1) < SEED7_BUCKET_RADIUS


def test_bounds_follow_the_estimates_they_derive_from(flagship, full_scheme):
    # the bounds are read off the estimates and radii the report holds, so
    # a report edited by dataclasses.replace certifies its own rectangle
    records = bk.sample_scheme(flagship, full_scheme.settings, 10**6, seed=7)
    rep = bk.estimate_parameters(records, full_scheme)
    widened = dataclasses.replace(rep, coherence_radii=2 * rep.coherence_radii)
    assert widened.certified_bound == bk.certify(widened) < rep.certified_bound
    assert widened.raw_bound == rep.raw_bound
    # the seed-7 minimum sits inside the correlated-weight interval, so a
    # wider interval only lowers the floor once the weight is moved off it
    moved = dataclasses.replace(rep, corr_weight=rep.corr_weight - 2 * rep.corr_weight_radius)
    widened = dataclasses.replace(moved, corr_weight_radius=4 * rep.corr_weight_radius)
    assert widened.certified_bound == bk.certify(widened) < moved.certified_bound
    assert widened.raw_bound == moved.raw_bound
    # an estimate below its projection cap moves the raw bound with it
    moved = dataclasses.replace(rep, re_a=rep.re_a - 0.01)
    assert moved.raw_bound == twirl_hashing(moved.corr_weight, moved.re_a, moved.re_b)
    assert moved.raw_bound < rep.raw_bound
    # and a bound cannot be set apart from them
    for name in ("raw_bound", "certified_bound"):
        with pytest.raises(TypeError):
            dataclasses.replace(rep, **{name: 1.0})


def test_certify_zero_radius_report_returns_raw():
    rep = exact_report()
    assert abs(bk.certify(rep) - rep.raw_bound) < 1e-12


def test_certify_rejects_impossible_rectangle():
    rep = bk.EstimateReport(
        diag=np.array([0.25, 0.25, 0.25, 0.25]),
        diag_radii=np.zeros(4),
        re_a=0.49,
        im_a=0.0,
        re_b=0.49,
        im_b=0.0,
        coherence_radii=np.zeros(4),
        corr_weight=0.5,
        corr_weight_radius=0.0,
        delta=0.05,
    )
    assert rep.certified_bound is None
    with pytest.raises(bk.CertificationInfeasibleError):
        bk.certify(rep)


def test_report_validation():
    # delta outside (0, 1)
    for delta in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            bk.EstimateReport(
                diag=TRUE_DIAG.copy(),
                diag_radii=np.zeros(4),
                re_a=0.0,
                im_a=0.0,
                re_b=0.0,
                im_b=0.0,
                coherence_radii=np.zeros(4),
                corr_weight=0.5,
                corr_weight_radius=0.0,
                delta=delta,
            )


def test_estimate_rejects_incomplete_records(flagship, full_scheme):
    records = [bk.exact_record(flagship, s) for s in full_scheme.settings[:-1]]
    with pytest.raises(ValueError):
        bk.estimate_parameters(records, full_scheme)
    with pytest.raises(ValueError):
        bk.estimate_parameters(
            [bk.exact_record(flagship, s) for s in full_scheme.settings],
            full_scheme,
            delta=1.5,
        )


def test_estimate_rejects_non_finite_counts(flagship, full_scheme):
    # a nan count must never reach a certificate: the record refuses it
    # (nan < 0 is false, so a sign check alone would let it through)
    records = bk.sample_scheme(flagship, full_scheme.settings, 1000, seed=0)
    z = [0.0, 0.0, 1.0]
    diag = next(
        i for i, r in enumerate(records) if np.allclose(r.setting.directions[:2], [z, z])
    )
    counts = list(records[diag].counts)
    counts[next(i for i, c in enumerate(counts) if c)] = float("nan")
    with pytest.raises(ValueError):
        bk.ShotRecord(records[diag].setting, counts, records[diag].shots)
    # a record forged past that check still yields no report: its estimates
    # are not finite
    forged = object.__new__(bk.ShotRecord)
    for name, value in (("setting", records[diag].setting), ("counts", tuple(counts)),
                        ("shots", records[diag].shots)):
        object.__setattr__(forged, name, value)
    records[diag] = forged
    with pytest.raises(ValueError, match="must be finite"):
        bk.estimate_parameters(records, full_scheme)


def test_estimate_refuses_schemes_it_cannot_read(flagship, twisted_observables, full_scheme):
    obs = twisted_observables
    coherences = [obs.r1, obs.i1, obs.r2, obs.i2]
    coherence_cover = full_scheme.settings[1:]  # no setting starts zz
    records = [bk.exact_record(flagship, s) for s in full_scheme.settings]
    too_few = bk.cover_from_settings([obs.o1, *coherences], full_scheme.settings[:3])
    assert not too_few.feasible
    four_rows = bk.cover_from_settings(coherences, coherence_cover)
    assert four_rows.feasible and len(four_rows.coefficients) == 4
    no_key_basis = bk.cover_from_settings([*coherences, obs.r1], coherence_cover)
    assert no_key_basis.feasible and len(no_key_basis.coefficients) == 5
    for scheme, message in (
        (too_few, "not a feasible cover"),
        (four_rows, "covers 4 targets"),
        (no_key_basis, "no setting measuring both key qubits"),
    ):
        with pytest.raises(ValueError, match=message):
            bk.estimate_parameters(records, scheme)


def test_report_rejects_non_finite_numbers():
    rep = exact_report()
    for name, value in (
        ("re_b", float("nan")),
        ("coherence_radii", np.array([0.0, float("nan"), 0.0, 0.0])),
        ("diag", np.array([float("nan"), 0.25, 0.25, 0.25])),
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(rep, **{name: value})


def test_estimator_consistency(flagship, full_scheme):
    # more shots: smaller worst-case error, and the stated radii keep their
    # coverage promise far above the union-bound guarantee
    truth = np.concatenate([TRUE_DIAG, [P1], [P1 / 2, 0.0, P2 / 2, 0.0]])
    trials = 60
    medians = []
    for shots in (10**3, 10**4, 10**5):
        errors = []
        covered = 0
        for seed in range(trials):
            records = bk.sample_scheme(flagship, full_scheme.settings, shots, seed=seed)
            rep = bk.estimate_parameters(records, full_scheme)
            est = np.concatenate(
                [rep.diag, [rep.corr_weight], [rep.re_a, rep.im_a, rep.re_b, rep.im_b]]
            )
            radii = np.concatenate(
                [rep.diag_radii, [rep.corr_weight_radius], rep.coherence_radii]
            )
            err = np.abs(est - truth)
            errors.append(err.max())
            covered += bool(np.all(err <= radii))
        medians.append(float(np.median(errors)))
        assert covered >= math.ceil(0.95 * trials)
    assert medians[0] > medians[1] > medians[2]

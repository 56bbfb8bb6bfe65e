"""Finite-shot simulation and sound parameter estimation."""

import dataclasses
import math

import numpy as np
import pytest

import boundkey as bk
from boundkey.linalg import max_abs_distance
from boundkey.shots import FEASIBILITY_SLACK, _raw_bound, _rectangle_minimum

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
    other = bk.as_state(flagship.mat, (2, 2, 4))
    with pytest.raises(bk.UnsupportedStateError):
        bk.outcome_distribution(other, bk.setting_from_names("zzxx"))


def test_key_marginal_of_diagonal_setting(flagship):
    # measuring z on both key qubits reads the key statistics directly,
    # whatever happens on the shield
    p = bk.outcome_distribution(flagship, bk.setting_from_names("zzxx"))
    marg = p.reshape(2, 2, 4).sum(axis=2)  # qubit order A, B, shield pair
    expect = np.array([[P1 / 2, P2 / 2], [P2 / 2, P1 / 2]])
    assert max_abs_distance(marg, expect) < 1e-12


def test_sampling_is_deterministic_per_seed_and_index(flagship):
    s = bk.setting_from_names("xxzz")
    a = bk.sample_setting(flagship, s, 5000, seed=11)
    b = bk.sample_setting(flagship, s, 5000, seed=11)
    assert a.counts == b.counts
    assert a.shots == 5000
    assert sum(a.counts.values()) == 5000
    c = bk.sample_setting(flagship, s, 5000, seed=11, index=1)
    d = bk.sample_setting(flagship, s, 5000, seed=12)
    assert c.counts != a.counts
    assert d.counts != a.counts


def test_scheme_sampling_uses_one_stream_per_setting(flagship, full_scheme):
    records = bk.sample_scheme(flagship, full_scheme.settings, 2000, seed=3)
    assert len(records) == len(full_scheme.settings)
    for i, (rec, setting) in enumerate(zip(records, full_scheme.settings)):
        assert rec.setting.name() == setting.name()
        alone = bk.sample_setting(flagship, setting, 2000, seed=3, index=i)
        assert rec.counts == alone.counts


def test_preparation_mixture_reproduces_the_state_distribution(flagship):
    # the four product components, mixed with their preparation weights,
    # generate exactly the statistics of the assembled state
    prep = bk.rho_h_preparation()
    for name in ("zzxx", "uvzz", "xyyy"):
        setting = bk.setting_from_names(name)
        direct = bk.outcome_distribution(flagship, setting)
        mixed = np.zeros(16)
        for c in prep:
            comp = bk.as_state(np.kron(c.key_part, c.shield_part), (2, 2, 2, 2))
            mixed += c.weight * bk.outcome_distribution(comp, setting)
        assert np.abs(mixed - direct).max() < 1e-12


def test_prepared_sampling_matches_state_statistics(flagship):
    prep = bk.rho_h_preparation()
    setting = bk.setting_from_names("uvzz")
    rec = bk.sample_prepared(prep, setting, 100000, seed=5)
    assert sum(rec.counts.values()) == 100000
    # deterministic draw: the empirical frequencies sit close to the truth,
    # aligned with the canonical outcome order
    p = bk.outcome_distribution(flagship, setting)
    assert np.abs(rec.frequencies() - p).max() < 0.01
    rec2 = bk.sample_prepared(prep, setting, 100000, seed=5)
    assert rec2.counts == rec.counts


def test_record_validation():
    s = bk.setting_from_names("zzxx")
    good = {(1, 1, 1, 1): 3, (-1, -1, -1, -1): 7}
    rec = bk.ShotRecord(s, good, 10)
    assert abs(rec.frequencies().sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        bk.ShotRecord(s, good, 11)  # counts do not sum to shots
    with pytest.raises(ValueError):
        bk.ShotRecord(s, {(1, 1, 1, 1): -3}, -3)  # negative count
    with pytest.raises(ValueError):
        bk.ShotRecord(s, {(1, 1): 5}, 5)  # malformed outcome
    with pytest.raises(ValueError):
        bk.ShotRecord(s, {(1, 1, 1, 1): 2.5, (-1, -1, -1, -1): 7.5}, 10)  # fractional counts
    with pytest.raises(ValueError):
        bk.ShotRecord(s, {(1, 1, 1, 1): 2.5}, 2.5)  # fractional shots
    # only a probability record (shots = 1) holds fractions
    bk.ShotRecord(s, {(1, 1, 1, 1): 0.25, (-1, -1, -1, -1): 0.75}, 1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            bk.ShotRecord(s, {(1, 1, 1, 1): bad, (-1, -1, -1, -1): 5}, 5.0)
        with pytest.raises(ValueError):
            bk.ShotRecord(s, good, bad)  # non-finite shot count


def test_exact_record_functional_means(flagship):
    rec = bk.exact_record(flagship, bk.setting_from_names("zzxx"))
    assert rec.shots == 1.0
    means = rec.functional_means()
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
    assert moved.raw_bound == _raw_bound(moved.corr_weight, moved.re_a, moved.re_b)
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


def reference_rectangle_minimum(corr, corr_radius, re_a, ra_radius, re_b, rb_radius):
    """Dense scan of the projected bound over the correlated weight, with
    two zooms around the best point.  Returns (minimum, argmin), or None
    when no scanned point is a valid spectrum within the slack."""
    lo, hi = max(corr - corr_radius, 0.0), min(corr + corr_radius, 1.0)
    if lo > hi:
        return None
    ra = 0.0 if abs(re_a) <= ra_radius else abs(re_a) - ra_radius
    rb = 0.0 if abs(re_b) <= rb_radius else abs(re_b) - rb_radius

    def bound(d):
        valid = (ra <= d / 2 + FEASIBILITY_SLACK) & (rb <= (1 - d) / 2 + FEASIBILITY_SLACK)
        va, vb = np.minimum(ra, d / 2), np.minimum(rb, (1 - d) / 2)
        w = np.stack([d / 2 + va, d / 2 - va, (1 - d) / 2 + vb, (1 - d) / 2 - vb])
        plogp = np.where(w > 0, w * np.log2(np.where(w > 0, w, 1.0)), 0.0)
        return np.where(valid, 1.0 + plogp.sum(axis=0), np.inf)

    n = 4097
    kinks = [2 * ra - 2 * FEASIBILITY_SLACK, 2 * ra, 1 - 2 * rb, 1 - 2 * rb + 2 * FEASIBILITY_SLACK]
    points = np.concatenate([np.linspace(lo, hi, n), np.clip(kinks, lo, hi)])
    best_v, best_d, step = np.inf, None, (hi - lo) / (n - 1)
    for _ in range(3):
        v = bound(points)
        i = int(np.argmin(v))
        if v[i] < best_v:
            best_v, best_d = float(v[i]), float(points[i])
        if best_d is None:
            return None
        points = np.linspace(max(lo, best_d - step), min(hi, best_d + step), n)
        step = 2 * step / (n - 1)
    return best_v, best_d


def rectangle_cases():
    rng = np.random.default_rng(20240518)
    cases = []
    for _ in range(1000):
        corr = rng.uniform(-0.1, 1.1)
        radii = [0.0 if rng.random() < 0.1 else rng.uniform(0.0, r) for r in (0.3, 0.2, 0.2)]
        cases.append(
            (corr, radii[0], rng.uniform(-0.5, 0.5), radii[1], rng.uniform(-0.5, 0.5), radii[2])
        )
    # 2|ra| at an end of the weight interval, inside the slack, and past it
    for _ in range(100):
        corr, corr_radius = rng.uniform(0.1, 0.9), rng.uniform(0.0, 0.1)
        end = rng.choice([corr - corr_radius, corr + corr_radius])
        ra_radius = rng.uniform(0.0, 0.05)
        for shift in (0.0, 0.5 * FEASIBILITY_SLACK, 3.0 * FEASIBILITY_SLACK):
            re_a = rng.choice([-1.0, 1.0]) * (end / 2 + shift + ra_radius)
            cases.append((corr, corr_radius, re_a, ra_radius, rng.uniform(-0.05, 0.05), 0.01))
    # zero radii: a single point, valid or not
    cases += [(P1, 0.0, P1 / 2, 0.0, P2 / 2, 0.0), (0.5, 0.0, 0.49, 0.0, 0.49, 0.0)]
    return cases


def test_rectangle_minimum_matches_dense_reference():
    compared = feasible = 0
    for case in rectangle_cases():
        exact = _rectangle_minimum(*case)
        reference = reference_rectangle_minimum(*case)
        assert (exact is None) == (reference is None), case
        if exact is None:
            continue
        feasible += 1
        ref_value, ref_d = reference
        assert exact <= ref_value + 1e-15, case
        corr, _, re_a, ra_radius, re_b, rb_radius = case
        edges = (2 * max(abs(re_a) - ra_radius, 0.0), 1 - 2 * max(abs(re_b) - rb_radius, 0.0))
        if min(abs(ref_d - e) for e in edges) >= 1e-6:
            compared += 1
            assert abs(exact - ref_value) <= 1e-12, case
    assert feasible >= 400 and compared >= 300


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
    counts = dict(records[diag].counts)
    counts[next(iter(counts))] = float("nan")
    with pytest.raises(ValueError):
        records[diag] = bk.ShotRecord(records[diag].setting, counts, records[diag].shots)
        bk.estimate_parameters(records, full_scheme)


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

"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per guarantee.  Each test pins the tolerance it promises; regression
constants live next to the check that froze them.
"""

import math

import numpy as np

import boundkey as bk
from boundkey.linalg import max_abs_distance

P1 = 2.0 - math.sqrt(2.0)
P2 = math.sqrt(2.0) - 1.0

# frozen outcomes of this implementation's searches
NOISE_THRESHOLD = 0.004088211059570312
FULL_COVER_SIZE = 13


def flagship_twisting():
    mix = bk.mixture_from_unitary(bk.hadamard())
    return bk.canonical_twisting(mix.x1, mix.x2)


def test_01_construction_cross_check():
    direct = bk.rho_h()
    mixture = bk.rho_h_mixture_form()
    assert max_abs_distance(direct.mat, mixture.mat) <= 1e-12
    assert abs(np.trace(direct.mat).real - 1.0) <= 1e-12
    spectrum = np.sort(np.linalg.eigvalsh(direct.mat))[::-1]
    assert np.abs(spectrum[:2] - P2 / 2.0).max() <= 1e-10
    assert np.abs(spectrum[2:6] - P1 / 4.0).max() <= 1e-10
    assert np.abs(spectrum[6:]).max() <= 1e-10  # rank six


def test_02_weight_values():
    p1, p2 = bk.rho_h_weights()
    assert abs(p1 - (2.0 - math.sqrt(2.0))) <= 1e-12
    assert abs(p1 - math.sqrt(2.0) / (1.0 + math.sqrt(2.0))) <= 1e-12
    assert abs(p1 / p2 - math.sqrt(2.0)) <= 1e-12


def test_03_transpose_invariance(random_unitary):
    assert bk.ppt_invariance(bk.rho_h()) <= 1e-10
    rng = np.random.default_rng(103)
    for d in (2, 3):
        for _ in range(25):
            rho, _, _ = bk.rho_u(random_unitary(d, rng))
            assert bk.ppt_invariance(rho) <= 1e-10


def test_04_privacy_squeezing():
    squeezed = bk.privacy_squeeze(bk.rho_h(), flagship_twisting())
    bells = bk.bell_states()
    expect = P1 * np.outer(bells[0], bells[0].conj()) + P2 * np.outer(
        bells[2], bells[2].conj()
    )
    assert max_abs_distance(squeezed.mat, expect) <= 1e-10


def test_05_key_rate():
    rho = bk.rho_h()
    squeezed = bk.privacy_squeeze(rho, flagship_twisting())
    assert abs(bk.dw_rate(bk.ccq_from_state(squeezed)) - 0.0213399) <= 1e-4
    # rate of the full state against the purifying adversary
    full_rate = bk.dw_rate(bk.ccq_from_state(rho, conservative=False))
    assert full_rate >= 0.0213399 - 1e-6


def test_06_generic_family_rates(random_unitary):
    rng = np.random.default_rng(106)
    for d in (2, 3):
        for _ in range(25):
            u = random_unitary(d, rng)
            mix = bk.mixture_from_unitary(u)
            tau = bk.canonical_twisting(mix.x1, mix.x2)
            squeezed = bk.privacy_squeeze(bk.rho_from_mixture(mix), tau)
            rate = bk.dw_rate(bk.ccq_from_state(squeezed))
            assert abs(rate - (1.0 - bk.binary_entropy(mix.p1))) <= 1e-6
            assert bk.key_ratio(u) <= math.sqrt(d) + 1e-9
    assert abs(bk.key_ratio(bk.hadamard()) - math.sqrt(2.0)) <= 1e-9
    assert abs(bk.key_ratio(bk.fourier(3)) - math.sqrt(3.0)) <= 1e-9


def test_07_extremality():
    mix = bk.mixture_from_unitary(bk.hadamard())
    below, middle, above = bk.extremality_scan(
        mix.x1, mix.x2, [P1 - 0.01, P1, P1 + 0.01]
    )
    assert below.min_eig < -1e-5 and below.is_npt
    assert above.min_eig < -1e-5 and above.is_npt
    assert not middle.is_npt and middle.min_eig > -1e-10


def test_08_robustness_region():
    rho = bk.rho_h()
    for noise in (1e-4, 1e-3, 4e-3, 1e-2):
        _, min_eig = bk.ppt_check(bk.depolarize(rho, noise))
        assert abs(min_eig - noise / 16.0) <= 1e-10
    threshold = bk.robustness_threshold(rho)
    assert abs(threshold - NOISE_THRESHOLD) <= 1e-6
    assert 1e-3 <= threshold <= 1e-2


def test_09_observable_expectations(random_unitary):
    mix = bk.mixture_from_unitary(bk.hadamard())
    tau = bk.canonical_twisting(mix.x1, mix.x2)
    obs = bk.build_observables(tau)
    rho = bk.rho_h()
    assert abs(bk.expectation(obs.o1, rho) - (3.0 - 2.0 * math.sqrt(2.0))) <= 1e-10
    assert abs(bk.expectation(obs.r1, rho) - (2.0 - math.sqrt(2.0))) <= 1e-10
    assert abs(bk.expectation(obs.r2, rho) - (math.sqrt(2.0) - 1.0)) <= 1e-10
    assert abs(bk.expectation(obs.i1, rho)) <= 1e-10
    assert abs(bk.expectation(obs.i2, rho)) <= 1e-10
    # dressed expectations on the full state read off the squeezed entries
    rng = np.random.default_rng(109)
    for _ in range(20):
        m2 = bk.mixture_from_unitary(random_unitary(2, rng))
        tau2 = bk.canonical_twisting(m2.x1, m2.x2)
        obs2 = bk.build_observables(tau2)
        rho2 = bk.rho_from_mixture(m2)
        sq = bk.privacy_squeeze(rho2, tau2).mat
        assert abs(bk.expectation(obs2.o1, rho2) - (m2.p1 - m2.p2)) <= 1e-10
        assert abs(bk.expectation(obs2.r1, rho2) - 2.0 * sq[0, 3].real) <= 1e-10
        assert abs(bk.expectation(obs2.i1, rho2) - 2.0 * sq[0, 3].imag) <= 1e-10
        assert abs(bk.expectation(obs2.r2, rho2) - 2.0 * sq[1, 2].real) <= 1e-10
        assert abs(bk.expectation(obs2.i2, rho2) - 2.0 * sq[1, 2].imag) <= 1e-10


def test_10_bounds_transparency():
    report = bk.certified_bounds(
        [P1 / 2, P2 / 2, P2 / 2, P1 / 2], P1 / 2, 0.0, P2 / 2, 0.0
    )
    literal = 1.0 - 2.0 * bk.binary_entropy(P1)
    assert abs(report.info_minus_twirl_entropy - literal) <= 1e-4
    assert report.info_minus_twirl_entropy < 0.0
    assert abs(report.twirl_hashing - 0.0213399) <= 1e-4


def test_11_recurrence_no_improvement():
    sigma = bk.privacy_squeeze(bk.rho_h(), flagship_twisting()).mat
    per_copy = bk.certified_bounds(
        np.real(np.diag(sigma)), sigma[0, 3].real, sigma[0, 3].imag,
        sigma[1, 2].real, sigma[1, 2].imag,
    ).recurrence_per_copy_rate
    acceptance = 9.0 - 6.0 * math.sqrt(2.0)
    closed_form = (acceptance / 2.0) * (1.0 - bk.binary_entropy(1.0 / 3.0))
    assert abs(per_copy - closed_form) <= 1e-3
    assert abs(per_copy - 0.0210) <= 1e-3
    assert per_copy < 0.0213399


def test_12_settings_search(full_scheme, twisted_observables):
    obs = twisted_observables
    single = bk.min_settings_cover([obs.o1])
    assert single.feasible and len(single.settings) == 1
    assert full_scheme.feasible
    assert len(full_scheme.settings) <= 13
    assert full_scheme.max_residual <= 1e-9
    # the verified greedy scheme; the flattening bound rules out schemes of
    # fewer than ten settings over any unit directions
    assert len(full_scheme.settings) == FULL_COVER_SIZE
    assert full_scheme.lower_bound == 10


def test_13_statistical_certification(flagship, full_scheme):
    truth = np.concatenate(
        [[P1 / 2, P2 / 2, P2 / 2, P1 / 2], [P1], [P1 / 2, 0.0, P2 / 2, 0.0]]
    )
    inside = 0
    for seed in range(200):
        records = bk.sample_scheme(flagship, full_scheme.settings, 10**6, seed=seed)
        rep = bk.estimate_parameters(records, full_scheme, delta=0.05)
        est = np.concatenate(
            [rep.diag, [rep.corr_weight], [rep.re_a, rep.im_a, rep.re_b, rep.im_b]]
        )
        radii = np.concatenate(
            [rep.diag_radii, [rep.corr_weight_radius], rep.coherence_radii]
        )
        inside += bool(np.all(np.abs(est - truth) <= radii))
    assert inside >= 190  # 95 percent coverage over 200 seeds

    records = bk.sample_scheme(flagship, full_scheme.settings, 10**6, seed=0)
    rep = bk.estimate_parameters(records, full_scheme, delta=0.05)
    certified = bk.certify(rep)
    assert certified > 0.0, (
        f"certified bound {certified:.6f} (raw {rep.raw_bound:.6f}) at one "
        f"million shots per setting, seed 0"
    )


def test_14_er_upper_bound_between_key_rate_and_0_15():
    result = bk.er_upper_bound(bk.rho_h(), restarts=256, seed=0)
    # any upper bound must sit above the certified key rate
    assert result.value >= 0.0213399 - 1e-6
    assert result.value <= 0.15, "soft requirement: an E_r upper bound of at most 0.15"
    print(f"found E_r upper bound {result.value:.6f} (stretch reference 0.116)")

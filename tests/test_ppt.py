"""Partial-transpose certification: membership, extremality, noise robustness."""

import math

import numpy as np
import pytest

import boundkey as bk
from boundkey import keyrate, ppt
from boundkey.linalg import max_abs_distance

P1 = 2.0 - math.sqrt(2.0)

# frozen regression values
MIN_EIG_BELOW = -0.0030177669529663567  # mixing weight P1 - 0.01
MIN_EIG_ABOVE = -0.004267766952966375  # mixing weight P1 + 0.01
NOISE_THRESHOLD = 0.004088211059570312  # white-noise weight where the bound dies
FOURIER_D3_NOISE_THRESHOLD = 0.011619949340820312  # the same for the d = 3 Fourier member
PBIT_NOISE_THRESHOLD = 0.25238609313964844  # the same for the Hadamard private bit


def test_flagship_is_transpose_invariant():
    rho = bk.rho_h()
    is_ppt, min_eig = bk.ppt_check(rho)
    assert is_ppt
    assert min_eig > -1e-10
    assert bk.ppt_invariance(rho) < 1e-10


def test_family_members_are_transpose_invariant(random_unitary):
    rng = np.random.default_rng(30)
    for d in (2, 3):
        for _ in range(5):
            rho, _, _ = bk.rho_u(random_unitary(d, rng))
            assert bk.ppt_invariance(rho) < 1e-10


def test_bell_state_is_detected():
    bells = bk.bell_states()
    bell = bk.DensityOperator(np.outer(bells[0], bells[0].conj()), (2, 2))
    is_ppt, min_eig = bk.ppt_check(bell)
    assert not is_ppt
    assert abs(min_eig + 0.5) < 1e-12


def test_transpose_cut_follows_labels():
    # on a two-party state Bob's side is the second subsystem: the check's
    # eigenvalue is that of the transpose over it
    bells = bk.bell_states()
    bell = bk.DensityOperator(np.outer(bells[0], bells[0].conj()), (2, 2))
    _, min_eig = bk.ppt_check(bell)
    manual = np.linalg.eigvalsh(bk.partial_transpose(bell, (1,)).mat)[0]
    assert abs(min_eig - manual) < 1e-12
    # on the flagship Bob's side is B B': transposing B alone is NPT
    flagship = bk.rho_h()
    assert bk.ppt_check(flagship)[0]
    assert np.linalg.eigvalsh(bk.partial_transpose(flagship, (1,)).mat)[0] < -0.07
    # with no subsystem labelled B there is no side to transpose
    with pytest.raises(ValueError, match="cannot infer the transposed side"):
        bk.ppt_check(bk.DensityOperator(np.eye(4) / 4.0, (2, 2), ("A", "C")))


def flagship_blocks():
    return keyrate.corner_blocks(bk.rho_h())


def test_extremality_scan_brackets_the_flagship_weight():
    pts = bk.extremality_scan(*flagship_blocks(), [P1 - 0.01, P1, P1 + 0.01])
    below, middle, above = pts
    assert below.is_npt and abs(below.min_eig - MIN_EIG_BELOW) < 1e-12
    assert not middle.is_npt and abs(middle.min_eig) < 1e-10
    assert above.is_npt and abs(above.min_eig - MIN_EIG_ABOVE) < 1e-12


def test_flagship_weight_is_the_unique_transpose_positive_point():
    grid = np.linspace(0.01, 0.99, 201).tolist() + [P1]
    pts = bk.extremality_scan(*flagship_blocks(), grid)
    positive = [p.weight for p in pts if not p.is_npt]
    assert len(positive) == 1
    assert abs(positive[0] - P1) < 1e-12


def test_extremality_scan_rejects_degenerate_weights():
    with pytest.raises(ValueError):
        bk.extremality_scan(*flagship_blocks(), [0.0])
    with pytest.raises(ValueError):
        bk.extremality_scan(*flagship_blocks(), [1.0])


def test_depolarized_transpose_spectrum_shift():
    # the flagship equals its own partial transpose, so white noise moves the
    # smallest transpose eigenvalue to exactly noise/16
    rho = bk.rho_h()
    base = bk.ppt_check(rho)[1]
    for noise in (1e-4, 1e-3, 1e-2, 0.1):
        shifted = bk.ppt_check(bk.depolarize(rho, noise))[1]
        expect = noise / 16.0 + (1.0 - noise) * base
        assert abs(shifted - expect) < 1e-12
        assert abs(shifted - noise / 16.0) < 1e-10


def test_twirl_hashing_bound_closure():
    rho = bk.rho_h()
    bound = bk.twirl_hashing_bound(rho)
    assert abs(bound(rho) - (1.0 - bk.binary_entropy(P1))) < 1e-10
    # more white noise, less key
    values = [bound(bk.depolarize(rho, x)) for x in (0.0, 0.002, 0.004, 0.006)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_robustness_scan_report():
    rho = bk.rho_h()
    grid = np.linspace(0.0, 0.008, 9)
    report = bk.robustness_scan(rho, grid)
    assert len(report.points) == 9
    assert all(p.min_eig > -1e-10 for p in report.points)  # noise keeps PPT
    signs = [p.key_bound > 0.0 for p in report.points]
    assert signs[0] and not signs[-1]
    assert abs(report.largest_positive_noise - 0.004) < 1e-12


def assert_threshold_is_frozen(rho, frozen):
    # exact: a bound whose sign flipped at one bisection midpoint moves the bits
    threshold = bk.robustness_threshold(rho)
    assert threshold == frozen
    bound = bk.twirl_hashing_bound(rho)
    assert bound(bk.depolarize(rho, threshold - 1e-5)) > 0.0
    assert bound(bk.depolarize(rho, threshold + 1e-5)) < 0.0


def test_robustness_threshold_regression():
    assert_threshold_is_frozen(bk.rho_h(), NOISE_THRESHOLD)


def test_a_bound_fn_threshold_validates_no_depolarised_state(validations):
    # every depolarised state on the bisection derives from a validated one
    rho = bk.rho_h()
    bound = bk.twirl_hashing_bound(rho)
    validations.clear()
    threshold = ppt.robustness_threshold(rho, bound_fn=bound)
    assert validations == []
    assert threshold == ppt.robustness_threshold(rho) == NOISE_THRESHOLD


def test_fourier_d3_robustness_threshold_regression():
    assert_threshold_is_frozen(bk.rho_u(bk.fourier(3))[0], FOURIER_D3_NOISE_THRESHOLD)


def test_robustness_threshold_refuses_a_bound_that_never_crosses_zero():
    with pytest.raises(ValueError, match="has not crossed zero by noise 1.0"):
        bk.robustness_threshold(bk.rho_h(), bound_fn=lambda state: 1.0)


def test_robustness_threshold_widens_its_bracket(monkeypatch, private_bit):
    # a private bit keeps its key far past the first bracket, so the
    # bracket top doubles from 0.05 to 0.4 before the bisection starts;
    # the bound_fn route evaluates on depolarised states, which are recorded
    w = bk.flip_operator(bk.hadamard())
    rho = private_bit(w / bk.trace_norm(w))
    noises = []

    def recording(state, noise):
        noises.append(noise)
        return bk.depolarize(state, noise)

    monkeypatch.setattr(ppt, "depolarize", recording)
    threshold = bk.robustness_threshold(rho, bound_fn=bk.twirl_hashing_bound(rho))
    assert noises[:5] == [0.0, 0.05, 0.1, 0.2, 0.4]
    assert len(noises) == 23
    assert threshold == PBIT_NOISE_THRESHOLD
    assert bk.robustness_threshold(rho) == threshold  # the closed-form route
    assert len(noises) == 23  # builds no noisy state
    bound = bk.twirl_hashing_bound(rho)
    assert bound(bk.depolarize(rho, threshold - 1e-5)) > 0.0
    assert bound(bk.depolarize(rho, threshold + 1e-5)) < 0.0


def test_noise_ray_closed_forms_match_the_depolarised_states(random_unitary, private_bit):
    # the closed forms along (1 - p) rho + p I/dim against the noisy states
    # themselves: the same threshold bits, and scan values to rounding
    w = bk.flip_operator(bk.hadamard())
    states = [bk.rho_h(), private_bit(w / bk.trace_norm(w))]
    states += [bk.rho_u(bk.fourier(d))[0] for d in range(3, 8)]
    rng = np.random.default_rng(32)
    states += [bk.rho_u(random_unitary(d, rng))[0] for d in (2, 3, 4) for _ in range(10)]
    for rho in states:
        bound = bk.twirl_hashing_bound(rho)
        threshold = bk.robustness_threshold(rho)
        assert threshold == bk.robustness_threshold(rho, bound_fn=bound)
        report = bk.robustness_scan(rho, [0.0, threshold / 2.0, threshold, 1.0])
        for point in report.points:
            noisy = bk.depolarize(rho, point.noise)
            assert abs(point.min_eig - bk.ppt_check(noisy)[1]) <= 1e-15
            assert abs(point.key_bound - bound(noisy)) <= 1e-14


def test_robustness_scan_refuses_noise_outside_the_unit_interval():
    for noise in (-0.01, 1.5, math.nan):
        with pytest.raises(ValueError, match="noise weight must lie in"):
            bk.robustness_scan(bk.rho_h(), [0.0, noise])

"""Construction of the key-carrying state family on 2x2xdxd systems."""

import math

import numpy as np
import pytest

import boundkey as bk
from boundkey.linalg import max_abs_distance

P1 = 2.0 - math.sqrt(2.0)
P2 = math.sqrt(2.0) - 1.0


def test_flip_operator_entry_map(random_unitary):
    rng = np.random.default_rng(10)
    for d in (2, 3):
        u = random_unitary(d, rng)
        w = bk.flip_operator(u)
        assert w.shape == (d * d, d * d)
        expect = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                expect[i * d + j, j * d + i] = u[i, j]
        assert max_abs_distance(w, expect) == 0.0


def test_key_ratio_known_values():
    assert abs(bk.key_ratio(np.eye(2)) - 1.0) < 1e-12
    assert abs(bk.key_ratio(bk.hadamard()) - math.sqrt(2.0)) < 1e-12
    assert abs(bk.key_ratio(bk.fourier(3)) - math.sqrt(3.0)) < 1e-12


def test_key_ratio_bounded_by_sqrt_d(random_unitary):
    rng = np.random.default_rng(11)
    for d in (2, 3):
        for _ in range(25):
            r = bk.key_ratio(random_unitary(d, rng))
            assert 1.0 - 1e-12 <= r <= math.sqrt(d) + 1e-9


def test_hadamard_and_fourier_are_unitary():
    for u in (bk.hadamard(), bk.fourier(2), bk.fourier(3), bk.fourier(5)):
        d = u.shape[0]
        assert max_abs_distance(u @ u.conj().T, np.eye(d)) < 1e-12
    # every entry of a unimodular unitary has modulus 1/sqrt(d)
    f = bk.fourier(3)
    assert np.max(np.abs(np.abs(f) - 1.0 / math.sqrt(3.0))) < 1e-12


def test_flagship_weights():
    p1, p2 = bk.rho_h_weights()
    assert abs(p1 - P1) < 1e-12
    assert abs(p2 - P2) < 1e-12
    assert abs(p1 + p2 - 1.0) < 1e-12
    assert abs(p1 / p2 - math.sqrt(2.0)) < 1e-12


def test_flagship_matches_mixture_form():
    a = bk.rho_h()
    b = bk.rho_h_mixture_form()
    assert a.dims == (2, 2, 2, 2)
    assert max_abs_distance(a.mat, b.mat) < 1e-12


def test_flagship_spectrum_is_rank_six():
    w = np.linalg.eigvalsh(bk.rho_h().mat)
    assert abs(w.sum() - 1.0) < 1e-12
    top = np.sort(w)[::-1]
    assert np.max(np.abs(top[:2] - P2 / 2.0)) < 1e-10
    assert np.max(np.abs(top[2:6] - P1 / 4.0)) < 1e-10
    assert np.max(np.abs(top[6:])) < 1e-10


def test_preparation_recipe_reassembles():
    # mixture of product (key pair) x (shield pair) operators, one multinomial
    # draw away from a lab preparation
    prep = bk.rho_h_preparation()
    assert len(prep) == 4
    assert abs(sum(c.weight for c in prep) - 1.0) < 1e-12
    bells = bk.bell_states()
    total = np.zeros((16, 16), dtype=complex)
    for c, psi in zip(prep, bells):
        for part in (c.key_part, c.shield_part):
            assert abs(np.trace(part) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(part)[0] > -1e-12
        assert max_abs_distance(c.key_part, np.outer(psi, psi.conj())) < 1e-12
        total += c.weight * np.kron(c.key_part, c.shield_part)
    assert max_abs_distance(total, bk.rho_h().mat) < 1e-12


def test_general_family_member_properties(random_unitary):
    rng = np.random.default_rng(12)
    for d in (2, 3):
        u = random_unitary(d, rng)
        rho, p1, p2 = bk.rho_u(u)
        assert rho.dims == (2, 2, d, d)
        assert abs(p1 + p2 - 1.0) < 1e-12
        assert abs(p1 / p2 - bk.key_ratio(u)) < 1e-12
        assert abs(np.trace(rho.mat) - 1.0) < 1e-12


def test_mixture_accessors_are_consistent():
    mix = bk.mixture_from_unitary(bk.hadamard())
    assert abs(mix.p1 - P1) < 1e-12
    assert abs(bk.trace_norm(mix.x1) - 1.0) < 1e-12
    assert abs(bk.trace_norm(mix.x2) - 1.0) < 1e-12
    rebuilt = bk.rho_from_mixture(mix)
    assert max_abs_distance(rebuilt.mat, bk.rho_h().mat) < 1e-12


def test_bell_bases_are_orthonormal():
    for basis in (bk.bell_states(), bk.tilde_bell_states()):
        gram = basis.conj() @ basis.T
        assert max_abs_distance(gram, np.eye(4)) < 1e-12
    # the two bases differ only by the phases of the second member of each pair
    plain = bk.bell_states()
    tilde = bk.tilde_bell_states()
    for i in range(4):
        overlap = abs(np.vdot(plain[i], tilde[i]))
        assert overlap > 0.7  # same support pair


def test_private_bit_key_statistics():
    w = bk.flip_operator(bk.hadamard())
    pb = bk.pbit_from_X(w / bk.trace_norm(w))
    assert pb.dims == (2, 2, 2, 2)
    diag = np.diag(pb.mat).real.reshape(2, 2, 4)
    key_marginal = diag.sum(axis=2)
    assert max_abs_distance(key_marginal, np.diag([0.5, 0.5])) < 1e-12
    # a pure private bit is distillable, hence not PPT
    is_ppt, min_eig = bk.ppt_check(pb)
    assert not is_ppt
    assert min_eig < -0.1


def test_private_bit_rejects_unnormalized_block():
    with pytest.raises(ValueError):
        bk.pbit_from_X(bk.flip_operator(bk.hadamard()))  # trace norm 2*sqrt(2)
    with pytest.raises(ValueError):
        bk.pbit_from_X(np.ones((3, 3)) / 3.0)  # dimension 3 is not a d*d pair


def test_depolarize_limits_and_trace():
    rho = bk.rho_h()
    assert max_abs_distance(bk.depolarize(rho, 0.0).mat, rho.mat) == 0.0
    noisy = bk.depolarize(rho, 0.3)
    assert abs(np.trace(noisy.mat) - 1.0) < 1e-12
    expect = 0.7 * rho.mat + 0.3 * np.eye(16) / 16.0
    assert max_abs_distance(noisy.mat, expect) < 1e-14
    flat = bk.depolarize(rho, 1.0)
    assert max_abs_distance(flat.mat, np.eye(16) / 16.0) < 1e-14

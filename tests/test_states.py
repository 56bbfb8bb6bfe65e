"""Construction of the key-carrying state family on 2x2xdxd systems."""

import math

import numpy as np
import pytest

import boundkey as bk
from boundkey import keyrate, states
from boundkey.linalg import (PSD_SLACK, TRACE_ATOL, DensityOperator, MultipartiteOperator,
                             max_abs_distance)

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


#: 1 - h(sqrt(d)/(1 + sqrt(d))) for d = 2..6, the twirl bound of fourier(d)
COMPLEX_HADAMARD_RATES = (0.02134, 0.05243, 0.08170, 0.10796, 0.13141)


def family_twirl_bounds(us):
    return [bk.twirl_hashing_bound(rho)(rho) for rho in (bk.rho_u(u)[0] for u in us)]


def test_twirl_bound_of_a_member_is_a_closed_form_in_its_key_ratio(random_unitary):
    # 1 - h(r/(1 + r)) with r = key_ratio(U): an oracle that builds no state
    rng = np.random.default_rng(33)
    for d in range(2, 7):
        us = [bk.fourier(d)] + [random_unitary(d, rng) for _ in range(4)]
        for u, bound in zip(us, family_twirl_bounds(us)):
            r = bk.key_ratio(u)
            assert abs(bound - (1.0 - bk.binary_entropy(r / (1.0 + r)))) <= 1e-12


def test_complex_hadamard_members_have_the_largest_twirl_bound(random_unitary):
    # key_ratio <= sqrt(d) with equality for complex Hadamard matrices, so
    # fourier(d) is the best member of its dimension
    rng = np.random.default_rng(34)
    for d, frozen in zip(range(2, 7), COMPLEX_HADAMARD_RATES):
        best = 1.0 - bk.binary_entropy(math.sqrt(d) / (1.0 + math.sqrt(d)))
        assert abs(best - frozen) < 5e-6
        fourier_bound, *haar = family_twirl_bounds(
            [bk.fourier(d)] + [random_unitary(d, rng) for _ in range(6)])
        assert abs(fourier_bound - best) <= 1e-12
        assert max(haar) < best


def test_hadamard_and_fourier_are_unitary():
    for u in (bk.hadamard(), bk.fourier(2), bk.fourier(3), bk.fourier(5)):
        d = u.shape[0]
        assert max_abs_distance(u @ u.conj().T, np.eye(d)) < 1e-12
    # every entry of a unimodular unitary has modulus 1/sqrt(d)
    f = bk.fourier(3)
    assert np.max(np.abs(np.abs(f) - 1.0 / math.sqrt(3.0))) < 1e-12
    with pytest.raises(ValueError, match="dimension must be positive"):
        bk.fourier(0)


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


def test_rho_u_puts_the_scaled_flip_operators_on_the_corners(random_unitary):
    # the correlated corner carries (p1/2) W/|W|_1 and the anticorrelated
    # one (p2/2) W^Gamma/|W^Gamma|_1, where |W^Gamma|_1 = d
    rng = np.random.default_rng(13)
    for u in (bk.hadamard(), bk.fourier(3), random_unitary(2, rng), random_unitary(3, rng)):
        d = u.shape[0]
        w = bk.flip_operator(u)
        wg = bk.partial_transpose(MultipartiteOperator(w, (d, d)), [1]).mat
        assert abs(bk.trace_norm(wg) - d) < 1e-12
        rho, p1, p2 = bk.rho_u(u)
        x1, x2 = keyrate.corner_blocks(rho)
        assert max_abs_distance(x1, (p1 / 2.0) * w / bk.trace_norm(w)) < 1e-12
        assert max_abs_distance(x2, (p2 / 2.0) * wg / bk.trace_norm(wg)) < 1e-12
    assert abs(bk.rho_u(bk.hadamard())[1] - bk.rho_h_weights()[0]) < 1e-12


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


def test_private_bit_key_statistics(private_bit):
    w = bk.flip_operator(bk.hadamard())
    pb = private_bit(w / bk.trace_norm(w))
    assert pb.dims == (2, 2, 2, 2)
    diag = np.diag(pb.mat).real.reshape(2, 2, 4)
    key_marginal = diag.sum(axis=2)
    assert max_abs_distance(key_marginal, np.diag([0.5, 0.5])) < 1e-12
    # a pure private bit is distillable, hence not PPT
    is_ppt, min_eig = bk.ppt_check(pb)
    assert not is_ppt
    assert min_eig < -0.1


def test_assemble_standard_form_refuses_blocks_of_other_shapes():
    eye = np.eye(4) / 4.0
    for x1, x2 in ((eye, np.eye(9) / 9.0), (np.ones((4, 2)), np.ones((4, 2))), (np.ones(4), np.ones(4))):
        with pytest.raises(ValueError, match="blocks must be square and of one shape"):
            states.assemble_standard_form(x1, x2, 0.5)
    third = np.ones((3, 3)) / 3.0
    with pytest.raises(ValueError, match="block of dimension 3 is not on a d x d pair"):
        states.assemble_standard_form(third, third, 1.0)


def test_depolarize_limits_and_trace():
    rho = bk.rho_h()
    assert max_abs_distance(bk.depolarize(rho, 0.0).mat, rho.mat) == 0.0
    noisy = bk.depolarize(rho, 0.3)
    assert abs(np.trace(noisy.mat) - 1.0) < 1e-12
    expect = 0.7 * rho.mat + 0.3 * np.eye(16) / 16.0
    assert max_abs_distance(noisy.mat, expect) < 1e-14
    flat = bk.depolarize(rho, 1.0)
    assert max_abs_distance(flat.mat, np.eye(16) / 16.0) < 1e-14


def _state_of_spectrum(spectrum, rng):
    """V diag(spectrum) V^dag on four qubits for a Haar-random V: Hermitian
    only up to rounding, with the given trace and smallest eigenvalue."""
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    v, _ = np.linalg.qr(g)
    return DensityOperator((v * spectrum) @ v.conj().T, (2, 2, 2, 2))


def _depolarize_corpus(random_unitary):
    rng = np.random.default_rng(39)
    corpus = {"flagship": bk.rho_h()}
    corpus.update({f"fourier-d{d}": bk.rho_u(bk.fourier(d))[0] for d in range(2, 7)})
    for d in (2, 3):
        corpus.update({f"haar-d{d}-{i}": bk.rho_u(random_unitary(d, rng))[0] for i in range(20)})
    phi = bk.bell_states()[0]
    corpus["phi+"] = DensityOperator(np.outer(phi, phi), (2, 2))
    dip = np.full(16, 1.0 / 15.0)
    dip[0] = -0.9 * PSD_SLACK
    dip[1:] += 0.9 * PSD_SLACK / 15.0
    corpus["lambda_min -0.9 PSD_SLACK"] = _state_of_spectrum(dip, rng)
    corpus["trace 1 + 0.9 TRACE_ATOL"] = _state_of_spectrum(
        np.full(16, (1.0 + 0.9 * TRACE_ATOL) / 16.0), rng)
    return corpus


def test_depolarize_builds_the_scaled_and_shifted_matrix_as_a_state(random_unitary):
    # the result skips validation, so check it against its own oracle: the
    # matrix is (1 - p) rho with p/dim added to the diagonal in place, byte
    # for byte (a dense + (p/dim) I would turn -0.0 entries into +0.0), and
    # the full validation accepts it
    corpus = _depolarize_corpus(random_unitary)
    lam_min = np.linalg.eigvalsh(corpus["lambda_min -0.9 PSD_SLACK"].mat)[0]
    assert -PSD_SLACK < lam_min < -0.8 * PSD_SLACK
    trace = np.trace(corpus["trace 1 + 0.9 TRACE_ATOL"].mat).real
    assert 0.8 * TRACE_ATOL < trace - 1.0 < TRACE_ATOL
    for name, rho in corpus.items():
        dim = rho.dim
        for p in (0.0, 1e-15, 1e-12, 0.003, 0.5, 1.0):
            expected = (1.0 - p) * rho.mat
            expected.flat[:: dim + 1] += p / dim
            noisy = bk.depolarize(rho, p)
            assert type(noisy) is DensityOperator, (name, p)
            assert np.array_equal(noisy.mat, expected), (name, p)
            assert noisy.mat.tobytes() == expected.tobytes(), (name, p)
            assert not noisy.mat.flags.writeable, (name, p)
            assert noisy.dims == rho.dims and noisy.labels == rho.labels, (name, p)
            DensityOperator(expected, rho.dims, rho.labels)


def test_depolarize_validates_a_bare_operator_once(validations):
    rho = bk.rho_h()
    validations.clear()
    noisy = bk.depolarize(rho, 0.3)
    assert validations == []
    bare = bk.depolarize(MultipartiteOperator(rho.mat, rho.dims, rho.labels), 0.3)
    assert validations == [rho.dims]
    assert bare.mat.tobytes() == noisy.mat.tobytes()
    # (1 - p) lambda_min + p/dim would be positive here, but the input is
    # not a state, so it is refused before it is mixed
    not_psd = MultipartiteOperator(np.diag([0.6, 0.41, 0.0, -0.01]), (2, 2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        bk.depolarize(not_psd, 0.5)

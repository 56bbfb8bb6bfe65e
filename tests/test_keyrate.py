"""Twisting, privacy squeezing, key-rate bounds, recurrence, E_r search."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import boundkey as bk
from boundkey import keyrate
from boundkey.keyrate import (
    _cross_entropy,
    _cross_entropy_gradient,
    _pauli_symmetries,
    _product_minimum,
    _product_vectors,
    _witness_sigma_frame,
)
from boundkey.linalg import MultipartiteOperator, max_abs_distance, permute_subsystems

P1 = 2.0 - math.sqrt(2.0)
P2 = math.sqrt(2.0) - 1.0

# frozen regression values for the flagship state
DW_SQUEEZED = 0.02133991564984052
DW_SHIELD_TO_EVE = -0.9786600843501547
DW_PURIFIER_ONLY = 0.02133991564984055
RECURRENCE_PER_COPY = 0.02102732800722851
ER_SINGLE_RESTART = 0.11596564420991795
ER_SINGLE_RESTART_ITERATIONS = 112
# the local Pauli strings (A B A' B') that fix the flagship state
FLAGSHIP_SYMMETRIES = [
    "IIII", "IIZZ", "IZXY", "IZYX", "XXII", "XXZZ", "XYXY", "XYYX",
    "YXXY", "YXYX", "YYII", "YYZZ", "ZIXY", "ZIYX", "ZZII", "ZZZZ",
]


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def generic_member():
    # the family member built from the seed-3 random unitary, as in
    # tests/test_cli.py::test_generic_family_member_simulates_and_certifies
    rng = np.random.default_rng(3)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return bk.rho_u(q * (np.diagonal(r) / np.abs(np.diagonal(r))))[0]


def flagship_twisting():
    mix = bk.mixture_from_unitary(bk.hadamard())
    return bk.canonical_twisting(mix.x1, mix.x2)


def test_canonical_twisting_blocks_are_unitary_and_positivize():
    mix = bk.mixture_from_unitary(bk.hadamard())
    tau = bk.canonical_twisting(mix.x1, mix.x2)
    for u in (tau.u00, tau.u01, tau.u10, tau.u11):
        assert max_abs_distance(u @ u.conj().T, np.eye(4)) < 1e-12
    for u, x in ((tau.u00, mix.x1), (tau.u01, mix.x2)):
        prod = u @ x
        assert max_abs_distance(prod, prod.conj().T) < 1e-12
        assert np.linalg.eigvalsh(prod)[0] > -1e-12


def test_twisting_unitary_refuses_bad_blocks():
    # not unitary, NaN, another dimension, not square
    eye = np.eye(2)
    for bad in (2.0 * eye, np.full((2, 2), np.nan), np.eye(3), np.ones((2, 3))):
        with pytest.raises(ValueError):
            bk.TwistingUnitary(eye, eye, eye, bad)


def test_privacy_squeeze_concentrates_flagship():
    sq = bk.privacy_squeeze(bk.rho_h(), flagship_twisting())
    assert sq.dims == (2, 2)
    bells = bk.bell_states()
    expect = P1 * np.outer(bells[0], bells[0].conj()) + P2 * np.outer(
        bells[2], bells[2].conj()
    )
    assert max_abs_distance(sq.mat, expect) < 1e-12


def test_squeezing_never_changes_key_statistics():
    # twisting commutes with the key measurement: the AB diagonal blocks keep
    # their traces
    rho = bk.rho_h()
    sq = bk.privacy_squeeze(rho, flagship_twisting())
    direct = bk.partial_trace(rho, [2, 3])
    assert max_abs_distance(
        np.diag(sq.mat).real, np.diag(direct.mat).real
    ) < 1e-12


def test_ccq_structure():
    ccq = bk.ccq_from_state(bk.rho_h())
    assert abs(ccq.p.sum() - 1.0) < 1e-12
    assert np.all(ccq.p >= -1e-15)
    for dm in ccq.eve.values():
        assert abs(np.trace(dm).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(dm)[0] > -1e-10


def test_devetak_winter_flagship_values():
    rho = bk.rho_h()
    sq = bk.privacy_squeeze(rho, flagship_twisting())
    assert abs(bk.dw_rate(bk.ccq_from_state(sq)) - DW_SQUEEZED) < 1e-12
    # handing the shield to the eavesdropper destroys the rate ...
    assert abs(bk.dw_rate(bk.ccq_from_state(rho, conservative=True)) - DW_SHIELD_TO_EVE) < 1e-12
    # ... while against the purifying system alone the squeezed rate survives
    assert abs(bk.dw_rate(bk.ccq_from_state(rho, conservative=False)) - DW_PURIFIER_ONLY) < 1e-12


def test_perfect_key_bit_rates():
    w = bk.flip_operator(bk.hadamard())
    pb = bk.pbit_from_X(w / bk.trace_norm(w))
    x1 = pb.mat[0:4, 12:16]
    x2 = pb.mat[4:8, 8:12]
    tau = bk.canonical_twisting(x1, x2)  # x2 vanishes for a pure private bit
    sq = bk.privacy_squeeze(pb, tau)
    assert abs(bk.dw_rate(bk.ccq_from_state(sq)) - 1.0) < 1e-12


def test_squeezed_rate_formula_for_random_family_members():
    rng = np.random.default_rng(20)
    for d in (2, 3):
        for _ in range(5):
            mix = bk.mixture_from_unitary(random_unitary(d, rng))
            tau = bk.canonical_twisting(mix.x1, mix.x2)
            sq = bk.privacy_squeeze(bk.rho_from_mixture(mix), tau)
            rate = bk.dw_rate(bk.ccq_from_state(sq))
            assert abs(rate - (1.0 - bk.binary_entropy(mix.p1))) < 1e-6


def test_bell_twirl_weights():
    sq = bk.privacy_squeeze(bk.rho_h(), flagship_twisting())
    spectrum = bk.bell_twirl(sq)
    assert max_abs_distance(spectrum.weights, np.array([P1, 0.0, P2, 0.0])) < 1e-12
    assert abs(1.0 - spectrum.entropy() - (1.0 - bk.binary_entropy(P1))) < 1e-12
    # twirling is idempotent: a Bell-diagonal state keeps its weights
    bells = bk.bell_states()
    diag = sum(
        w * np.outer(v, v.conj()) for w, v in zip([0.4, 0.3, 0.2, 0.1], bells)
    )
    again = bk.bell_twirl(bk.as_state(diag, (2, 2)))
    assert max_abs_distance(again.weights, np.array([0.4, 0.3, 0.2, 0.1])) < 1e-12


def test_certified_bounds_on_exact_parameters():
    rep = bk.certified_bounds([P1 / 2, P2 / 2, P2 / 2, P1 / 2], P1 / 2, 0.0, P2 / 2, 0.0)
    assert abs(rep.twirl_hashing - DW_SQUEEZED) < 1e-10
    assert abs(rep.info_minus_twirl_entropy - (1.0 - 2.0 * bk.binary_entropy(P1))) < 1e-12
    assert rep.info_minus_twirl_entropy < 0.0
    assert abs(rep.recurrence_acceptance - (9.0 - 6.0 * math.sqrt(2.0))) < 1e-12
    assert abs(rep.recurrence_per_copy_rate - RECURRENCE_PER_COPY) < 1e-10
    assert rep.two_way_flag


def test_recurrence_step_closed_form():
    sq = bk.privacy_squeeze(bk.rho_h(), flagship_twisting())
    ccq = bk.ccq_from_state(sq)
    out, per_copy = bk.recurrence_step(ccq)
    parity = np.array([ccq.p[0, 0] + ccq.p[1, 1], ccq.p[0, 1] + ccq.p[1, 0]])
    acceptance = float(parity[0] ** 2 + parity[1] ** 2)
    assert abs(acceptance - (9.0 - 6.0 * math.sqrt(2.0))) < 1e-12
    # post-selected error weight is exactly 1/3 for the flagship parameters
    assert abs(out.p[0, 1] + out.p[1, 0] - 1.0 / 3.0) < 1e-12
    assert abs(per_copy - RECURRENCE_PER_COPY) < 1e-12
    # two-way post-processing does not beat the one-way squeezed rate here
    assert per_copy < DW_SQUEEZED


def test_relative_entropy_basics():
    bells = bk.bell_states()
    bell = bk.as_state(np.outer(bells[0], bells[0].conj()), (2, 2))
    flat = bk.as_state(np.eye(4) / 4.0, (2, 2))
    assert abs(bk.rel_entropy(bell, flat) - 2.0) < 1e-10
    assert abs(bk.rel_entropy(flat, flat)) < 1e-12
    rng = np.random.default_rng(21)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    rho = bk.as_state(m / np.trace(m).real, (2, 2))
    assert bk.rel_entropy(rho, flat) >= -1e-12


def reference_sigma_frame(noise_w, weights, va, vb):
    """The five-operand einsum that the one-matmul assembly replaced."""
    four = np.einsum("c,ci,cj,ck,cl->ikjl", weights, va, va.conj(), vb, vb.conj())
    return four.reshape(16, 16) + np.eye(16) * (noise_w / 16.0)


def random_witness(rng, k, noise_w=None):
    def unit_rows():
        m = rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    w = rng.dirichlet(np.ones(k + 1))
    if noise_w is not None:
        w = np.concatenate([[noise_w], (1.0 - noise_w) * w[1:] / w[1:].sum()])
    return bk.SeparableWitness(float(w[0]), w[1:], unit_rows(), unit_rows())


def to_frame(mat):
    """(A, B, A', B') order to the search's AA' | BB' frame."""
    return permute_subsystems(MultipartiteOperator(mat, (2, 2, 2, 2)), [0, 2, 1, 3]).mat


def test_witness_sigma_kernel_matches_references():
    rng = np.random.default_rng(30)
    for k in (1, 2, 7, 24, 24, 24):
        wit = random_witness(rng, k)
        va, vb = wit.vectors_a, wit.vectors_b
        sigma = _witness_sigma_frame(wit.noise_weight, wit.weights, _product_vectors(va, vb))
        ref = reference_sigma_frame(wit.noise_weight, wit.weights, va, vb)
        assert max_abs_distance(sigma, ref) <= 1e-14
        assert max_abs_distance(ref, to_frame(wit.sigma().mat)) <= 1e-14


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    rho = bk.rho_h()
    rho_frame = to_frame(rho.mat)
    s_rho = bk.von_neumann_entropy(rho)
    for _ in range(3):
        wit = random_witness(rng, 24, noise_w=0.3)  # full rank: eigenvalues >= 0.3/16
        sigma = _witness_sigma_frame(
            wit.noise_weight, wit.weights, _product_vectors(wit.vectors_a, wit.vectors_b)
        )
        value, eig = _cross_entropy(rho_frame, sigma)
        assert abs(value - s_rho - bk.rel_entropy(rho, wit.sigma())) <= 1e-12
        grad = _cross_entropy_gradient(eig)
        assert max_abs_distance(grad, grad.conj().T) <= 1e-15
        for _ in range(4):
            h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            h = (h + h.conj().T) / np.linalg.norm(h + h.conj().T)
            eps = 1e-5
            central = (
                _cross_entropy(rho_frame, sigma + eps * h)[0]
                - _cross_entropy(rho_frame, sigma - eps * h)[0]
            ) / (2.0 * eps)
            assert abs(central - np.real(np.trace(grad @ h))) <= 1e-7


@pytest.fixture(scope="module")
def seed5_search():
    """One seed-5 search of at most three restarts: the first converges."""
    return bk.er_upper_bound(bk.rho_h(), restarts=3, seed=5)


def test_er_search_is_deterministic_and_witnessed(seed5_search):
    rho = bk.rho_h()
    result = seed5_search
    assert result.restarts_completed == 1
    assert abs(result.value - ER_SINGLE_RESTART) < 1e-12
    # the witness must certify the bound: an explicitly separable state whose
    # relative entropy to the flagship equals the reported value
    w = result.witness
    assert w.noise_weight >= 0.0
    assert np.all(w.weights >= 0.0)
    assert abs(w.noise_weight + w.weights.sum() - 1.0) < 1e-9
    assert np.max(np.abs(np.linalg.norm(w.vectors_a, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(w.vectors_b, axis=1) - 1.0)) < 1e-12
    sigma = w.sigma()
    assert abs(bk.rel_entropy(rho, sigma) - result.value) < 1e-9
    # an upper bound on E_r can never undercut the certified key rate
    assert result.value > DW_SQUEEZED
    # one restart reaches the optimum, and its Frank-Wolfe gap says so
    assert result.value <= 0.115966
    assert result.gap < 1e-6
    assert (result.symmetry_order, result.orbits) == (16, 4)
    assert len(w.weights) == 16 * 4


def test_er_search_stops_at_its_first_converged_start(seed5_search):
    # of the three restarts allowed, the first start converges and ends the
    # search: its value and iteration count are the frozen one-restart ones
    assert seed5_search.restarts_completed == 1
    assert seed5_search.iterations == ER_SINGLE_RESTART_ITERATIONS
    assert seed5_search.value == ER_SINGLE_RESTART


def test_er_search_ignores_the_clock(monkeypatch):
    # with no start allowed to converge, every restart runs out its starts,
    # and the restart count alone decides how many run: a clock that jumps
    # an hour at every reading changes nothing
    clock = itertools.count(0.0, 3600.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    monkeypatch.setattr(keyrate, "ER_GAP_TOL", -1.0)
    monkeypatch.setattr(keyrate, "ER_STARTS", 2)
    one = bk.er_upper_bound(bk.rho_h(), restarts=1, seed=5)
    assert (one.restarts_completed, one.starts) == (1, 2)
    two = bk.er_upper_bound(bk.rho_h(), restarts=2, seed=5)
    assert (two.restarts_completed, two.starts) == (2, 4)
    assert two.value <= one.value
    assert abs(bk.rel_entropy(bk.rho_h(), two.witness.sigma()) - two.value) <= 1e-9


def test_er_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bk.er_upper_bound(bk.rho_h(), restarts=0, seed=1)


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_flagship_symmetry_group(noise):
    rho = bk.depolarize(bk.rho_h(), noise) if noise else bk.rho_h()
    names, ga, gb = _pauli_symmetries(rho)
    assert names == FLAGSHIP_SYMMETRIES
    assert ga.shape == gb.shape == (16, 4, 4)


def test_generic_member_symmetry_group():
    assert _pauli_symmetries(generic_member())[0] == ["IIII", "IIZZ", "ZZII", "ZZZZ"]


@pytest.mark.parametrize("which", ["flagship", "generic"])
def test_gradient_at_twirled_sigma_commutes_with_the_group(which):
    # the search takes each orbit's gradient from its seed alone, which
    # holds because G commutes with every symmetry at a twirled sigma
    rho = bk.rho_h() if which == "flagship" else generic_member()
    _, ga, gb = _pauli_symmetries(rho)
    rng = np.random.default_rng(32)
    wit = random_witness(rng, 3, noise_w=0.2)
    ea = np.einsum("gij,kj->kgi", ga, wit.vectors_a).reshape(-1, 4)
    eb = np.einsum("gij,kj->kgi", gb, wit.vectors_b).reshape(-1, 4)
    weights = wit.weights.repeat(len(ga)) / len(ga)
    sigma = _witness_sigma_frame(wit.noise_weight, weights, _product_vectors(ea, eb))
    grad = _cross_entropy_gradient(_cross_entropy(to_frame(rho.mat), sigma)[1])
    for g_a, g_b in zip(ga, gb):
        g = np.kron(g_a, g_b)
        assert max_abs_distance(g @ sigma @ g.conj().T, sigma) <= 1e-14
        assert max_abs_distance(g @ grad @ g.conj().T, grad) <= 1e-12


def test_product_minimum_on_known_operators():
    # the gap's oracle: least p+ G p over unit products p = a (x) b, with
    # a on AA' (first factor of the frame) and b on BB'
    rng = np.random.default_rng(33)

    def hermitian():
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        return m + m.conj().T

    for _ in range(5):
        a, b = hermitian(), hermitian()
        local = np.kron(a, np.eye(4)) + np.kron(np.eye(4), b)
        expect = np.linalg.eigvalsh(a)[0] + np.linalg.eigvalsh(b)[0]
        assert abs(_product_minimum(local, rng) - expect) <= 1e-10
    # a maximally entangled 4 x 4 vector overlaps any product by at most 1/4
    phi = np.eye(4).reshape(16) / 2.0
    assert abs(_product_minimum(-np.outer(phi, phi), rng) + 0.25) <= 1e-10


def test_er_search_on_a_generic_member():
    rho = generic_member()
    result = bk.er_upper_bound(rho, restarts=2, seed=0)
    assert result.symmetry_order == 4
    assert abs(bk.rel_entropy(rho, result.witness.sigma()) - result.value) <= 1e-9
    assert result.value <= 0.1160
    assert result.gap < 1e-6
    assert result.restarts_completed == 1


# Run once per BLAS thread count: the seed-5 search's value and witness
# weights, as bytes.
ER_THREAD_PROBE = """
import hashlib
import boundkey as bk
result = bk.er_upper_bound(bk.rho_h(), restarts=3, seed=5)
print(result.value.hex(), hashlib.sha256(result.witness.weights.tobytes()).hexdigest())
"""


def test_er_search_does_not_depend_on_blas_threads(seed5_search):
    path = os.pathsep.join([os.path.dirname(os.path.dirname(bk.__file__))]
                           + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", ER_THREAD_PROBE],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
            stdout=subprocess.PIPE, text=True,
        )
        for threads in ("1", "2")
    ]
    outputs = [child.communicate(timeout=60)[0].split() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outputs[0] == outputs[1]
    assert outputs[0] == [
        seed5_search.value.hex(),
        hashlib.sha256(seed5_search.witness.weights.tobytes()).hexdigest(),
    ]

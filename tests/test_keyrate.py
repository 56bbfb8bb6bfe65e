"""Twisting, privacy squeezing, key-rate bounds, recurrence, E_r search."""

import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import time
from functools import reduce

import numpy as np
import pytest

import boundkey as bk
from boundkey import keyrate, ppt
from boundkey.keyrate import (
    FEASIBILITY_SLACK,
    _block_cross_entropy,
    _block_gradient,
    _frame_blocks,
    _frame_operator,
    _lbfgs,
    _pauli_symmetries,
    _product_minimum,
    _product_vectors,
    _sigma_blocks,
    _symmetry_frame,
    _witness_sigma_frame,
    twirl_hashing_minimum,
)
from boundkey.linalg import (
    PAULI,
    MultipartiteOperator,
    entropy_from_spectrum,
    max_abs_distance,
    permute_subsystems,
)

P1 = 2.0 - math.sqrt(2.0)
P2 = math.sqrt(2.0) - 1.0

# frozen regression values for the flagship state
DW_SQUEEZED = 0.02133991564984052
DW_SHIELD_TO_EVE = -0.9786600843501547
DW_PURIFIER_ONLY = 0.02133991564984055
RECURRENCE_PER_COPY = 0.02102732800722851
ER_SINGLE_RESTART = 0.1159656442099215
ER_SINGLE_RESTART_ITERATIONS = 97
ER_SINGLE_RESTART_EVALUATIONS = 103
# the local Pauli strings (A B A' B') that fix the flagship state
FLAGSHIP_SYMMETRIES = [
    "IIII", "IIZZ", "IZXY", "IZYX", "XXII", "XXZZ", "XYXY", "XYYX",
    "YXXY", "YXYX", "YYII", "YYZZ", "ZIXY", "ZIYX", "ZZII", "ZZZZ",
]


def generic_member():
    # the family member built from the seed-3 random unitary, as in
    # tests/test_cli.py::test_generic_family_member_simulates_and_certifies
    rng = np.random.default_rng(3)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return bk.rho_u(q * (np.diagonal(r) / np.abs(np.diagonal(r))))[0]


def flagship_twisting():
    return bk.canonical_twisting(*keyrate.corner_blocks(bk.rho_h()))


def test_canonical_twisting_blocks_are_unitary_and_positivize():
    x1, x2 = keyrate.corner_blocks(bk.rho_h())
    tau = bk.canonical_twisting(x1, x2)
    for u in (tau.u00, tau.u01, tau.u10, tau.u11):
        assert max_abs_distance(u @ u.conj().T, np.eye(4)) < 1e-12
    for u, x in ((tau.u00, x1), (tau.u01, x2)):
        prod = u @ x
        assert max_abs_distance(prod, prod.conj().T) < 1e-12
        assert np.linalg.eigvalsh(prod)[0] > -1e-12


def test_twisting_unitary_refuses_bad_blocks():
    # not unitary (unitarity is read off the products table's diagonal),
    # NaN, another dimension, not square, empty; a refusal names its block
    eye = np.eye(2)
    for bad, message in ((2.0 * eye, "u11 is not unitary"), ((1.0 + 2e-9) * eye, "u11 is not unitary"),
                         (np.full((2, 2), np.nan), "u11 is not unitary"),
                         (np.eye(3), "twisting blocks must share one dimension"),
                         (np.ones((2, 3)), "u11 must be square"), (np.zeros((0, 0)), "u11 is empty")):
        with pytest.raises(ValueError, match=message):
            bk.TwistingUnitary(eye, eye, eye, bad)
    assert bk.TwistingUnitary(eye, eye, eye, (1.0 + 4e-10) * eye).shield_dim == 2
    # the corner blocks a twisting is taken from: square and of one shape
    for x1, x2 in ((eye, np.eye(3)), (np.ones((2, 3)), np.ones((2, 3))), (np.ones(2), np.ones(2))):
        with pytest.raises(ValueError, match="blocks must be square and of one shape"):
            bk.canonical_twisting(x1, x2)
    with pytest.raises(ValueError, match="twisting block u00 is empty"):
        bk.canonical_twisting(np.zeros((0, 0)), np.zeros((0, 0)))


@pytest.fixture
def twisting_cache():
    """The cache of canonical twistings, cleared before the test runs."""
    keyrate._cached_twisting.cache_clear()
    return keyrate._cached_twisting


@pytest.fixture
def polar_calls(monkeypatch):
    """The list of the block stacks handed to the polar completion while the
    test runs: ``_polar_unitary_identity_completion`` wrapped to record each."""
    calls = []
    polar = keyrate._polar_unitary_identity_completion

    def recorded(x):
        calls.append(x)
        return polar(x)

    monkeypatch.setattr(keyrate, "_polar_unitary_identity_completion", recorded)
    return calls


def test_canonical_twisting_checks_that_it_positivizes(monkeypatch, twisting_cache):
    # the negated polar unitary is still unitary, but turns |x1| into -|x1|;
    # the cache is cleared, so the flagship's twisting is derived afresh
    polar = keyrate._polar_unitary_identity_completion
    monkeypatch.setattr(keyrate, "_polar_unitary_identity_completion", lambda x: -polar(x))
    with pytest.raises(AssertionError, match="U00 x1"):
        bk.canonical_twisting(*keyrate.corner_blocks(bk.rho_h()))
    # negating only the second block's polar unitary trips the second check
    sign = np.array([1.0, -1.0])[:, None, None]
    monkeypatch.setattr(keyrate, "_polar_unitary_identity_completion", lambda x: sign * polar(x))
    with pytest.raises(AssertionError, match="U01 x2"):
        bk.canonical_twisting(*keyrate.corner_blocks(bk.rho_h()))
    assert twisting_cache.cache_info().misses == 2 and twisting_cache.cache_info().currsize == 0


def test_polar_completion_refuses_blocks_whose_row_and_column_spaces_differ():
    # a nilpotent block: its completion U_r Vh_r + I - Vh_r+ Vh_r is not unitary
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    for x1, x2 in ((nilpotent, np.eye(2)), (np.eye(2), nilpotent)):
        with pytest.raises(ValueError, match=r"polar completion \(row and column spaces differ\)"):
            bk.canonical_twisting(x1, x2)


def polar_oracle(x):
    """The polar unitary of one block, completed by the identity, as the
    per-block formula gives it."""
    u, s, vh = np.linalg.svd(np.asarray(x, dtype=complex))
    if s[0] <= 0.0:
        return np.eye(len(x), dtype=complex)
    r = int(np.sum(s > 1e-10 * s[0]))
    return u[:, :r] @ vh[:r] + (np.eye(len(x)) - vh[:r].conj().T @ vh[:r])


def test_stacked_polar_gives_the_per_block_bytes(random_unitary, private_bit, twisting_cache):
    # one SVD over the stack, then each block completed on its own rank: every
    # unitary, and so every twisting, keeps the bytes of the per-block formula
    rng = np.random.default_rng(46)

    def gaussian(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def rank_deficient(n, r):
        # row and column spaces coincide, as for every block the package feeds it
        w = random_unitary(n, rng)[:, :r]
        return w @ gaussian(r) @ w.conj().T

    w = bk.flip_operator(bk.hadamard())
    pb = private_bit(w / bk.trace_norm(w))
    pairs = [keyrate.corner_blocks(bk.rho_h()), keyrate.corner_blocks(generic_member()),
             keyrate.corner_blocks(bk.rho_u(bk.fourier(3))[0]),
             (pb.mat[0:4, 12:16], pb.mat[4:8, 8:12])]  # x2 vanishes for a pure private bit
    for n in (1, 2, 4, 9):
        pairs += [(gaussian(n), gaussian(n)), (np.zeros((n, n)), gaussian(n)),
                  (gaussian(n), np.zeros((n, n))), (np.zeros((n, n)), np.zeros((n, n)))]
        pairs += [(rank_deficient(n, r), rank_deficient(n, max(r - 1, 1))) for r in range(1, n)]
    for x1, x2 in pairs:
        expected = [polar_oracle(x1), polar_oracle(x2)]
        stacked = keyrate._polar_unitary_identity_completion(np.stack((x1, x2)).astype(complex))
        assert stacked.tobytes() == np.stack(expected).tobytes()
        tau = bk.canonical_twisting(x1, x2)
        for block, v in zip((tau.u00, tau.u01), expected):
            assert block.tobytes() == np.ascontiguousarray(v.conj().T).tobytes()
    zero = bk.canonical_twisting(np.zeros((3, 3)), np.zeros((3, 3)))
    for block in (zero.u00, zero.u01, zero.u10, zero.u11):
        assert np.array_equal(block, np.eye(3))
    assert twisting_cache.cache_info().hits == 0


def test_a_recalled_twisting_is_the_same_read_only_object(twisting_cache):
    x1, x2 = keyrate.corner_blocks(bk.rho_h())
    tau = bk.canonical_twisting(x1, x2)
    assert bk.canonical_twisting(x1.copy(), x2.copy()) is tau
    info = twisting_cache.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for arr in (tau.u00, tau.u01, tau.u10, tau.u11, tau.products):
        assert not arr.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        tau.u00 = np.eye(4)
    # one ulp in one entry, or the blocks swapped, is another key
    nudged = x1.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0].real, 1.0)
    for other in ((nudged, x2), (x2, x1)):
        assert bk.canonical_twisting(*other) is not tau
    assert twisting_cache.cache_info().misses == 3


def test_block_memory_layout_does_not_change_the_twisting(twisting_cache):
    # the key is the blocks' entries in C order: Fortran-order and strided
    # blocks recall the C-order twisting, and computed afresh give its bytes
    x1, x2 = (np.ascontiguousarray(x) for x in keyrate.corner_blocks(generic_member()))
    strided = [np.zeros((4, 4, 2), dtype=complex) for _ in range(2)]
    for holder, x in zip(strided, (x1, x2)):
        holder[:, :, 1] = x
    layouts = [(np.asfortranarray(x1), np.asfortranarray(x2)),
               (strided[0][:, :, 1], strided[1][:, :, 1]),
               keyrate.corner_blocks(generic_member())]
    tau = bk.canonical_twisting(x1, x2)
    for layout in layouts:
        assert not layout[0].flags.c_contiguous
        assert bk.canonical_twisting(*layout) is tau
    assert twisting_cache.cache_info().misses == 1
    for layout in layouts:
        twisting_cache.cache_clear()
        fresh = bk.canonical_twisting(*layout)
        for name in ("u00", "u01", "u10", "u11", "products"):
            assert getattr(fresh, name).tobytes() == getattr(tau, name).tobytes()


def test_a_state_is_twisted_once_per_scan_and_threshold(polar_calls, twisting_cache):
    # ppt --robustness runs the scan and then the threshold on one state, and
    # a survey member twists the state and then derives its bound from it:
    # each state's blocks go through the polar completion once
    for rho in (bk.rho_h(), bk.rho_u(bk.fourier(3))[0]):
        before = len(polar_calls)
        report = ppt.robustness_scan(rho, np.linspace(0.0, 0.01, 21))
        threshold = ppt.robustness_threshold(rho)
        tau = bk.canonical_twisting(*keyrate.corner_blocks(rho))
        bound = bk.twirl_hashing_bound(rho)
        assert len(polar_calls) == before + 1
        assert report.largest_positive_noise is not None and threshold > 0.0
        assert bound(rho) == bk.twirl_hashing(*keyrate._twirl_parameters(rho, tau))
    assert twisting_cache.cache_info().misses == 2


def test_twisting_products_are_the_block_products(random_unitary):
    # the batched table holds exactly the per-pair products U^I+ U^K
    rng = np.random.default_rng(31)
    for tau in (flagship_twisting(), bk.canonical_twisting(*keyrate.corner_blocks(generic_member())),
                bk.TwistingUnitary(*(random_unitary(3, rng) for _ in range(4)))):
        blocks = (tau.u00, tau.u01, tau.u10, tau.u11)
        for i, k in itertools.product(range(4), repeat=2):
            assert np.array_equal(tau.products[i, k], blocks[i].conj().T @ blocks[k])
        assert not tau.products.flags.writeable


def exact_phi_plus():
    """|Phi+><Phi+| on dims (2, 2) with entries exactly 0 and 1/2."""
    phi = np.zeros((4, 4))
    phi[np.ix_([0, 3], [0, 3])] = 0.5
    return bk.DensityOperator(phi, (2, 2))


def test_key_states_are_read_through_one_layout():
    # the first two subsystems are the key qubits and the rest is the
    # shield, possibly nothing: Phi+ is a key state with a 1-dimensional shield
    bell = exact_phi_plus()
    tau = bk.canonical_twisting(*keyrate.corner_blocks(bell))
    assert tau.shield_dim == 1
    assert np.array_equal(bk.privacy_squeeze(bell, tau).mat, bell.mat)
    assert bk.dw_rate(bk.ccq_from_state(bell)) == 1.0
    assert bk.twirl_hashing_bound(bell)(bell) == 1.0
    # any other valid state is unsupported, whichever route reads it
    flat = bk.DensityOperator(np.eye(16) / 16.0, (4, 4))
    routes = (keyrate.corner_blocks, bk.ccq_from_state, bk.twirl_hashing_bound,
              bk.twirl_hashing_bound(bk.rho_h()),
              lambda state: bk.privacy_squeeze(state, flagship_twisting()))
    for route in routes:
        with pytest.raises(bk.UnsupportedStateError, match="first two subsystems are the key"):
            route(flat)


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
    assert not ccq.omega.flags.writeable
    assert abs(ccq.p.sum() - 1.0) < 1e-12
    assert np.all(ccq.p >= -1e-15)
    # each block is p(a, b) times Eve's conditional state
    for block, weight in zip(ccq.omega.reshape(4, *ccq.omega.shape[2:]), ccq.p.ravel()):
        dm = block / weight
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


def mutual_information(p):
    """I(A:B) in bits of a 2x2 outcome table, from Shannon entropies."""
    def shannon(weights):
        return entropy_from_spectrum(np.ravel(weights))

    return shannon(p.sum(axis=1)) + shannon(p.sum(axis=0)) - shannon(p)


def complementary_dw_rate(rho, conservative):
    """The one-way rate I(A:B) - [S(E) - sum_a p_a S(E|a)] from principal
    blocks of rho, the independent reference for `dw_rate`.

    With rho purified, Eve's mixture over a set S of key outcomes has the
    nonzero spectrum of the Gram matrix of her unnormalised conditional
    vectors, which is (up to transposition) a principal block of the state:
    the S x S block of rho_AB when she also holds the shield, and the
    (S (x) shield) block of rho when she holds the purifier alone.
    """
    shield = rho.mat.shape[0] // 4
    rho_ab = bk.partial_trace(rho, range(2, len(rho.dims))).mat
    mat, width = (rho_ab, 1) if conservative else (rho.mat, shield)
    p = np.real(np.diag(rho_ab)).reshape(2, 2)

    def entropy(outcomes):
        idx = np.concatenate([np.arange(o * width, (o + 1) * width) for o in outcomes])
        block = mat[np.ix_(idx, idx)]
        return entropy_from_spectrum(np.linalg.eigvalsh(block / np.trace(block).real))

    s_cond = sum(p[a].sum() * entropy([2 * a, 2 * a + 1]) for a in range(2) if p[a].sum() > 0)
    return mutual_information(p) - (entropy([o for o in range(4) if p.flat[o] > 0]) - s_cond)


def test_dw_rates_match_the_complementary_block_oracle(random_unitary):
    rng = np.random.default_rng(27)
    members = [bk.rho_h(), bk.rho_u(bk.fourier(3))[0]]
    members += [bk.rho_u(random_unitary(d, rng))[0] for d in (2, 3) for _ in range(20)]
    for rho in members:
        for conservative in (True, False):
            rate = bk.dw_rate(bk.ccq_from_state(rho, conservative))
            assert abs(rate - complementary_dw_rate(rho, conservative)) < 1e-12


def test_conservative_eve_states_live_on_her_conditional_span():
    # four conditional vectors of length 108 span at most four dimensions
    rho = bk.rho_u(bk.fourier(3))[0]
    ccq = bk.ccq_from_state(rho, conservative=True)
    assert ccq.omega.shape == (2, 2, 4, 4)
    # purifier-only conditionals keep their own space, one dimension per eigenvector
    rank = int(np.sum(np.linalg.eigvalsh(rho.mat) > keyrate.EIGENVALUE_KEEP))
    ccq = bk.ccq_from_state(rho, conservative=False)
    assert ccq.omega.shape == (2, 2, rank, rank)


def test_dw_rate_sees_eve_only_up_to_a_common_isometry(random_unitary):
    # a common unitary on Eve's blocks, or zero-padding them from n to n + 2,
    # leaves every entropy of her blocks and their sums unchanged
    rng = np.random.default_rng(34)
    members = [bk.rho_h(), bk.rho_u(bk.fourier(3))[0], bk.rho_u(random_unitary(3, rng))[0]]
    for rho in members:
        for conservative in (True, False):
            ccq = bk.ccq_from_state(rho, conservative)
            rate = bk.dw_rate(ccq)
            n = ccq.omega.shape[2]
            u = random_unitary(n, rng)
            rotated = bk.CcqState(u @ ccq.omega @ u.conj().T)
            padded = bk.CcqState(np.pad(ccq.omega, ((0, 0), (0, 0), (0, 2), (0, 2))))
            assert padded.omega.shape == (2, 2, n + 2, n + 2)
            assert abs(bk.dw_rate(rotated) - rate) < 1e-12
            assert abs(bk.dw_rate(padded) - rate) < 1e-12


def test_ccq_state_refuses_malformed_eve_data():
    def blocks(p):
        """Eve's blocks p(a, b) I/2: she knows nothing about the outcome."""
        return np.multiply.outer(np.asarray(p, dtype=float), np.eye(2) / 2.0)

    mixed = blocks(np.full((2, 2), 0.25))
    shape = "Eve's blocks must have shape \\(2, 2, n, n\\)"
    with pytest.raises(ValueError, match=shape + ", got \\(2, 2, 2, 3\\)"):
        bk.CcqState(np.zeros((2, 2, 2, 3)))
    with pytest.raises(ValueError, match=shape + ", got \\(4, 2, 2\\)"):
        bk.CcqState(blocks(np.full(4, 0.25)))
    with pytest.raises(ValueError, match=shape + ", got \\(2, 2\\)"):
        bk.CcqState(np.full((2, 2), 0.25))
    for entry in (np.nan, np.inf):
        bad = mixed.copy()
        bad[0, 0, 0, 0] = entry
        with pytest.raises(ValueError, match="Eve's blocks must be finite"):
            bk.CcqState(bad)
    skew = mixed.copy()
    skew[0, 1, 0, 1] = 1e-9
    with pytest.raises(ValueError, match="Eve's blocks are not Hermitian: max\\|M - M\\^dag\\| = 1.000e-09"):
        bk.CcqState(skew)
    with pytest.raises(ValueError, match="negative outcome probability -1.000e-01"):
        bk.CcqState(blocks([[0.6, -0.1], [0.25, 0.25]]))
    with pytest.raises(ValueError, match="outcome probabilities sum to 1.2"):
        bk.CcqState(blocks(np.full((2, 2), 0.3)))
    # an outcome that never happens is a zero block
    ccq = bk.CcqState(blocks([[0.5, 0.0], [0.0, 0.5]]))
    assert abs(bk.dw_rate(ccq) - 1.0) < 1e-9


def test_block_squeeze_matches_the_assembled_twisting(random_unitary):
    # sigma_IK = Tr[U^I rho_IK U^K+] is the shield trace of U rho U+
    rng = np.random.default_rng(5)
    for rho in (bk.rho_h(), bk.rho_u(bk.fourier(3))[0], bk.rho_u(random_unitary(3, rng))[0]):
        tau = bk.canonical_twisting(*keyrate.corner_blocks(rho))
        n = tau.shield_dim
        u = np.zeros((4 * n, 4 * n), dtype=complex)  # block diagonal over |00>, ..., |11>
        for i, block in enumerate((tau.u00, tau.u01, tau.u10, tau.u11)):
            u[i * n : (i + 1) * n, i * n : (i + 1) * n] = block
        twisted = MultipartiteOperator(u @ rho.mat @ u.conj().T, rho.dims, rho.labels)
        direct = bk.partial_trace(twisted, range(2, len(rho.dims))).mat
        assert max_abs_distance(bk.privacy_squeeze(rho, tau).mat, direct) < 1e-15


def squeezed_twirl_hashing(state, tau):
    """`twirl_hashing` of the squeezed state, read off the built sigma."""
    s = bk.privacy_squeeze(state, tau).mat
    return bk.twirl_hashing(float(s[0, 0].real + s[3, 3].real), float(s[0, 3].real),
                            float(s[1, 2].real))


def test_twirl_bound_matches_the_squeeze_route(random_unitary):
    # the closure reads three block sums off the state instead of building sigma
    rng = np.random.default_rng(28)
    members = [bk.rho_h(), bk.rho_u(bk.fourier(3))[0],
               bk.rho_u(random_unitary(2, rng))[0], bk.rho_u(random_unitary(3, rng))[0]]
    for rho in members:
        bound = bk.twirl_hashing_bound(rho)
        tau = bk.canonical_twisting(*keyrate.corner_blocks(rho))
        for noise in np.linspace(0.0, 1.0, 21):
            state = bk.depolarize(rho, float(noise))
            assert abs(bound(state) - squeezed_twirl_hashing(state, tau)) <= 1e-14


def test_twirl_bound_refuses_what_the_squeeze_refuses():
    rho = bk.rho_h()
    bound = bk.twirl_hashing_bound(rho)
    tau = bk.canonical_twisting(*keyrate.corner_blocks(rho))
    bell = np.zeros((4, 4))
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    for other in (bk.rho_u(bk.fourier(3))[0], bk.DensityOperator(bell, (2, 2))):
        with pytest.raises(ValueError) as squeezed:
            bk.privacy_squeeze(other, tau)
        with pytest.raises(ValueError) as direct:
            bound(other)
        assert str(direct.value) == str(squeezed.value)


def test_perfect_key_bit_rates(private_bit):
    w = bk.flip_operator(bk.hadamard())
    pb = private_bit(w / bk.trace_norm(w))
    x1 = pb.mat[0:4, 12:16]
    x2 = pb.mat[4:8, 8:12]
    tau = bk.canonical_twisting(x1, x2)  # x2 vanishes for a pure private bit
    sq = bk.privacy_squeeze(pb, tau)
    assert abs(bk.dw_rate(bk.ccq_from_state(sq)) - 1.0) < 1e-12


def test_squeezed_rate_formula_for_random_family_members(random_unitary):
    rng = np.random.default_rng(20)
    for d in (2, 3):
        for _ in range(5):
            rho, p1, _ = bk.rho_u(random_unitary(d, rng))
            tau = bk.canonical_twisting(*keyrate.corner_blocks(rho))
            sq = bk.privacy_squeeze(rho, tau)
            rate = bk.dw_rate(bk.ccq_from_state(sq))
            assert abs(rate - (1.0 - bk.binary_entropy(p1))) < 1e-6


def squeezed_parameters(sigma):
    """The arguments of `certified_bounds` read off a two-qubit state: its
    diagonal and the real and imaginary parts of sigma03 and sigma12."""
    m = sigma.mat
    return (np.real(np.diag(m)), np.real(m[0, 3]), np.imag(m[0, 3]),
            np.real(m[1, 2]), np.imag(m[1, 2]))


def recurrence_step(ccq):
    """One two-way advantage-distillation step on the ccq level: the
    independent reference that `certified_bounds`' closed-form recurrence
    is checked against.

    Alice and Bob take two i.i.d. rounds, publicly compare the XORs of
    their bit pairs, and keep the first bit of a pair only when the XORs
    agree.  Eve keeps her two conditional states plus the announced XOR.
    Returns the post-selected ccq state and the per-copy rate
    (acceptance/2) * dw_rate(output).
    """
    p, omega = ccq.p, ccq.omega
    q = np.array([p[0, 0] + p[1, 1], p[0, 1] + p[1, 0]])  # parity weights
    accept = float(q[0] ** 2 + q[1] ** 2)
    if accept <= 0.0:
        raise ValueError("recurrence step has zero acceptance probability")
    dim = omega.shape[2]
    out = np.zeros((2, 2, dim * dim * 2, dim * dim * 2), dtype=complex)
    # the kept outcome (a1, b1) is the first round's; Eve's block gains the
    # second round's block of the same XOR and the flag a1 ^ a2
    for a1, b1, a2 in itertools.product(range(2), repeat=3):
        b2 = a2 ^ a1 ^ b1
        flag = np.zeros((2, 2))
        flag[a1 ^ a2, a1 ^ a2] = 1.0
        out[a1, b1] += np.kron(np.kron(omega[a1, b1], omega[a2, b2]), flag) / accept
    out = bk.CcqState(out)
    return out, (accept / 2.0) * bk.dw_rate(out)


def test_bell_twirl_weights():
    sq = bk.privacy_squeeze(bk.rho_h(), flagship_twisting())
    rep = bk.certified_bounds(*squeezed_parameters(sq))
    assert max_abs_distance(rep.spectrum, np.array([P1, 0.0, P2, 0.0])) < 1e-12
    assert abs(rep.twirl_hashing - (1.0 - bk.binary_entropy(P1))) < 1e-12
    assert not rep.spectrum.flags.writeable
    # twirling is idempotent: a Bell-diagonal state keeps its weights
    bells = bk.bell_states()
    diag = sum(
        w * np.outer(v, v.conj()) for w, v in zip([0.4, 0.3, 0.2, 0.1], bells)
    )
    again = bk.certified_bounds(*squeezed_parameters(bk.DensityOperator(diag, (2, 2))))
    assert max_abs_distance(again.spectrum, np.array([0.4, 0.3, 0.2, 0.1])) < 1e-12


def test_twirl_hashing_is_one_formula(flagship, full_scheme, exact_record):
    # the robustness bound, the certified bounds and their closed-form
    # recurrence agree with the routes they replaced on three members
    members = [flagship, bk.rho_u(bk.fourier(3))[0], generic_member()]
    for rho in members:
        sq = bk.privacy_squeeze(rho, bk.canonical_twisting(*keyrate.corner_blocks(rho)))
        rep = bk.certified_bounds(*squeezed_parameters(sq))
        assert abs(bk.twirl_hashing_bound(rho)(rho) - rep.twirl_hashing) < 1e-14
        _, per_copy = recurrence_step(bk.ccq_from_state(sq))
        assert abs(rep.recurrence_per_copy_rate - per_copy) < 1e-14
    records = [exact_record(flagship, s) for s in full_scheme.settings]
    raw = bk.estimate_parameters(records, full_scheme).raw_bound
    sq = bk.privacy_squeeze(flagship, flagship_twisting())
    assert abs(raw - bk.certified_bounds(*squeezed_parameters(sq)).twirl_hashing) < 1e-13


def test_reported_spectrum_is_the_bound_spectrum():
    # the reported twirl spectrum is the one twirl_hashing evaluates, also
    # where a coherence sits past its sector's weight within the slack
    params = []
    for rho in (bk.rho_h(), bk.rho_u(bk.fourier(3))[0], generic_member()):
        sq = bk.privacy_squeeze(rho, bk.canonical_twisting(*keyrate.corner_blocks(rho)))
        params.append(squeezed_parameters(sq))
    params.append(([0.3, 0.2, 0.2, 0.3], 0.3 + 5e-11, 0.0, 0.1, 0.0))
    for diag, re_a, im_a, re_b, im_b in params:
        rep = bk.certified_bounds(diag, re_a, im_a, re_b, im_b)
        assert abs(rep.spectrum.sum() - 1.0) <= 1e-15
        assert rep.spectrum.min() >= 0.0
        one_minus_s = 1.0 - entropy_from_spectrum(rep.spectrum)
        assert abs(one_minus_s - rep.twirl_hashing) <= 1e-14
        corr = float(diag[0] + diag[3])
        assert rep.twirl_hashing == bk.twirl_hashing(corr, re_a, re_b)


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
        exact = twirl_hashing_minimum(*case)
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


def test_certified_bounds_on_exact_parameters():
    rep = bk.certified_bounds([P1 / 2, P2 / 2, P2 / 2, P1 / 2], P1 / 2, 0.0, P2 / 2, 0.0)
    assert abs(rep.twirl_hashing - DW_SQUEEZED) < 1e-10
    assert abs(rep.info_minus_twirl_entropy - (1.0 - 2.0 * bk.binary_entropy(P1))) < 1e-12
    assert rep.info_minus_twirl_entropy < 0.0
    assert abs(rep.recurrence_acceptance - (9.0 - 6.0 * math.sqrt(2.0))) < 1e-12
    assert abs(rep.recurrence_per_copy_rate - RECURRENCE_PER_COPY) < 1e-10
    assert rep.two_way_flag


def test_certified_bounds_refuses_coherence_past_cauchy_schwarz():
    # in any two-qubit state |<00|s|11>| <= sqrt(d00 d11) and |<01|s|10>| <= sqrt(d01 d10)
    diag = [P1 / 2, P2 / 2, P2 / 2, P1 / 2]
    with pytest.raises(bk.CertificationInfeasibleError, match="^correlated-sector"):
        bk.certified_bounds(diag, P1 / 2, 1e-4, 0.0, 0.0)
    with pytest.raises(bk.CertificationInfeasibleError, match="^anticorrelated-sector"):
        bk.certified_bounds(diag, 0.0, 0.0, P2 / 2, 1e-4)


def test_certified_bounds_refuses_a_malformed_diagonal():
    # a diagonal of another length or sum is malformed; a negative entry is
    # no state at all, so no certificate
    for diag, message in (([0.5, 0.5], "diag must have four entries"),
                          ([0.5, 0.25, 0.25, 0.25], "diagonal sums to 1.25")):
        with pytest.raises(ValueError, match=message):
            bk.certified_bounds(diag, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(bk.CertificationInfeasibleError, match="negative diagonal entry -1.000e-03"):
        bk.certified_bounds([0.501, -0.001, 0.25, 0.25], 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_key_parameters_are_refused(bad):
    # every comparison with NaN is false: a NaN weight once skipped the
    # entropy sum and read as the largest key bound, 1.0
    for args in ((bad, 0.0, 0.0), (P1, bad, 0.0), (P1, 0.0, bad)):
        with pytest.raises(ValueError):
            bk.twirl_hashing(*args)
    # an infinite radius is a box of every weight, but a NaN anywhere in
    # the box leaves no minimum
    box = [P1, 0.01, P1 / 2, 0.01, P2 / 2, 0.01]
    for i in range(6):
        with pytest.raises(ValueError):
            twirl_hashing_minimum(*box[:i], float("nan"), *box[i + 1:])
    params = [[P1 / 2, P2 / 2, P2 / 2, P1 / 2], P1 / 2, 0.0, P2 / 2, 0.0]
    with pytest.raises(ValueError):
        bk.certified_bounds([bad] * 4, 0.0, 0.0, 0.0, 0.0)
    for i in range(1, 5):
        with pytest.raises(ValueError):
            bk.certified_bounds(*params[:i], bad, *params[i + 1:])


def test_recurrence_step_closed_form():
    sq = bk.privacy_squeeze(bk.rho_h(), flagship_twisting())
    ccq = bk.ccq_from_state(sq)
    out, per_copy = recurrence_step(ccq)
    # the library's closed form is this ccq-level step
    closed = bk.certified_bounds(*squeezed_parameters(sq)).recurrence_per_copy_rate
    assert abs(closed - per_copy) < 1e-14
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
    bell = bk.DensityOperator(np.outer(bells[0], bells[0].conj()), (2, 2))
    flat = bk.DensityOperator(np.eye(4) / 4.0, (2, 2))
    assert abs(bk.rel_entropy(bell, flat) - 2.0) < 1e-10
    assert abs(bk.rel_entropy(flat, flat)) < 1e-12
    rng = np.random.default_rng(21)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    rho = bk.DensityOperator(m / np.trace(m).real, (2, 2))
    assert bk.rel_entropy(rho, flat) >= -1e-12
    # mass outside the support of sigma makes D infinite
    assert bk.rel_entropy(flat, bell) == math.inf
    with pytest.raises(ValueError, match="share subsystem dimensions"):
        bk.rel_entropy(bell, bk.DensityOperator(np.eye(4) / 4.0, (4,)))


def test_separable_witness_refuses_malformed_certificates():
    rows, weights = np.eye(4)[:2], np.array([0.5, 0.5])
    bk.SeparableWitness(0.0, weights, rows, rows)
    for va, vb in ((rows[:1], rows), (rows, np.eye(3)[:2]), (rows, rows.ravel())):
        with pytest.raises(ValueError, match="witness arrays must be"):
            bk.SeparableWitness(0.0, weights, va, vb)
    for noise, w in ((-0.1, [0.6, 0.5]), (0.2, [1.0, -0.2])):
        with pytest.raises(ValueError, match="must be nonnegative"):
            bk.SeparableWitness(noise, np.array(w), rows, rows)
    with pytest.raises(ValueError, match="witness weights sum to"):
        bk.SeparableWitness(0.1, weights, rows, rows)


def test_a_witness_of_noise_alone_is_the_maximally_mixed_state():
    witness = bk.SeparableWitness(1.0, [], np.zeros((0, 4)), np.zeros((0, 4)))
    assert witness.sigma().mat.tobytes() == (np.eye(16) / 16).astype(complex).tobytes()


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


def seed_blocks(frame, shape, wit):
    """sigma's blocks in the frame for a witness's seeds, twirled."""
    q = (frame.conj().T @ _product_vectors(wit.vectors_a, wit.vectors_b).T).reshape(*shape, -1)
    return _sigma_blocks(q, np.concatenate([[wit.noise_weight], wit.weights]))


def orbit_witness(wit, ga, gb):
    """The witness whose products are the seeds' orbits under the group."""
    ea = np.einsum("gij,kj->kgi", ga, wit.vectors_a).reshape(-1, 4)
    eb = np.einsum("gij,kj->kgi", gb, wit.vectors_b).reshape(-1, 4)
    return bk.SeparableWitness(wit.noise_weight, wit.weights.repeat(len(ga)) / len(ga), ea, eb)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    rho = bk.rho_h()
    names, ga, gb = _pauli_symmetries(rho)
    frame, shape = _symmetry_frame(tuple(names))
    r_blocks = _frame_blocks(to_frame(rho.mat), frame, shape)
    s_rho = bk.von_neumann_entropy(rho)
    for _ in range(3):
        wit = random_witness(rng, 24, noise_w=0.3)  # full rank: eigenvalues >= 0.3/16
        s_blocks = seed_blocks(frame, shape, wit)
        value, eig = _block_cross_entropy(r_blocks, s_blocks)
        assert abs(value - s_rho - bk.rel_entropy(rho, orbit_witness(wit, ga, gb).sigma())) <= 1e-12
        grad = _block_gradient(eig, shape[2])
        assert max_abs_distance(grad, grad.conj().transpose(0, 2, 1)) <= 1e-15
        for _ in range(4):
            h = rng.standard_normal(s_blocks.shape) + 1j * rng.standard_normal(s_blocks.shape)
            h = h + h.conj().transpose(0, 2, 1)
            h /= np.linalg.norm(h)
            eps = 1e-5
            central = (
                _block_cross_entropy(r_blocks, s_blocks + eps * h)[0]
                - _block_cross_entropy(r_blocks, s_blocks - eps * h)[0]
            ) / (2.0 * eps)
            # sigma moves by h_i (x) I_m in block i
            assert abs(central - shape[2] * np.real(np.sum(grad * h.transpose(0, 2, 1)))) <= 1e-7


def quadratic_search(seed, floor=1e-8):
    """`_lbfgs` from z = 0 on floor + (z - m)^T A (z - m) / 2 in 10 variables,
    A with eigenvalues 1..20, m random.  Returns the end point's z - m, the
    iterations, the value calls it reports, and its calls in order: 'v' for a
    value, 'g' for a gradient (asked at accepted points only)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    a = (q * np.linspace(1.0, 20.0, 10)) @ q.T
    minimiser = rng.standard_normal(10)
    log = []

    def value(z):
        log.append("v")
        r = z - minimiser
        return floor + 0.5 * float(r @ a @ r), r

    def gradient(r):
        log.append("g")
        return a @ r

    _, _, r, iterations, calls = _lbfgs(value, gradient, np.zeros(10), 500)
    return r, iterations, calls, "".join(log)


# value calls after the last accepted point, seeds 0-7: one trial whose Armijo
# target has rounded to f and whose value does not fall below f, which ends
# the search; the old rule halved ~47 times
LBFGS_CALLS_AFTER_LAST_ACCEPTED = [1, 1, 1, 1, 1, 1, 1, 1]


def test_lbfgs_ends_at_the_minimum_of_a_convex_quadratic():
    tails = []
    for seed in range(8):
        r, iterations, calls, log = quadratic_search(seed)
        assert iterations < 500
        assert np.max(np.abs(r)) <= 1e-10
        assert calls == log.count("v")
        tails.append(len(log) - 1 - log.rindex("g"))
    assert tails == LBFGS_CALLS_AFTER_LAST_ACCEPTED


def test_lbfgs_refuses_a_trial_that_only_matches_f():
    # f = 1e-8 + |M z - y|^2 / 2: at the minimum the Armijo target rounds to
    # f, and a trial whose value equals f is no progress; accepting it kept
    # seeds 0-4 and 7 stepping in place until the 500-iteration cap
    for seed in range(10):
        rng = np.random.default_rng(seed)
        mat = np.eye(10) + 0.3 * rng.standard_normal((10, 10))
        y = rng.standard_normal(10)

        def value(z):
            r = mat @ z - y
            return 1e-8 + 0.5 * float(r @ r), r

        _, _, r, iterations, _ = _lbfgs(value, lambda r: mat.T @ r, np.zeros(10), 500)
        assert iterations < 500
        assert np.linalg.norm(r) <= 1e-10


def test_lbfgs_stops_at_once_at_a_stationary_start():
    # a zero gradient gives no descent direction, not even after the
    # curvature is forgotten: the start is returned after its one value call
    start = np.zeros(3)
    f, z, state, iterations, calls = _lbfgs(lambda z: (1.0 + float(z @ z), z),
                                            lambda z: 2.0 * z, start, 500)
    assert (f, iterations, calls) == (1.0, 1, 1)
    assert z is start and state is start


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
    assert result.blocks == (4, 2, 2)
    assert len(w.weights) == 16 * 4


def test_er_search_stops_at_its_first_converged_start(seed5_search):
    # of the three restarts allowed, the first start converges and ends the
    # search: its value, iteration and evaluation counts are the frozen
    # one-restart ones
    assert seed5_search.restarts_completed == 1
    assert seed5_search.iterations == ER_SINGLE_RESTART_ITERATIONS
    assert seed5_search.evaluations == ER_SINGLE_RESTART_EVALUATIONS
    assert seed5_search.value == ER_SINGLE_RESTART
    assert seed5_search.continuations == 0


def test_er_search_continues_a_stalled_start():
    # seed 8's first L-BFGS run stalls at 0.1984857307 with a gap of about
    # 0.087; the oracle's product carries the same start on to the optimum
    result = bk.er_upper_bound(bk.rho_h(), restarts=1, seed=8)
    assert (result.starts, result.continuations) == (1, 1)
    assert result.gap < 1e-6
    assert result.value <= 0.115966
    assert abs(bk.rel_entropy(bk.rho_h(), result.witness.sigma()) - result.value) <= 1e-9


def test_er_gap_is_the_witness_gap_not_the_stopping_run():
    # seed 13 on the generic member: the last of three runs of its one start
    # met ER_GAP_TOL, but an earlier run had a slightly lower value, so that
    # run is the witness and the reported gap, its own, is above the tolerance
    rho = generic_member()
    result = bk.er_upper_bound(rho, restarts=1, seed=13)
    assert (result.starts, result.continuations) == (1, 2)
    assert result.continuations < keyrate.ER_CONTINUATIONS  # a run converged
    assert result.gap > keyrate.ER_GAP_TOL
    assert abs(result.gap - 1.8e-6) < 1e-7
    assert abs(bk.rel_entropy(rho, result.witness.sigma()) - result.value) <= 1e-9


def test_er_search_ignores_the_clock(monkeypatch):
    # with no start allowed to converge, every start runs out its
    # continuations and every restart its starts, and the restart count
    # alone decides how many run: a clock that jumps an hour at every
    # reading changes nothing
    clock = itertools.count(0.0, 3600.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    monkeypatch.setattr(keyrate, "ER_GAP_TOL", -1.0)
    monkeypatch.setattr(keyrate, "ER_STARTS", 2)
    one = bk.er_upper_bound(bk.rho_h(), restarts=1, seed=5)
    assert (one.restarts_completed, one.starts) == (1, 2)
    two = bk.er_upper_bound(bk.rho_h(), restarts=2, seed=5)
    assert (two.restarts_completed, two.starts) == (2, 4)
    for result in (one, two):
        assert result.continuations == result.starts * keyrate.ER_CONTINUATIONS
    assert two.value <= one.value
    assert abs(bk.rel_entropy(bk.rho_h(), two.witness.sigma()) - two.value) <= 1e-9


def test_er_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bk.er_upper_bound(bk.rho_h(), restarts=0, seed=1)


@pytest.mark.parametrize("restarts, seed", [(4, 2.5), (4, True), (True, 0), (1.5, 0)])
def test_er_refuses_a_restart_count_or_seed_that_is_not_a_whole_number(restarts, seed):
    # the same whole-number check the sampler applies to its seed: nothing
    # is truncated to a neighbouring seed, and a bool is no count
    name = "seed" if (restarts, type(restarts)) == (4, int) else "restarts"
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        bk.er_upper_bound(bk.rho_h(), restarts=restarts, seed=seed)


def test_er_takes_whole_floats_and_numpy_integers(seed5_search):
    result = bk.er_upper_bound(bk.rho_h(), restarts=3.0, seed=np.int64(5))
    assert result.value == seed5_search.value
    assert result.iterations == seed5_search.iterations


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_flagship_symmetry_group(noise):
    rho = bk.depolarize(bk.rho_h(), noise) if noise else bk.rho_h()
    names, ga, gb = _pauli_symmetries(rho)
    assert names == FLAGSHIP_SYMMETRIES
    assert ga.shape == gb.shape == (16, 4, 4)


def test_generic_member_symmetry_group():
    assert _pauli_symmetries(generic_member())[0] == ["IIII", "IIZZ", "ZZII", "ZZZZ"]


@pytest.mark.parametrize("coefficient, kept", [(1e-9, 8), (1e-11, 16)])
def test_symmetry_support_is_read_against_the_tolerance(coefficient, kept):
    # (1 - t) rho_H + t (I + XIII)/16 puts t/16 on XIII: above SYMMETRY_ATOL
    # it drops the strings with Y or Z on A, below it nothing is dropped
    t = 16.0 * coefficient
    x_on_a = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(8))
    rho = bk.DensityOperator((1.0 - t) * bk.rho_h().mat + t * (np.eye(16) + x_on_a) / 16.0,
                             (2, 2, 2, 2))
    names, ga, gb = _pauli_symmetries(rho)
    assert len(names) == len(ga) == len(gb) == kept
    # the same strings as conjugating rho by each of the 256
    frame = to_frame(rho.mat)
    strings = {"".join(letters): reduce(np.kron, PAULI[[
        "IXYZ".index(c) for c in letters[0] + letters[2] + letters[1] + letters[3]]])
        for letters in itertools.product("IXYZ", repeat=4)}
    assert names == [name for name, g in strings.items()
                     if max_abs_distance(g @ frame @ g, frame) <= keyrate.SYMMETRY_ATOL]
    if kept == 8:
        assert names == [n for n in FLAGSHIP_SYMMETRIES if n[0] in "IX"]
        basis, shape = _symmetry_frame(tuple(names))
        assert shape == (2, 4, 2)
        assert max_abs_distance(basis.conj().T @ basis, np.eye(16)) <= 1e-14
    else:
        assert names == FLAGSHIP_SYMMETRIES


@pytest.mark.parametrize("which", ["flagship", "generic"])
def test_gradient_at_twirled_sigma_commutes_with_the_group(which):
    # the search takes each orbit's gradient from its seed alone, which
    # holds because G commutes with every symmetry at a twirled sigma; the
    # blocks, assembled in the frame, are the orbits' sigma and gradient
    rho = bk.rho_h() if which == "flagship" else generic_member()
    names, ga, gb = _pauli_symmetries(rho)
    frame, shape = _symmetry_frame(tuple(names))
    rng = np.random.default_rng(32)
    wit = random_witness(rng, 3, noise_w=0.2)
    orbits = orbit_witness(wit, ga, gb)
    sigma = _witness_sigma_frame(
        orbits.noise_weight, orbits.weights, _product_vectors(orbits.vectors_a, orbits.vectors_b))
    s_blocks = seed_blocks(frame, shape, wit)
    assert max_abs_distance(_frame_operator(s_blocks, frame, shape[2]), sigma) <= 1e-14
    eig = _block_cross_entropy(_frame_blocks(to_frame(rho.mat), frame, shape), s_blocks)[1]
    grad = _frame_operator(_block_gradient(eig, shape[2]), frame, shape[2])
    for g_a, g_b in zip(ga, gb):
        g = np.kron(g_a, g_b)
        assert max_abs_distance(g @ sigma @ g.conj().T, sigma) <= 1e-14
        assert max_abs_distance(g @ grad @ g.conj().T, grad) <= 1e-12


def frame_state(which):
    if which == "flagship":
        return bk.rho_h()
    if which == "depolarised":
        return bk.depolarize(bk.rho_h(), 0.05)
    if which == "generic":
        return generic_member()
    rng = np.random.default_rng(34)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m = g @ g.conj().T
    return bk.DensityOperator(m / np.trace(m).real, (2, 2, 2, 2))


@pytest.mark.parametrize("which, order, shape", [
    ("flagship", 16, (4, 2, 2)), ("depolarised", 16, (4, 2, 2)),
    ("generic", 4, (4, 4, 1)), ("random", 1, (1, 16, 1)),
])
def test_symmetry_frame_blocks_the_twirl(which, order, shape):
    # in the frame, every G-invariant operator is (+)_i S_i (x) I_m, so the
    # search's value needs only the blocks S_i
    rho = frame_state(which)
    names, ga, gb = _pauli_symmetries(rho)
    group = np.einsum("nij,nkl->nikjl", ga, gb).reshape(-1, 16, 16)
    assert len(group) == order
    # a group up to phases: each product is a phase times one member
    products = (group[:, None] @ group[None, :]).reshape(-1, 16, 16)
    overlaps = np.abs(np.einsum("gij,pij->pg", group.conj(), products)) / 16.0
    assert np.all(np.sum(overlaps > 1.0 - 1e-12, axis=1) == 1)
    assert np.all(np.sum(overlaps > 1e-12, axis=1) == 1)

    frame, got = _symmetry_frame(tuple(names))
    assert got == shape
    assert max_abs_distance(frame.conj().T @ frame, np.eye(16)) <= 1e-14
    m = shape[2]
    rng = np.random.default_rng(35)
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    twirl = np.mean(group @ x @ group.conj().transpose(0, 2, 1), axis=0)
    assert max_abs_distance(_frame_operator(_frame_blocks(x, frame, shape) / m, frame, m),
                            twirl) <= 1e-12

    # the blocks' value is the relative entropy to sigma built from the orbits
    wit = random_witness(rng, 4, noise_w=0.2)
    value, _ = _block_cross_entropy(_frame_blocks(to_frame(rho.mat), frame, shape),
                                    seed_blocks(frame, shape, wit))
    expect = bk.rel_entropy(rho, orbit_witness(wit, ga, gb).sigma())
    assert abs(value - bk.von_neumann_entropy(rho) - expect) <= 1e-12


def test_product_minimum_on_known_operators():
    # the gap's oracle: least p+ G p over unit products p = a (x) b, with
    # a on AA' (first factor of the frame) and b on BB'
    rng = np.random.default_rng(33)

    def hermitian():
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        return m + m.conj().T

    def product_minimum(grad):
        # the returned a and b are unit vectors whose product attains the minimum
        low, a, b = _product_minimum(grad, rng)
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-12 and abs(np.linalg.norm(b) - 1.0) <= 1e-12
        p = np.kron(a, b)
        assert abs(np.real(p.conj() @ grad @ p) - low) <= 1e-12
        return low

    for _ in range(5):
        a, b = hermitian(), hermitian()
        local = np.kron(a, np.eye(4)) + np.kron(np.eye(4), b)
        expect = np.linalg.eigvalsh(a)[0] + np.linalg.eigvalsh(b)[0]
        assert abs(product_minimum(local) - expect) <= 1e-10
    # a maximally entangled 4 x 4 vector overlaps any product by at most 1/4
    phi = np.eye(4).reshape(16) / 2.0
    assert abs(product_minimum(-np.outer(phi, phi)) + 0.25) <= 1e-10


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
import dataclasses
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

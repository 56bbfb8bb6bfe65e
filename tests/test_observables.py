"""Verification observables, Pauli bookkeeping, measurement-scheme search."""

import math
import os
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest

import boundkey as bk
from boundkey import keyrate, observables
from boundkey.linalg import PAULI, max_abs_distance
from boundkey.observables import (
    SECTOR_RESIDUAL_TOL,
    _flattening_bound,
    _gram_eigen,
    _sector_tables,
    _SectorSpans,
)

P1 = 2.0 - math.sqrt(2.0)
P2 = math.sqrt(2.0) - 1.0
QUARTER_ROOT_HALF = 1.0 / (4.0 * math.sqrt(2.0))

# frozen search results for the flagship observables
FULL_COVER = [
    "zzxx", "xxzz", "uvzz", "yyzz", "xyzz", "xxxx", "uuxx", "yyxx",
    "xxyy", "uuyy", "yyyy", "xyxx", "xyyy",
]
COHERENCE_COVER = FULL_COVER[1:]
# frozen search results for key-pair Pauli strings: the cover of the
# first k targets has k settings, the flattening bound
KEY_PAIR_TARGETS = ["ZZII", "XXII", "YYII"]
KEY_PAIR_COVERS = {2: ["xxxx", "zzxx"], 3: ["xxxx", "yyxx", "zzxx"]}
# the search's cover of the certificate's targets (O1, R1, R2)
CERTIFICATE_COVER = ["zzxx", "xxzz", "yyzz", "xxxx", "xxyy", "yyxx", "yyyy"]
# the cover sizes of seeded generic members for the target groups (all
# five, the four coherences, the certificate's O1, R1, R2): ceilings that a
# change of the search may lower but not raise
GENERIC_COVER_SIZES = {0: [19, 18, 18], 2: [19, 18, 19]}


def estimable_functionals(setting):
    """Pauli vectors of the 16 product functionals one setting estimates:
    the Pauli-space reference the per-sector search is checked against.

    Measuring each qubit along its direction yields four +-1 outcomes;
    averaging the product of any subset T of them estimates the operator
    that is (n . sigma) on the qubits in T and identity elsewhere.  Row
    ``mask`` of the result (bit q set <=> qubit q in T, qubit order
    A, B, A', B') is that operator's flat 256-coefficient vector.
    """
    per_qubit = []
    for q in range(4):
        v = np.zeros((2, 4))
        v[0, 0] = 1.0
        v[1, 1:] = setting.directions[q]
        per_qubit.append(v)
    out = np.zeros((16, 256))
    for mask in range(16):
        bits = [(mask >> q) & 1 for q in range(4)]
        vec = np.einsum(
            "a,b,c,d->abcd",
            per_qubit[0][bits[0]],
            per_qubit[1][bits[1]],
            per_qubit[2][bits[2]],
            per_qubit[3][bits[3]],
        )
        out[mask] = vec.reshape(-1)
    return out


def flagship_observables():
    return bk.build_observables(bk.canonical_twisting(*keyrate.corner_blocks(bk.rho_h())))


def test_build_observables_refuses_a_twisting_that_breaks_the_key_parity():
    # a block inside the unitarity slack but off it by more than the parity
    # check allows: U^00+ U^00 = (1 + 3e-10)^2 I moves Z x Z x I by 6e-10
    eye = np.eye(4)
    tau = bk.TwistingUnitary((1.0 + 3e-10) * eye, eye, eye, eye)
    with pytest.raises(ValueError, match="twisting fails to commute with the key parity"):
        bk.build_observables(tau)


def test_observables_are_hermitian():
    obs = flagship_observables()
    for op in (obs.o1, obs.r1, obs.i1, obs.r2, obs.i2):
        assert op.shape == (16, 16)
        assert max_abs_distance(op, op.conj().T) < 1e-12


def test_flagship_expectation_values():
    obs = flagship_observables()
    rho = bk.rho_h()
    assert abs(bk.expectation(obs.o1, rho) - (3.0 - 2.0 * math.sqrt(2.0))) < 1e-10
    assert abs(bk.expectation(obs.r1, rho) - P1) < 1e-10
    assert abs(bk.expectation(obs.i1, rho)) < 1e-10
    with pytest.raises(ValueError, match="expectation value has imaginary part 1.000e"):
        bk.expectation(1j * np.eye(16), rho)
    assert abs(bk.expectation(obs.r2, rho) - P2) < 1e-10
    assert abs(bk.expectation(obs.i2, rho)) < 1e-10


def test_expectations_chain_to_squeezed_entries(random_unitary):
    # measuring the dressed observables on the full state reads off the
    # squeezed two-qubit state without ever constructing it
    rng = np.random.default_rng(40)
    for _ in range(20):
        rho, p1, p2 = bk.rho_u(random_unitary(2, rng))
        tau = bk.canonical_twisting(*keyrate.corner_blocks(rho))
        obs = bk.build_observables(tau)
        m = bk.privacy_squeeze(rho, tau).mat
        assert abs(bk.expectation(obs.o1, rho) - (p1 - p2)) < 1e-10
        assert abs(bk.expectation(obs.r1, rho) - 2.0 * m[0, 3].real) < 1e-10
        assert abs(bk.expectation(obs.i1, rho) - 2.0 * m[0, 3].imag) < 1e-10
        assert abs(bk.expectation(obs.r2, rho) - 2.0 * m[1, 2].real) < 1e-10
        assert abs(bk.expectation(obs.i2, rho) - 2.0 * m[1, 2].imag) < 1e-10


def test_chain_survives_twisting_phases():
    # rotating the twisting blocks moves weight between the real and the
    # imaginary coherence readouts; the chain identity must track it exactly
    rho = bk.rho_h()
    tau = bk.canonical_twisting(*keyrate.corner_blocks(rho))
    rng = np.random.default_rng(41)
    for _ in range(5):
        th1, th2 = rng.uniform(-np.pi, np.pi, size=2)
        dressed = bk.TwistingUnitary(
            tau.u00 * np.exp(1j * th1), tau.u01 * np.exp(1j * th2), tau.u10, tau.u11
        )
        obs = bk.build_observables(dressed)
        m = bk.privacy_squeeze(rho, dressed).mat
        assert abs(bk.expectation(obs.r1, rho) - 2.0 * m[0, 3].real) < 1e-12
        assert abs(bk.expectation(obs.i1, rho) - 2.0 * m[0, 3].imag) < 1e-12
        assert abs(bk.expectation(obs.r2, rho) - 2.0 * m[1, 2].real) < 1e-12
        assert abs(bk.expectation(obs.i2, rho) - 2.0 * m[1, 2].imag) < 1e-12
        # the key-agreement readout ignores the shield twisting entirely
        assert abs(bk.expectation(obs.o1, rho) - (P1 - P2)) < 1e-12


def test_pauli_decompose_roundtrip():
    rng = np.random.default_rng(42)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    herm = (g + g.conj().T) / 2.0
    coeffs = bk.pauli_decompose(herm)
    assert coeffs.shape == (4, 4, 4, 4)
    assert np.max(np.abs(coeffs.imag)) < 1e-12
    paulis = [
        np.eye(2),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    rebuilt = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    term = np.kron(np.kron(np.kron(paulis[i], paulis[j]), paulis[k]), paulis[l])
                    rebuilt += coeffs[i, j, k, l] * term
    assert max_abs_distance(rebuilt, herm) < 1e-10
    with pytest.raises(ValueError, match="expected a 16 x 16 operator, got shape"):
        bk.pauli_decompose(np.eye(4))


def test_pauli_decompose_matches_one_einsum_bit_for_bit():
    # one qubit at a time gives the same bits as the one-shot contraction it
    # replaced, on the states the symmetry search reads and on the targets
    rng = np.random.default_rng(36)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    rho = bk.rho_h()
    ops = [rho.mat, bk.depolarize(rho, 0.05).mat, g, g + g.conj().T,
           *flagship_observables().named().values()]
    for op in ops:
        reference = np.einsum("aij,bkl,cmn,dpq,jlnqikmp->abcd", PAULI, PAULI, PAULI, PAULI,
                              op.reshape((2,) * 8), optimize=True) / 16.0
        assert np.array_equal(bk.pauli_decompose(op), reference)


def test_expansion_differences_against_reference():
    # the verbatim reference expansions disagree with the constructed
    # operators in exactly four Pauli words, each by a sign flip of 1/(4*sqrt2)
    obs = flagship_observables()
    diffs = bk.expansion_differences(obs)
    assert set(diffs) == {"O1", "R1", "I1", "R2", "I2"}
    assert diffs["O1"] == [] and diffs["R1"] == [] and diffs["I1"] == []
    r2 = {letters: (built, ref) for letters, built, ref in diffs["R2"]}
    i2 = {letters: (built, ref) for letters, built, ref in diffs["I2"]}
    assert set(r2) == {"XXYY", "YYYY"}
    assert set(i2) == {"XYYY", "YXYY"}
    for built, ref in r2.values():
        assert abs(built + QUARTER_ROOT_HALF) < 1e-12
        assert abs(ref - QUARTER_ROOT_HALF) < 1e-12
    assert abs(i2["XYYY"][0] + QUARTER_ROOT_HALF) < 1e-12
    assert abs(i2["XYYY"][1] - QUARTER_ROOT_HALF) < 1e-12
    assert abs(i2["YXYY"][0] - QUARTER_ROOT_HALF) < 1e-12
    assert abs(i2["YXYY"][1] + QUARTER_ROOT_HALF) < 1e-12


def test_setting_names_roundtrip_and_validation():
    s = bk.CollectiveSetting("uvzz")
    assert s.letters == "uvzz"
    assert bk.CollectiveSetting("uvzz") == s
    assert len({s, bk.CollectiveSetting("uvzz"), bk.CollectiveSetting("zzxx")}) == 2
    assert np.asarray(s.directions).shape == (4, 3)
    assert np.allclose(np.linalg.norm(s.directions, axis=1), 1.0)
    assert np.allclose(s.directions[0], np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))
    # "xyz" lacks a direction: a setting needs one per qubit
    for bad in ("abcd", "xyz", "zzxa", "ZZXX", "zzxxx", "", list("zzxx")):
        with pytest.raises(ValueError):
            bk.CollectiveSetting(bad)


def test_default_candidates_cover_the_five_letter_alphabet():
    cands = bk.default_candidates()
    assert len(cands) == 5 ** 4
    assert len({c.letters for c in cands}) == len(cands)


def test_functional_matrix_shape_and_constant_row():
    F = estimable_functionals(bk.CollectiveSetting("zzxx"))
    assert F.shape == (16, 256)
    # the empty-mask row is the identity functional
    eye_vec = np.zeros(256)
    eye_vec[0] = 1.0
    assert np.abs(F[0] - eye_vec).max() < 1e-12


def test_single_setting_covers_key_correlation():
    obs = flagship_observables()
    cover = bk.min_settings_cover([obs.o1])
    assert cover.feasible
    assert [s.letters for s in cover.settings] == ["zzxx"]
    assert cover.lower_bound == 1
    assert cover.max_residual < 1e-12


def assert_irredundant(targets, settings):
    # the search returns its greedy cover as found: each frozen cover must
    # lose its feasibility when any one of its settings is left out
    settings = tuple(settings)
    assert bk.cover_from_settings(targets, settings).feasible
    for i in range(len(settings)):
        assert not bk.cover_from_settings(targets, settings[:i] + settings[i + 1 :]).feasible


def pauli_string(letters):
    return reduce(np.kron, [PAULI["IXYZ".index(c)] for c in letters])


@pytest.mark.parametrize("k", sorted(KEY_PAIR_COVERS))
def test_search_finds_multi_setting_cover_at_the_bound(k):
    # each key-pair correlation needs its own pair of directions on A and B:
    # the targets span k dimensions of sector (A, B), so no cover is smaller
    # than k, and the greedy cover has k settings
    cover = bk.min_settings_cover([pauli_string(t) for t in KEY_PAIR_TARGETS[:k]])
    assert cover.feasible
    assert [s.letters for s in cover.settings] == KEY_PAIR_COVERS[k]
    assert cover.lower_bound == k
    assert cover.max_residual < 1e-12


def rank_one_target():
    # one operator whose two strings every candidate setting reaches alike
    return pauli_string("ZZII") + pauli_string("XXII")


def test_rank_one_target_cover():
    # one target spans one dimension of sector (A, B), but its A|B
    # flattening z z^T + x x^T has rank two: no single setting's n_A n_B^T
    # reaches it, and the greedy cover of two settings is optimal
    cover = bk.min_settings_cover([rank_one_target()])
    assert cover.feasible
    assert [s.letters for s in cover.settings] == ["xxxx", "zzxx"]
    assert cover.lower_bound == 2
    assert cover.max_residual < 1e-12


def test_sector_residual_matches_minimum_norm_reconstruction():
    # the per-sector span test against a minimum-norm reconstruction in the
    # 256 Pauli coordinates, on random subsets of 1-6 candidates (u/v
    # settings included), known covers padded with extra settings, and
    # rank-deficient subsets whose settings share directions; no feasible
    # subset has fewer settings than the flattening bound.  Squared
    # residuals are compared: a Gram-based residual resolves the squared
    # norm to rounding, so its square root near zero is only good to ~1e-8.
    # The reconstruction runs on the Pauli coordinates some functional
    # touches; on the others the residual is the targets' own entries.
    obs = flagship_observables()
    cands = bk.default_candidates()
    names = [c.letters for c in cands]
    dirs = np.array([c.directions for c in cands])
    # (targets, the settings a padded subset starts from): a cover, except
    # for the five flagship targets, whose smallest known cover has 13
    target_sets = []
    for targets, start in [
        ([obs.o1, obs.r1, obs.i1, obs.r2, obs.i2], ["zzxx", "xxzz", "uvzz"]),
        ([obs.o1], ["zzxx"]),
        ([pauli_string(t) for t in KEY_PAIR_TARGETS], KEY_PAIR_COVERS[3]),
        ([rank_one_target()], ["xxxx", "zzxx"]),
    ]:
        tvecs = np.array([bk.pauli_decompose(t).real.reshape(-1) for t in targets])
        target_sets.append(
            (targets, start, tvecs, _sector_tables(tvecs, dirs)[0], _flattening_bound(tvecs))
        )
    rng = np.random.default_rng(7)
    verdicts, uv, shared, functionals = [], 0, 0, {}
    for trial in range(240):
        targets, start, tvecs, tables, bound = target_sets[trial % 4]
        k = int(rng.integers(1, 7))
        mode = trial // 4 % 3
        if mode == 0:
            members = rng.choice(len(cands), size=k, replace=False).tolist()
        elif mode == 1:
            members = [names.index(n) for n in start]
            members += rng.choice(len(cands), size=max(k - len(members), 0)).tolist()
            members = rng.permutation(members).tolist()
        else:
            base = list(names[int(rng.integers(len(cands)))])
            members = []
            for _ in range(k):
                base[int(rng.integers(4))] = "xyzuv"[int(rng.integers(5))]
                members.append(names.index("".join(base)))
            shared += k > 1
        uv += any(set(names[m]) & {"u", "v"} for m in members)
        span = _SectorSpans([(vecs[members], part) for vecs, part in tables])
        for j in range(len(members)):
            span.add(j)
        sq = float(np.sum(span.residuals()))
        for m in members:
            if m not in functionals:
                functionals[m] = estimable_functionals(cands[m])
        funcs = np.vstack([functionals[m] for m in members])
        touched = np.any(funcs != 0.0, axis=0)
        a, t = funcs[:, touched].T, tvecs[:, touched].T
        coef = np.linalg.lstsq(a, t, rcond=None)[0]
        assert abs(sq - np.sum((a @ coef - t) ** 2) - np.sum(tvecs[:, ~touched] ** 2)) < 1e-12
        cover = bk.cover_from_settings(targets, [cands[m] for m in members])
        norm2 = sum(np.sum(part**2) for _, part in tables)
        assert cover.feasible == (sq <= SECTOR_RESIDUAL_TOL * norm2)
        if cover.feasible:
            rebuilt = funcs.T @ np.array(cover.coefficients).T
            assert abs(sq - np.sum((rebuilt - tvecs.T) ** 2)) < 1e-12
            assert len(set(members)) >= bound
        verdicts.append(cover.feasible)
    assert 20 < sum(verdicts) < len(verdicts) - 20
    assert uv > 50 and shared > 50


@pytest.mark.parametrize("member", ["flagship", "generic"])
def test_rank_one_residual_matches_gram_eigen(member, random_unitary):
    # the greedy search's rank-one span updates against the targets'
    # squared residual norm^2 - |projection|^2 read off each subset's sector
    # Gram by _gram_eigen, sector by sector, as the subset grows one
    # candidate at a time: random candidates (repeats included), then the
    # search's own cover, after which nothing is left
    u = bk.hadamard() if member == "flagship" else random_unitary(2, np.random.default_rng(3))
    obs = bk.build_observables(bk.canonical_twisting(*keyrate.corner_blocks(bk.rho_u(u)[0])))
    targets = [obs.o1, obs.r1, obs.i1, obs.r2, obs.i2]
    tvecs = np.array([bk.pauli_decompose(t).real.reshape(-1) for t in targets])
    cands = bk.default_candidates()
    names = [c.letters for c in cands]
    cover = [names.index(s.letters) for s in bk.min_settings_cover(targets).settings]
    tables, _ = _sector_tables(tvecs, np.array([c.directions for c in cands]))
    norm2 = sum(np.sum(part**2) for _, part in tables)
    rng = np.random.default_rng(11)
    for _ in range(6):
        members = rng.choice(len(cands), size=int(rng.integers(1, 12))).tolist() + cover
        span = _SectorSpans([(vecs[members], part) for vecs, part in tables])
        for k in range(len(members)):
            span.add(k)
            for (vecs, part), got in zip(tables, span.residuals()):
                sub = vecs[members[: k + 1]]
                w, v, keep = _gram_eigen(sub @ sub.T)
                y = v[:, keep].T @ (sub @ part.T)
                want = np.sum(part**2) - np.sum(y**2 / w[keep, None])
                assert abs(got - want) <= 1e-10 * norm2
        assert np.sum(span.residuals()) <= SECTOR_RESIDUAL_TOL * norm2
    assert len(tables) >= 4


@pytest.mark.parametrize("seed", sorted(GENERIC_COVER_SIZES))
def test_generic_cover_sizes_do_not_grow(seed, random_unitary):
    rho = bk.rho_u(random_unitary(2, np.random.default_rng(seed)))[0]
    obs = bk.build_observables(bk.canonical_twisting(*keyrate.corner_blocks(rho)))
    groups = ([obs.o1, obs.r1, obs.i1, obs.r2, obs.i2], [obs.r1, obs.i1, obs.r2, obs.i2],
              [obs.o1, obs.r1, obs.r2])
    for targets, ceiling in zip(groups, GENERIC_COVER_SIZES[seed]):
        cover = bk.min_settings_cover(targets)
        assert cover.feasible and cover.max_residual < 1e-9
        assert cover.lower_bound <= cover.size <= ceiling
        assert_irredundant(targets, cover.settings)


def test_search_diagnostics(full_scheme):
    # the flagship targets touch four sectors (mask bits B' A' B A); the
    # bound of ten comes from sector A B A' B' split A' | (A, B, B')
    assert full_scheme.sectors == ("1111", "0111", "1011", "0011")
    assert full_scheme.lower_bound == 10
    assert full_scheme.exhausted_up_to == 9
    rebuilt = bk.cover_from_settings(
        [flagship_observables().o1], [bk.CollectiveSetting("zzxx")]
    )
    assert rebuilt.lower_bound == 0
    assert rebuilt.sectors == ()


def test_coherence_cover_regression():
    obs = flagship_observables()
    cover = bk.min_settings_cover([obs.r1, obs.i1, obs.r2, obs.i2])
    assert cover.feasible
    assert [s.letters for s in cover.settings] == COHERENCE_COVER
    assert cover.lower_bound == 10
    assert cover.max_residual < 1e-9
    assert_irredundant([obs.r1, obs.i1, obs.r2, obs.i2], cover.settings)


def test_full_cover_regression_and_reconstruction(full_scheme):
    assert full_scheme.feasible
    assert [s.letters for s in full_scheme.settings] == FULL_COVER
    assert full_scheme.lower_bound == 10
    assert full_scheme.max_residual < 1e-9
    # the published coefficients must rebuild each target's Pauli vector
    obs = flagship_observables()
    targets = (obs.o1, obs.r1, obs.i1, obs.r2, obs.i2)
    n = len(full_scheme.settings)
    functionals = [estimable_functionals(s) for s in full_scheme.settings]
    for t, op in enumerate(targets):
        want = bk.pauli_decompose(op).reshape(-1)
        rows = np.asarray(full_scheme.coefficients)[t].reshape(n, 16)
        got = sum(rows[i] @ functionals[i] for i in range(n))
        assert np.abs(got - want).max() < 1e-9
    assert_irredundant(targets, full_scheme.settings)


def test_seven_settings_are_optimal_for_the_certificate_targets():
    # the paper's claim, over any unit directions: (O1, R1, R2) need seven
    # settings.  The flattening bound is six; six settings would make their
    # six vectors n_A x n_A' span exactly the column space of the
    # (A A')|(B B') flattening, span{x, y} x R^3, so every n_A would be
    # orthogonal to z.  But sector (A, B) needs z x z in the span of the
    # n_A x n_B, and every such vector is then orthogonal to it.
    obs = flagship_observables()
    tvecs = np.array([bk.pauli_decompose(t).real.reshape(-1) for t in (obs.o1, obs.r1, obs.r2)])
    assert _flattening_bound(tvecs) == 6
    coeffs = tvecs.reshape(3, 4, 4, 4, 4)
    # rows (A, A'), columns (target, B, B')
    flat = np.transpose(coeffs[:, 1:, 1:, 1:, 1:], (1, 3, 0, 2, 4)).reshape(9, -1)
    w, v, keep = _gram_eigen(flat @ flat.T)
    assert keep.sum() == 6
    # directions orthogonal to z on the first of two qubits
    xy = np.kron(np.diag([1.0, 1.0, 0.0]), np.eye(3))
    assert np.abs(v[:, keep] @ v[:, keep].T - xy).max() < 1e-12
    # sector (A, B): vectors n_A x n_B with n_A orthogonal to z lie in the
    # range of xy, and O1 = ZZII leaves its whole part z x z outside it
    sector_ab = coeffs[:, 1:, 1:, 0, 0].reshape(3, 9)
    assert np.array_equal(sector_ab[0], np.kron([0.0, 0.0, 1.0], [0.0, 0.0, 1.0]))
    assert np.linalg.norm(sector_ab[0] - xy @ sector_ab[0]) == 1.0
    cover = bk.min_settings_cover([obs.o1, obs.r1, obs.r2])
    assert cover.feasible
    assert [s.letters for s in cover.settings] == CERTIFICATE_COVER
    assert cover.size == 7 and cover.lower_bound == 6
    assert_irredundant([obs.o1, obs.r1, obs.r2], cover.settings)


# Run once per BLAS thread count: rebuilds the flagship scheme from the
# setting names given as arguments and prints its coefficient digest and
# the seed-7 million-shot certified floor.
THREAD_PROBE = """
import hashlib, sys
import numpy as np
import boundkey as bk
from boundkey import keyrate
obs = bk.build_observables(bk.canonical_twisting(*keyrate.corner_blocks(bk.rho_h())))
settings = [bk.CollectiveSetting(n) for n in sys.argv[1:]]
scheme = bk.cover_from_settings([obs.o1, obs.r1, obs.i1, obs.r2, obs.i2], settings)
report = bk.estimate_parameters(bk.sample_scheme(bk.rho_h(), settings, 10**6, seed=7), scheme)
digest = hashlib.sha256(np.array(scheme.coefficients).tobytes()).hexdigest()
print(digest, repr(report.certified_bound))
"""


def test_reconstruction_does_not_depend_on_blas_threads():
    path = os.pathsep.join([os.path.dirname(os.path.dirname(bk.__file__))]
                           + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", THREAD_PROBE, *FULL_COVER],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
            stdout=subprocess.PIPE, text=True,
        )
        for threads in ("1", "2")
    ]
    outputs = [child.communicate(timeout=60)[0].split() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


def test_infeasible_cover_is_reported(monkeypatch):
    obs = flagship_observables()
    for candidates in ([bk.CollectiveSetting("zzzz")], []):
        monkeypatch.setattr(observables, "default_candidates", lambda: candidates)
        cover = bk.min_settings_cover([obs.r1])
        assert not cover.feasible
        assert len(cover.settings) == 0
    # the greedy stops short of a cover: no candidate lowers the residual
    few = [bk.CollectiveSetting(n) for n in ("xxxx", "xxzz", "yyzz")]
    monkeypatch.setattr(observables, "default_candidates", lambda: few)
    cover = bk.min_settings_cover([obs.r1])
    assert not cover.feasible and cover.settings == ()
    assert cover.lower_bound == 4
    # a records file may name no settings at all: nothing is rebuilt
    empty = bk.cover_from_settings([obs.r1], [])
    assert not empty.feasible and empty.coefficients == ()
    assert empty.max_residual == np.abs(bk.pauli_decompose(obs.r1).real).max()


def test_non_hermitian_targets_are_refused():
    # a setting's functionals are real: |0000><1100| would be covered in its
    # Hermitian part only, so it is refused, and named by its index
    op = np.zeros((16, 16))
    op[0, 12] = 1.0
    obs = flagship_observables()
    with pytest.raises(ValueError, match="target 1 is not Hermitian"):
        bk.min_settings_cover([obs.o1, op])
    with pytest.raises(ValueError, match="target 0 is not Hermitian"):
        bk.cover_from_settings([op], [bk.CollectiveSetting(n) for n in FULL_COVER])


def test_gram_eigen_retries_after_lapack_failure(monkeypatch):
    # LAPACK may refuse to converge on a well-formed symmetric matrix; the
    # jittered retry must give the rank and span a clean call gives
    def functionals(*names):
        return np.vstack([estimable_functionals(bk.CollectiveSetting(n)) for n in names])

    real = np.linalg.eigh
    # two rank-deficient Gram matrices at different scales
    for rows in (functionals("zzxx", "xxzz", "uvzz"), 1e-3 * functionals("xxxx", "xxyy", "zzzz")):
        w0, v0, keep0 = _gram_eigen(rows @ rows.T)
        calls = []

        def flaky(m):
            calls.append(m.shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(m)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", flaky)
            w, v, keep = _gram_eigen(rows @ rows.T)
        assert calls == [(48, 48), (48, 48)]
        assert keep.sum() == keep0.sum() < 48
        basis = rows.T @ (v[:, keep] / np.sqrt(w[keep]))
        basis0 = rows.T @ (v0[:, keep0] / np.sqrt(w0[keep0]))
        assert np.abs(basis.T @ basis - np.eye(keep.sum())).max() < 1e-10
        assert np.abs(basis @ basis.T - basis0 @ basis0.T).max() < 1e-10

"""Multipartite operator helpers: reshuffling, traces, spectra."""

import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

import boundkey as bk
from boundkey import keyrate, states
from boundkey.linalg import PSD_SLACK, eig_hermitian, entropy_from_spectrum, max_abs_distance


def random_density(dims, rng):
    n = int(np.prod(dims))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return bk.DensityOperator(m / np.trace(m).real, dims)


def test_density_operator_validates_input():
    with pytest.raises(ValueError, match="trace deviates from 1"):
        bk.DensityOperator(np.eye(4), (2, 2))  # trace 4
    with pytest.raises(ValueError, match="negative eigenvalue"):
        bk.DensityOperator(np.diag([0.75, 0.75, -0.25, -0.25]), (2, 2))
    bad = np.eye(4) / 4.0
    bad[0, 1] = 0.3
    with pytest.raises(ValueError, match="not Hermitian"):
        bk.DensityOperator(bad, (2, 2))
    with pytest.raises(ValueError):
        bk.DensityOperator(np.eye(4) / 4.0, (2, 3))  # dims mismatch
    with pytest.raises(ValueError, match="finite"):
        bk.DensityOperator(np.array([[np.nan]]), (1,))  # NaN fails no comparison
    for mat in (np.ones((4, 2)), np.ones(4)):
        with pytest.raises(ValueError, match="operator matrix must be square"):
            bk.MultipartiteOperator(mat, (2, 2))
    with pytest.raises(ValueError, match="one label per subsystem required"):
        bk.DensityOperator(np.eye(4) / 4.0, (2, 2), ("A",))


def test_every_raw_matrix_entry_point_validates(validations, tmp_path):
    rho = bk.rho_h()
    bk.save_state(rho, tmp_path / "state.json")
    tau = bk.canonical_twisting(*keyrate.corner_blocks(rho))
    witness = bk.SeparableWitness(0.5, [0.5], np.eye(4)[:1], np.eye(4)[:1])
    entries = {
        "DensityOperator": lambda: bk.DensityOperator(rho.mat, rho.dims),
        "load_state": lambda: bk.load_state(tmp_path / "state.json"),
        "rho_u": lambda: bk.rho_u(bk.fourier(3)),
        "assemble_standard_form": lambda: states.assemble_standard_form(
            np.eye(4) / 4.0, np.eye(4) / 4.0, 0.5),
        "privacy_squeeze": lambda: keyrate.privacy_squeeze(rho, tau),
        "witness.sigma": witness.sigma,
    }
    for name, build in entries.items():
        validations.clear()
        build()
        assert validations, name


def test_only_depolarize_builds_a_state_without_validation():
    # the unchecked constructor is defined in linalg and called once, by
    # states.depolarize, whose mixtures with white noise stay states
    package = Path(bk.__file__).parent
    uses = {f.name: f.read_text().count("_derived_state") for f in package.glob("*.py")}
    assert {name: n for name, n in uses.items() if n} == {"linalg.py": 1, "states.py": 2}
    assert inspect.getsource(states.depolarize).count("_derived_state(") == 1


def test_subsystem_helpers_refuse_malformed_arguments():
    rho = random_density((2, 3, 4), np.random.default_rng(12))
    with pytest.raises(ValueError, match="partial_trace index 3 out of range for 3 subsystems"):
        bk.partial_trace(rho, [3])
    with pytest.raises(ValueError, match="partial_transpose index -1 out of range for 3 subsystems"):
        bk.partial_transpose(rho, [-1])
    for order in ([0, 0, 1], [0, 1], [1, 2, 3]):
        with pytest.raises(ValueError, match="order must be a permutation of 0..2"):
            bk.permute_subsystems(rho, order)
    # an index is an integer: a float is refused, not truncated, and a bool
    # is not an index, like a float or bool subsystem dimension
    for op, indices in ((bk.partial_trace, [2.7, 1]), (bk.partial_trace, [1.0]),
                        (bk.partial_transpose, [True]), (bk.partial_transpose, [np.True_]),
                        (bk.permute_subsystems, [0.0, 2, 1]), (bk.permute_subsystems, [0, False, 2])):
        with pytest.raises(ValueError, match=f"{op.__name__} indices must be integers"):
            op(rho, indices)
    assert bk.partial_trace(rho, [np.int64(2)]).dims == (2, 3)
    skew = np.array([[0.5, 1e-9], [0.0, 0.5]])
    with pytest.raises(ValueError, match="operator is not Hermitian"):
        eig_hermitian(skew)
    with pytest.raises(ValueError, match="spectrum has negative weight -1.000e-03"):
        entropy_from_spectrum(np.array([1.001, -0.001]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(np.inf, np.inf)],
                         ids=["nan", "inf", "complex-inf"])
def test_non_finite_entries_are_refused_without_a_warning(entry):
    # finiteness is tested first: inf - inf in the Hermiticity test would warn
    mat = np.eye(4, dtype=complex) / 4.0
    mat[0, 1] = mat[1, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            bk.DensityOperator(mat, (2, 2))


def test_dims_must_be_integers_not_truncated():
    mat = np.eye(16) / 16.0
    for dims in ((2.9, 2, 2, 2.2), (True, 4, 4), (2, 2, 2, 2.0), (np.True_, 4, 4)):
        with pytest.raises(ValueError, match="must be integers"):
            bk.DensityOperator(mat, dims)
        with pytest.raises(ValueError, match="must be integers"):
            bk.MultipartiteOperator(mat, dims)
    # numpy integers are integers
    assert bk.DensityOperator(mat, tuple(np.array([2, 2, 4]))).dims == (2, 2, 4)
    assert type(bk.DensityOperator(mat, (np.uint8(4), 4)).dims[0]) is int


def test_boolean_matrices_are_refused_not_cast():
    # a cast would read True as 1 and build the state [[1]]; the state file
    # parser refuses booleans too
    for mat, dims in ((np.array([[True]]), (1,)), ([[True, False], [False, True]], (2,)),
                      (np.eye(4, dtype=bool), (2, 2))):
        with pytest.raises(ValueError, match="operator matrix must hold numbers, not booleans"):
            bk.DensityOperator(mat, dims)
        with pytest.raises(ValueError, match="operator matrix must hold numbers, not booleans"):
            bk.MultipartiteOperator(mat, dims)


def test_psd_slack_is_the_refusal_boundary(random_unitary):
    # a smallest eigenvalue just inside -PSD_SLACK is accepted, one just past it refused
    rng = np.random.default_rng(11)
    for dims in ((2, 2), (2, 2, 2, 2), (2, 2, 3, 3)):
        n = int(np.prod(dims))
        v = random_unitary(n, rng)
        for factor, accepted in ((0.9, True), (1.1, False)):
            lam_min = -factor * PSD_SLACK
            w = np.concatenate([[lam_min], rng.uniform(0.5, 1.5, n - 1)])
            w[1:] *= (1.0 - lam_min) / w[1:].sum()
            mat = (v * w) @ v.conj().T
            assert abs(np.linalg.eigvalsh(mat)[0] - lam_min) < 1e-3 * PSD_SLACK
            if accepted:
                assert bk.DensityOperator(mat, dims).dims == dims
            else:
                with pytest.raises(ValueError, match="state has negative eigenvalue -1.100e-10"):
                    bk.DensityOperator(mat, dims)


def test_default_labels_on_four_qubits():
    rho = bk.DensityOperator(np.eye(16) / 16.0, (2, 2, 2, 2))
    assert rho.labels == ("A", "B", "A'", "B'")


def test_default_labels_past_four_subsystems_are_numbered():
    op = bk.MultipartiteOperator(np.eye(32), (2,) * 5)
    assert op.labels == ("s0", "s1", "s2", "s3", "s4")


def test_tensor_then_partial_trace_recovers_factors():
    rng = np.random.default_rng(0)
    a = random_density((2,), rng)
    b = random_density((3,), rng)
    joint = bk.MultipartiteOperator(np.kron(a.mat, b.mat), a.dims + b.dims)
    assert joint.dims == (2, 3)
    back_a = bk.partial_trace(joint, [1])
    back_b = bk.partial_trace(joint, [0])
    assert max_abs_distance(back_a.mat, a.mat) < 1e-14
    assert max_abs_distance(back_b.mat, b.mat) < 1e-14


def test_partial_trace_is_trace_preserving_and_composes():
    rng = np.random.default_rng(1)
    rho = random_density((2, 3, 2), rng)
    ab = bk.partial_trace(rho, [2])
    a = bk.partial_trace(ab, [1])
    a_direct = bk.partial_trace(rho, [1, 2])
    assert abs(np.trace(ab.mat) - 1.0) < 1e-12
    assert max_abs_distance(a.mat, a_direct.mat) < 1e-14
    assert a.dims == (2,)


def test_partial_trace_over_nothing_keeps_the_operator():
    rho = random_density((2, 3), np.random.default_rng(2))
    kept = bk.partial_trace(rho, [])
    assert (kept.mat.tobytes(), kept.dims, kept.labels) == (rho.mat.tobytes(), rho.dims,
                                                            rho.labels)


def test_partial_transpose_is_an_involution_and_preserves_trace():
    rng = np.random.default_rng(2)
    rho = random_density((2, 2, 2), rng)
    for subset in ([0], [1], [0, 2]):
        pt = bk.partial_transpose(rho, subset)
        assert abs(np.trace(pt.mat) - 1.0) < 1e-12
        again = bk.partial_transpose(pt, subset)
        assert max_abs_distance(again.mat, rho.mat) < 1e-14


def test_partial_transpose_on_all_subsystems_is_full_transpose():
    rng = np.random.default_rng(3)
    rho = random_density((2, 3), rng)
    pt = bk.partial_transpose(rho, [0, 1])
    assert max_abs_distance(pt.mat, rho.mat.T) < 1e-14


def test_transposed_product_state_stays_positive():
    # product states are PPT: min eigenvalue of the partial transpose is >= 0
    rng = np.random.default_rng(4)
    a = random_density((2,), rng)
    b = random_density((2,), rng)
    joint = bk.MultipartiteOperator(np.kron(a.mat, b.mat), a.dims + b.dims)
    pt = bk.partial_transpose(joint, [1])
    assert np.linalg.eigvalsh(pt.mat)[0] > -1e-12


def test_permute_subsystems_roundtrip_and_label_tracking():
    rng = np.random.default_rng(5)
    rho = random_density((2, 3, 4), rng)
    perm = bk.permute_subsystems(rho, [2, 0, 1])
    assert perm.dims == (4, 2, 3)
    inverse = bk.permute_subsystems(perm, [1, 2, 0])
    assert max_abs_distance(inverse.mat, rho.mat) < 1e-14


def test_permutation_of_tensor_factors_swaps_them():
    rng = np.random.default_rng(6)
    a = random_density((2,), rng)
    b = random_density((3,), rng)
    ab = bk.MultipartiteOperator(np.kron(a.mat, b.mat), a.dims + b.dims)
    ba = bk.permute_subsystems(ab, [1, 0])
    expect = np.kron(b.mat, a.mat)
    assert max_abs_distance(ba.mat, expect) < 1e-14


def test_entropy_matches_known_spectra():
    assert abs(bk.von_neumann_entropy(bk.DensityOperator(np.eye(4) / 4.0, (2, 2))) - 2.0) < 1e-12
    pure = np.zeros((4, 4))
    pure[0, 0] = 1.0
    assert abs(bk.von_neumann_entropy(bk.DensityOperator(pure, (2, 2)))) < 1e-12
    # spectrum helper agrees with the operator route and ignores exact zeros
    assert abs(entropy_from_spectrum(np.array([0.5, 0.5, 0.0])) - 1.0) < 1e-12
    # a spectrum with no positive weight, clamped negatives included, has none
    assert entropy_from_spectrum(np.array([0.0, -1e-15, 0.0])) == 0.0


@pytest.mark.parametrize("spectrum", [[np.nan, 1.0], [np.inf, 0.5], [0.5, -np.inf]],
                         ids=["nan", "inf", "minus-inf"])
def test_entropy_refuses_non_finite_spectra(spectrum):
    # NaN slips past the sign test and the positive filter, and inf gives -inf
    with pytest.raises(ValueError, match="entropy: spectrum must be finite"):
        entropy_from_spectrum(np.array(spectrum))


def test_eig_hermitian_orders_ascending_and_reconstructs():
    rng = np.random.default_rng(7)
    rho = random_density((2, 2), rng)
    w, v = eig_hermitian(rho.mat)
    assert np.all(np.diff(w) >= -1e-14)
    rebuilt = (v * w) @ v.conj().T
    assert max_abs_distance(rebuilt, rho.mat) < 1e-12


def test_trace_norm_of_hermitian_is_sum_of_abs_eigenvalues():
    m = np.diag([0.5, -0.25, 0.75, 0.0])
    assert abs(bk.trace_norm(m) - 1.5) < 1e-12
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s = np.linalg.svd(g, compute_uv=False)
    assert abs(bk.trace_norm(g) - s.sum()) < 1e-10


def test_binary_entropy_endpoints_and_symmetry():
    assert bk.binary_entropy(0.0) == 0.0
    assert bk.binary_entropy(1.0) == 0.0
    assert abs(bk.binary_entropy(0.5) - 1.0) < 1e-15
    for p in (0.1, 0.3, 0.42):
        assert abs(bk.binary_entropy(p) - bk.binary_entropy(1.0 - p)) < 1e-15
    for p in (-0.01, 1.01):
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            bk.binary_entropy(p)

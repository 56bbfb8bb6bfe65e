"""Verification observables and the local-measurement settings search.

The verification scheme measures a handful of expectation values on the
four-qubit state: a parity observable revealing the diagonal of the
privacy-squeezed two-qubit state, and two pairs of observables revealing
the real and imaginary parts of its off-diagonal coherences.  All of them
are conjugations of Bell-projector differences by the twisting unitary,

    O1     = Ut+ (Z x Z x I) Ut   (= Z x Z x I, twisting commutes with it)
    R{1,2} = Ut+ [P(psi_{0,2}) - P(psi_{1,3})] x I Ut
    I{1,2} = Ut+ [P(tpsi_{0,2}) - P(tpsi_{1,3})] x I Ut

where tpsi are the Bell vectors with relative phase -+i.  This module
builds them, decomposes operators over the 256 four-qubit Pauli strings,
models which linear functionals a single collective setting (one local
measurement direction per qubit) can estimate, searches for a small set
of settings covering all target observables, and reconstructs the targets
from them, both one Pauli sector at a time: the strings with non-identity
letters on a fixed set of qubits, where each setting contributes a single
vector.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .linalg import (
    PAULI,
    PAULI_LETTERS,
    DensityOperator,
    UnsupportedStateError,
    check_four_qubits,
    frozen_copy,
    pauli_decompose,
)

if TYPE_CHECKING:
    from .keyrate import TwistingUnitary

# Bloch directions available to the settings search, in canonical order,
# read-only like every constant array of the package
DIRECTIONS = {
    "x": frozen_copy([1.0, 0.0, 0.0]),
    "y": frozen_copy([0.0, 1.0, 0.0]),
    "z": frozen_copy([0.0, 0.0, 1.0]),
    "u": frozen_copy(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)),
    "v": frozen_copy(np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)),
}

#: one setting's 16 sign outcomes (sign on A, B, A', B'), index order
#: matching the state's subsystem order: qubit A varies slowest
OUTCOMES: tuple[tuple[int, int, int, int], ...] = tuple(itertools.product((1, -1), repeat=4))

#: values[mask, o]: the product of outcome o's signs on the qubits in
#: ``mask`` (bit q of the mask is qubit q, with A as bit 0), the functional
#: a setting estimates on that mask
FUNCTIONAL_VALUES = frozen_copy(np.prod(
    np.array(OUTCOMES) ** ((np.arange(16)[:, None, None] >> np.arange(4)) & 1), axis=2
), dtype=float)

COVER_RESIDUAL_TOL = 1e-9

#: the verification targets' names, in ``VerificationObservables`` field order
TARGETS = ("O1", "R1", "I1", "R2", "I2")
#: the coherence targets an estimate reads, as its (re_a, im_a, re_b, im_b)
COHERENCES = ("R1", "I1", "R2", "I2")


def expectation(op, rho: DensityOperator) -> float:
    """Tr(op rho) as a real number; trips if the value is not real."""
    val = complex(np.trace(op @ rho.mat))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation value has imaginary part {val.imag:.3e}")
    return float(val.real)


def tilde_bell_states() -> np.ndarray:
    """Bell vectors with relative phase -+i, as rows.

    Row 0: (|00> - i|11>)/sqrt2    row 1: (|00> + i|11>)/sqrt2
    Row 2: (|01> - i|10>)/sqrt2    row 3: (|01> + i|10>)/sqrt2

    The sign choice makes the coherence observables below satisfy
    Tr(I1 rho) = +2 Im <00|sigma|11> for the squeezed state sigma.
    """
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [s, 0.0, 0.0, -1j * s],
            [s, 0.0, 0.0, 1j * s],
            [0.0, s, -1j * s, 0.0],
            [0.0, s, 1j * s, 0.0],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class VerificationObservables:
    """The five observables of the verification scheme, as 16 x 16 arrays,
    each held as a private, C-ordered, read-only complex copy."""

    o1: np.ndarray = field(repr=False)
    r1: np.ndarray = field(repr=False)
    i1: np.ndarray = field(repr=False)
    r2: np.ndarray = field(repr=False)
    i2: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in map(str.lower, TARGETS):
            object.__setattr__(self, name, frozen_copy(getattr(self, name), dtype=complex))

    def named(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name.lower()) for name in TARGETS}


def build_observables(tau: TwistingUnitary) -> VerificationObservables:
    """Conjugate the Bell-difference observables by a twisting unitary.

    The parity observable O1 must come out exactly equal to Z x Z x I:
    the twisting is controlled by the computational basis it is conjugated
    around, so any deviation flags a broken twisting block.  The
    observables are four-qubit operators: a twisting on any shield other
    than a qubit pair raises UnsupportedStateError.
    """
    from .states import bell_states  # local import: states does not depend on us

    if tau.shield_dim != 4:
        raise UnsupportedStateError(
            f"verification observables are defined for a two-qubit shield, "
            f"not a shield of dimension {tau.shield_dim}"
        )
    zz = np.kron(np.kron(PAULI[3], PAULI[3]), np.eye(4, dtype=complex))

    def conj(op_ab: np.ndarray) -> np.ndarray:
        # block (I, K) of U+ (op x I) U is op[I, K] U^I+ U^K
        return np.einsum("ik,ikab->iakb", op_ab, tau.products).reshape(16, 16)

    o1 = conj(np.kron(PAULI[3], PAULI[3]))
    dev = float(np.max(np.abs(o1 - zz)))
    if dev > 1e-10:
        raise ValueError(f"twisting fails to commute with the key parity ({dev:.3e})")

    bells = bell_states().astype(complex)
    tildes = tilde_bell_states()

    def proj_diff(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
        return np.outer(va, va.conj()) - np.outer(vb, vb.conj())

    r1 = conj(proj_diff(bells[0], bells[1]))
    i1 = conj(proj_diff(tildes[0], tildes[1]))
    r2 = conj(proj_diff(bells[2], bells[3]))
    i2 = conj(proj_diff(tildes[2], tildes[3]))
    return VerificationObservables(o1=o1, r1=r1, i1=i1, r2=r2, i2=i2)


def verification_observables(rho: DensityOperator) -> VerificationObservables:
    """The verification targets of a state, under its canonical twisting: the
    one place that builds them.  Refuses non-four-qubit states (UnsupportedStateError)."""
    from .keyrate import canonical_twisting, corner_blocks  # loaded on first use, like states

    obs = build_observables(canonical_twisting(*corner_blocks(rho)))
    check_four_qubits(rho, "the verification scheme")
    return obs


def reference_expansions() -> dict[str, np.ndarray]:
    """Independently tabulated closed-form Pauli expansions for the
    flagship instance's observables, used as a cross-check target: name ->
    (4, 4, 4, 4) coefficient array, indexed as ``pauli_decompose``'s.

    Tabulated terms (coefficient 1/4 on every string):

        R1:  [XX - YY] x [(IZ + ZI) + (XX + YY)]
        I1: -[XY + YX] x [(IZ + ZI) + (XX + YY)]
        R2:  [XX + YY] x [(II - ZZ) + ((IZ + ZI) + (XX + YY)) / sqrt2]
        I2: -[YX - XY] x [(II - ZZ) + ((IZ + ZI) + (XX + YY)) / sqrt2]

    The builder's own R2/I2 differ from this table in two coefficient
    signs each (the ...x YY tail strings); `expansion_differences` reports
    exactly that, itemized.
    """
    letters = {l: i for i, l in enumerate(PAULI_LETTERS)}

    def tensor_terms(heads, tails) -> np.ndarray:
        coeffs = np.zeros((4, 4, 4, 4), dtype=complex)
        for (ha, hb), hc in heads:
            for (ta, tb), tc in tails:
                coeffs[letters[ha], letters[hb], letters[ta], letters[tb]] = hc * tc
        return coeffs

    s = 1.0 / np.sqrt(2.0)
    tail_1 = [(("I", "Z"), 1.0), (("Z", "I"), 1.0), (("X", "X"), 1.0), (("Y", "Y"), 1.0)]
    tail_2 = [(("I", "I"), 1.0), (("Z", "Z"), -1.0)] + [(p, c * s) for p, c in tail_1]
    return {
        "O1": tensor_terms([(("Z", "Z"), 1.0)], [(("I", "I"), 1.0)]),
        "R1": tensor_terms([(("X", "X"), 0.25), (("Y", "Y"), -0.25)], tail_1),
        "I1": tensor_terms([(("X", "Y"), -0.25), (("Y", "X"), -0.25)], tail_1),
        "R2": tensor_terms([(("X", "X"), 0.25), (("Y", "Y"), 0.25)], tail_2),
        "I2": tensor_terms([(("Y", "X"), -0.25), (("X", "Y"), 0.25)], tail_2),
    }


def expansion_differences(obs: VerificationObservables) -> dict[str, list[tuple[str, float, float]]]:
    """Itemized coefficient differences between built observables and the
    ``reference_expansions`` table: name -> [(letters, built, reference), ...].

    Empty lists mean exact agreement (within 1e-10 per coefficient).
    """
    refs = reference_expansions()
    out: dict[str, list[tuple[str, float, float]]] = {}
    for name, op in obs.named().items():
        built = pauli_decompose(op)
        ref = refs[name]
        diffs = []
        for idx in itertools.product(range(4), repeat=4):
            b, r = built[idx], ref[idx]
            if abs(b - r) > 1e-10:
                letters = "".join(PAULI_LETTERS[i] for i in idx)
                diffs.append((letters, float(np.real(b)), float(np.real(r))))
        out[name] = diffs
    return out


@dataclass(frozen=True)
class CollectiveSetting:
    """One measurement direction per qubit, named by four letters from
    ``DIRECTIONS`` in qubit order A, B, A', B' (e.g. "zzxx")."""

    letters: str

    def __post_init__(self):
        letters = self.letters
        if not isinstance(letters, str) or len(letters) != 4 or set(letters) - set(DIRECTIONS):
            raise ValueError(f"need four letters from {sorted(DIRECTIONS)}, got {letters!r}")

    @property
    def directions(self) -> np.ndarray:
        """The four unit Bloch vectors, as a (4, 3) array."""
        return np.array([DIRECTIONS[n] for n in self.letters])


def default_candidates() -> list[CollectiveSetting]:
    """All 625 settings with per-qubit directions from DIRECTIONS."""
    names = list(DIRECTIONS)
    return [CollectiveSetting("".join(c)) for c in itertools.product(names, repeat=4)]


@dataclass(frozen=True)
class SettingsCover:
    """Result of the settings search.

    ``coefficients[t]`` holds, for target t, the weights over the scheme's
    functionals (16 per setting, concatenated in scheme order) whose
    combination reconstructs the target, as the cover's own read-only copy
    of the rows it is given, named ``targets[t]`` if named; ``max_residual``
    is the worst reconstruction error.  ``lower_bound`` is the targets'
    flattening bound (see ``_flattening_bound``): no scheme of fewer
    settings covers them, whatever unit directions it measures, so a
    returned scheme of that size is optimal.
    """

    feasible: bool
    settings: tuple[CollectiveSetting, ...]
    coefficients: tuple[np.ndarray, ...]
    max_residual: float
    targets: tuple[str, ...] = ()
    # search results, left at their defaults by cover_from_settings: the
    # lower bound and the target sectors in test order
    lower_bound: int = 0
    sectors: tuple[str, ...] = ()

    def __post_init__(self):
        # ``_tables`` caches what it builds from these rows, so they are frozen
        object.__setattr__(self, "coefficients",
                           tuple(frozen_copy(row) for row in self.coefficients))

    @property
    def size(self) -> int:
        return len(self.settings)

    @property
    def exhausted_up_to(self) -> int:
        """Every scheme size up to this one is ruled out.  Read only by the
        ``observables.exhausted_up_to`` counter in ``perfbench/tracer.py``."""
        return self.lower_bound - 1

    @cached_property
    def _tables(self) -> _CoverTables:
        """The estimator's scheme-only tables, built from this cover's own
        rows on first read and kept for the object's life.  The rows are
        the cover's own read-only copy, and ``dataclasses.replace`` makes a
        new object that builds its own tables."""
        weights = np.stack(self.coefficients).reshape(len(self.coefficients), self.size, 16)
        values = weights @ FUNCTIONAL_VALUES
        ranges = np.max(np.abs(values), axis=2)
        zz = next((i for i, s in enumerate(self.settings) if s.letters.startswith("zz")), None)
        rows = [self.targets.index(name) for name in COHERENCES if name in self.targets]
        coherences = frozen_copy(rows) if len(rows) == len(COHERENCES) else None
        return _CoverTables(*map(frozen_copy, (weights, values, ranges)), zz, coherences)


class _CoverTables(NamedTuple):
    """Read-only tables of a feasible cover, one row per target: its
    reconstruction ``weights`` as (target, setting, mask), the per-outcome
    ``values`` of each row (``weights @ FUNCTIONAL_VALUES``), their
    largest magnitudes ``ranges`` per (target, setting), the index of
    the first setting that measures both key qubits along z, and the rows
    of the ``COHERENCES``, by name (each None without them)."""

    weights: np.ndarray
    values: np.ndarray
    ranges: np.ndarray
    zz: int | None
    coherences: np.ndarray | None


def _target_vectors(targets) -> tuple[tuple[str, ...], np.ndarray]:
    """The targets' names, and each target's real ``pauli_decompose``
    coefficients as a row of 256.  A mapping names its operators in its own
    order, a plain sequence of exactly five is read as the ``TARGETS``, and
    any other sequence is unnamed.

    A setting's functionals are real, so they reconstruct Hermitian targets
    only: a target with a coefficient whose imaginary part exceeds
    ``COVER_RESIDUAL_TOL`` is refused (ValueError), not cut to its
    Hermitian part.
    """
    ops = list(targets.values() if isinstance(targets, Mapping) else targets)
    names = tuple(targets) if isinstance(targets, Mapping) else TARGETS if len(ops) == 5 else ()
    rows = []
    for i, t in enumerate(ops):
        coeffs = pauli_decompose(t).reshape(-1)
        imag = float(np.max(np.abs(coeffs.imag)))
        if imag > COVER_RESIDUAL_TOL:
            raise ValueError(f"target {i} is not Hermitian: a Pauli coefficient has "
                             f"imaginary part {imag:.3e}")
        rows.append(coeffs.real)
    return names, np.array(rows)


GRAM_RANK_CUT = 1e-14
GRAM_NOISE_FLOOR = 1e-18
# A subset passes the sector test when its squared residual is at most this
# fraction of the targets' squared norm.  The Gram-based residual cancels to
# about 1e-15 of that norm; subsets that miss a target miss it by order one.
SECTOR_RESIDUAL_TOL = 1e-12


def _gram_eigen(gram: np.ndarray):
    """Rank-revealing eigendecomposition of a Gram matrix.

    ``gram`` is ``a.T @ a`` or ``a @ a.T`` for the vectors ``a`` at hand,
    usually the smaller of the two; the search reads ranks, orthonormal
    bases, minimum-norm weights and span residuals off the result.  Returns
    ``(w, v, keep)``: ascending eigenvalues, eigenvectors as columns and
    the mask of eigenvalues above
    ``max(GRAM_RANK_CUT * w_max, GRAM_NOISE_FLOOR)``.

    Squaring costs precision, so ranks are trusted only down to singular
    values around 1e-7 of the largest; the vectors here are exact products
    with values of order one, far from that edge.  The absolute floor
    matters when the largest eigenvalue is itself rounding noise — a
    relative cut alone would promote it to rank one.  LAPACK may report
    nonconvergence on a well-formed symmetric matrix; a tiny diagonal shift
    unsticks it, and the shift is subtracted back out of the eigenvalues so
    the cut is unaffected.
    """
    g = (gram + gram.T) / 2.0
    try:
        w, v = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        jitter = (float(np.max(np.abs(g))) or 1.0) * 1e-13
        w, v = np.linalg.eigh(g + jitter * np.eye(len(g)))
        w = np.maximum(w - jitter, 0.0)
    keep = w > max(GRAM_RANK_CUT * w.max(initial=0.0), GRAM_NOISE_FLOOR)
    return w, v, keep


def _sector(tvecs, dirs, mask):
    """Sector ``mask`` (bit q set <=> a non-identity letter on qubit q):
    the targets' coefficients there, and each setting's vector there, the
    tensor product of its directions on those qubits."""
    qubits = [q for q in range(4) if (mask >> q) & 1]
    index = (slice(None),) + tuple(slice(1, 4) if q in qubits else 0 for q in range(4))
    part = tvecs.reshape(-1, 4, 4, 4, 4)[index].reshape(len(tvecs), -1)
    vecs = np.ones((len(dirs), 1))
    for q in qubits:
        vecs = (vecs[:, :, None] * dirs[:, q, None, :]).reshape(len(dirs), 3 * vecs.shape[1])
    return part, vecs


def cover_from_settings(targets, settings) -> SettingsCover:
    """Minimum-norm reconstruction of ``targets`` from the functionals of
    ``settings``, in the given order: the one reconstruction path, used by
    the search to verify its covers and by ``certify`` to rebuild the
    scheme its records name.  The functionals of different sectors are
    orthogonal (see ``min_settings_cover``), so the problem splits exactly
    by sector, each solved on its k x k Gram; at the search's scheme sizes
    no product is large enough for BLAS to split across threads, so the
    weights are the same at any thread count.  The weight of (setting,
    mask) sits at index 16 * setting + mask of each target's coefficient
    vector.  Feasible when the worst error over the targets' 256 Pauli
    coefficients is at most ``COVER_RESIDUAL_TOL``; otherwise there are
    no coefficients.  A target that is not Hermitian raises ValueError.
    ``targets`` maps names to operators, such as ``named()`` (see
    ``_target_vectors``), and the cover keeps the names in row order.
    """
    return _cover_from_vectors(*_target_vectors(targets), tuple(settings))


def _cover_from_vectors(names, tvecs, settings) -> SettingsCover:
    """``cover_from_settings`` on the targets' rows of ``_target_vectors``:
    only the sectors ``_sector_tables`` lists are solved; every other sector
    keeps zero weights, and its targets' largest |part| is its residual."""
    dirs = np.array([s.directions for s in settings]).reshape(-1, 4, 3)
    coeffs = np.zeros((len(tvecs), len(settings), 16))
    tables, sectors = _sector_tables(tvecs, dirs)
    residual = max([float(np.max(np.abs(_sector(tvecs, dirs[:0], m)[0]), initial=0.0))
                    for m in range(16) if f"{m:04b}" not in sectors], default=0.0)
    for (vecs, part), sector in zip(tables, sectors):
        w, v, keep = _gram_eigen(vecs @ vecs.T)
        sol = (v[:, keep] / w[keep]) @ (v[:, keep].T @ (vecs @ part.T))
        coeffs[:, :, int(sector, 2)] = sol.T
        residual = max(residual, float(np.max(np.abs(sol.T @ vecs - part))))
    feasible = residual <= COVER_RESIDUAL_TOL
    return SettingsCover(
        feasible=feasible,
        settings=settings,
        coefficients=tuple(coeffs.reshape(len(tvecs), -1)) if feasible else (),
        max_residual=residual,
        targets=names,
    )


def _sector_tables(tvecs, dirs):
    """``(vecs, part)`` per sector where the targets exceed
    ``COVER_RESIDUAL_TOL``, largest first: every candidate's vector there
    and the targets' part; with the sectors' mask names (qubit B' first)."""
    tables, sectors = [], []
    for mask in sorted(range(16), key=lambda m: (-bin(m).count("1"), m)):
        part, vecs = _sector(tvecs, dirs, mask)
        if np.sum(part**2) > COVER_RESIDUAL_TOL**2:
            tables.append((vecs, part))
            sectors.append(f"{mask:04b}")
    return tables, sectors


class _SectorSpans:
    """The span of a growing set of candidates' vectors, sector by sector,
    kept by rank-one updates as in orthogonal matching pursuit (Pati,
    Rezaiifar & Krishnaprasad, Asilomar 1993).

    Per sector of ``tables`` (see ``_sector_tables``) it holds an
    orthonormal basis of the added candidates' vectors, every candidate's
    vector with its component in that span removed, ``u``, and the
    targets' residual outside the span, ``r``.  Adding candidate i extends
    the basis by q = u_i / |u_i| and removes q's component from every u and
    from r, so no eigenproblem is solved again.  A vector whose u is at
    most ``GRAM_RANK_CUT`` in squared norm (candidate vectors have unit
    norm) already lies in the span and changes nothing.
    """

    def __init__(self, tables):
        self.basis = [np.empty((0, vecs.shape[1])) for vecs, _ in tables]
        self.u = [vecs for vecs, _ in tables]
        self.r = [part for _, part in tables]

    def residuals(self) -> np.ndarray:
        """The targets' squared residual outside the span, per sector."""
        return np.array([np.sum(r**2) for r in self.r])

    def trial_residuals(self) -> np.ndarray:
        """The targets' squared residual, summed over sectors, with each
        candidate added: |r|^2 - |r u|^2 / |u|^2 per sector."""
        total = 0.0
        for u, r in zip(self.u, self.r):
            n2 = np.sum(u**2, axis=1)
            live = n2 > GRAM_RANK_CUT
            gain = np.sum((u @ r.T) ** 2, axis=1) / np.where(live, n2, 1.0)
            total = total + (np.sum(r**2) - np.where(live, gain, 0.0))
        return total

    def add(self, i: int) -> None:
        for s, (basis, u, r) in enumerate(zip(self.basis, self.u, self.r)):
            if u[i] @ u[i] <= GRAM_RANK_CUT:
                continue
            q = u[i] - (basis @ u[i]) @ basis  # once more against the basis
            q /= np.sqrt(q @ q)
            self.basis[s] = np.vstack([basis, q])
            self.u[s] = u - np.outer(u @ q, q)
            self.r[s] = r - np.outer(r @ q, q)


def _flattening_bound(tvecs) -> int:
    """A lower bound on the number of settings covering the targets.

    In a sector on qubits T, a setting's one vector is the tensor product
    of its directions there, so for any split of T into S and the rest it
    is a rank-one n_S x n_rest.  The targets' sector parts, each reshaped to
    a 3^|S| x 3^(|T|-|S|) matrix and stacked side by side, then have a
    column space inside the span of k settings' n_S: their rank is at most
    k, for any unit directions.  S runs over the nonempty subsets of T
    (S = T bounds k by the dimension the targets span in the sector; the
    complement of S gives the parts stacked on top of each other), and the
    bound is the largest rank over the sectors the targets touch.
    """
    bound = 0
    tables, sectors = _sector_tables(tvecs, np.empty((0, 4, 3)))
    for (_, part), sector in zip(tables, sectors):
        n = sector.count("1")  # the sector's qubits; the empty sector has no split
        part = part.reshape((len(tvecs),) + (3,) * n)
        for split in range(1, 1 << n):
            rows = [1 + i for i in range(n) if (split >> i) & 1]
            cols = [1 + i for i in range(n) if not (split >> i) & 1]
            flat = np.transpose(part, rows + [0] + cols).reshape(3 ** len(rows), -1)
            gram = flat @ flat.T if len(flat) <= flat.shape[1] else flat.T @ flat
            bound = max(bound, int(np.sum(_gram_eigen(gram)[2])))
    return bound


def min_settings_cover(targets) -> SettingsCover:
    """Search for a small set of collective settings whose estimable
    functionals span every target observable.

    Strategy: build a cover greedily over ``default_candidates()``, ties
    going to the earlier one, and return it as found.  No pass drops settings
    afterwards, so a greedy cover is not guaranteed irredundant; the tests
    check that every frozen cover loses its feasibility without any one of
    its settings.  The result carries the targets' flattening bound
    (``_flattening_bound``) as ``lower_bound``: when the cover has that
    many settings, no smaller one exists over any unit directions.

    The greedy phase uses one exact span test, split by Pauli sector.  The
    functional with qubit mask T lives only on the strings whose non-identity
    letters sit exactly on T, so the sectors are orthogonal and a setting
    gives one vector per sector, the tensor product of its directions on T.
    The targets lie in a subset's span if and only if, in every sector they
    touch, their parts lie in the span of the subset's (at most k) vectors.
    Each round adds the candidate that leaves the least of the targets
    uncovered, until the targets are covered or no candidate lowers the
    residual: that is orthogonal matching pursuit per sector, and
    ``_SectorSpans`` updates the span and the targets' residual by rank one
    after each pick.

    Ties depend on the targets' order, so callers pass ``named()`` as it is.
    Returned schemes always pass the full reconstruction check of
    ``cover_from_settings``; when the candidates do not cover, the result
    has ``feasible=False`` (no exception), and a target that is not
    Hermitian raises ValueError.  Only the CLI's ``settings`` and
    ``simulate`` search: ``certify`` runs no search and rebuilds the
    reconstruction from the settings its records name.
    """
    names, tvecs = _target_vectors(targets)
    candidates = default_candidates()
    dirs = np.array([c.directions for c in candidates]).reshape(-1, 4, 3)

    tables, sectors = _sector_tables(tvecs, dirs)
    norm2 = sum(float(np.sum(part**2)) for _, part in tables)
    cut = SECTOR_RESIDUAL_TOL * norm2

    # Residuals are Frobenius norms, and a passing subset leaves exactly
    # zero: settings that complete the cover tie, the earliest candidate
    # first.  A candidate that lowers no residual is never picked.
    span = _SectorSpans(tables)
    picked, current, best = [], math.sqrt(norm2), None
    while len(picked) < len(candidates) and current > 0.0:
        sq = span.trial_residuals()
        pick, pick_resid = None, current
        for j, resid in enumerate(np.sqrt(np.where(sq > cut, sq, 0.0)).tolist()):
            if j not in picked and resid < pick_resid - 1e-12:
                pick, pick_resid = j, resid
        if pick is None:
            break
        span.add(pick)
        picked, current = picked + [pick], pick_resid
    if picked and current == 0.0:
        best = _cover_from_vectors(names, tvecs, tuple(candidates[j] for j in picked))

    return replace(
        best if best and best.feasible else SettingsCover(False, (), (), float("inf")),
        targets=names,
        lower_bound=_flattening_bound(tvecs), sectors=tuple(sectors),
    )


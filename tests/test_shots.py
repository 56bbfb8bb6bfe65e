"""Finite-shot simulation and sound parameter estimation."""

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

import boundkey as bk
from boundkey import cli, keyrate, linalg, observables, shots, states
from boundkey.keyrate import twirl_hashing
from boundkey.linalg import max_abs_distance
from boundkey.observables import DIRECTIONS, FUNCTIONAL_VALUES, OUTCOMES

P1 = 2.0 - math.sqrt(2.0)
P2 = math.sqrt(2.0) - 1.0
TRUE_DIAG = np.array([P1 / 2, P2 / 2, P2 / 2, P1 / 2])

# frozen regression values at one million shots per setting, seed 7
SEED7_RAW = 0.01896194189278877
SEED7_CERTIFIED = 0.0008094655833881248
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
        p = shots._born_distributions(flagship, [setting])[0]
        assert p.shape == (16,)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-12


def test_outcome_distribution_declines_other_dims(flagship):
    # a valid state on (2, 2, 4) is not four qubits: unsupported, not malformed
    other = bk.DensityOperator(flagship.mat, (2, 2, 4))
    with pytest.raises(bk.UnsupportedStateError):
        shots._born_distributions(other, [bk.CollectiveSetting("zzxx")])[0]


def test_key_marginal_of_diagonal_setting(flagship):
    # measuring z on both key qubits reads the key statistics directly,
    # whatever happens on the shield
    p = shots._born_distributions(flagship, [bk.CollectiveSetting("zzxx")])[0]
    marg = p.reshape(2, 2, 4).sum(axis=2)  # qubit order A, B, shield pair
    expect = np.array([[P1 / 2, P2 / 2], [P2 / 2, P1 / 2]])
    assert max_abs_distance(marg, expect) < 1e-12


def oracle_basis(letters):
    """A setting's product basis built from scratch: a per-qubit eigh of
    n . sigma (+1 eigenvector first), then their Kronecker product."""
    columns = []
    for letter in letters:
        nx, ny, nz = (float(x) for x in DIRECTIONS[letter])
        _, v = np.linalg.eigh(np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]]))
        columns.append(v[:, ::-1])
    return reduce(np.kron, columns)


def oracle_distribution(mat, basis):
    """The Born distribution in one basis, setting by setting: one
    contraction, then the library's clip and normalisation."""
    probs = np.clip(np.real(np.einsum("ji,jk,ki->i", basis.conj(), mat, basis)), 0.0, None)
    return probs / probs.sum()


@pytest.fixture
def born_cache():
    """The cache of Born distributions, cleared before the test runs."""
    shots._cached_born.cache_clear()
    return shots._cached_born


def test_batched_born_rows_give_the_one_setting_bytes(flagship, born_cache):
    # every sampled count depends on these bits: the batched pass over a
    # stack of settings may not move the last bit of any distribution from
    # the one a pass over that setting alone gives, whatever else is in the
    # stack; on a cleared cache every row compared here is computed, none
    # recalled.  The rows are read off the Pauli expansion, so the product
    # basis oracle, an independent route to the same numbers, agrees to
    # rounding, not to the bit
    candidates = bk.default_candidates()
    assert len(candidates) == 625
    bases = [oracle_basis(s.letters) for s in candidates]
    for rho in (flagship, bk.depolarize(flagship, 0.003), bk.rho_h_mixture_form()):
        singles = np.concatenate([shots._born_distributions(rho, [s]) for s in candidates])
        for chunk in (13, 625):
            batched = np.concatenate([shots._born_distributions(rho, candidates[a:a + chunk])
                                      for a in range(0, len(candidates), chunk)])
            assert batched.tobytes() == singles.tobytes()
        expected = np.array([oracle_distribution(rho.mat, basis) for basis in bases])
        assert np.abs(singles - expected).max() <= 1e-15
    assert born_cache.cache_info().hits == 0


def test_born_distributions_are_recalled_for_equal_state_bytes(full_scheme, born_cache):
    # two separately built but equal states share one cache entry and draw
    # the same records
    settings = full_scheme.settings
    first, second = bk.depolarize(bk.rho_h(), 0.003), bk.depolarize(bk.rho_h(), 0.003)
    assert first is not second and first.mat.tobytes() == second.mat.tobytes()
    records = bk.sample_scheme(first, settings, 1000, seed=3)
    before = born_cache.cache_info()
    assert (before.hits, before.misses) == (0, 1)
    assert bk.sample_scheme(second, settings, 1000, seed=3) == records
    after = born_cache.cache_info()
    assert (after.hits, after.misses) == (1, 1)
    assert shots._born_distributions(second, settings) is shots._born_distributions(first, settings)


def test_born_distributions_key_on_bytes_and_settings_not_memory_order(flagship, full_scheme,
                                                                        born_cache):
    # a state one ulp away and the same settings in another order are new
    # keys, each computed as a pass over each setting alone computes it
    settings = full_scheme.settings
    shots._born_distributions(flagship, settings)
    mat = flagship.mat.copy()
    mat[0, 0] = np.nextafter(mat[0, 0].real, 1.0)
    nudged = bk.DensityOperator(mat, flagship.dims)
    for rho, order in ((nudged, settings), (flagship, settings[::-1])):
        misses = born_cache.cache_info().misses
        probs = shots._born_distributions(rho, order)
        assert born_cache.cache_info().misses == misses + 1
        expected = np.concatenate([shots._cached_born.__wrapped__(rho.mat.tobytes(), (s.letters,))
                                   for s in order])
        assert probs.tobytes() == expected.tobytes()
    # the same matrix in Fortran memory order is the same state: it holds a
    # C-ordered copy, recalls the C-order entry, and computed afresh it
    # draws the C-order state's records
    fortran = bk.DensityOperator(np.asfortranarray(flagship.mat), flagship.dims)
    assert fortran.mat.flags.c_contiguous
    hits, misses = born_cache.cache_info()[:2]
    assert shots._born_distributions(fortran, settings) is shots._born_distributions(flagship,
                                                                                     settings)
    assert born_cache.cache_info()[:2] == (hits + 2, misses)
    candidates = bk.default_candidates()[:13]
    records = bk.sample_scheme(flagship, candidates, 10**6, seed=7)
    born_cache.cache_clear()
    assert bk.sample_scheme(fortran, candidates, 10**6, seed=7) == records


def test_recalled_distributions_keep_no_memory(flagship, full_scheme, born_cache):
    # a recall builds its key and lets it go; a key tuple grown from a
    # generator would leave up to 2000 freed tuples (about 0.3 MB) on a
    # CPython free list that no later call takes from
    shots._born_distributions(flagship, full_scheme.settings)
    tracemalloc.start()
    try:
        for _ in range(3000):
            shots._born_distributions(flagship, full_scheme.settings)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 10_000
    assert born_cache.cache_info().hits == 3000


def test_cached_born_distributions_are_read_only_and_bounded(flagship, full_scheme, born_cache):
    probs = shots._born_distributions(flagship, full_scheme.settings)
    with pytest.raises(ValueError):
        probs[0, 0] = 0.5
    # a study's handful of states fits; past the bound the oldest go
    bound = born_cache.cache_info().maxsize
    assert bound == shots._BORN_CACHE_SIZE
    for i in range(bound + 5):
        shots._born_distributions(bk.depolarize(flagship, 0.001 * (i + 1)), full_scheme.settings)
    assert born_cache.cache_info().currsize == bound
    # the dims check comes before the lookup: the same bytes on other dims
    # are refused, not recalled
    shots._born_distributions(flagship, full_scheme.settings)
    other = bk.DensityOperator(flagship.mat, (2, 2, 4))
    with pytest.raises(bk.UnsupportedStateError):
        shots._born_distributions(other, full_scheme.settings)


def test_scheme_records_match_a_per_setting_reference(flagship, full_scheme):
    # the batched Born pass and the one multinomial call draw exactly the
    # counts of the per-setting form: one default_rng(seed) stream drawing
    # each setting's own Born row in scheme order.  The rows are those of a
    # pass over that setting alone, which the product basis oracle matches
    # to rounding only (test_batched_born_rows_give_the_one_setting_bytes)
    settings = full_scheme.settings
    assert len(settings) == 13
    for rho in (flagship, bk.depolarize(flagship, 0.003)):
        rows = [shots._born_distributions(rho, [setting])[0] for setting in settings]
        for seed in (0, 11, 2**32 - 1):
            for n in (1, 1000, 10**6):
                rng = np.random.default_rng(seed)
                reference = [bk.ShotRecord(setting, rng.multinomial(n, row).tolist(), n)
                             for setting, row in zip(settings, rows)]
                assert bk.sample_scheme(rho, settings, n, seed) == reference


def test_sampled_records_are_the_records_the_public_constructor_builds(flagship, full_scheme):
    # the sampler checks its whole count array once and then builds each
    # record past ShotRecord's own checks: every record must still be the
    # one the public constructor builds from its numbers, with Python int
    # counts and a float shot count
    rho = bk.depolarize(flagship, 0.003)
    for n in (1, 2, 10**6, 2 * 10**7):
        for seed in (0, 5, 2**32 - 1):
            for record in bk.sample_scheme(rho, full_scheme.settings, n, seed):
                assert bk.ShotRecord(record.setting, record.counts, record.shots) == record
                assert type(record.counts) is tuple and len(record.counts) == 16
                assert all(type(c) is int for c in record.counts)
                assert type(record.shots) is float and record.shots == n


def test_sampled_count_array_is_checked_as_a_whole():
    settings = [bk.CollectiveSetting("zzxx"), bk.CollectiveSetting("xxzz")]
    good = np.array([_sixteen(3, 7), _sixteen(10)])
    assert shots._sampled_records(settings, good, 10) == [
        bk.ShotRecord(s, row, 10) for s, row in zip(settings, good.tolist())]
    big = 2**63 - 1
    for bad in (
        [_sixteen(13, -3), _sixteen(10)],  # a negative count
        [_sixteen(3, 7), _sixteen(3, 6)],  # a row that sums to 9
        [_sixteen(3, 7), _sixteen(big, big, 12)],  # a row whose int64 sum wraps to 10
    ):
        with pytest.raises(ValueError, match="sampled counts must be nonnegative and sum to 10"):
            shots._sampled_records(settings, np.array(bad, dtype=np.int64), 10)


def test_an_empty_scheme_samples_no_records(flagship):
    assert bk.sample_scheme(flagship, [], 1000, seed=0) == []
    assert bk.sample_scheme(flagship, (), 1, seed=5) == []


def test_sampling_a_setting_again_gives_equal_records(flagship):
    # the Born rows a draw reads are read-only and the bases behind them are
    # built afresh on a miss, so a later draw with the same seed sees the
    # same distribution
    setting = bk.CollectiveSetting("uvzz")
    before = bk.sample_scheme(flagship, [setting], 5000, seed=4)
    a = bk.sample_scheme(flagship, [setting], 5000, seed=4)
    b = bk.sample_scheme(flagship, [setting], 5000, seed=4)
    assert a == b == before


def test_a_one_pass_iterable_of_settings_samples_like_the_list(flagship, full_scheme):
    # the settings are read once: an iterator draws the same records as the
    # list it runs over, and an empty one draws none
    settings = full_scheme.settings
    records = bk.sample_scheme(flagship, settings, 1000, seed=6)
    assert len(records) == len(settings)
    assert bk.sample_scheme(flagship, iter(settings), 1000, seed=6) == records
    assert bk.sample_scheme(flagship, (s for s in settings), 1000, seed=6) == records
    assert bk.sample_scheme(flagship, iter([]), 1000, seed=6) == []


def test_shot_counts_past_int64_are_refused(flagship):
    # a record's shots travel as a float, exact up to MAX_SHOTS = 2**53 (and
    # numpy draws the counts as int64): a larger count is malformed input,
    # refused before any draw, not rounded or an OverflowError inside one
    assert shots.MAX_SHOTS == 2**53
    shots.check_sampling(shots.MAX_SHOTS, 0)
    setting = bk.CollectiveSetting("zzxx")
    for n in (shots.MAX_SHOTS + 1, 10**20):
        with pytest.raises(ValueError, match="shots must be at most"):
            shots.check_sampling(n, 0)
        with pytest.raises(ValueError, match="shots must be at most"):
            bk.sample_scheme(flagship, [setting], n, seed=1)
    # nor can a record hold them: float(2**53 + 1) is 2**53
    with pytest.raises(ValueError, match="shots must be at most"):
        bk.ShotRecord(setting, [shots.MAX_SHOTS + 1] + [0] * 15, shots.MAX_SHOTS + 1)
    with pytest.raises(ValueError, match="counts sum to"):
        bk.ShotRecord(setting, [shots.MAX_SHOTS, 1] + [0] * 14, float(shots.MAX_SHOTS))


def test_sampling_is_deterministic_per_seed_and_index(flagship):
    s = bk.CollectiveSetting("xxzz")
    (a,) = bk.sample_scheme(flagship, [s], 5000, seed=11)
    (b,) = bk.sample_scheme(flagship, [s], 5000, seed=11)
    assert a.counts == b.counts
    assert a.shots == 5000
    assert len(a.counts) == 16 and all(type(c) is int for c in a.counts)
    assert sum(a.counts) == 5000
    c = bk.sample_scheme(flagship, [s, s], 5000, seed=11)[1]  # the same setting at index 1
    (d,) = bk.sample_scheme(flagship, [s], 5000, seed=12)
    assert c.counts != a.counts
    assert d.counts != a.counts


#: (shots, seed, the start of the refusal) of sample_scheme and check_sampling
SAMPLING_REFUSALS = {
    "fractional seed": (1000, 1.5, "seed must be a whole number"),
    "bool seed": (1000, True, "seed must be a whole number"),
    "numpy bool seed": (1000, np.bool_(False), "seed must be a whole number"),
    "nan seed": (1000, float("nan"), "seed must be a whole number"),
    "inf seed": (1000, float("inf"), "seed must be a whole number"),
    "text seed": (1000, "1", "seed must be a whole number"),
    "negative seed": (1000, -1, "seed must be nonnegative"),
    "fractional shots": (10.5, 1, "shots must be a whole number"),
    "fractional numpy shots": (np.float64(10.5), 1, "shots must be a whole number"),
    "nan shots": (float("nan"), 1, "shots must be a whole number"),
    "inf shots": (float("inf"), 1, "shots must be a whole number"),
    "bool shots": (True, 1, "shots must be a whole number"),
    "text shots": ("10", 1, "shots must be a whole number"),
    "complex shots": (1 + 0j, 1, "shots must be a whole number"),
    "zero shots": (0, 1, "shots must be at least 1"),
}


@pytest.mark.parametrize("case", list(SAMPLING_REFUSALS))
def test_sampling_arguments_are_refused_before_any_draw(flagship, monkeypatch, case):
    # a bool or a number that is not whole and finite is refused up front,
    # not truncated to another seed's counts or refused by the record
    n, seed, message = SAMPLING_REFUSALS[case]
    def no_draw(*args):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(shots, "_born_distributions", no_draw)
    with pytest.raises(ValueError, match=message):
        shots.check_sampling(n, seed)
    with pytest.raises(ValueError, match=message):
        bk.sample_scheme(flagship, [bk.CollectiveSetting("xxzz")], n, seed)


#: (seed, the start of the refusal): the seed rows of SAMPLING_REFUSALS
SEED_REFUSALS = {case: (seed, message) for case, (_, seed, message) in SAMPLING_REFUSALS.items()
                 if case.endswith(" seed")}


@pytest.mark.parametrize("case", list(SEED_REFUSALS))
def test_every_reader_of_a_seed_refuses_it_with_one_message(flagship, tmp_path, case):
    # the sampler, the E_r search, the records writer and the records
    # loader, reading the seed as its header writes it, share one seed rule
    seed, message = SEED_REFUSALS[case]
    refusals = []
    for refuse in (lambda: shots.check_sampling(1000, seed),
                   lambda: bk.er_upper_bound(flagship, restarts=1, seed=seed),
                   lambda: bk.save_records([], tmp_path / "written.tsv", seed=seed)):
        with pytest.raises(ValueError) as refused:
            refuse()
        refusals.append(str(refused.value))
    assert refusals == [refusals[0]] * 3 and refusals[0].startswith(message)
    assert not (tmp_path / "written.tsv").exists()
    path = tmp_path / "records.tsv"
    path.write_text(f"# boundkey-records 1\n# scheme={bk.scheme_hash([])} shots=0 seed={seed!r}\n")
    with pytest.raises(ValueError) as loaded:
        bk.load_records(path)
    assert str(loaded.value).startswith(f"{path}: header {message}")
    if isinstance(seed, float):  # its text reads back as the number itself
        assert str(loaded.value) == f"{path}: header {refusals[0]}"


def test_a_records_header_is_read_by_the_writers_rules(capsys, tmp_path, flagship):
    # shots= and seed= are checked before any count line: a header with no
    # count lines at all is refused too, by load_records naming the file and
    # by certify (exit 2); only the shots=0 of an empty scheme loads, as []
    path = tmp_path / "records.tsv"
    path.write_text(f"# boundkey-records 1\n# scheme={bk.scheme_hash([])} shots=nan seed=-4\n")
    with pytest.raises(ValueError) as refused:
        bk.load_records(path)
    assert str(refused.value) == f"{path}: header shots must be a whole number, got nan"
    assert cli.run(["certify", "--records", str(path)]) == 2
    error = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (error["kind"], error["message"]) == ("malformed_input", str(refused.value))
    path.write_text(f"# boundkey-records 1\n# scheme={bk.scheme_hash([])} shots=10 seed=-4\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: header seed must be nonnegative, "
                                                   "got -4")):
        bk.load_records(path)
    records = bk.sample_scheme(flagship, [bk.CollectiveSetting("zzxx")], 100, seed=2)
    for seed in (0, 3.0, np.uint32(3), np.float64(5.0), -0.0, 10**30):
        bk.save_records(records, path, seed=seed)  # every seed the writer takes loads
        assert bk.load_records(path)[0] == records
    bk.save_records([], path, seed=1)
    assert bk.load_records(path)[0] == []


def test_numpy_integers_and_whole_floats_sample_like_ints(flagship):
    settings = [bk.CollectiveSetting("xxzz"), bk.CollectiveSetting("zzxx")]
    expected = bk.sample_scheme(flagship, settings, 1000, 3)
    for n, seed in ((np.int64(1000), np.uint32(3)), (1000.0, 3.0), (np.int32(1000), np.float64(3.0))):
        assert bk.sample_scheme(flagship, settings, n, seed) == expected


def test_a_prefix_of_the_settings_draws_a_prefix_of_the_records(flagship, full_scheme):
    # one stream draws the settings in scheme order, so a setting's counts
    # depend on the seed and on the settings up to and including it
    settings = full_scheme.settings
    records = bk.sample_scheme(flagship, settings, 2000, seed=3)
    assert [r.setting.letters for r in records] == [s.letters for s in settings]
    for j in range(len(settings) + 1):
        assert bk.sample_scheme(flagship, settings[:j], 2000, seed=3) == records[:j]


def test_preparation_mixture_reproduces_the_state_distribution(flagship):
    # the four product components, mixed with their preparation weights,
    # generate exactly the statistics of the assembled state
    prep = bk.rho_h_preparation()
    for name in ("zzxx", "uvzz", "xyyy"):
        setting = bk.CollectiveSetting(name)
        direct = shots._born_distributions(flagship, [setting])[0]
        mixed = np.zeros(16)
        for c in prep:
            comp = bk.DensityOperator(np.kron(c.key_part, c.shield_part), (2, 2, 2, 2))
            mixed += c.weight * shots._born_distributions(comp, [setting])[0]
        assert np.abs(mixed - direct).max() < 1e-12


def counts_of(table):
    """The 16 counts in canonical outcome order of an {outcome: count} table."""
    return [table.get(o, 0) for o in OUTCOMES]


def test_record_validation():
    s = bk.CollectiveSetting("zzxx")
    good = counts_of({(1, 1, 1, 1): 3, (-1, -1, -1, -1): 7})
    rec = bk.ShotRecord(s, good, 10)
    assert rec.counts == tuple(good) and rec.shots == 10.0
    with pytest.raises(ValueError):
        bk.ShotRecord(s, good, 11)  # counts do not sum to shots
    with pytest.raises(ValueError):
        bk.ShotRecord(s, counts_of({(1, 1, 1, 1): -3}), -3)  # negative count
    with pytest.raises(ValueError):
        bk.ShotRecord(s, counts_of({(1, 1, 1, 1): 8, (1, -1, 1, 1): -3}), 5)  # negative count
    for wrong_length in ([5], good[:15], good + [0]):
        with pytest.raises(ValueError):
            bk.ShotRecord(s, wrong_length, 5)  # not one count per outcome
    with pytest.raises(ValueError):
        bk.ShotRecord(s, [str(c) for c in good], 10)  # text, not numbers
    with pytest.raises(ValueError):
        bk.ShotRecord(s, {(1, 1, 1, 1): 3, (-1, -1, -1, -1): 7}, 10)  # a table, not 16 counts
    with pytest.raises(ValueError):
        bk.ShotRecord(s, counts_of({(1, 1, 1, 1): 2.5, (-1, -1, -1, -1): 7.5}), 10)  # fractional counts
    with pytest.raises(ValueError):
        bk.ShotRecord(s, counts_of({(1, 1, 1, 1): 2.5}), 2.5)  # fractional shots
    # whole-number counts must sum to shots exactly, however many there are
    with pytest.raises(ValueError, match="counts sum to"):
        bk.ShotRecord(s, [10**10 + 5] + [0] * 15, 10**10)
    bk.ShotRecord(s, [10**10] + [0] * 15, 10**10)
    bk.ShotRecord(s, [shots.MAX_SHOTS] + [0] * 15, float(shots.MAX_SHOTS))
    # a record holds whole numbers whatever its shots: shots = 1 is one shot,
    # not a table of probabilities
    one = bk.ShotRecord(s, counts_of({(-1, 1, 1, -1): 1}), 1)
    assert one.shots == 1.0 and sum(one.counts) == 1
    for fractions in ({(1, 1, 1, 1): 0.25, (-1, -1, -1, -1): 0.75},
                      {(1, 1, 1, 1): 0.25, (-1, -1, -1, -1): 0.75 + 1e-12},
                      {(1, 1, 1, 1): 0.25, (-1, -1, -1, -1): 0.5}):
        with pytest.raises(ValueError, match="whole-number shots and counts"):
            bk.ShotRecord(s, counts_of(fractions), 1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            bk.ShotRecord(s, counts_of({(1, 1, 1, 1): bad, (-1, -1, -1, -1): 5}), 5.0)
        with pytest.raises(ValueError):
            bk.ShotRecord(s, good, bad)  # non-finite shot count


def _sixteen(*head):
    """``head`` padded with zero counts to 16 entries."""
    return list(head) + [0] * (16 - len(head))


NAN, INF = float("nan"), float("inf")

#: the start of the refusal of counts that are not all integers
NOT_INTEGERS = "a record needs whole-number shots and counts: counts must be integers"

#: (counts, shots, None if the record builds, else the start of its refusal);
#: shots follow check_sampling's rule, counts are integers and never bools
RECORD_VERDICTS = {
    "python ints": (_sixteen(3, 7), 10, None),
    "numpy int64": (np.array(_sixteen(3, 7), dtype=np.int64), np.int64(10), None),
    "numpy uint8": (np.array(_sixteen(3, 7), dtype=np.uint8), 10, None),
    "mixed numpy int scalars": ([np.int32(3), np.int64(7)] + [np.int16(0)] * 14, 10, None),
    "bool counts": (_sixteen(True), 1, NOT_INTEGERS),
    "numpy bool counts": (np.array(_sixteen(True), dtype=bool), 1, NOT_INTEGERS),
    "numpy bool scalar count": (_sixteen(np.True_), 1, NOT_INTEGERS),
    "bool shots": (_sixteen(1), True, "shots must be a whole number, got True"),
    "numpy bool shots": (_sixteen(1), np.True_, "shots must be a whole number"),
    "whole float counts": (_sixteen(3.0, 7.0), 10.0, NOT_INTEGERS),
    "numpy float64 counts": (np.array(_sixteen(3, 7), dtype=float), 10, NOT_INTEGERS),
    "one numpy float64 count": (_sixteen(np.float64(3.0), 7), 10, NOT_INTEGERS),
    "whole float shots": (_sixteen(3, 7), 10.0, None),
    "MAX_SHOTS": (_sixteen(2**53), 2**53, None),
    "count of 2**63": (_sixteen(2**63), 10, "counts sum to 9223372036854775808, not 10"),
    "count of 2**64 - 1": (_sixteen(2**64 - 1), 10, "counts sum to 18446744073709551615, not 10"),
    "shots of 2**63": (_sixteen(2**63), 2**63, "shots must be at most"),
    "count of 2**64": (_sixteen(2**64), 10, "counts sum to 18446744073709551616, not 10"),
    "count of 10**30": (_sixteen(10**30), 10, f"counts sum to {10**30}, not 10"),
    "text counts": ([str(c) for c in _sixteen(3, 7)], 10, NOT_INTEGERS),
    "text shots": (_sixteen(3, 7), "10", "shots must be a whole number"),
    "a table": ({(1, 1, 1, 1): 3}, 3, NOT_INTEGERS),
    "15 counts": (_sixteen(3, 7)[:15], 10, "counts must be 16 numbers"),
    "fractional counts": (_sixteen(2.5, 7.5), 10, NOT_INTEGERS),
    "fractional shots": (_sixteen(2.5), 2.5, "shots must be a whole number"),
    "nan count": (_sixteen(NAN, 5), 5, NOT_INTEGERS),
    "inf count": (_sixteen(INF, 5), 5, NOT_INTEGERS),
    "-inf count": (_sixteen(-INF, 5), 5, NOT_INTEGERS),
    "negative int count": (_sixteen(13, -3), 10, "counts must be >= 0"),
    "negative float count": (_sixteen(13.0, -3.0), 10.0, NOT_INTEGERS),
    "nan shots": (_sixteen(3, 7), NAN, "shots must be a whole number"),
    "inf shots": (_sixteen(3, 7), INF, "shots must be a whole number"),
    "negative shots": (_sixteen(-3), -3, "shots must be at least 1"),
    "zero shots": (_sixteen(), 0, "shots must be at least 1"),
    "wrong total": (_sixteen(3, 7), 11, "counts sum to 10, not 11"),
    "wrong total past 2**53 in floats": (_sixteen(2**53, 1), 2**53, "counts sum to"),
}


@pytest.mark.parametrize("case", list(RECORD_VERDICTS))
def test_record_verdicts(case):
    counts, n, refusal = RECORD_VERDICTS[case]
    s = bk.CollectiveSetting("zzxx")
    if refusal is not None:
        with pytest.raises(ValueError, match=re.escape(refusal)):
            bk.ShotRecord(s, counts, n)
        return
    record = bk.ShotRecord(s, counts, n)
    assert type(record.counts) is tuple and record.counts == tuple(counts)
    assert all(type(c) is int for c in record.counts)
    assert type(record.shots) is float and record.shots == n
    assert sum(map(int, record.counts)) == record.shots


#: every shots value the sampling refusals try, and whole values of other types
GATE_SHOTS = [n for n, _, _ in SAMPLING_REFUSALS.values()] + [
    Decimal("10"), Fraction(10), np.float32(10), np.int64(10), 10.0, shots.MAX_SHOTS]


@pytest.mark.parametrize("n", GATE_SHOTS, ids=repr)
def test_record_and_sampler_refuse_the_same_shots(n):
    # a record holds exactly the shot counts a sampler may be asked for;
    # its counts put every shot on one outcome when n is whole
    try:
        counts = _sixteen(int(n))
    except (TypeError, ValueError, OverflowError):
        counts = _sixteen(10)

    def refuses(build):
        try:
            build()
        except ValueError:
            return True
        return False

    assert refuses(lambda: bk.ShotRecord(bk.CollectiveSetting("zzxx"), counts, n)) == refuses(
        lambda: shots.check_sampling(n, 0))


def test_record_refuses_a_setting_that_is_not_a_collective_setting():
    with pytest.raises(ValueError, match="setting must be a CollectiveSetting, got 'zzxx'"):
        bk.ShotRecord("zzxx", _sixteen(3, 7), 10)


def test_record_counts_cannot_change_after_construction(flagship):
    # the counts are validated once, at construction: no later write may
    # move them away from what passed
    s = bk.CollectiveSetting("zzxx")
    table = counts_of({(1, 1, 1, 1): 3, (-1, -1, -1, -1): 7})
    rec = bk.ShotRecord(s, table, 10)
    table[0] = -50  # the caller's list is not the record's counts
    assert rec.counts == tuple(counts_of({(1, 1, 1, 1): 3, (-1, -1, -1, -1): 7}))
    with pytest.raises(TypeError):
        rec.counts[0] = -50
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.counts = (10,) + (0,) * 15
    (sampled,) = bk.sample_scheme(flagship, [s], 100, seed=0)
    assert type(sampled.counts) is tuple and len(sampled.counts) == 16


def test_exact_record_functional_means(flagship, exact_record):
    rec = exact_record(flagship, bk.CollectiveSetting("zzxx"))
    assert rec.shots == 1.0
    means = FUNCTIONAL_VALUES @ (rec.counts / rec.shots)
    assert abs(means[0] - 1.0) < 1e-12  # empty mask
    # mask with bits 0 and 1 set: the key-agreement correlation z_A z_B
    assert abs(means[3] - (P1 - P2)) < 1e-12


def test_estimates_from_exact_records(flagship, full_scheme, exact_record):
    records = [exact_record(flagship, s) for s in full_scheme.settings]
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


@pytest.mark.parametrize("order", [("I2", "R2", "O1", "I1", "R1"), ("O1", "R2", "I2", "R1", "I1"),
                                   ("O1", "I1", "R1", "I2", "R2")], ids="-".join)
def test_estimates_read_the_coherence_rows_by_name(flagship, twisted_observables, full_scheme,
                                                   order):
    # a scheme covering the targets in another order gives the report of the
    # canonical one, field for field: the estimator reads rows by name
    named = twisted_observables.named()
    scheme = bk.cover_from_settings({name: named[name] for name in order}, full_scheme.settings)
    assert scheme.targets == order and full_scheme.targets == tuple(named)
    records = bk.sample_scheme(flagship, full_scheme.settings, 10**6, seed=7)
    rep = bk.estimate_parameters(records, scheme)
    assert report_digest([rep]) == report_digest([bk.estimate_parameters(records, full_scheme)])
    assert abs(rep.certified_bound - SEED7_CERTIFIED) < 1e-12


def report_digest(reports):
    """sha256 over every field of each report, then its two bounds, each as
    its repr: floats print exactly, and a numpy scalar in place of a float
    would change the text."""
    digest = hashlib.sha256()
    for rep in reports:
        values = [getattr(rep, f.name) for f in dataclasses.fields(rep)]
        values += [rep.raw_bound, rep.certified_bound]
        digest.update(repr([v.tolist() if isinstance(v, np.ndarray) else v
                            for v in values]).encode())
    return digest.hexdigest()


# frozen report bytes of the flagship scheme, seeds 0-2 x delta 0.05 and 0.2
# each; one shot per setting takes the estimator's fewer-than-two-shots branch
REPORT_DIGESTS = {
    (0.0, 1): "7874c1182db6cf2ef0da55a2ed192900ed9c8fc9212b8f2199da732b8bf81c72",
    (0.0, 2): "1bb0f7e2f1069cf70db40c366a6cee762e74a99f153b18e7c5d2ea0c3efbe85b",
    (0.0, 100): "a583f158b1a3f6161122274bd249572a9aa6576117a284eaa710beec1bceb08e",
    (0.0, 10**6): "0e068268156cc27cf877ee7d0e191a243d303163d3ff53aeb3a81b44d3c99564",
    (0.003, 1): "35a1f9a6343b3fc17be4e9ac02c13a23e12719650b43882d9b5210d7cbd0d83c",
    (0.003, 2): "ff931ee3cad5782fb6422d07898ca1bdf7ff23775f86a7a0475a9a3fb25d8840",
    (0.003, 100): "9e750c0585d23ccacd89d1a30e7d59b152fd4d277825727294ca23f24dd279fd",
    (0.003, 10**6): "f144715d1a1afc1c198a3485e0bf5d00337fdaf191d5cf4b90905b60560b3beb",
}


@pytest.mark.parametrize("noise, shots_per_setting", list(REPORT_DIGESTS))
def test_estimate_reports_keep_their_bytes(flagship, full_scheme, noise, shots_per_setting):
    rho = bk.depolarize(flagship, noise)
    reports = [
        bk.estimate_parameters(records, full_scheme, delta)
        for records in (bk.sample_scheme(rho, full_scheme.settings, shots_per_setting, seed)
                        for seed in range(3))
        for delta in (0.05, 0.2)
    ]
    assert report_digest(reports) == REPORT_DIGESTS[noise, shots_per_setting]


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
    # (up: two radii down, no point of the rectangle is a valid spectrum)
    moved = dataclasses.replace(rep, corr_weight=rep.corr_weight + 2 * rep.corr_weight_radius)
    widened = dataclasses.replace(moved, corr_weight_radius=4 * rep.corr_weight_radius)
    assert widened.certified_bound == bk.certify(widened) < moved.certified_bound
    assert widened.raw_bound == moved.raw_bound
    # an estimate below its projection cap moves the raw bound with it
    moved = dataclasses.replace(rep, re_a=rep.re_a - 0.01)
    assert moved.raw_bound == twirl_hashing(moved.corr_weight, moved.re_a, moved.re_b)
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


def out_of_order(records, scheme):
    """The refusal of records that do not follow ``scheme`` one to one."""
    return re.escape(f"records must hold one record per scheme setting, in scheme order "
                     f"{[s.letters for s in scheme.settings]}, got "
                     f"{[r.setting.letters for r in records]}: follow the scheme's order")


def test_estimate_rejects_incomplete_records(flagship, full_scheme, exact_record):
    records = [exact_record(flagship, s) for s in full_scheme.settings]
    for missing in (records[:-1], records[1:], records[:5] + records[6:], []):
        with pytest.raises(ValueError, match=out_of_order(missing, full_scheme)):
            bk.estimate_parameters(missing, full_scheme)
    with pytest.raises(ValueError):
        bk.estimate_parameters(records, full_scheme, delta=1.5)


def test_estimate_refuses_two_records_for_one_setting(flagship, full_scheme):
    # records are matched to the scheme by position: a second record for a
    # setting, an extra record or the right records in another order are
    # refused with the one message that names both orders, never
    # estimated from whichever record comes first
    records = bk.sample_scheme(flagship, full_scheme.settings, 1000, seed=0)
    again = bk.sample_scheme(flagship, full_scheme.settings, 1000, seed=1)
    extra, = bk.sample_scheme(flagship, [bk.CollectiveSetting("uvzz")], 1000, seed=0)
    for wrong in (records + again, records + [again[5]], records[:5] + [again[6]] + records[6:],
                  records[:5] + [records[6], records[6]] + records[7:], records + [extra],
                  records[::-1], records[1:] + records[:1],
                  records[:5] + [records[6], records[5]] + records[7:]):
        with pytest.raises(ValueError, match=out_of_order(wrong, full_scheme)):
            bk.estimate_parameters(wrong, full_scheme)


def test_a_one_pass_iterable_of_records_estimates_like_the_list(flagship, full_scheme):
    # the records are read once: an iterator gives the list's report
    records = bk.sample_scheme(flagship, full_scheme.settings, 1000, seed=6)
    expected = report_digest([bk.estimate_parameters(records, full_scheme)])
    assert report_digest([bk.estimate_parameters(iter(records), full_scheme)]) == expected
    assert report_digest([bk.estimate_parameters((r for r in records), full_scheme)]) == expected


def test_scheme_tables_are_built_once_from_the_schemes_own_rows(flagship, full_scheme):
    scheme = dataclasses.replace(full_scheme)
    assert "_tables" not in vars(scheme)  # built lazily, on the first estimate
    records = bk.sample_scheme(flagship, scheme.settings, 10**4, seed=2)
    report = bk.estimate_parameters(records, scheme)
    tables = scheme._tables
    assert report_digest([bk.estimate_parameters(records, scheme)]) == report_digest([report])
    assert scheme._tables is tables
    n = scheme.size
    for t, row in enumerate(scheme.coefficients):
        values = row.reshape(n, 16) @ FUNCTIONAL_VALUES
        assert tables.weights[t].tobytes() == row.tobytes()
        assert tables.values[t].tobytes() == values.tobytes()
        assert tables.ranges[t].tobytes() == np.max(np.abs(values), axis=1).tobytes()
    assert scheme.settings[tables.zz].letters.startswith("zz")
    for table in tables[:3]:
        with pytest.raises(ValueError):
            table.flat[0] = 1.0
    # a scheme made from it with other rows reads its own tables: twice the
    # weights give twice every coherence estimate, the same diagonal
    doubled = dataclasses.replace(scheme, coefficients=tuple(2.0 * c for c in scheme.coefficients))
    twice = bk.estimate_parameters(records, doubled)
    assert doubled._tables is not tables
    for name in ("re_a", "im_a", "re_b", "im_b"):
        assert getattr(twice, name) == 2.0 * getattr(report, name)
    assert twice.diag.tobytes() == report.diag.tobytes()


def test_estimate_rejects_non_finite_counts(flagship, full_scheme):
    # a nan count must never reach a certificate: the record refuses it
    # (nan < 0 is false, so a sign check alone would let it through)
    records = bk.sample_scheme(flagship, full_scheme.settings, 1000, seed=0)
    z = [0.0, 0.0, 1.0]
    diag = next(
        i for i, r in enumerate(records) if np.allclose(r.setting.directions[:2], [z, z])
    )
    counts = list(records[diag].counts)
    counts[next(i for i, c in enumerate(counts) if c)] = float("nan")
    with pytest.raises(ValueError):
        bk.ShotRecord(records[diag].setting, counts, records[diag].shots)
    # a record forged past that check still yields no report: its estimates
    # are not finite
    forged = object.__new__(bk.ShotRecord)
    for name, value in (("setting", records[diag].setting), ("counts", tuple(counts)),
                        ("shots", records[diag].shots)):
        object.__setattr__(forged, name, value)
    records[diag] = forged
    with pytest.raises(ValueError, match="must be finite"):
        bk.estimate_parameters(records, full_scheme)


def test_estimate_refuses_schemes_it_cannot_read(flagship, twisted_observables, full_scheme,
                                                  exact_record):
    named = twisted_observables.named()
    coherences = {name: named[name] for name in ("R1", "I1", "R2", "I2")}
    coherence_cover = full_scheme.settings[1:]  # no setting starts zz
    too_few = bk.cover_from_settings(named, full_scheme.settings[:3])
    assert not too_few.feasible
    # the coherence rows are found by name: a scheme without the names is
    # refused, however many rows it covers
    unnamed = bk.cover_from_settings(list(coherences.values()), full_scheme.settings)
    assert unnamed.feasible and len(unnamed.coefficients) == 4 and unnamed.targets == ()
    two_missing = bk.cover_from_settings({n: named[n] for n in ("O1", "R1", "R2")},
                                         full_scheme.settings)
    assert two_missing.feasible and two_missing.targets == ("O1", "R1", "R2")
    no_key_basis = bk.cover_from_settings(coherences, coherence_cover)
    assert no_key_basis.feasible and len(no_key_basis.coefficients) == 4
    for scheme, message in (
        (too_few, "not a feasible cover"),
        (unnamed, "does not name the coherence targets R1, I1, R2, I2:"),
        (two_missing, "does not name the coherence targets I1, I2:"),
        (no_key_basis, "no setting measuring both key qubits"),
    ):
        with pytest.raises(ValueError, match=message):
            bk.estimate_parameters([exact_record(flagship, s) for s in scheme.settings], scheme)


def test_report_rejects_non_finite_numbers():
    rep = exact_report()
    for name, value in (
        ("re_b", float("nan")),
        ("coherence_radii", np.array([0.0, float("nan"), 0.0, 0.0])),
        ("diag", np.array([float("nan"), 0.25, 0.25, 0.25])),
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(rep, **{name: value})


def test_report_rejects_negative_radii():
    rep = exact_report()
    for name, value in (
        ("diag_radii", np.array([0.0, -1e-3, 0.0, 0.0])),
        ("coherence_radii", np.array([0.0, 0.0, -1e-3, 0.0])),
        ("corr_weight_radius", -1e-3),
    ):
        with pytest.raises(ValueError, match="confidence radii must be nonnegative"):
            dataclasses.replace(rep, **{name: value})


def test_report_refuses_empty_or_complex_radii():
    # the radii are checked as one array, so an empty radius array is
    # refused by name, not left to numpy's error for an empty minimum, and
    # a radius with an imaginary part is not a nonnegative radius
    rep = exact_report()
    for name in ("diag_radii", "coherence_radii"):
        with pytest.raises(ValueError, match="confidence radii must not be empty"):
            dataclasses.replace(rep, **{name: np.zeros(0)})
    for name, value in (("diag_radii", np.array([0.0, 1e-3j, 0.0, 0.0])),
                        ("coherence_radii", np.array([1e-3j, 0.0, 0.0, 0.0])),
                        ("corr_weight_radius", 1e-3j)):
        with pytest.raises(ValueError, match="confidence radii must be nonnegative"):
            dataclasses.replace(rep, **{name: value})


@pytest.mark.parametrize("name, value", [
    ("re_a", 0.3 + 0.1j), ("re_a", complex(P1 / 2)), ("im_b", 0.1j),
    ("corr_weight", complex(P1)), ("diag", TRUE_DIAG.astype(complex)),
])
def test_report_refuses_complex_estimates(name, value):
    # a complex estimate, even one with a zero imaginary part, is refused
    # when the report is built, not when a bound reads it
    with pytest.raises(ValueError, match="must be real numbers, not complex"):
        dataclasses.replace(exact_report(), **{name: value})


def _strided(values):
    """A writeable, non-contiguous view holding ``values``."""
    values = np.asarray(values)
    arr = np.zeros((values.size, 2), dtype=values.dtype)
    arr[:, 0] = values
    return arr[:, 0]


#: per value object that keeps a caller's arrays, a function of the scheme
#: returning writeable caller arrays, in Fortran order or strided, and the
#: constructor that takes them in the order the object's fields list them
CALLER_ARRAYS = {
    "MultipartiteOperator": lambda scheme: (
        [np.asfortranarray(np.arange(16.0).reshape(4, 4))],
        lambda m: bk.MultipartiteOperator(m, (2, 2))),
    "DensityOperator": lambda scheme: (
        [np.asfortranarray(bk.rho_h().mat)], lambda m: bk.DensityOperator(m, (2, 2, 2, 2))),
    "TwistingUnitary": lambda scheme: (
        [np.asfortranarray(p) for p in linalg.PAULI], bk.TwistingUnitary),
    "CcqState": lambda scheme: (
        [np.asfortranarray(np.broadcast_to(np.eye(2) / 8.0, (2, 2, 2, 2)))], bk.CcqState),
    "SeparableWitness": lambda scheme: (
        [_strided([0.25, 0.25])] + [np.asfortranarray(np.eye(4, dtype=complex)[k:k + 2])
                                    for k in (0, 2)],
        lambda w, va, vb: bk.SeparableWitness(0.5, w, va, vb)),
    "SettingsCover": lambda scheme: (
        [_strided(row) for row in scheme.coefficients],
        lambda *rows: dataclasses.replace(scheme, coefficients=rows)),
    "VerificationObservables": lambda scheme: (
        [np.asfortranarray(p) for p in linalg.PAULI] + [_strided(np.arange(4.0))],
        observables.VerificationObservables),
    "PreparedComponent": lambda scheme: (
        [np.asfortranarray(linalg.PAULI[1]), _strided(np.ones(4, dtype=complex))],
        lambda k, s: states.PreparedComponent(0.5, k, s)),
    "EstimateReport": lambda scheme: (
        [_strided(TRUE_DIAG), _strided(np.zeros(4)), _strided(np.zeros(4))],
        lambda d, dr, cr: dataclasses.replace(exact_report(), diag=d, diag_radii=dr,
                                              coherence_radii=cr)),
}


@pytest.mark.parametrize("name", list(CALLER_ARRAYS))
def test_value_objects_hold_private_c_ordered_read_only_copies(name, full_scheme):
    # an object keeps its own copy of each array it is given: the caller's
    # array stays writeable, a later write to it changes nothing the object
    # holds, and every array the object holds is read-only and C-ordered,
    # so its bytes, and whatever is computed from them, are fixed
    given, make = CALLER_ARRAYS[name](full_scheme)
    obj = make(*given)
    held = [a for f in dataclasses.fields(obj) for v in [getattr(obj, f.name)]
            for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    for arr, copy in zip(given, held):
        assert np.array_equal(arr, copy)
    before = [a.tobytes() for a in held]
    for arr in given:
        assert arr.flags.writeable
        arr += 1
    assert [a.tobytes() for a in held] == before
    for arr in held:
        assert not arr.flags.writeable and arr.flags.c_contiguous


#: every module-level constant array, under each name a module holds it by
MODULE_CONSTANTS = {
    "linalg.PAULI": lambda: linalg.PAULI,
    "linalg._PAULI_TRACE": lambda: linalg._PAULI_TRACE,
    "observables.PAULI": lambda: observables.PAULI,
    "keyrate.PAULI": lambda: keyrate.PAULI,
    "observables.FUNCTIONAL_VALUES": lambda: observables.FUNCTIONAL_VALUES,
    "shots.FUNCTIONAL_VALUES": lambda: shots.FUNCTIONAL_VALUES,
    **{f"observables.DIRECTIONS[{letter!r}]": (lambda letter=letter: DIRECTIONS[letter])
       for letter in DIRECTIONS},
}


@pytest.mark.parametrize("name", list(MODULE_CONSTANTS))
def test_module_constant_arrays_are_read_only(name):
    # like a value object's arrays, a constant every later call reads cannot
    # be changed in place by a caller
    arr = MODULE_CONSTANTS[name]()
    before = arr.tobytes()
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[(0,) * arr.ndim] += 1
    assert arr.tobytes() == before


def test_depolarize_returns_a_private_read_only_matrix(flagship):
    # the mixture is built fresh and kept without a second copy: it is
    # read-only, C-ordered and shares no memory with the state it mixes
    before = flagship.mat.tobytes()
    for noise in (0.003, np.float32(0.003), np.longdouble(0.003)):
        noisy = bk.depolarize(flagship, noise)
        assert not noisy.mat.flags.writeable and noisy.mat.flags.c_contiguous
        assert noisy.mat.dtype == complex
        assert not np.shares_memory(noisy.mat, flagship.mat)
    assert flagship.mat.tobytes() == before


def test_a_report_cannot_be_changed_after_its_checks(flagship, full_scheme):
    # a radius written in place after the checks ran would move the floor
    records = bk.sample_scheme(flagship, full_scheme.settings, 10**6, seed=7)
    rep = bk.estimate_parameters(records, full_scheme)
    for name in ("diag", "diag_radii", "coherence_radii"):
        with pytest.raises(ValueError):
            getattr(rep, name)[0] = 0.0
    assert abs(bk.certify(rep) - SEED7_CERTIFIED) < 1e-12


@pytest.mark.parametrize("delta", [0.05 + 0j, 0.05 + 0.01j, np.complex128(0.2), np.complex64(0.5)],
                         ids=["complex", "imaginary part", "numpy complex128", "numpy complex64"])
def test_complex_delta_is_refused_like_one_outside_the_interval(flagship, full_scheme, delta):
    # not a TypeError from the comparison, and not let through by numpy's
    # ordering of complex scalars; the report and the estimator share one rule
    with pytest.raises(ValueError, match=re.escape(f"delta must lie in (0, 1), got {delta}")):
        dataclasses.replace(exact_report(), delta=delta)
    records = bk.sample_scheme(flagship, full_scheme.settings, 1000, seed=0)
    with pytest.raises(ValueError, match=re.escape(f"delta must lie in (0, 1), got {delta}")):
        bk.estimate_parameters(records, full_scheme, delta=delta)


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf])
def test_the_report_and_the_estimator_share_one_delta_rule(flagship, full_scheme, delta):
    records = bk.sample_scheme(flagship, full_scheme.settings, 1000, seed=0)
    messages = []
    for refuse in (lambda: bk.estimate_parameters(records, full_scheme, delta=delta),
                   lambda: dataclasses.replace(exact_report(), delta=delta)):
        with pytest.raises(ValueError) as refused:
            refuse()
        messages.append(str(refused.value))
    assert messages == [f"delta must lie in (0, 1), got {delta}"] * 2


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

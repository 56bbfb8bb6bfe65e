"""State and shot-record files: round trips and malformed-input rejection."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import boundkey as bk

# the digest of a scheme of the one setting zzxx: its name and a NUL
ZZXX_DIGEST = hashlib.sha256(b"zzxx\0").hexdigest()


def test_state_roundtrip_is_bit_identical(tmp_path, flagship):
    path = tmp_path / "state.json"
    bk.save_state(flagship, path)
    back = bk.load_state(path)
    assert back.dims == flagship.dims
    assert back.labels == flagship.labels
    assert np.array_equal(back.mat, flagship.mat)


def test_state_roundtrip_for_larger_shields():
    rho, _, _ = bk.rho_u(bk.fourier(3))
    doc = bk.serialize.state_document(rho)
    back = bk.serialize.state_from_document(doc)
    assert back.dims == (2, 2, 3, 3)
    assert np.array_equal(back.mat, rho.mat)


def test_state_document_is_plain_json(flagship):
    doc = bk.serialize.state_document(flagship)
    text = json.dumps(doc)  # raises if any numpy scalar leaked through
    again = json.loads(text)
    assert again["dims"] == [2, 2, 2, 2]
    assert len(again["matrix"]) == 256


def test_malformed_state_documents_are_rejected(tmp_path, flagship):
    doc = bk.serialize.state_document(flagship)
    wrong_format = dict(doc, format="something-else")
    with pytest.raises(ValueError):
        bk.serialize.state_from_document(wrong_format)
    wrong_version = dict(doc, version=99)
    with pytest.raises(ValueError):
        bk.serialize.state_from_document(wrong_version)
    truncated = dict(doc, matrix=doc["matrix"][:-1])
    with pytest.raises(ValueError):
        bk.serialize.state_from_document(truncated)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(ValueError):
        bk.load_state(garbage)
    with pytest.raises(OSError):
        bk.load_state(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "dims",
    ["2222", [2.9, 2, 2, 2.2], [True, 4, 4], [2.0, 2, 2, 2], None, {"0": 2}, [[2], 2, 2, 2]],
    ids=["string", "fractions", "bool", "whole-float", "null", "object", "nested"],
)
def test_state_dims_must_be_a_list_of_integers(tmp_path, flagship, dims):
    # each once loaded through int(d): "2222" as (2, 2, 2, 2), 2.9 cut to 2,
    # and true as a one-dimensional subsystem
    doc = bk.serialize.state_document(flagship)
    doc["dims"] = dims
    del doc["labels"]  # so that (1, 4, 4) would get its default labels
    with pytest.raises(ValueError, match="dims"):
        bk.serialize.state_from_document(doc)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="dims"):
        bk.load_state(path)


def test_records_roundtrip(tmp_path, flagship, full_scheme):
    digest = bk.scheme_hash(full_scheme.settings)
    records = bk.sample_scheme(flagship, full_scheme.settings, 500, seed=9)
    path = tmp_path / "records.tsv"
    bk.save_records(records, path, seed=9)
    back, meta = bk.load_records(path)
    assert meta["scheme"] == digest
    assert meta["seed"] == "9"
    assert float(meta["shots"]) == 500.0
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.setting.letters == b.setting.letters
        assert a.shots == b.shots
        assert a.counts == b.counts


def test_records_from_a_one_pass_iterable_save_the_same_bytes(tmp_path, flagship,
                                                             full_scheme):
    # the records are read once: an iterator writes the file the list
    # writes, and an empty one writes the header of an empty scheme
    records = bk.sample_scheme(flagship, full_scheme.settings, 500, seed=9)
    listed, iterated = tmp_path / "listed.tsv", tmp_path / "iterated.tsv"
    bk.save_records(records, listed, seed=9)
    bk.save_records(iter(records), iterated, seed=9)
    assert iterated.read_bytes() == listed.read_bytes()
    empty_listed, empty_iterated = tmp_path / "empty_listed.tsv", tmp_path / "empty_iterated.tsv"
    bk.save_records([], empty_listed, seed=9)
    bk.save_records(iter([]), empty_iterated, seed=9)
    assert empty_iterated.read_bytes() == empty_listed.read_bytes()
    assert bk.load_records(empty_iterated)[0] == []


def test_whole_counts_written_as_floats_load_to_the_same_records(tmp_path, flagship):
    # a count written 3.0 or 1e3 is a whole number: it loads as the int the
    # file would hold had it been written 3 or 1000
    sampled = bk.sample_scheme(flagship, [bk.CollectiveSetting("zzxx")], 1000, seed=9)
    made = [bk.ShotRecord(bk.CollectiveSetting("xxzz"), [1000, 2000] + [0] * 14, 3000),
            bk.ShotRecord(bk.CollectiveSetting("zzxx"), [3000] + [0] * 15, 3000)]
    for records, count_text in ((sampled, lambda c: f"{float(c)}"),
                                (made, lambda c: f"{float(c):.0e}" if c % 1000 == 0 else c)):
        path = tmp_path / "records.tsv"
        bk.save_records(records, path, seed=9)
        lines = path.read_text().splitlines()
        edited = lines[:2] + [
            "\t".join(ln.split("\t")[:2] + [str(count_text(int(ln.split("\t")[2])))])
            for ln in lines[2:]]
        assert edited != lines
        path.write_text("\n".join(edited) + "\n")
        back, _ = bk.load_records(path)
        assert back == records
        assert all(type(c) is int for rec in back for c in rec.counts)


#: seeds that check_sampling refuses, so no records file may carry them
REFUSED_SEEDS = ["a b", 1.5, -3, True, None, np.bool_(False), float("nan"), "9"]


@pytest.mark.parametrize("seed", REFUSED_SEEDS, ids=repr)
def test_save_records_refuses_a_seed_the_sampler_refuses(tmp_path, flagship, seed):
    # a header seed is the seed that drew the records: one the sampler
    # refuses is refused with its message, and nothing is written
    records = bk.sample_scheme(flagship, [bk.CollectiveSetting("zzxx")], 100, seed=2)
    with pytest.raises(ValueError) as sampler:
        bk.sample_scheme(flagship, [bk.CollectiveSetting("zzxx")], 100, seed)
    path = tmp_path / "records.tsv"
    with pytest.raises(ValueError) as refused:
        bk.save_records(records, path, seed=seed)
    assert str(refused.value) == str(sampler.value)
    assert not path.exists()


def test_records_skip_blank_and_comment_lines_after_the_header(tmp_path, flagship,
                                                              full_scheme):
    records = bk.sample_scheme(flagship, full_scheme.settings[:2], 100, seed=9)
    path = tmp_path / "records.tsv"
    bk.save_records(records, path, seed=9)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["", "# a note", "  "] + lines[3:]) + "\n")
    back, _ = bk.load_records(path)
    assert back == records


def test_records_reject_mixed_shot_counts(tmp_path, flagship, full_scheme):
    (a,) = bk.sample_scheme(flagship, full_scheme.settings[:1], 100, seed=0)
    (b,) = bk.sample_scheme(flagship, full_scheme.settings[1:2], 200, seed=0)
    with pytest.raises(ValueError):
        bk.save_records([a, b], tmp_path / "bad.tsv", seed=0)


def test_tampered_record_files_are_rejected(tmp_path, flagship, full_scheme):
    records = bk.sample_scheme(flagship, full_scheme.settings[:2], 100, seed=2)
    path = tmp_path / "records.tsv"
    bk.save_records(records, path, seed=2)
    lines = path.read_text().splitlines()

    def write(mutant, name):
        p = tmp_path / name
        p.write_text("\n".join(mutant) + "\n")
        return p

    for mutant in (["# wrong-header 1"] + lines[1:], []):
        with pytest.raises(ValueError, match="not a records file"):
            bk.load_records(write(mutant, "header.tsv"))
    assert lines[0] == "# boundkey-records 1"
    with pytest.raises(ValueError, match="unsupported records version '2'"):
        bk.load_records(write(["# boundkey-records 2"] + lines[1:], "version.tsv"))
    body = [ln for ln in lines if not ln.startswith("#")]
    with pytest.raises(ValueError):
        bk.load_records(write(lines + [body[0]], "duplicate.tsv"))
    broken = lines[:]
    broken[2] = "\t".join(broken[2].split("\t")[:2])  # drop the count field
    with pytest.raises(ValueError, match="expected 3 tab-separated fields"):
        bk.load_records(write(broken, "fields.tsv"))
    negative = lines[:]
    first = negative[2].split("\t")
    negative[2] = "\t".join([first[0], first[1], "-4"])
    with pytest.raises(ValueError):
        bk.load_records(write(negative, "negative.tsv"))
    outcome = lines[:]
    outcome[2] = "\t".join([first[0], "+1+1+1+2", first[2]])
    with pytest.raises(ValueError, match="outcome.tsv:3: outcome field '[+]1[+]1[+]1[+]2' is not"):
        bk.load_records(write(outcome, "outcome.tsv"))


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_records_with_non_finite_counts_are_rejected(tmp_path, flagship, bad):
    records = bk.sample_scheme(flagship, [bk.CollectiveSetting("zzxx")], 100, seed=2)
    path = tmp_path / "records.tsv"
    bk.save_records(records, path, seed=2)
    lines = path.read_text().splitlines()
    name, outcome, _ = lines[2].split("\t")
    lines[2] = "\t".join([name, outcome, bad])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        bk.load_records(path)


def test_scheme_hash_ignores_coefficient_bits(full_scheme):
    # the last bits of the weights vary with the BLAS thread count; the
    # digest reads the setting names only
    digest = bk.scheme_hash(full_scheme.settings)
    assert len(digest) == 64
    assert bk.scheme_hash([bk.CollectiveSetting("zzxx")]) == ZZXX_DIGEST
    coeffs = np.array(full_scheme.coefficients, dtype=float) + 1e-13
    altered = dataclasses.replace(full_scheme, coefficients=tuple(coeffs))
    assert bk.scheme_hash(altered.settings) == bk.scheme_hash(list(full_scheme.settings)) == digest


def test_scheme_hash_tracks_setting_names_and_order(full_scheme):
    settings = full_scheme.settings
    digests = {bk.scheme_hash(settings), bk.scheme_hash(settings[1:]),
               bk.scheme_hash((settings[1], settings[0]) + settings[2:])}
    assert len(digests) == 3


@pytest.mark.parametrize(
    "old, new",
    [("scheme=" + ZZXX_DIGEST + " ", ""), ("shots=100.0 ", ""), ("shots=100.0 ", "shots=101 ")],
    ids=["no-scheme", "no-shots", "shots-not-the-count-total"],
)
def test_records_with_a_bad_header_are_rejected(tmp_path, flagship, old, new):
    records = bk.sample_scheme(flagship, [bk.CollectiveSetting("zzxx")], 100, seed=2)
    path = tmp_path / "records.tsv"
    bk.save_records(records, path, seed=2)
    lines = path.read_text().splitlines()
    assert old in lines[1]
    lines[1] = lines[1].replace(old, new)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        bk.load_records(path)


@pytest.mark.parametrize("edit, message", [
    (lambda name, outcome, count: [name, outcome, str(int(count) + 1)],
     "setting 'zzxx': counts sum to 101, not 100"),
    (lambda name, outcome, count: ["zzqq", outcome, count],
     "setting 'zzqq': need four letters"),
    (lambda name, outcome, count: [name, outcome, "0.5"],
     "setting 'zzxx': a record needs whole-number shots and counts"),
], ids=["sum", "letters", "fraction"])
def test_record_refusals_name_the_file_and_the_setting(tmp_path, flagship, edit, message):
    # a record refused after parsing is named like a parse-time refusal:
    # the path first, then the setting
    records = bk.sample_scheme(flagship, [bk.CollectiveSetting("zzxx")], 100, seed=2)
    path = tmp_path / "records.tsv"
    bk.save_records(records, path, seed=2)
    lines = path.read_text().splitlines()
    lines[2] = "\t".join(edit(*lines[2].split("\t")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as refused:
        bk.load_records(path)
    assert str(refused.value).startswith(f"{path}: {message}")


def test_non_number_refusals_name_the_file_and_the_line(tmp_path, flagship):
    # text where a number belongs is refused with the path, and for a count
    # with its line, like every other refusal of the loader; header text is
    # refused by the header value's own rule
    records = bk.sample_scheme(flagship, [bk.CollectiveSetting("zzxx")], 100, seed=2)
    path = tmp_path / "records.tsv"
    bk.save_records(records, path, seed=2)
    lines = path.read_text().splitlines()
    name, outcome, _ = lines[2].split("\t")
    for edited, message in (
        (lines[:2] + [f"{name}\t{outcome}\tabc"] + lines[3:],
         f"{path}:3: count 'abc' is not a number"),
        ([lines[0], lines[1].replace("shots=100.0", "shots=ten")] + lines[2:],
         f"{path}: header shots must be a whole number, got 'ten'"),
    ):
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(ValueError) as refused:
            bk.load_records(path)
        assert str(refused.value) == message

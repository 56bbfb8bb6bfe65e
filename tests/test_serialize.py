"""State and shot-record files: round trips and malformed-input rejection."""

import dataclasses
import json

import numpy as np
import pytest

import boundkey as bk


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
    digest = bk.scheme_hash(full_scheme)
    records = bk.sample_scheme(flagship, full_scheme.settings, 500, seed=9)
    path = tmp_path / "records.tsv"
    bk.save_records(records, path, seed=9, scheme_digest=digest)
    back, meta = bk.load_records(path)
    assert meta["scheme"] == digest
    assert meta["seed"] == "9"
    assert float(meta["shots"]) == 500.0
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.setting.letters == b.setting.letters
        assert a.shots == b.shots
        assert a.counts == b.counts


def test_records_reject_mixed_shot_counts(tmp_path, flagship, full_scheme):
    a = bk.sample_setting(flagship, full_scheme.settings[0], 100, seed=0)
    b = bk.sample_setting(flagship, full_scheme.settings[1], 200, seed=0)
    with pytest.raises(ValueError):
        bk.save_records([a, b], tmp_path / "bad.tsv", seed=0, scheme_digest="x" * 64)


def test_tampered_record_files_are_rejected(tmp_path, flagship, full_scheme):
    digest = bk.scheme_hash(full_scheme)
    records = bk.sample_scheme(flagship, full_scheme.settings[:2], 100, seed=2)
    path = tmp_path / "records.tsv"
    bk.save_records(records, path, seed=2, scheme_digest=digest)
    lines = path.read_text().splitlines()

    def write(mutant, name):
        p = tmp_path / name
        p.write_text("\n".join(mutant) + "\n")
        return p

    with pytest.raises(ValueError):
        bk.load_records(write(["# wrong-header 1"] + lines[1:], "header.tsv"))
    body = [ln for ln in lines if not ln.startswith("#")]
    with pytest.raises(ValueError):
        bk.load_records(write(lines + [body[0]], "duplicate.tsv"))
    broken = lines[:]
    broken[2] = "\t".join(broken[2].split("\t")[:2])  # drop the count field
    with pytest.raises(ValueError):
        bk.load_records(write(broken, "fields.tsv"))
    negative = lines[:]
    first = negative[2].split("\t")
    negative[2] = "\t".join([first[0], first[1], "-4"])
    with pytest.raises(ValueError):
        bk.load_records(write(negative, "negative.tsv"))


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_records_with_non_finite_counts_are_rejected(tmp_path, flagship, bad):
    records = bk.sample_scheme(flagship, [bk.CollectiveSetting("zzxx")], 100, seed=2)
    path = tmp_path / "records.tsv"
    bk.save_records(records, path, seed=2, scheme_digest="x" * 64)
    lines = path.read_text().splitlines()
    name, outcome, _ = lines[2].split("\t")
    lines[2] = "\t".join([name, outcome, bad])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        bk.load_records(path)


def test_scheme_hash_ignores_coefficient_bits(full_scheme):
    # the last bits of the weights vary with the BLAS thread count; the
    # digest must not
    digest = bk.scheme_hash(full_scheme)
    assert len(digest) == 64
    coeffs = np.array(full_scheme.coefficients, dtype=float) + 1e-13
    altered = dataclasses.replace(full_scheme, coefficients=tuple(coeffs))
    assert bk.scheme_hash(altered) == digest


def test_scheme_hash_tracks_setting_names_and_order(full_scheme):
    digest = bk.scheme_hash(full_scheme)
    settings = full_scheme.settings
    dropped = dataclasses.replace(full_scheme, settings=settings[1:])
    swapped = dataclasses.replace(full_scheme, settings=(settings[1], settings[0]) + settings[2:])
    assert len({digest, bk.scheme_hash(dropped), bk.scheme_hash(swapped)}) == 3


@pytest.mark.parametrize(
    "old, new",
    [("scheme=" + "x" * 64 + " ", ""), ("shots=100.0 ", ""), ("shots=100.0 ", "shots=101 ")],
    ids=["no-scheme", "no-shots", "shots-not-the-count-total"],
)
def test_records_with_a_bad_header_are_rejected(tmp_path, flagship, old, new):
    records = bk.sample_scheme(flagship, [bk.CollectiveSetting("zzxx")], 100, seed=2)
    path = tmp_path / "records.tsv"
    bk.save_records(records, path, seed=2, scheme_digest="x" * 64)
    lines = path.read_text().splitlines()
    assert old in lines[1]
    lines[1] = lines[1].replace(old, new)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        bk.load_records(path)

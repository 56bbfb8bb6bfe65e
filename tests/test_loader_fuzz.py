"""Property tests for the loaders: any input either loads into finite,
consistent objects or is refused with ValueError, which the CLI reports as
malformed input (exit 2).  Examples are derandomized, so every run checks
the same inputs."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import boundkey as bk  # noqa: E402
from boundkey.serialize import RECORDS_FORMAT, STATE_FORMAT, state_from_document  # noqa: E402
from boundkey.observables import OUTCOMES  # noqa: E402
from boundkey.shots import ShotRecord  # noqa: E402

fuzz = settings(max_examples=150, deadline=None, derandomize=True, database=None)

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=80)
numbers = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, text),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.dictionaries(text, inner, max_size=5)
    ),
    max_leaves=20,
)


def loads_or_refuses(load, *args):
    """Call ``load``; a refusal must be a ValueError, never another error."""
    try:
        return load(*args)
    except ValueError:
        return None


# -- records files -----------------------------------------------------------

count_text = st.one_of(
    numbers.map(str), st.sampled_from(["nan", "inf", "-0", "1e999", "0x10", " 3 "]), text
)
outcome_text = st.one_of(
    st.lists(st.sampled_from(["+1", "-1"]), min_size=4, max_size=4).map("".join), text
)
name_text = st.one_of(
    st.sampled_from(["zzxx", "xxzz", "uvzz", "yyyy", "zzzz"]),
    st.text(st.sampled_from("xyzuvw"), min_size=3, max_size=5),
    text,
)
record_line = st.one_of(
    st.tuples(name_text, outcome_text, count_text).map("\t".join), text
)
# three headers in four pass the writer's rules, with a whole positive
# shots=, so that the example reaches its count lines; the fourth is
# anything, for those rules
passing_header = st.tuples(
    st.integers(min_value=1, max_value=40),
    st.sampled_from(["", ".0"]),
    st.sampled_from(["", " seed=0", " seed=7"]),
).map(lambda parts: "scheme=abc shots={}{}{}".format(*parts))
arbitrary_header = st.one_of(
    st.tuples(
        st.sampled_from(["", "scheme=abc", "scheme=abc shots=", "scheme= shots=10"]),
        st.one_of(numbers.map(lambda n: f" shots={n}"), st.just(" shots=10"), text),
    ).map("".join),
    text,
)
header = st.integers(0, 3).flatmap(lambda k: passing_header if k else arbitrary_header)
records_text = st.one_of(
    text,
    st.tuples(header, st.lists(record_line, max_size=12)).map(
        lambda hl: "\n".join([f"# {RECORDS_FORMAT} 1", f"# {hl[0]}", *hl[1]])
    ),
)


@fuzz
@given(records_text)
def test_records_text_loads_or_is_refused(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.tsv"
        path.write_text(body, encoding="utf-8")
        loaded = loads_or_refuses(bk.load_records, path)
    if loaded is not None:
        records, meta = loaded
        for rec in records:
            assert math.isfinite(rec.shots) and rec.shots > 0
            assert type(rec.counts) is tuple and len(rec.counts) == 16
            assert all(math.isfinite(c) and c >= 0 for c in rec.counts)
            assert all(float(c).is_integer() for c in rec.counts)
            assert sum(int(c) for c in rec.counts) == rec.shots == float(meta["shots"])


@fuzz
@given(st.binary(max_size=200))
def test_records_bytes_load_or_are_refused(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.tsv"
        path.write_bytes(f"# {RECORDS_FORMAT} 1\n".encode() + body)
        loads_or_refuses(bk.load_records, path)


# -- shot records ------------------------------------------------------------

# mostly one count per outcome, sometimes a sequence of the wrong length
counts_lists = st.one_of(
    st.lists(numbers, min_size=len(OUTCOMES), max_size=len(OUTCOMES)),
    st.lists(numbers, max_size=20),
)


@fuzz
@given(counts_lists, numbers)
def test_shot_record_counts_load_or_are_refused(counts, shots):
    rec = loads_or_refuses(ShotRecord, bk.CollectiveSetting("zzxx"), counts, shots)
    if rec is not None:
        assert math.isfinite(rec.shots) and rec.shots > 0
        assert type(rec.counts) is tuple and len(rec.counts) == 16
        assert all(math.isfinite(c) and c >= 0 for c in rec.counts)
        assert all(float(c).is_integer() for c in rec.counts)
        assert sum(int(c) for c in rec.counts) == rec.shots


# -- state documents ---------------------------------------------------------

state_like = st.fixed_dictionaries(
    {
        "format": st.sampled_from([STATE_FORMAT]),
        "version": st.sampled_from([1]),
        "dims": st.one_of(st.lists(st.sampled_from([0, 1, 2, -1]), max_size=3), json_values),
        "matrix": st.one_of(
            st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=17), json_values
        ),
    },
    optional={"labels": json_values},
)


@fuzz
@given(st.one_of(json_values, state_like))
def test_state_documents_load_or_are_refused(doc):
    rho = loads_or_refuses(state_from_document, doc)
    if rho is not None:
        assert all(type(lab) is str for lab in rho.labels)
        assert np.all(np.isfinite(rho.mat))
        assert abs(np.trace(rho.mat) - 1.0) < 1e-9


@fuzz
@given(text)
def test_state_text_loads_or_is_refused(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(body, encoding="utf-8")
        loads_or_refuses(bk.load_state, path)


@pytest.mark.parametrize("entry", [[float("nan"), 0.0], [1.0, float("nan")], [float("inf"), 0.0]])
def test_state_documents_with_non_finite_entries_are_refused(entry):
    # a 1 x 1 matrix passes the Hermiticity, trace and eigenvalue checks
    # with a NaN entry, because every comparison with NaN is false
    doc = {"format": STATE_FORMAT, "version": 1, "dims": [1], "matrix": [entry]}
    with pytest.raises(ValueError, match="finite"):
        state_from_document(doc)

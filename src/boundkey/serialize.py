"""File formats: states and unitaries as JSON documents, shot records as
TSV tables.

States round-trip exactly: matrix entries are written as shortest exact
decimal representations (never more than 17 significant digits), so the
parsed doubles are bit-identical to the saved ones.  Record files are
one line per observed outcome, settings in scheme order, under a header
carrying the scheme digest, shot count and seed.  The digest covers the
ordered setting names only: a certification run rebuilds the weights from
those names and the state, and refuses a file whose settings do not match
its digest.  Loaders parse and name the file; value objects own what a state
or record is: ``DensityOperator`` a state's dims, labels and matrix,
``ShotRecord`` its counts (whole, >= 0, summing to ``shots``).  A header needs
``scheme=`` and ``shots=``; the writer's rules check them and ``seed=`` first.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .linalg import DensityOperator, check_seed

if TYPE_CHECKING:
    from .observables import CollectiveSetting
    from .shots import ShotRecord

STATE_FORMAT = "boundkey-state"
STATE_VERSION = 1
RECORDS_FORMAT = "boundkey-records"
RECORDS_VERSION = 1


def state_document(rho: DensityOperator) -> dict:
    """The JSON-ready document for a state."""
    flat = rho.mat.reshape(-1)
    return {
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "dims": list(rho.dims),
        "labels": list(rho.labels),
        "matrix": [[float(z.real), float(z.imag)] for z in flat],
    }


def _matrix(doc, kind: str) -> np.ndarray:
    """The square complex matrix of a document's [re, im] pairs, row by row: the
    one matrix parser of state and unitary files (ValueError if bad, bools too)."""
    try:
        pairs = doc["matrix"]
        flat = np.array([complex(re, im) for re, im in pairs])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed matrix document ({type(exc).__name__}: {exc})") from exc
    if any(type(part) is bool for pair in pairs for part in pair):
        raise ValueError(f"{kind} file holds a boolean matrix entry, not a number")
    d = math.isqrt(flat.size)
    if d * d != flat.size:
        raise ValueError(f"{kind} file holds {flat.size} entries, not a square")
    return flat.reshape(d, d)


def state_from_document(doc: dict) -> DensityOperator:
    """Parse a state document; ``DensityOperator`` checks what it holds."""
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    if doc.get("format") != STATE_FORMAT:
        raise ValueError(f"not a state document (format={doc.get('format')!r})")
    if doc.get("version") != STATE_VERSION:
        raise ValueError(f"unsupported state document version {doc.get('version')!r}")
    return DensityOperator(_matrix(doc, "state"), doc.get("dims"), doc.get("labels"))


def save_state(rho: DensityOperator, path) -> None:
    Path(path).write_text(json.dumps(state_document(rho)) + "\n")


def _read_json(path):
    """The JSON document in file ``path``; ValueError naming it if it does not parse."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def load_state(path) -> DensityOperator:
    return state_from_document(_read_json(path))


def load_unitary(path) -> np.ndarray:
    """The square matrix of a unitary file, ``{"matrix": [[re, im], ...]}``
    row by row; ``rho_u`` checks that it is unitary."""
    return _matrix(_read_json(path), "unitary")


def scheme_hash(settings: Sequence[CollectiveSetting]) -> str:
    """Digest of a scheme's setting names, in order.

    The reconstruction coefficients are left out: they follow from the
    names and the state, and their last bits vary with the BLAS build and
    thread count, which must not change the digest.
    """
    h = hashlib.sha256()
    for s in settings:
        h.update(s.letters.encode())
        h.update(b"\0")
    return h.hexdigest()


def _outcome_texts() -> list[str]:
    """Each outcome as records files write it (``+1-1+1+1``), in canonical
    ``observables.OUTCOMES`` order."""
    from .observables import OUTCOMES

    return ["".join(f"{s:+d}" for s in outcome) for outcome in OUTCOMES]


def save_records(records: Iterable[ShotRecord], path, seed: int) -> None:
    """Write shot records as TSV under a header carrying the digest of
    their settings in order: one line per observed outcome, sign tuples
    ascending (the reverse of ``observables.OUTCOMES``).  ``records`` may
    be any iterable; it is read once.  A ``seed`` that ``check_sampling``
    refuses is refused, with its message, before anything is written."""
    check_seed(seed)
    records = list(records)
    texts = _outcome_texts()
    shots = {rec.shots for rec in records}
    if len(shots) > 1:
        raise ValueError(f"records carry mixed shot counts {sorted(shots)}")
    digest = scheme_hash([rec.setting for rec in records])
    lines = [
        f"# {RECORDS_FORMAT} {RECORDS_VERSION}",
        f"# scheme={digest} shots={records[0].shots if records else 0} seed={seed}",
    ]
    for rec in records:
        name = rec.setting.letters
        for text, count in zip(texts[::-1], rec.counts[::-1]):
            if count:
                lines.append(f"{name}\t{text}\t{int(count)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _number(text: str):
    """A header value or count as an int, read exactly past 2**53 too, else
    as a float, else as the text itself, which the caller then refuses: the
    one number parser of records files."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def load_records(path) -> tuple[list[ShotRecord], dict]:
    """Read a records file back into ShotRecords plus its header metadata."""
    from .observables import CollectiveSetting
    from .shots import ShotRecord, _check_shots

    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith(f"# {RECORDS_FORMAT} "):
        raise ValueError(f"{path}: not a records file")
    version = lines[0].split()[-1]
    if version != str(RECORDS_VERSION):
        raise ValueError(f"{path}: unsupported records version {version!r}")
    if len(lines) < 2 or not lines[1].startswith("# "):
        raise ValueError(f"{path}: missing metadata header")
    meta = {}
    for token in lines[1][2:].split():
        key, _, value = token.partition("=")
        if not _:
            raise ValueError(f"{path}: malformed metadata token {token!r}")
        meta[key] = value
    missing = [key for key in ("scheme", "shots") if key not in meta]
    if missing:
        raise ValueError(f"{path}: metadata header lacks {', '.join(missing)}")
    shots = _number(meta["shots"])
    try:  # by the writer's rules, before any count line
        if meta["shots"] != "0":  # what save_records writes for an empty scheme
            _check_shots(shots)
        if "seed" in meta:
            check_seed(_number(meta["seed"]))
    except ValueError as exc:
        raise ValueError(f"{path}: header {exc}") from None

    index_of = {text: i for i, text in enumerate(_outcome_texts())}
    tables: dict[str, list] = {}
    seen = set()
    for ln, line in enumerate(lines[2:], start=3):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}:{ln}: expected 3 tab-separated fields")
        name, outcome_text, count_text = fields
        index = index_of.get(outcome_text)
        if index is None:
            raise ValueError(f"{path}:{ln}: outcome field {outcome_text!r} is not four signs +-1")
        count = _number(count_text)
        if isinstance(count, str):
            raise ValueError(f"{path}:{ln}: count {count_text!r} is not a number")
        if (name, index) in seen:
            raise ValueError(f"{path}:{ln}: duplicate outcome for setting {name!r}")
        seen.add((name, index))
        if isinstance(count, float) and count.is_integer():
            count = int(count)
        tables.setdefault(name, [0] * 16)[index] = count

    # ShotRecord refuses counts that are negative, not whole or off the header's shots
    records = []
    for name, counts in tables.items():
        try:
            records.append(ShotRecord(CollectiveSetting(name), counts, shots))
        except ValueError as exc:
            raise ValueError(f"{path}: setting {name!r}: {exc}") from exc
    return records, meta

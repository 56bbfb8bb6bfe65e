"""File formats: states and unitaries as JSON documents, shot records as
TSV tables.

States round-trip exactly: matrix entries are written as shortest exact
decimal representations (never more than 17 significant digits), so the
parsed doubles are bit-identical to the saved ones.  Record files are
one line per observed outcome, settings in scheme order, under a header
carrying the scheme digest, shot count and seed.  The digest covers the
ordered setting names only: a certification run rebuilds the weights from
those names and the state, and refuses a file whose settings do not match
its digest.  Loading requires ``scheme=`` and ``shots=``, and refuses
counts that do not sum to ``shots``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .linalg import DensityOperator

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


def _matrix_entries(doc) -> np.ndarray:
    """The complex entries of a document's ``matrix``, [re, im] pairs row by
    row: the one entry parser of state and unitary files (ValueError if bad)."""
    try:
        return np.array([complex(re, im) for re, im in doc["matrix"]])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed matrix document ({type(exc).__name__}: {exc})") from exc


def state_from_document(doc: dict) -> DensityOperator:
    """Parse and validate a state document."""
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    if doc.get("format") != STATE_FORMAT:
        raise ValueError(f"not a state document (format={doc.get('format')!r})")
    if doc.get("version") != STATE_VERSION:
        raise ValueError(f"unsupported state document version {doc.get('version')!r}")
    dims = doc.get("dims")
    if not (isinstance(dims, list)
            and all(isinstance(d, int) and not isinstance(d, bool) for d in dims)):
        raise ValueError(f"dims must be a list of integers, got {dims!r}")
    total = math.prod(dims)
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(lab, str) for lab in labels)
    ):
        raise ValueError(f"labels must be a list of strings, got {labels!r}")
    flat = _matrix_entries(doc)
    if flat.size != total * total:
        raise ValueError(f"matrix has {flat.size} entries, dims {dims} require {total * total}")
    return DensityOperator(flat.reshape(total, total), dims, labels)


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
    flat = _matrix_entries(_read_json(path))
    d = math.isqrt(flat.size)
    if d * d != flat.size:
        raise ValueError(f"unitary file holds {flat.size} entries, not a square")
    return flat.reshape(d, d)


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
    from .shots import _check_seed

    _check_seed(seed)
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


def load_records(path) -> tuple[list[ShotRecord], dict]:
    """Read a records file back into ShotRecords plus its header metadata."""
    from .observables import CollectiveSetting
    from .shots import ShotRecord

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
    shots_text = meta["shots"]  # a whole number is read exactly, past 2**53 too
    try:
        shots = int(shots_text) if shots_text.isdecimal() else float(shots_text)
    except ValueError:
        raise ValueError(f"{path}: header shots {shots_text!r} is not a number") from None

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
        try:
            count = float(count_text)
        except ValueError:
            raise ValueError(f"{path}:{ln}: count {count_text!r} is not a number") from None
        if not (math.isfinite(count) and count >= 0):
            raise ValueError(f"{path}:{ln}: count {count_text!r} is not finite and >= 0")
        if (name, index) in seen:
            raise ValueError(f"{path}:{ln}: duplicate outcome for setting {name!r}")
        seen.add((name, index))
        if count.is_integer():
            count = int(count_text) if count_text.isdecimal() else int(count)
        tables.setdefault(name, [0] * 16)[index] = count

    # ShotRecord refuses counts that do not sum to the header's shots
    records = []
    for name, counts in tables.items():
        try:
            records.append(ShotRecord(CollectiveSetting(name), counts, shots))
        except ValueError as exc:
            raise ValueError(f"{path}: setting {name!r}: {exc}") from exc
    return records, meta

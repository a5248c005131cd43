"""Command line surface with canonical, bit-exact JSON output.

Every command prints one JSON document that main opens with the schema
tag and the command name; key order is fixed and arrays are canonically
ordered, so identical jobs produce identical bytes.  Integers beyond the
53-bit safe range are emitted as decimal strings: every such integer has
at least 16 digits, so `emit` prints a document member by member with
`json.dumps` and copies it with those integers as strings only when that
text holds a run of 16 ASCII digits, found by mapping every digit to 0
with `str.translate`.  The `coordinates` of an embed document are V1
then the V2 blocks, and each monomial is printed once: `emit` joins the
text of `coordinates` from the texts of V1 and the blocks.  A graded
piece that kept its exponent columns is printed from those columns
through a table of digit strings, and needs no scan: a `sections` basis
taken before any point is built (lattice._Columns), and V1 and the V2
blocks (lattice.Monomials).  The reader
of `verify` and `recover` reads an object member by member with the
stdlib's C scanner when it is compact or in Python's default layout
(", " and ": ", as `json.dumps(doc)` writes it), and does not parse
`coordinates` whose text is that join in the same layout; any other
text is read, and any error worded, by `json.loads`.  Documents read
back are checked array by array in bulk, and only an array that fails
the bulk check is decoded entry by entry to name the offending path;
the decoded data is marked so that structure validation does not check
those types again.  The cyclic collector is paused over each job, and
the document is written in slices.  Exit codes: 0 success, 1 domain
failure (machine-readable error object on stdout), 2 malformed input; a
reader that closes stdout early also gets 1, with nothing on stderr.
"""
from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import operator
import os
import sys

from .errors import DomainError, SchemaViolation
from .lattice import IntMatrix, Monomials, _Columns, _piece
from . import embed as embed_mod
from . import git as git_mod
from . import wps as wps_mod

SAFE_MAX = 2**53 - 1

# Every int past SAFE_MAX prints with at least 16 digits, so with every
# digit mapped to 0 its text holds sixteen zeros in a row.
_ZERO_DIGITS = str.maketrans("123456789", "000000000")

SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def _too_long(path: str) -> SchemaViolation:
    """An integer past the interpreter's int/str conversion digit limit."""
    return SchemaViolation(f"integer has too many digits at {path}", path=path)


def _encode(value, path: str = "$"):
    """JSON-ready copy of value with ints past SAFE_MAX as strings.

    path follows object members but not array indices, which would cost
    a string per element of every large array.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        if abs(value) <= SAFE_MAX:
            return value
        try:
            return str(value)
        except ValueError:
            raise _too_long(path) from None
    if isinstance(value, (list, tuple, _Columns)):
        return [_encode(v, path) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v, f"{path}.{k}") for k, v in value.items()}
    raise TypeError(f"cannot serialize {value!r}")


def emit(document) -> str:
    """The canonical text of document: compact JSON, ints past SAFE_MAX as strings.

    json.dumps prints it at C speed, a dict member by member (see
    _compact).  An int past SAFE_MAX has at least 16 digits, so only
    when that text holds a run of 16 ASCII digits (such an int, or a
    safe 16-digit int, or digits in a string) is the document printed
    again from its _encode copy.  So is a document json.dumps refuses:
    one holding an int past the digit limit fails there as a
    SchemaViolation naming its member.  The run is found at C speed too:
    with 1-9 mapped to 0 by one translate, it is a run of sixteen zeros.
    """
    try:
        pieces, scanned = _compact(document)
    except (TypeError, ValueError):
        pass
    else:
        if not any("0" * 16 in text.translate(_ZERO_DIGITS) for text in scanned):
            return "".join(pieces)
    return json.dumps(_encode(document), separators=(",", ":"), check_circular=False)


# Handlers and payload() build every document as a fresh tree, and so does
# _encode, so no document holds a cycle and no dumps keeps the encoder's
# marker for each container it enters.
_dumps = functools.partial(
    json.dumps, separators=(",", ":"), allow_nan=False, check_circular=False
)


def _compact(document) -> tuple[list[str], list[str]]:
    """Texts that join to the compact JSON of document, and those that hold its digits.

    A dict is dumped member by member.  When its coordinates are V1 then
    the blocks of V2 (see _layout_groups), the entries of V1 and of each
    block are printed once, as one comma-separated text each, and V1, V2
    and coordinates are all joined from those texts.  coordinates needs
    no scan then: a run of digits in it is a run in V1 or in a block, as
    no run crosses a comma.  A member or group that kept its exponent
    columns is printed from them (_column_entries), in chunks spliced
    into the final join, and needs no scan either.  Nothing is copied
    but into the final join.
    """
    if not isinstance(document, dict):
        text = _dumps(document)
        return [text], [text]
    groups = _layout_groups(document)
    entries, scanned = [], []
    for g in groups:
        if _has_columns(g):
            entries.append(_column_entries(g))
        else:
            text = _dumps(g)[1:-1]
            entries.append([text])
            scanned.append(text)
    members = []
    for key, value in document.items():
        if groups and key == "V1":
            members.append(['"V1":[', *entries[0], "]"])
        elif groups and key == "V2":
            members.append(['"V2":[', *_commas(["[", *e, "]"] for e in entries[1:]), "]"])
        elif groups and key == "coordinates":
            nonempty = (e for e, g in zip(entries, groups) if g)
            members.append(['"coordinates":[', *_commas(nonempty), "]"])
        elif _has_columns(value):
            name = _dumps(key)
            members.append([name, ":[", *_column_entries(value), "]"])
            scanned.append(name)
        else:
            text = _dumps({key: value})[1:-1]
            members.append([text])
            scanned.append(text)
    return ["{", *_commas(members), "}"], scanned


def _has_columns(value) -> bool:
    """Whether value is a piece that holds the columns lattice._bounded_solutions read back."""
    return type(value) in (_Columns, Monomials)


# Rows joined per chunk: one join over every row of a large piece holds
# a list of all the row texts at once.
_CHUNK_ROWS = 2048


def _column_entries(piece: _Columns | Monomials) -> list[str]:
    """Texts that join to the entries of piece as compact JSON, "[a,b],[c,d]".

    They are printed from piece's columns, with no point built: one text
    per _CHUNK_ROWS entries and a comma between texts, left for the
    caller's one join.  Each exponent is one unsigned 1- or 2-byte item
    of a column, looked up in a table of the digits of 0..top.  The
    points come in grlex_key order, so the first has the largest total
    degree, and top, that degree, bounds every exponent.  The text needs
    no digit scan: no exponent has more than 5 digits, and no run of
    digits crosses a comma or a bracket.
    """
    columns = piece._columns
    digits = list(map(str, range(sum(c[0] for c in columns) + 1))).__getitem__
    starts = range(0, len(piece), _CHUNK_ROWS)
    chunks = (zip(*[map(digits, c[i : i + _CHUNK_ROWS]) for c in columns]) for i in starts)
    # Each chunk carries its own brackets, so no full-size text is made here.
    return _commas(["[" + "],[".join(map(",".join, rows)) + "]"] for rows in chunks)


def _commas(items) -> list[str]:
    """The pieces of each item in turn, with a comma between items."""
    pieces = []
    for item in items:
        pieces += (",", *item)
    return pieces[1:]


def _layout_groups(document: dict) -> list:
    """[V1, *V2] when the entries of those arrays are document's coordinates, else [].

    Entry for entry, the coordinates must be the very objects of V1 and
    then of each block, so that each prints as that entry does.
    """
    v1, v2, coordinates = (document.get(key) for key in ("V1", "V2", "coordinates"))
    arrays = (list, tuple)
    if not (isinstance(v1, arrays) and isinstance(v2, arrays) and isinstance(coordinates, arrays)):
        return []
    groups = [v1, *v2]
    if (
        all(isinstance(group, arrays) for group in groups)
        and len(coordinates) == sum(map(len, groups))
        and all(map(operator.is_, coordinates, itertools.chain.from_iterable(groups)))
    ):
        return groups
    return []


def _parse_int(text: str, path: str, message: str | None = None) -> int:
    """An optional sign, then ASCII digits, with surrounding whitespace.

    Anything else is a SchemaViolation at path (with message, if given),
    and so is a number past the int/str conversion digit limit.
    """
    t = text.strip()
    body = t[1:] if t[:1] in "+-" else t
    if not (body.isascii() and body.isdigit()):
        raise SchemaViolation(message or f"expected an integer at {path}", path=path, value=text)
    try:
        return int(t)
    except ValueError:
        raise _too_long(path) from None


def _parse_int_list(text: str, path: str) -> tuple[int, ...]:
    if not text.strip():
        raise SchemaViolation(f"expected a comma-separated list at {path}", path=path)
    return tuple(
        _parse_int(part, f"{path}[{i}]") for i, part in enumerate(text.split(","))
    )


def _parse_weights(text: str, path: str = "weights") -> tuple[int, ...]:
    weights = _parse_int_list(text, path)
    for i, w in enumerate(weights):
        if w < 1:
            raise SchemaViolation(
                f"weights must be positive at {path}[{i}]", path=f"{path}[{i}]", value=w
            )
    return weights


def _parse_matrix(text: str, path: str = "matrix") -> IntMatrix:
    rows = []
    for i, chunk in enumerate(text.split(";")):
        rows.append(_parse_int_list(chunk, f"{path}[{i}]"))
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SchemaViolation(
                f"ragged matrix row at {path}[{i}]", path=f"{path}[{i}]"
            )
    return IntMatrix(tuple(rows), width)


def _parse_section_list(text: str, path: str = "sections"):
    out = []
    for i, chunk in enumerate(text.split(";")):
        part = chunk.strip()
        if ":" not in part:
            raise SchemaViolation(
                f"expected 'exponents:weight' at {path}[{i}]", path=f"{path}[{i}]"
            )
        head, _, tail = part.rpartition(":")
        exponents = _parse_int_list(head, f"{path}[{i}].monomial")
        for j, x in enumerate(exponents):
            if x < 0:
                raise SchemaViolation(
                    f"exponents must be nonnegative at {path}[{i}].monomial[{j}]",
                    path=f"{path}[{i}].monomial[{j}]",
                    value=x,
                )
        out.append((exponents, _parse_int(tail, f"{path}[{i}].weight")))
    return out


def _env_degree_bound() -> int | None:
    raw = os.environ.get("ORBISTACK_DEGREE_BOUND")
    if raw is None:
        return None
    path = "env.ORBISTACK_DEGREE_BOUND"
    message = "ORBISTACK_DEGREE_BOUND must be a positive integer"
    degree = _parse_int(raw, path, message)
    if degree < 1:
        raise SchemaViolation(message, path=path, value=raw)
    return degree


# ---------------------------------------------------------------------------
# document construction

def _document_from_data(data: embed_mod.EmbeddingData) -> dict:
    doc = {
        "weights": data.source.weights,
        "dprime": data.dprime,
        "m0": data.m0,
        "N": data.N,
        "V1": data.V1,
        "V2": data.V2_blocks,
        "target_weights": data.target_weights,
        "coordinates": data.coordinates,
    }
    cert = data.certification
    if cert is not None:
        doc["certification"] = {
            "descent_modulus": cert.descent_modulus,
            "candidates_tried": cert.candidates_tried,
            "first_candidate_passed": cert.first_candidate_passed,
            "normality_degrees_checked": cert.normality_degrees_checked,
            "assumption": cert.assumption,
        }
    return doc


def _want(doc: dict, key: str, path: str, kind: type = object, what: str = ""):
    """doc[key], which must exist and, when kind is given, be a kind."""
    if key not in doc:
        raise SchemaViolation(f"missing key at {path}.{key}", path=f"{path}.{key}")
    if not isinstance(doc[key], kind):
        raise SchemaViolation(f"expected {what} at {path}.{key}", path=f"{path}.{key}")
    return doc[key]


def _printable(value) -> bool:
    """Whether _encode copies value: no float, no nesting past the recursion limit."""
    try:
        _encode(value)
    except (TypeError, RecursionError):
        return False
    return True


def _decode_int(value, path: str) -> int:
    if isinstance(value, bool):
        raise SchemaViolation(f"expected an integer at {path}", path=path)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return _parse_int(value, path)
    witness = {"value": value} if _printable(value) else {}
    raise SchemaViolation(f"expected an integer at {path}", path=path, **witness)


def _decode_weight(value, path: str) -> int:
    weight = _decode_int(value, path)
    if weight < 1:
        raise SchemaViolation(f"weights must be positive at {path}", path=path, value=weight)
    return weight


def _decode_monomial(value, width: int, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise SchemaViolation(f"expected an exponent array at {path}", path=path)
    out = tuple(_decode_int(x, f"{path}[{i}]") for i, x in enumerate(value))
    if len(out) != width:
        raise SchemaViolation(
            f"exponent vector of length {len(out)} does not match the weights at {path}",
            path=path,
        )
    for i, x in enumerate(out):
        if x < 0:
            raise SchemaViolation(
                f"exponents must be nonnegative at {path}[{i}]", path=f"{path}[{i}]", value=x
            )
    return out


def _decode_array(
    raw: list, path: str, decode, width: int | None = None, floor: int | None = None
) -> tuple:
    """decode(raw[i], f"{path}[{i}]") for each i, checked in bulk first.

    raw passes the bulk check when its entries, or with width given the
    entries of its exponent arrays of length width, are ints of at least
    floor (any ints when floor is None); it is then copied as is.  Else
    (a decimal string, a bool, a ragged row, a sign) decode runs entry
    by entry, so the first error keeps the path and message decode
    gives it.
    """
    if width is None:
        flat = raw
    elif set(map(type, raw)) <= {list} and set(map(len, raw)) <= {width}:
        flat = list(itertools.chain.from_iterable(raw))
    else:
        flat = None
    if (
        flat is not None
        and set(map(type, flat)) <= {int}
        and (floor is None or min(flat, default=floor) >= floor)
    ):
        return tuple(raw) if width is None else tuple(map(tuple, raw))
    return tuple(decode(x, f"{path}[{i}]") for i, x in enumerate(raw))


def _data_from_document(doc) -> embed_mod.EmbeddingData:
    if not isinstance(doc, dict):
        raise SchemaViolation("expected a JSON object at $", path="$")
    raw_weights = _want(doc, "weights", "$")
    if not isinstance(raw_weights, list) or not raw_weights:
        raise SchemaViolation("expected a nonempty array at $.weights", path="$.weights")
    weights = _decode_array(raw_weights, "$.weights", _decode_weight, floor=1)
    width = len(weights)

    def monomials(raw: list, path: str) -> tuple:
        return _decode_array(raw, path, lambda v, p: _decode_monomial(v, width, p), width, 0)

    source = wps_mod.WeightSystem(weights)
    dprime = _decode_int(_want(doc, "dprime", "$"), "$.dprime")
    m0 = _decode_int(_want(doc, "m0", "$"), "$.m0")
    n_twist = _decode_int(_want(doc, "N", "$"), "$.N")
    raw_v1 = _want(doc, "V1", "$", list, "an array")
    v1 = monomials(raw_v1, "$.V1")
    raw_v2 = _want(doc, "V2", "$", list, "an array of blocks")
    blocks = []
    for m, raw_block in enumerate(raw_v2):
        if not isinstance(raw_block, list):
            raise SchemaViolation(
                f"expected a block array at $.V2[{m}]", path=f"$.V2[{m}]"
            )
        blocks.append(monomials(raw_block, f"$.V2[{m}]"))
    target_weights = _decode_array(
        _want(doc, "target_weights", "$", list, "an array"), "$.target_weights", _decode_int
    )
    coordinates, _ = embed_mod._layout(v1, blocks, n_twist)
    raw_coords = doc.get("coordinates", _LAYOUT)
    if raw_coords is not _LAYOUT:
        if not isinstance(raw_coords, list):
            raise SchemaViolation("expected an array at $.coordinates", path="$.coordinates")
        # Raw coordinates equal to the raw V1 then blocks decode to the
        # layout, unless an entry is true or 1.0: equal to 1, but refused.
        raw_layout = raw_v1 + list(itertools.chain.from_iterable(raw_v2))
        if raw_coords != raw_layout or not set(
            map(type, itertools.chain.from_iterable(raw_coords))
        ) <= {int}:
            coordinates = monomials(raw_coords, "$.coordinates")
    certification = None
    if "certification" in doc:
        certification = _certification_from_document(doc)
    data = embed_mod.EmbeddingData(
        source=source,
        dprime=dprime,
        m0=m0,
        N=n_twist,
        V1=v1,
        V2_blocks=tuple(blocks),
        target_weights=target_weights,
        coordinates=coordinates,
        certification=certification,
    )
    return embed_mod._record_typed(data)


def _certification_from_document(doc: dict) -> embed_mod.Certification:
    cert = _want(doc, "certification", "$", dict, "an object")
    path = "$.certification"

    def ints(key):
        raw = _want(cert, key, path, list, "an array")
        return _decode_array(raw, f"{path}.{key}", _decode_int)

    return embed_mod.Certification(
        descent_modulus=_decode_int(_want(cert, "descent_modulus", path), f"{path}.descent_modulus"),
        candidates_tried=ints("candidates_tried"),
        first_candidate_passed=_want(cert, "first_candidate_passed", path, bool, "a boolean"),
        normality_degrees_checked=ints("normality_degrees_checked"),
        assumption=_want(cert, "assumption", path, str, "a string"),
    )


def _load_document(arg: str) -> dict:
    """The JSON document in the file arg names, or on stdin for "-".

    Text that is not UTF-8 is not JSON either, whichever way it came.
    Any text _read_compact does not take is read by json.loads, which
    also words every error.
    """
    try:
        if arg == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(arg, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as err:
                raise SchemaViolation(f"cannot read data file: {err}", path="$") from err
        try:
            return _read_compact(text)
        except (ValueError, StopIteration, IndexError, RecursionError):
            return json.loads(text)
    except (ValueError, RecursionError) as err:
        raise SchemaViolation(f"invalid JSON: {err}", path="$") from err


# What _read_compact reads coordinates as when their text is V1 then the
# blocks: _data_from_document then keeps the layout it decoded from those.
_LAYOUT = object()

_scan_once = json.JSONDecoder().scan_once


def _read_compact(text: str) -> dict:
    """json.loads(text) of an object with distinct keys in one layout, read member by member.

    The layout is compact, as emit writes it, or Python's default, with
    ", " and ": " as json.dumps(doc) writes it; the first colon says
    which, and every separator between members and between V2's blocks
    must then be that layout's.  Each member value is read by the
    stdlib's C scanner, V2 block by block, so that the span of V1 and of
    each block is known.  The text of coordinates is not parsed when it
    is the entries of V1 and of each block joined into one array with
    the layout's comma; it reads as _LAYOUT.  Any other text raises
    ValueError, StopIteration, IndexError or RecursionError: a separator
    of the other layout or other whitespace between members, a repeated
    key, trailing text other than whitespace, or text json.loads refuses.
    """
    if text[:2] != '{"':
        raise ValueError("not an object")
    doc = {}
    spans = {}
    key, idx = _scan_once(text, 1)
    colon, comma = (": ", ", ") if text.startswith(": ", idx) else (":", ",")
    while True:
        if key in doc or not text.startswith(colon, idx):
            raise ValueError("a repeated key or another colon")
        idx += len(colon)
        layout = _layout_text(text, spans, comma) if key == "coordinates" else ""
        if key == "V2" and text[idx] == "[":
            value, spans["V2"], idx = _read_blocks(text, idx, comma)
        elif layout and text.startswith(layout, idx):
            value, idx = _LAYOUT, idx + len(layout)
        else:
            start = idx
            value, idx = _scan_once(text, idx)
            spans[key] = [(start, idx)]
        doc[key] = value
        if not text.startswith(comma, idx):
            break
        idx += len(comma)
        if text[idx] != '"':
            raise ValueError("not a key")
        key, idx = _scan_once(text, idx)
    if text[idx] != "}" or text[idx + 1 :].strip(" \t\n\r"):
        raise ValueError("extra data")
    return doc


def _read_blocks(text: str, idx: int, comma: str) -> tuple[list, list, int]:
    """The array that starts at text[idx], the span of each entry, and the end."""
    blocks, spans = [], []
    if text[idx + 1] == "]":
        return blocks, spans, idx + 2
    start = idx + 1
    while True:
        block, idx = _scan_once(text, start)
        blocks.append(block)
        spans.append((start, idx))
        if not text.startswith(comma, idx):
            break
        start = idx + len(comma)
    if text[idx] != "]":
        raise ValueError("another comma")
    return blocks, spans, idx + 1


def _layout_text(text: str, spans: dict, comma: str) -> str:
    """The entries of V1 and of each V2 block joined into one array; "" unless all are arrays."""
    groups = spans["V1"] + spans["V2"] if "V1" in spans and "V2" in spans else []
    if not groups or any(text[s] != "[" for s, _ in groups):
        return ""
    return "[" + comma.join(text[s + 1 : e - 1] for s, e in groups if e - s > 2) + "]"


def _check_document(arg: str, check):
    """check(data) for the embedding document arg names."""
    return check(_data_from_document(_load_document(arg)))


# ---------------------------------------------------------------------------
# pretty printing

def _variable_names(width: int) -> list[str]:
    if width <= 4:
        return list("xyzw")[:width]
    return [f"x{i}" for i in range(width)]


def _monomial_text(e, names) -> str:
    if not any(e):
        return "1"
    parts = []
    for name, x in zip(names, e):
        if x == 0:
            continue
        parts.append(name if x == 1 else name + str(x).translate(SUPERSCRIPTS))
    return "".join(parts)


def _pretty_lines(doc: dict) -> list[str]:
    command = doc["command"]
    lines = [command]
    if command == "sections":
        names = _variable_names(len(doc["weights"]))
        mons = ", ".join(_monomial_text(e, names) for e in doc["basis"]) or "(empty)"
        lines.append(f"  degree {doc['degree']}: {mons}")
    elif command == "hilbert-series":
        lines.append("  " + " ".join(str(c) for c in doc["series"]))
    elif command == "ample-check":
        lines.append(f"  faithful: {doc['faithful']}")
        lines.append(f"  det-ample: {doc['det_ample']}")
        lines.append(f"  h-ample: {doc['h_ample']}")
        lines.append(f"  descent modulus: {doc['descent_modulus']}")
    elif command == "embed":
        names = _variable_names(len(doc["weights"]))
        lines.append(f"  m0={doc['m0']} N={doc['N']}")
        lines.append("  V1: " + ", ".join(_monomial_text(e, names) for e in doc["V1"]))
        for m, block in enumerate(doc["V2"], start=1):
            text = ", ".join(_monomial_text(e, names) for e in block) or "(empty)"
            lines.append(f"  V2[{m}]: {text}")
        lines.append("  target weights: " + ",".join(str(w) for w in doc["target_weights"]))
        lines.append(
            "  map: ["
            + " : ".join(_monomial_text(e, names) for e in doc["coordinates"])
            + "]"
        )
    elif command == "verify":
        lines.append(f"  verdict: {doc['verdict']}")
        lines.append(f"  charts checked: {len(doc['charts'])}")
        lines.append(f"  strata checked: {len(doc['strata'])}")
    elif command == "recover":
        lines.append(
            f"  dprime={doc['dprime']} N={doc['N']} m0={doc['m0']} matches={doc['matches']}"
        )
    elif command == "stable-locus":
        supports = doc["minimal_supports"]
        text = ", ".join("{" + ",".join(str(i) for i in s) + "}" for s in supports)
        lines.append("  minimal stable supports: " + (text or "(none)"))
    elif command == "proj":
        names = _variable_names(len(doc["matrix"][0]) if doc["matrix"] else 0)
        for gen in doc["generators"]:
            mark = "stable" if gen["chart_stable"] else "unstable"
            lines.append(
                f"  {_monomial_text(gen['monomial'], names)} (degree {gen['degree']}, chart {mark})"
            )
        if doc["invariant_generators"]:
            inv = ", ".join(_monomial_text(e, names) for e in doc["invariant_generators"])
            lines.append(f"  invariants: {inv}")
        lines.append(f"  pointed: {doc['pointed']}")
    elif command == "morphism-check":
        lines.append(f"  well defined: {doc['well_defined']}")
        lines.append(f"  polynomial target: {doc['polynomial_target']}")
        locus = [list(s) for s in doc["base_locus"]]
        lines.append(f"  base locus: {locus}")
    elif command == "selftest":
        for check in doc["checks"]:
            lines.append(f"  {'ok ' if check['ok'] else 'FAIL'} {check['name']}")
        lines.append(f"  passed: {doc['passed']}")
    return lines


# ---------------------------------------------------------------------------
# command handlers: each returns the fields of its document

def _cmd_sections(args) -> dict:
    weights = _parse_weights(args.weights)
    degree = _parse_int(args.degree, "degree")
    basis = wps_mod.section_basis(weights, degree)
    # The basis as read back: emit prints a piece from its columns, with no point built.
    return {"weights": weights, "degree": degree, "basis": _piece(basis)}


def _cmd_hilbert_series(args) -> dict:
    weights = _parse_weights(args.weights)
    max_degree = _parse_int(args.max_degree, "max_degree")
    if max_degree < 0:
        raise SchemaViolation(
            "max_degree must be nonnegative", path="max_degree", value=max_degree
        )
    series = wps_mod.hilbert_series(weights, max_degree)
    return {
        "weights": weights,
        "max_degree": max_degree,
        "series": series,
    }


def _cmd_ample_check(args) -> dict:
    weights = _parse_weights(args.weights)
    degree = _parse_int(args.degree, "degree")
    faithful, offender = wps_mod.is_faithful(weights, degree)
    witness = None
    if offender is not None:
        witness = {
            "support": offender.support,
            "stabilizer_order": offender.stabilizer_order,
        }
    return {
        "weights": weights,
        "degree": degree,
        "faithful": faithful,
        "witness": witness,
        "det_ample": wps_mod.is_det_ample(weights, degree),
        "h_ample": wps_mod.is_h_ample(weights, degree),
        "descent_modulus": wps_mod.descent_modulus(weights),
    }


def _cmd_embed(args) -> dict:
    weights = _parse_weights(args.weights)
    degree = _parse_int(args.degree, "degree")
    data = embed_mod.find_embedding_data(weights, degree)
    return _document_from_data(data)


def _cmd_verify(args) -> dict:
    report = _check_document(args.data, embed_mod.verify_immersion)
    return {
        "verdict": report.verdict,
        "certified_via": report.certified_via,
        "charts": [
            {"chart": c.chart, "generators_checked": c.generators_checked}
            for c in report.charts
        ],
        "strata": [
            {
                "support": s.support,
                "stabilizer_order": s.stabilizer_order,
                "weight_gcd": s.weight_gcd,
                "lattice_index": s.lattice_index,
            }
            for s in report.strata
        ],
    }


def _cmd_recover(args) -> dict:
    report = _check_document(args.data, embed_mod.recover_data)
    return {
        "dprime": report.dprime,
        "N": report.N,
        "m0": report.m0,
        "V1": report.V1,
        "V2": report.V2_blocks,
        "matches": report.matches,
    }


def _action_from_args(args) -> git_mod.CharacterAction:
    matrix = _parse_matrix(args.matrix)
    chi = _parse_int_list(args.chi, "chi")
    if len(chi) != matrix.k:
        raise SchemaViolation(
            f"character length {len(chi)} does not match {matrix.k} matrix rows",
            path="chi",
        )
    return git_mod.CharacterAction(matrix, chi)


def _cmd_stable_locus(args) -> dict:
    act = _action_from_args(args)
    locus = git_mod.stable_locus(act)
    return {
        "matrix": act.matrix.entries,
        "chi": act.character,
        "minimal_supports": locus.minimal_stable_supports,
    }


def _cmd_proj(args) -> dict:
    act = _action_from_args(args)
    presentation = git_mod.proj_presentation(act, certify_degree=_env_degree_bound())
    basis = presentation.basis
    return {
        "matrix": act.matrix.entries,
        "chi": act.character,
        "generators": [
            {
                "monomial": c.monomial,
                "degree": c.degree,
                "support": c.support,
                "chart_stable": c.stable,
            }
            for c in presentation.charts
        ],
        "invariant_generators": basis.invariant_generators,
        "pointed": basis.pointed,
        "certified_degree": basis.certified_degree,
        "minimal_stable_supports": presentation.locus.minimal_stable_supports,
    }


def _cmd_morphism_check(args) -> dict:
    weights = _parse_weights(args.weights)
    degree = _parse_int(args.degree, "degree")
    if degree < 1:
        raise SchemaViolation("degree must be positive", path="degree", value=degree)
    sections = _parse_section_list(args.sections)
    for i, (e, _) in enumerate(sections):
        if len(e) != len(weights):
            raise SchemaViolation(
                f"exponent vector length does not match weights at sections[{i}]",
                path=f"sections[{i}].monomial",
            )
    report = embed_mod.morphism_from_sections(weights, degree, sections)
    return {
        "weights": weights,
        "dprime": degree,
        "sections": [{"monomial": e, "weight": alpha} for e, alpha in sections],
        "well_defined": report.well_defined,
        "polynomial_target": report.polynomial_target,
        "base_locus": report.base_locus,
        "lands_in_stable": report.lands_in_stable,
    }


def _selftest_checks():
    frozen_v1 = ((3, 0), (0, 1))
    frozen_blocks = (
        ((4, 0), (1, 1)),
        ((5, 0), (2, 1)),
        ((6, 0), (3, 1), (0, 2)),
    )
    frozen_weights = (3, 3, 4, 4, 5, 5, 6, 6, 6)

    def check_embed():
        data = embed_mod.find_embedding_data((1, 3), 1)
        return (
            data.m0 == 3
            and data.N == 3
            and data.V1 == frozen_v1
            and data.V2_blocks == frozen_blocks
            and data.target_weights == frozen_weights
        )

    def check_verify():
        data = embed_mod.find_embedding_data((1, 3), 1)
        return embed_mod.verify_immersion(data).verdict == "pass"

    def check_recover():
        data = embed_mod.find_embedding_data((1, 3), 1)
        return embed_mod.recover_data(data).matches

    def check_proj():
        act = git_mod.CharacterAction(IntMatrix(((1, 3),), 2), (1,))
        pres = git_mod.proj_presentation(act)
        degrees = tuple(c.degree for c in pres.charts)
        return degrees == (1, 3) and all(c.stable for c in pres.charts)

    def check_sections():
        basis = wps_mod.section_basis((1, 3), 6).basis
        return basis == ((6, 0), (3, 1), (0, 2))

    def check_series_oracle():
        series = wps_mod.hilbert_series((1, 3), 6)
        if series != (1, 1, 1, 2, 2, 2, 3):
            return False
        return all(
            len(wps_mod.section_basis((1, 3), d)) == series[d] for d in range(7)
        )

    def check_stable_locus():
        one = git_mod.stable_locus(
            git_mod.CharacterAction(IntMatrix(((1, 3),), 2), (1,))
        )
        zero = git_mod.stable_locus(
            git_mod.CharacterAction(IntMatrix(((1, 3),), 2), (0,))
        )
        inv = git_mod.stable_locus(
            git_mod.CharacterAction(IntMatrix(((1, -1),), 2), (0,))
        )
        return (
            one.minimal_stable_supports == ((1,), (2,))
            and zero.minimal_stable_supports == ()
            and inv.minimal_stable_supports == ((1, 2),)
        )

    def check_determinism():
        first = emit(_document_from_data(embed_mod.find_embedding_data((1, 3), 1)))
        second = emit(_document_from_data(embed_mod.find_embedding_data((1, 3), 1)))
        if first != second:
            return False
        reparsed = _data_from_document(json.loads(first))
        return emit(_document_from_data(reparsed)) == first

    return [
        ("embed reproduces the reference example", check_embed),
        ("verify passes on reference data", check_verify),
        ("recover round-trips reference data", check_recover),
        ("proj presents two generators of degrees 1 and 3", check_proj),
        ("sections are canonically ordered", check_sections),
        ("hilbert series matches section counts", check_series_oracle),
        ("stable loci match reference values", check_stable_locus),
        ("serialization is deterministic and round-trips", check_determinism),
    ]


def _cmd_selftest(args) -> dict:
    results = []
    passed = True
    for name, check in _selftest_checks():
        try:
            ok = bool(check())
        except Exception:
            ok = False
        results.append({"name": name, "ok": ok})
        passed = passed and ok
    return {"checks": results, "passed": passed}


class _Parser(argparse.ArgumentParser):
    """Argument errors become SchemaViolation, so they exit 2 with JSON."""

    def error(self, message):
        raise SchemaViolation(f"{self.prog}: {message}", path="argv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    parse_args reads the parser and never changes it, so every call to
    main shares this one.
    """
    parser = _Parser(
        prog="orbistack",
        description="Exact computations for line bundles on weighted projective stacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        return p

    p = add("sections", _cmd_sections, "monomial basis of a graded piece")
    p.add_argument("--weights", required=True)
    p.add_argument("--degree", required=True)

    p = add("hilbert-series", _cmd_hilbert_series, "section dimensions up to a degree")
    p.add_argument("--weights", required=True)
    p.add_argument("--max-degree", dest="max_degree", required=True)

    p = add("ample-check", _cmd_ample_check, "faithfulness and ampleness predicates")
    p.add_argument("--weights", required=True)
    p.add_argument("--degree", required=True)

    p = add("embed", _cmd_embed, "compute embedding data for a bundle degree")
    p.add_argument("--weights", required=True)
    p.add_argument("--degree", required=True)

    p = add("verify", _cmd_verify, "verify an embedding document")
    p.add_argument("--data", required=True, help="JSON file or - for stdin")

    p = add("recover", _cmd_recover, "recover data from an embedding document")
    p.add_argument("--data", required=True, help="JSON file or - for stdin")

    p = add("stable-locus", _cmd_stable_locus, "minimal stable supports")
    p.add_argument("--matrix", required=True, help="rows separated by ';'")
    p.add_argument("--chi", required=True)

    p = add("proj", _cmd_proj, "graded generators with chart stability")
    p.add_argument("--matrix", required=True, help="rows separated by ';'")
    p.add_argument("--chi", required=True)

    p = add("morphism-check", _cmd_morphism_check, "diagnose a sections-defined map")
    p.add_argument("--weights", required=True)
    p.add_argument("--degree", required=True)
    p.add_argument("--sections", required=True, help="e.g. '3,0:3;0,1:3'")

    add("selftest", _cmd_selftest, "run the built-in reference checks")
    return parser


# Characters per write: writing the whole text at once would encode a
# second full copy of it in bytes.
_WRITE_SLICE = 1 << 20


def _write(text: str, code: int) -> int:
    """Print text and return code, or 1 with nothing on stderr if the reader left.

    text goes out in slices of _WRITE_SLICE characters, then a newline.
    This is the recipe of the Python docs' note on SIGPIPE: once stdout
    is closed, point it at devnull so the flush at exit cannot fail too.
    """
    try:
        write = sys.stdout.write
        for start in range(0, len(text), _WRITE_SLICE):
            write(text[start : start + _WRITE_SLICE])
        write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def main(argv=None) -> int:
    """Run one command and print its document; return the exit code.

    The cyclic collector is paused over the whole job, from parsing to
    the write: a job builds up to millions of acyclic containers (the
    points of a graded piece, a decoded document), and every full
    collection would walk them all again.  Its previous state comes back
    however the job ends, an argparse SystemExit included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _job(argv)
    finally:
        if enabled:
            gc.enable()


def _job(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        document = {"schema": 1, "command": args.command, **args.handler(args)}
        text = emit(document)
    except DomainError as err:
        code = 2 if isinstance(err, SchemaViolation) else 1
        try:
            text = emit(err.payload())
        except SchemaViolation as unprintable:  # a witness past the digit limit
            text, code = emit(unprintable.payload()), 2
        return _write(text, code)
    code = 1 if args.command == "selftest" and not document["passed"] else 0
    return _write("\n".join(_pretty_lines(document)) if args.pretty else text, code)


if __name__ == "__main__":
    sys.exit(main())

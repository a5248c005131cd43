"""Document text in and out: the encoder's boundaries and the decoder's errors.

`cli.emit` prints a document by one compact `json.dumps` and falls back
to the two-pass encoder only when that text holds a run of 16 digits,
found by mapping 1-9 to 0 and looking for sixteen zeros, or when an int
passes the digit limit; `oracles.canonical_json` is that two-pass rule
on its own, and the two must agree byte for byte, also for every
command that can print an int past the safe range.  `verify` and
`recover` decode embed documents by bulk checks with a path-tracking
fallback; over seeded mutated documents their exit codes and stdout are
pinned by one digest, taken before the bulk checks existed.
"""

import copy
import dataclasses
import gc
import hashlib
import io
import json
import math
import operator
import random
import re
import sys

import pytest

from orbistack import cli, embed
from orbistack.errors import SchemaViolation
from tests.oracles import SAFE_MAX, canonical_json
from tests.test_cli import EMBED_P13, VERIFY_P13


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def run_on(capsys, monkeypatch, command, text, *extra):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return run(capsys, [command, "--data", "-", *extra])


# ---------------------------------------------------------------------------
# encoder


def random_leaf(rng):
    kind = rng.randrange(7)
    if kind == 0:
        # Within 3 of +-SAFE_MAX, on both sides of it.
        return rng.choice((1, -1)) * SAFE_MAX + rng.randint(-3, 3)
    if kind == 1:
        # 16 digits but still safe: the fast path's digit run, a false alarm.
        return rng.choice((1, -1)) * rng.randrange(10**15, SAFE_MAX + 1)
    if kind == 2:
        return rng.choice((rng.randint(-1000, 1000), rng.randrange(-10**40, 10**40)))
    if kind == 3:
        run_of_digits = str(rng.randrange(10**15, 10**20))
        return rng.choice(("", "x", "²", "9")) + run_of_digits + rng.choice(("", "y", "0"))
    if kind == 4:
        return rng.choice((True, False, None))
    if kind == 5:
        return rng.choice(("", "a", "schema", "é—", "12345", "-"))
    return rng.choice((0, 1, -1, 2**53, -(2**53), 10**15, 10**16))


def random_value(rng, depth=0):
    kind = rng.randrange(8) if depth < 4 else 0
    if kind < 3:
        return random_leaf(rng)
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 3:
        return items
    if kind == 4:
        return tuple(items)
    if kind == 5:
        return tuple(tuple(random_leaf(rng) for _ in range(3)) for _ in range(rng.randrange(4)))
    return {f"k{i}": v for i, v in enumerate(items)}


def seeded_documents():
    rng = random.Random(20261018)
    for _ in range(2500):
        yield {"schema": 1, "body": random_value(rng)}


def test_emit_agrees_with_the_two_pass_encoder_on_seeded_documents():
    fallbacks = 0
    for document in seeded_documents():
        expected = canonical_json(document)
        assert cli.emit(document) == expected
        fallbacks += expected != json.dumps(document, separators=(",", ":"))
    # Both sides of the fallback are exercised.
    assert 200 < fallbacks < 2300


@pytest.mark.parametrize(
    "value,text",
    [
        (2**53 - 1, "9007199254740991"),
        (2**53, '"9007199254740992"'),
        (-(2**53 - 1), "-9007199254740991"),
        (-(2**53), '"-9007199254740992"'),
        (10**15, "1000000000000000"),
        ((1, (2**53,), "1234567890123456"), '[1,["9007199254740992"],"1234567890123456"]'),
    ],
)
def test_emit_pins_the_safe_range_boundary(value, text):
    assert cli.emit(value) == canonical_json(value) == text


def test_emit_names_the_member_holding_an_int_past_the_digit_limit():
    with pytest.raises(SchemaViolation) as err:
        cli.emit({"schema": 1, "result": {"modulus": [1, 10**4400]}})
    assert err.value.payload() == {
        "error": "SchemaViolation",
        "message": "integer has too many digits at $.result.modulus",
        "witness": {"path": "$.result.modulus"},
    }


# ---------------------------------------------------------------------------
# the digit scan and large ints


R16 = "9876543210123456"
R15 = R16[:15]
DIGIT_RUN_EDGES = (
    [run + tail for run in (R15, R16) for tail in ("", "x")]
    + ["ab" + run + tail for run in (R15, R16) for tail in ("", "y")]
    + [R16[:8] + sep + R16[8:] for sep in "-,.e\""]
    + [R15 + sep + "7" for sep in "-,.e\""]
    + ["\u0661" * 16, "²" * 16, "0" * 16, "0" * 15 + "-0"]
)
DIGIT_RUN_DOCUMENTS = [
    10**15, 10**15 - 1, -(10**15), 2**53, [10**15, 1], [1, 10**14], {R16: 1}, {R15: [R15]},
    *DIGIT_RUN_EDGES,
    *([edge] for edge in DIGIT_RUN_EDGES),
]


def test_the_digit_scan_finds_exactly_the_runs_of_sixteen_digits(monkeypatch):
    # emit copies a document with _encode exactly when its scan finds a run.
    copies = []
    encode = cli._encode
    monkeypatch.setattr(
        cli, "_encode", lambda value, path="$": copies.append(path) or encode(value, path)
    )
    runs = 0
    documents = [*seeded_documents(), *DIGIT_RUN_DOCUMENTS]
    for document in documents:
        text = json.dumps(document, separators=(",", ":"))
        copies.clear()
        assert cli.emit(document) == canonical_json(document)
        expected = re.search("[0-9]{16}", text) is not None
        assert bool(copies) == expected, text
        runs += expected
    assert 200 < runs < len(documents) - 200


def test_sections_past_the_safe_range_keep_their_bytes(capsys):
    code, out = run(capsys, ["sections", "--weights", "1", "--degree", "9007199254740993"])
    assert code == 0
    assert out == (
        '{"schema":1,"command":"sections","weights":[1],'
        '"degree":"9007199254740993","basis":[["9007199254740993"]]}\n'
    )


def test_hilbert_series_past_the_safe_range_matches_the_two_pass_encoder(capsys):
    # Ten unit weights: the piece of degree d has C(d + 9, 9) monomials.
    argv = ["hilbert-series", "--weights", ",".join(["1"] * 10), "--max-degree", "320"]
    code, out = run(capsys, argv)
    series = [math.comb(d + 9, 9) for d in range(321)]
    assert code == 0 and series[-1] > SAFE_MAX
    assert out == canonical_json({
        "schema": 1, "command": "hilbert-series", "weights": [1] * 10, "max_degree": 320,
        "series": series,
    }) + "\n"
    assert ',"89051382289283480",' in out


@pytest.mark.parametrize(
    "argv,text",
    [
        (["ample-check", "--weights", "2,1152921504606846977", "--degree", "1"],
         '{"schema":1,"command":"ample-check","weights":[2,"1152921504606846977"],"degree":1,'
         '"faithful":true,"witness":null,"det_ample":true,"h_ample":true,'
         '"descent_modulus":"2305843009213693954"}'),
        (["stable-locus", "--matrix=9007199254740993,1", "--chi=1"],
         '{"schema":1,"command":"stable-locus","matrix":[["9007199254740993",1]],"chi":[1],'
         '"minimal_supports":[[1],[2]]}'),
        (["morphism-check", "--weights", "1,9007199254740993", "--degree", "1",
          "--sections", "1,0:1"],
         '{"schema":1,"command":"morphism-check","weights":[1,"9007199254740993"],"dprime":1,'
         '"sections":[{"monomial":[1,0],"weight":1}],"well_defined":true,'
         '"polynomial_target":true,"base_locus":[[1]],"lands_in_stable":false}'),
    ],
    ids=["ample-check", "stable-locus", "morphism-check"],
)
def test_ints_past_the_safe_range_keep_their_bytes(capsys, argv, text):
    assert run(capsys, argv) == (0, text + "\n")


# ---------------------------------------------------------------------------
# decoder


def embed_document(capsys, weights):
    code, out = run(capsys, ["embed", "--weights", weights, "--degree", "1"])
    assert code == 0
    return json.loads(out)


BAD_ENTRIES = (True, False, "x", "", "-1", " 2 ", "+3", "²", "0x1", -1, -7, None, [], [1], {})
BAD_VALUES = ("x", "7", " 4 ", True, None, 3, -2, [], {}, [[1]], [1, 2])
TOP_KEYS = ("weights", "dprime", "m0", "N", "V1", "V2", "target_weights", "coordinates", "certification")
CERT_KEYS = ("descent_modulus", "candidates_tried", "first_candidate_passed",
             "normality_degrees_checked", "assumption")


def monomial_arrays(doc):
    """The lists of exponent vectors a mutation may reach."""
    arrays = [doc.get(key) for key in ("V1", "coordinates")]
    blocks = doc.get("V2")
    if isinstance(blocks, list):
        arrays.extend(blocks)
    return [a for a in arrays if isinstance(a, list) and a]


def mutate(doc, rng):
    kind = rng.randrange(6)
    if kind == 0:
        doc.pop(rng.choice(TOP_KEYS), None)
    elif kind == 1:
        doc[rng.choice(TOP_KEYS)] = copy.deepcopy(rng.choice(BAD_VALUES))
    elif kind == 2:
        cert = doc.get("certification")
        if isinstance(cert, dict):
            key = rng.choice(CERT_KEYS)
            if rng.random() < 0.5:
                cert.pop(key, None)
            else:
                cert[key] = copy.deepcopy(rng.choice(BAD_VALUES))
    elif kind == 3:
        key = rng.choice(("weights", "target_weights"))
        array = doc.get(key)
        if isinstance(array, list) and array:
            array[rng.randrange(len(array))] = copy.deepcopy(rng.choice(BAD_ENTRIES + (0,)))
    else:
        arrays = monomial_arrays(doc)
        if not arrays:
            return
        array = rng.choice(arrays)
        i = rng.randrange(len(array))
        monomial = array[i]
        if kind == 4 and isinstance(monomial, list) and monomial:
            monomial[rng.randrange(len(monomial))] = copy.deepcopy(rng.choice(BAD_ENTRIES))
        elif kind == 5 and isinstance(monomial, list):
            shape = rng.randrange(3)
            if shape == 0:
                monomial.append(0)
            elif shape == 1 and monomial:
                monomial.pop()
            else:
                array[i] = copy.deepcopy(rng.choice((3, "x", {}, None, True)))


def mutated_documents(base, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        doc = copy.deepcopy(base)
        for _ in range(rng.choice((1, 1, 2, 3))):
            mutate(doc, rng)
        yield json.dumps(doc)


# sha256 over "<command> <exit code>\n<stdout>" of verify, then recover,
# for each of 500 mutated documents of (2,3,5), then 500 of (1,2,3,4).
MUTATED_DIGEST = "87e58b3eb9e182e11580d96a63bbe4996214ffdba20b55a1e53aa4dc017ec624"


def test_verify_and_recover_on_mutated_documents_match_the_frozen_digest(capsys, monkeypatch):
    digest = hashlib.sha256()
    codes = set()
    for weights, seed in (("2,3,5", 235), ("1,2,3,4", 1234)):
        base = embed_document(capsys, weights)
        for text in mutated_documents(base, seed, 500):
            for command in ("verify", "recover"):
                code, out = run_on(capsys, monkeypatch, command, text)
                assert out.count("\n") == 1
                codes.add(code)
                digest.update(f"{command} {code}\n{out}".encode("utf-8"))
    assert codes == {0, 1, 2}
    assert digest.hexdigest() == MUTATED_DIGEST


def test_first_error_in_a_deep_monomial_keeps_its_path_and_bytes(capsys, monkeypatch):
    doc = embed_document(capsys, "1,2,3,4")
    # Within one monomial every entry is decoded before any sign is
    # checked, so the string at [1] wins over the negative at [0]; the
    # later negative in V2[3][20] is never reached.
    doc["V2"][3][17][0] = -1
    doc["V2"][3][17][1] = "x"
    doc["V2"][3][20][2] = -4
    assert run_on(capsys, monkeypatch, "verify", json.dumps(doc)) == (
        2,
        '{"error":"SchemaViolation","message":"expected an integer at $.V2[3][17][1]",'
        '"witness":{"path":"$.V2[3][17][1]","value":"x"}}\n',
    )


@pytest.mark.parametrize(
    "text,path",
    [
        ('{"weights":[1,2],"dprime":1.5}', "$.dprime"),
        ('{"weights":[1,2.0]}', "$.weights[1]"),
        ('{"weights":[1,2],"dprime":NaN}', "$.dprime"),
        ('{"weights":[NaN]}', "$.weights[0]"),
        (EMBED_P13.replace('"target_weights":[3,', '"target_weights":[1e400,'),
         "$.target_weights[0]"),
        (EMBED_P13.replace('"m0":3', '"m0":[1,[2.5]]'), "$.m0"),
    ],
    ids=["dprime 1.5", "weight 2.0", "dprime NaN", "weight NaN", "target weight 1e400",
         "nested m0"],
)
@pytest.mark.parametrize("command", ["verify", "recover"])
def test_floats_in_a_document_exit_2_without_the_value(capsys, monkeypatch, command, text, path):
    assert run_on(capsys, monkeypatch, command, text) == (
        2,
        '{"error":"SchemaViolation","message":"expected an integer at %s",'
        '"witness":{"path":"%s"}}\n' % (path, path),
    )


@pytest.mark.parametrize(
    "value,witness",
    [
        ("null", '"value":null'),
        ("[1,2]", '"value":[1,2]'),
        ('{"a":[9007199254740993,true]}', '"value":{"a":["9007199254740993",true]}'),
        ("[[[[[]]]]]", '"value":[[[[[]]]]]'),
    ],
)
def test_printable_non_integers_stay_in_the_witness(capsys, monkeypatch, value, witness):
    text = EMBED_P13.replace('"dprime":1', '"dprime":' + value)
    assert run_on(capsys, monkeypatch, "verify", text) == (
        2,
        '{"error":"SchemaViolation","message":"expected an integer at $.dprime",'
        '"witness":{"path":"$.dprime",%s}}\n' % witness,
    )


def nested(depth):
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("command", ["verify", "recover"])
def test_json_nested_past_the_recursion_limit_is_invalid_json(capsys, monkeypatch, command):
    code, out = run_on(capsys, monkeypatch, command, '{"weights":%s}' % nested(100_000))
    assert code == 2
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert doc["error"] == "SchemaViolation"
    assert doc["message"].startswith("invalid JSON: maximum recursion depth exceeded")
    assert doc["witness"] == {"path": "$"}


@pytest.mark.parametrize("command", ["verify", "recover"])
def test_a_deeply_nested_weight_exits_2_with_one_document(capsys, monkeypatch, command):
    # json.loads takes one stack level an array and reads this depth.  The
    # witness keeps the weight only if _encode can copy it, which it cannot
    # where a comprehension takes a frame of its own (before Python 3.12).
    depth = sys.getrecursionlimit() * 3 // 5
    code, out = run_on(capsys, monkeypatch, command, '{"weights":[%s]}' % nested(depth))
    assert code == 2
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert doc["message"] == "expected an integer at $.weights[0]"
    weight = json.loads(nested(depth))
    kept = {"value": weight} if cli._printable(weight) else {}
    assert doc["witness"] == {"path": "$.weights[0]", **kept}


# Coordinates equal to the raw V1 then blocks reuse the decoded layout;
# these documents differ from it in one place each.  The outputs were
# captured before the shortcut existed.
def coordinates_edited(kind):
    doc = json.loads(EMBED_P13)
    coordinates = doc["coordinates"]
    if kind in ("true", "1.0", '"1"'):
        coordinates[1][1] = json.loads(kind)
    elif kind == "swapped":
        coordinates[0], coordinates[1] = coordinates[1], coordinates[0]
    elif kind == "missing":
        coordinates.pop()
    elif kind == "added":
        coordinates.append([0, 2])
    return json.dumps(doc)


RECOVER_P13 = (
    '{"schema":1,"command":"recover","dprime":1,"N":3,"m0":3,"V1":[[3,0],[0,1]],'
    '"V2":[[[4,0],[1,1]],[[5,0],[2,1]],[[6,0],[3,1],[0,2]]],"matches":true}\n'
)
NOT_AN_INTEGER = (
    2,
    '{"error":"SchemaViolation","message":"expected an integer at $.coordinates[1][1]",'
    '"witness":{"path":"$.coordinates[1][1]"}}\n',
)
NOT_THE_LAYOUT = (
    1,
    '{"error":"InvalidEmbeddingData","message":"coordinates must be V1 followed by the V2 blocks"}\n',
)


@pytest.mark.parametrize(
    "kind,expected",
    [
        ("true", {"verify": NOT_AN_INTEGER, "recover": NOT_AN_INTEGER}),
        ("1.0", {"verify": NOT_AN_INTEGER, "recover": NOT_AN_INTEGER}),
        ('"1"', {"verify": (0, VERIFY_P13), "recover": (0, RECOVER_P13)}),
        ("swapped", {"verify": NOT_THE_LAYOUT, "recover": NOT_THE_LAYOUT}),
        ("missing", {"verify": NOT_THE_LAYOUT, "recover": NOT_THE_LAYOUT}),
        ("added", {"verify": NOT_THE_LAYOUT, "recover": NOT_THE_LAYOUT}),
    ],
)
@pytest.mark.parametrize("command", ["verify", "recover"])
def test_coordinates_off_the_layout_keep_their_bytes(capsys, monkeypatch, command, kind, expected):
    assert run_on(capsys, monkeypatch, command, coordinates_edited(kind)) == expected[command]


def test_coordinates_equal_to_the_layout_are_decoded_once():
    data = cli._data_from_document(json.loads(EMBED_P13))
    assert data.coordinates == data.V1 + data.V2
    assert all(map(operator.is_, data.coordinates, data.V1 + data.V2))


# ---------------------------------------------------------------------------
# verify and recover check each decoded fact once


def outcome(check, data):
    """What check(data) returns, or the type, message and witness it raises."""
    try:
        return check(data)
    except Exception as err:
        return type(err).__name__, str(err), getattr(err, "witness", None)


def spoilt_block_order(data):
    blocks = data.V2_blocks
    return {"V2_blocks": blocks[:-1] + (tuple(reversed(blocks[-1])),)}


# Changes to the (1,3) embedding data; each is invalid data.
SPOILERS = {
    "list monomial": lambda data: {"V1": (data.V1[0], list(data.V1[1]))},
    # (True, 0) has total degree 1, below the 2 of the (1, 1) after it.
    "bool exponent": lambda data: {"V2_blocks": (((True, 0), (1, 1)),) + data.V2_blocks[1:]},
    "negative exponent": lambda data: {"V1": (data.V1[0], (-1, 1))},
    "block out of canonical order": spoilt_block_order,
}


@pytest.mark.parametrize("check", [embed.verify_immersion, embed.recover_data])
@pytest.mark.parametrize("spoil", SPOILERS.values(), ids=SPOILERS.keys())
def test_decoded_data_is_trusted_only_as_decoded(check, spoil):
    # The decoder's type checks are not carried onto altered data: a
    # dataclasses.replace copy of a decoded document, or the decoded data
    # itself with a part swapped in place, fails exactly as the same change
    # to find_embedding_data output does.
    decoded = cli._data_from_document(json.loads(EMBED_P13))
    found = embed.find_embedding_data((1, 3), 1)
    assert outcome(check, decoded) == outcome(check, found)
    expected = outcome(check, dataclasses.replace(found, **spoil(found)))
    assert expected[0] == "InvalidEmbeddingData"
    assert outcome(check, dataclasses.replace(decoded, **spoil(decoded))) == expected
    for name, value in spoil(decoded).items():
        object.__setattr__(decoded, name, value)
    assert outcome(check, decoded) == expected


class CountingTuple(tuple):
    """A tuple that counts the items its iterators yield, over all instances."""

    yielded = 0

    def __iter__(self):
        for item in super().__iter__():
            CountingTuple.yielded += 1
            yield item


def counted(data):
    """data with V1, each block and the coordinates as CountingTuples."""
    return dataclasses.replace(
        data,
        V1=CountingTuple(data.V1),
        V2_blocks=tuple(map(CountingTuple, data.V2_blocks)),
        coordinates=CountingTuple(data.coordinates),
    )


def passes(check, data):
    """Full passes check(data) makes over the coordinates, V1 and the blocks."""
    CountingTuple.yielded = 0
    check(data)
    return CountingTuple.yielded / len(data.coordinates)


CHECKS = {"verify": "verify_immersion", "recover": "recover_data"}

# On decoded data, structure validation makes 2 passes per group (total
# degrees, then canonical order) and 1 over the blocks laying them out;
# the weighted degrees take one lockstep pass per weight.  That is all of
# recover.  verify adds 1 for the chart check (V1's off-supports, the
# block sets), 1 finding the coordinates with a zero exponent, and part
# of one for the full stratum, whose rows stop once they fill its lattice.
PASS_BOUNDS = {"verify": 8.5, "recover": 6}


@pytest.mark.parametrize("command", ["verify", "recover"])
def test_verify_and_recover_pass_over_the_decoded_monomials_a_bounded_number_of_times(
    capsys, monkeypatch, command
):
    text = json.dumps(embed_document(capsys, "2,3,5"))
    expected = run_on(capsys, monkeypatch, command, text)
    check = getattr(embed, CHECKS[command])
    record = embed._record_typed
    seen = []

    def counting_check(data):
        seen.append(passes(check, data))
        return check(data)

    monkeypatch.setattr(embed, "_record_typed", lambda data: record(counted(data)))
    monkeypatch.setattr(embed, CHECKS[command], counting_check)
    assert run_on(capsys, monkeypatch, command, text) == expected
    assert 0 < seen[0] <= PASS_BOUNDS[command]
    # A Python caller's data gets the type checks as well, in 3 more passes.
    found = counted(embed.find_embedding_data((2, 3, 5), 1))
    assert passes(check, found) == pytest.approx(seen[0] + 3)


def drop_top_power(text):
    """The (1,3) document without y^2, the pure power of its heaviest variable."""
    doc = json.loads(text)
    doc["V2"][-1].remove([0, 2])
    doc["coordinates"].remove([0, 2])
    doc["target_weights"].pop()
    return json.dumps(doc)


def forge_twist(text):
    doc = json.loads(text)
    doc["N"] *= 2
    return json.dumps(doc)


COLLECTOR_CASES = [
    ("verify", EMBED_P13, 0, None),
    ("recover", EMBED_P13, 0, None),
    ("verify", drop_top_power(EMBED_P13), 1, "ChartGenerationFailed"),
    ("recover", forge_twist(EMBED_P13), 1, "RoundTripMismatch"),
    ("verify", "{not json", 2, "SchemaViolation"),
    ("recover", "{not json", 2, "SchemaViolation"),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize(
    "command,text,code,error", COLLECTOR_CASES, ids=[f"{c[0]} {c[3]}" for c in COLLECTOR_CASES]
)
def test_the_collector_is_paused_over_a_document_and_restored(
    capsys, monkeypatch, enabled, command, text, code, error
):
    check = getattr(embed, CHECKS[command])
    during = []
    monkeypatch.setattr(
        embed, CHECKS[command], lambda data: during.append(gc.isenabled()) or check(data)
    )
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        got, out = run_on(capsys, monkeypatch, command, text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert got == code
    assert json.loads(out).get("error") == error
    assert during == ([] if code == 2 else [False])


# ---------------------------------------------------------------------------
# --pretty renders the handler's document


# ample-check's descent modulus here is 1000003 * 1000033 * 1000037 > 2^53.
PRETTY_JOBS = [
    (["sections", "--weights", "1,3", "--degree", "6"],
     "sections\n  degree 6: x⁶, x³y, y²\n"),
    (["hilbert-series", "--weights", "1,3", "--max-degree", "6"],
     "hilbert-series\n  1 1 1 2 2 2 3\n"),
    (["proj", "--matrix", "1,-1,0,2", "--chi", "1"],
     "proj\n  yw (degree 1, chart stable)\n  x (degree 1, chart stable)\n"
     "  w (degree 2, chart stable)\n  invariants: y²w, xy, z\n  pointed: False\n"),
    (["ample-check", "--weights", "1000003,1000033,1000037", "--degree", "1"],
     "ample-check\n  faithful: True\n  det-ample: True\n  h-ample: True\n"
     "  descent modulus: 1000073001431003663\n"),
    (["morphism-check", "--weights", "1,1", "--degree", "1", "--sections", "1,0:1;0,1:1"],
     "morphism-check\n  well defined: True\n  polynomial target: True\n  base locus: []\n"),
    (["morphism-check", "--weights", "3,2,5", "--degree", "1", "--sections", "2,0,1:2"],
     "morphism-check\n  well defined: False\n  polynomial target: True\n"
     "  base locus: [[0, 1], [1, 2]]\n"),
    (["stable-locus", "--matrix", "1,-1,0,2", "--chi", "1"],
     "stable-locus\n  minimal stable supports: {1}, {4}\n"),
    (["embed", "--weights", "1,3", "--degree", "1"],
     "embed\n  m0=3 N=3\n  V1: x³, y\n  V2[1]: x⁴, xy\n  V2[2]: x⁵, x²y\n"
     "  V2[3]: x⁶, x³y, y²\n  target weights: 3,3,4,4,5,5,6,6,6\n"
     "  map: [x³ : y : x⁴ : xy : x⁵ : x²y : x⁶ : x³y : y²]\n"),
    (["selftest"],
     "selftest\n"
     "  ok  embed reproduces the reference example\n"
     "  ok  verify passes on reference data\n"
     "  ok  recover round-trips reference data\n"
     "  ok  proj presents two generators of degrees 1 and 3\n"
     "  ok  sections are canonically ordered\n"
     "  ok  hilbert series matches section counts\n"
     "  ok  stable loci match reference values\n"
     "  ok  serialization is deterministic and round-trips\n"
     "  passed: True\n"),
]


@pytest.mark.parametrize("argv,text", PRETTY_JOBS, ids=[a[0] for a, _ in PRETTY_JOBS])
def test_pretty_bytes(capsys, monkeypatch, argv, text):
    monkeypatch.delenv("ORBISTACK_DEGREE_BOUND", raising=False)
    assert run(capsys, argv + ["--pretty"]) == (0, text)


@pytest.mark.parametrize(
    "command,text",
    [
        ("verify", "verify\n  verdict: pass\n  charts checked: 2\n  strata checked: 3\n"),
        ("recover", "recover\n  dprime=1 N=3 m0=3 matches=True\n"),
    ],
)
def test_pretty_bytes_of_document_commands(capsys, monkeypatch, command, text):
    assert run_on(capsys, monkeypatch, command, EMBED_P13, "--pretty") == (0, text)

"""Command line envelopes, exit codes, and byte determinism.

Every stdout line is frozen as exact bytes; identical invocations must
emit identical bytes, and the two failure modes keep their exit codes
apart: 1 for a domain failure with a witness, 2 for malformed input.
"""

import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbistack import DomainError, ResourceLimitExceeded, cli, embed, git, lattice, wps

REPO = Path(__file__).resolve().parent.parent

SECTIONS_P13 = (
    '{"schema":1,"command":"sections","weights":[1,3],"degree":6,'
    '"basis":[[6,0],[3,1],[0,2]]}\n'
)

EMBED_P13 = (
    '{"schema":1,"command":"embed","weights":[1,3],"dprime":1,"m0":3,"N":3,'
    '"V1":[[3,0],[0,1]],"V2":[[[4,0],[1,1]],[[5,0],[2,1]],[[6,0],[3,1],[0,2]]],'
    '"target_weights":[3,3,4,4,5,5,6,6,6],'
    '"coordinates":[[3,0],[0,1],[4,0],[1,1],[5,0],[2,1],[6,0],[3,1],[0,2]],'
    '"certification":{"descent_modulus":3,"candidates_tried":[3],'
    '"first_candidate_passed":true,"normality_degrees_checked":[],'
    '"assumption":"higher cohomology of the twisted pushforwards is assumed '
    'to vanish, as for nef bundles on a projective toric coarse space"}}\n'
)

VERIFY_P13 = (
    '{"schema":1,"command":"verify","verdict":"pass",'
    '"certified_via":"semigroup-generators",'
    '"charts":[{"chart":[3,0],"generators_checked":2},'
    '{"chart":[0,1],"generators_checked":2}],'
    '"strata":[{"support":[0],"stabilizer_order":1,"weight_gcd":1,"lattice_index":1},'
    '{"support":[1],"stabilizer_order":3,"weight_gcd":3,"lattice_index":1},'
    '{"support":[0,1],"stabilizer_order":1,"weight_gcd":1,"lattice_index":1}]}\n'
)


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_sections_envelope_is_frozen_and_rerun_identical(capsys):
    first = run(capsys, ["sections", "--weights", "1,3", "--degree", "6"])
    second = run(capsys, ["sections", "--weights", "1,3", "--degree", "6"])
    assert first == second == (0, SECTIONS_P13)


def test_hilbert_series_envelope(capsys):
    assert run(capsys, ["hilbert-series", "--weights", "1,3", "--max-degree", "6"]) == (
        0,
        '{"schema":1,"command":"hilbert-series","weights":[1,3],"max_degree":6,'
        '"series":[1,1,1,2,2,2,3]}\n',
    )


def test_ample_check_envelopes(capsys):
    assert run(capsys, ["ample-check", "--weights", "1,3", "--degree", "1"]) == (
        0,
        '{"schema":1,"command":"ample-check","weights":[1,3],"degree":1,'
        '"faithful":true,"witness":null,"det_ample":true,"h_ample":true,'
        '"descent_modulus":3}\n',
    )
    assert run(capsys, ["ample-check", "--weights", "1,3", "--degree", "3"]) == (
        0,
        '{"schema":1,"command":"ample-check","weights":[1,3],"degree":3,'
        '"faithful":false,"witness":{"support":[1],"stabilizer_order":3},'
        '"det_ample":false,"h_ample":false,"descent_modulus":3}\n',
    )


def test_integers_past_the_safe_range_become_strings(capsys):
    code, out = run(
        capsys,
        ["ample-check", "--weights", "2,1152921504606846977", "--degree", "1"],
    )
    assert code == 0
    assert out == (
        '{"schema":1,"command":"ample-check","weights":[2,"1152921504606846977"],'
        '"degree":1,"faithful":true,"witness":null,"det_ample":true,'
        '"h_ample":true,"descent_modulus":"2305843009213693954"}\n'
    )
    doc = json.loads(out)
    assert doc["descent_modulus"] == str(2 * 1152921504606846977)


def test_embed_envelope_is_frozen(capsys):
    assert run(capsys, ["embed", "--weights", "1,3", "--degree", "1"]) == (0, EMBED_P13)


def test_embed_pretty_rendering(capsys):
    code, out = run(capsys, ["embed", "--weights", "1,3", "--degree", "1", "--pretty"])
    assert code == 0
    assert out.splitlines() == [
        "embed",
        "  m0=3 N=3",
        "  V1: x³, y",
        "  V2[1]: x⁴, xy",
        "  V2[2]: x⁵, x²y",
        "  V2[3]: x⁶, x³y, y²",
        "  target weights: 3,3,4,4,5,5,6,6,6",
        "  map: [x³ : y : x⁴ : xy : x⁵ : x²y : x⁶ : x³y : y²]",
    ]


def test_domain_failure_exits_1_with_witness(capsys):
    assert run(capsys, ["embed", "--weights", "1,3", "--degree", "0"]) == (
        1,
        '{"error":"NotDetAmple","message":"the requested degree is not det-ample",'
        '"witness":{"weights":[1,3],"degree":0,"support":[1],"stabilizer_order":3}}\n',
    )


def test_a_line_too_long_for_a_range_exits_1_with_one_document(capsys):
    # Degree 10^23 - 1 on weights (1, 2) is one line of 5 * 10^22 points,
    # more than len() of a range can report: a typed refusal, not a
    # traceback.
    argv = ["sections", "--weights", "1,2", "--degree", "99999999999999999999999"]
    assert run(capsys, argv) == (
        1,
        '{"error":"ResourceLimitExceeded",'
        '"message":"a line of the graded piece has more points than a range can count",'
        f'"witness":{{"limit":"{sys.maxsize}"}}}}\n',
    )
    with pytest.raises(ResourceLimitExceeded) as err:
        wps.section_basis((1, 2), 99999999999999999999999)
    assert isinstance(err.value, DomainError) and err.value.witness == {"limit": sys.maxsize}


@pytest.mark.parametrize(
    "weights,degree",
    [("1000000,1000001", "1000000000000"), ("1", "1000000000000000")],
)
def test_huge_degree_one_point_pieces_keep_their_bytes(capsys, weights, degree):
    point = [int(degree) // int(weights.split(",")[0])] + [0] * weights.count(",")
    assert run(capsys, ["sections", "--weights", weights, "--degree", degree]) == (
        0,
        f'{{"schema":1,"command":"sections","weights":[{weights}],"degree":{degree},'
        f'"basis":[{json.dumps(point, separators=(",", ":"))}]}}\n',
    )


def test_verify_reads_file_and_stdin(capsys, tmp_path, monkeypatch):
    path = tmp_path / "data.json"
    path.write_text(EMBED_P13, encoding="utf-8")
    assert run(capsys, ["verify", "--data", str(path)]) == (0, VERIFY_P13)
    monkeypatch.setattr(sys, "stdin", io.StringIO(EMBED_P13))
    assert run(capsys, ["verify", "--data", "-"]) == (0, VERIFY_P13)


def test_recover_envelope(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(EMBED_P13))
    assert run(capsys, ["recover", "--data", "-"]) == (
        0,
        '{"schema":1,"command":"recover","dprime":1,"N":3,"m0":3,'
        '"V1":[[3,0],[0,1]],"V2":[[[4,0],[1,1]],[[5,0],[2,1]],'
        '[[6,0],[3,1],[0,2]]],"matches":true}\n',
    )


def test_forged_twist_fails_recovery_through_the_cli(capsys, monkeypatch):
    doc = json.loads(EMBED_P13)
    doc["N"] = 6
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert run(capsys, ["recover", "--data", "-"]) == (
        1,
        '{"error":"RoundTripMismatch","message":"recovered twist differs",'
        '"witness":{"field":"N","stored":6,"recovered":3}}\n',
    )


def test_stable_locus_envelope_and_pretty(capsys):
    assert run(capsys, ["stable-locus", "--matrix", "1,3", "--chi", "1"]) == (
        0,
        '{"schema":1,"command":"stable-locus","matrix":[[1,3]],"chi":[1],'
        '"minimal_supports":[[1],[2]]}\n',
    )
    code, out = run(capsys, ["stable-locus", "--matrix", "1,3", "--chi", "1", "--pretty"])
    assert (code, out) == (0, "stable-locus\n  minimal stable supports: {1}, {2}\n")


def test_proj_envelope(capsys, monkeypatch):
    monkeypatch.delenv("ORBISTACK_DEGREE_BOUND", raising=False)
    assert run(capsys, ["proj", "--matrix", "1,3", "--chi", "1"]) == (
        0,
        '{"schema":1,"command":"proj","matrix":[[1,3]],"chi":[1],'
        '"generators":[{"monomial":[1,0],"degree":1,"support":[1],"chart_stable":true},'
        '{"monomial":[0,1],"degree":3,"support":[2],"chart_stable":true}],'
        '"invariant_generators":[],"pointed":true,"certified_degree":12,'
        '"minimal_stable_supports":[[1],[2]]}\n',
    )


def test_morphism_check_envelope(capsys):
    assert run(
        capsys,
        ["morphism-check", "--weights", "1,1", "--degree", "1",
         "--sections", "1,0:1;0,1:1"],
    ) == (
        0,
        '{"schema":1,"command":"morphism-check","weights":[1,1],"dprime":1,'
        '"sections":[{"monomial":[1,0],"weight":1},{"monomial":[0,1],"weight":1}],'
        '"well_defined":true,"polynomial_target":true,"base_locus":[],'
        '"lands_in_stable":true}\n',
    )


# Past the interpreter's 4300-digit int/str conversion limit.
HUGE = "9" * 5000
# 3001 digits each: printable, but their lcm has about 6000 digits.
WIDE_A = "1" + "0" * 2999 + "1"
WIDE_B = "1" + "0" * 2999 + "3"


def schema_violation(out):
    """The single JSON document a malformed-input exit prints."""
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert doc["error"] == "SchemaViolation"
    return doc


@pytest.mark.parametrize(
    "argv,message,path",
    [
        (["sections", "--weights", "1,x", "--degree", "6"],
         "expected an integer at weights[1]", "weights[1]"),
        (["sections", "--weights", "0,3", "--degree", "6"],
         "weights must be positive at weights[0]", "weights[0]"),
        (["morphism-check", "--weights", "1,1", "--degree", "0",
          "--sections", "1,0:1"],
         "degree must be positive", "degree"),
        (["morphism-check", "--weights", "1,1", "--degree", "1",
          "--sections", "1,0"],
         "expected 'exponents:weight' at sections[0]", "sections[0]"),
        (["stable-locus", "--matrix", "1,2;3", "--chi", "1"],
         "ragged matrix row at matrix[1]", "matrix[1]"),
        (["stable-locus", "--matrix", "1,3", "--chi", "1,2"],
         "character length 2 does not match 1 matrix rows", "chi"),
        (["hilbert-series", "--weights", "1,3", "--max-degree", "-1"],
         "max_degree must be nonnegative", "max_degree"),
        (["sections", "--weights", "1,3", "--degree", "\u00b2"],
         "expected an integer at degree", "degree"),
        (["sections", "--weights", "1," + HUGE, "--degree", "3"],
         "integer has too many digits at weights[1]", "weights[1]"),
        (["ample-check", "--weights", f"{WIDE_A},{WIDE_B}", "--degree", "1"],
         "integer has too many digits at $.descent_modulus", "$.descent_modulus"),
        (["stable-locus", "--matrix", "-1,1", "--chi", "1"],
         "orbistack stable-locus: argument --matrix: expected one argument", "argv"),
        (["sections", "--weights", "1,3"],
         "orbistack sections: the following arguments are required: --degree", "argv"),
        ([], "orbistack: the following arguments are required: command", "argv"),
    ],
)
def test_malformed_input_exits_2(capsys, argv, message, path):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    doc = schema_violation(captured.out)
    assert doc["message"] == message
    assert doc["witness"]["path"] == path


def test_unprintable_failure_witness_exits_2(capsys, monkeypatch):
    # The twist does not descend, and the witness carries the lcm.
    doc = {"weights": [WIDE_A, WIDE_B], "dprime": 1, "m0": 1, "N": 1,
           "V1": [[1, 0]], "V2": [[]], "target_weights": [1]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = run(capsys, ["verify", "--data", "-"])
    assert code == 2
    assert schema_violation(out)["witness"]["path"] == "$.witness.descent_modulus"


def test_non_ascii_digit_string_in_a_document_exits_2(capsys, monkeypatch):
    doc = json.loads(EMBED_P13)
    doc["N"] = "\u00b2"
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = run(capsys, ["verify", "--data", "-"])
    assert code == 2
    assert schema_violation(out)["witness"]["path"] == "$.N"


def test_help_still_exits_0_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: orbistack")


CERTIFICATION_P13 = json.loads(EMBED_P13)["certification"]


@pytest.mark.parametrize(
    "certification,message",
    [
        ({"descent_modulus": 3},
         "missing key at $.certification.candidates_tried"),
        ({**CERTIFICATION_P13, "first_candidate_passed": 1},
         "expected a boolean at $.certification.first_candidate_passed"),
        ({**CERTIFICATION_P13, "assumption": None},
         "expected a string at $.certification.assumption"),
        ({**CERTIFICATION_P13, "candidates_tried": 3},
         "expected an array at $.certification.candidates_tried"),
        ({**CERTIFICATION_P13, "normality_degrees_checked": ["x"]},
         "expected an integer at $.certification.normality_degrees_checked[0]"),
        ([], "expected an object at $.certification"),
    ],
)
def test_malformed_certification_block_exits_2(capsys, monkeypatch, certification, message):
    doc = json.loads(EMBED_P13)
    doc["certification"] = certification
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = run(capsys, ["verify", "--data", "-"])
    assert code == 2
    found = schema_violation(out)
    assert found["message"] == message
    assert found["witness"]["path"] == message.rpartition(" at ")[2]


def test_internal_invariant_failure_exits_1_with_one_document(capsys, monkeypatch):
    search = lattice.minimal_homogeneous_solutions
    monkeypatch.setattr(
        lattice,
        "minimal_homogeneous_solutions",
        lambda rows, n: tuple(s for s in search(rows, n) if s != (1, 0, 1)),
    )
    code, out = run(capsys, ["proj", "--matrix", "1,3", "--chi", "1"])
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "error": "InvariantViolation",
        "message": "generator completeness failed",
        "witness": {"degree": 1, "monomial": [1, 0]},
    }


def test_unreadable_and_invalid_documents_exit_2(capsys, monkeypatch):
    code, out = run(capsys, ["verify", "--data", "/no/such/file.json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "SchemaViolation"
    assert doc["message"].startswith("cannot read data file:")

    monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
    code, out = run(capsys, ["verify", "--data", "-"])
    assert code == 2
    doc = json.loads(out)
    assert doc["message"].startswith("invalid JSON:")
    assert doc["witness"]["path"] == "$"


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
@pytest.mark.parametrize("command", ["verify", "recover"])
def test_a_document_that_is_not_utf8_exits_2(capsys, tmp_path, monkeypatch, command, errors):
    # A file is read as strict UTF-8; stdin decodes with the locale's error
    # handler, surrogateescape under a C or POSIX locale.  Either way the
    # bytes are not JSON, and one document says so at $.
    raw = bytes.fromhex("fffe7b7d")
    path = tmp_path / "data.json"
    path.write_bytes(raw)
    stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors=errors)
    monkeypatch.setattr(sys, "stdin", stdin)
    for source in [str(path), "-"]:
        code, out = run(capsys, [command, "--data", source])
        assert code == 2
        doc = schema_violation(out)
        assert doc["message"].startswith("invalid JSON:")
        assert doc["witness"] == {"path": "$"}


def test_degree_bound_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ORBISTACK_DEGREE_BOUND", "20")
    code, out = run(capsys, ["proj", "--matrix", "1,3", "--chi", "1"])
    assert code == 0
    assert json.loads(out)["certified_degree"] == 20


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_degree_bound_env_rejects_garbage(capsys, monkeypatch, value):
    monkeypatch.setenv("ORBISTACK_DEGREE_BOUND", value)
    code, out = run(capsys, ["proj", "--matrix", "1,3", "--chi", "1"])
    assert code == 2
    doc = json.loads(out)
    assert doc["message"] == "ORBISTACK_DEGREE_BOUND must be a positive integer"
    assert doc["witness"]["path"] == "env.ORBISTACK_DEGREE_BOUND"


def test_selftest_runs_all_checks(capsys):
    code, out = run(capsys, ["selftest"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "embed reproduces the reference example",
        "verify passes on reference data",
        "recover round-trips reference data",
        "proj presents two generators of degrees 1 and 3",
        "sections are canonically ordered",
        "hilbert series matches section counts",
        "stable loci match reference values",
        "serialization is deterministic and round-trips",
    ]
    assert all(c["ok"] for c in doc["checks"])

    code, out = run(capsys, ["selftest", "--pretty"])
    assert code == 0
    assert out.splitlines()[-1] == "  passed: True"


def console_script_target(name):
    """The "module:attr" target of ``name`` under [project.scripts].

    A line scan instead of tomllib, which Python 3.10 lacks.
    """
    table = None
    for line in (REPO / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]":
            key, sep, value = line.partition("=")
            if sep and key.strip() == name:
                return value.strip().strip("\"'")
    raise AssertionError(f"no [project.scripts] entry named {name}")


def test_console_script_matches_in_process_output(capsys):
    argv = ["sections", "--weights", "1,3", "--degree", "6"]
    module, _, attr = console_script_target("orbistack").partition(":")
    wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True,
        env=env,
        timeout=60,
    )
    code, out = run(capsys, argv)
    assert code == result.returncode == 0
    assert result.stderr == b""
    assert result.stdout == out.encode("utf-8") == SECTIONS_P13.encode("utf-8")


def test_shared_parser_leaves_no_state_between_calls(capsys):
    # main builds its parser once per process.  Rejected argvs, valid
    # commands and --pretty, in turn, print what separate processes print.
    sequence = [
        ["sections", "--weights", "1,3"],
        ["sections", "--weights", "1,3", "--degree", "6"],
        ["sections", "--weights", "1,3", "--degree", "6", "--pretty"],
        ["no-such-command"],
        ["verify"],
        ["hilbert-series", "--weights", "1,3", "--max-degree", "4", "--pretty"],
        ["sections", "--weights", "1,3", "--degree", "6"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    separate = []
    for argv in sequence:
        result = subprocess.run(
            [sys.executable, "-m", "orbistack.cli", *argv],
            capture_output=True,
            env=env,
            timeout=60,
        )
        separate.append((result.returncode, result.stdout.decode("utf-8")))
    cli.build_parser.cache_clear()
    in_process = [run(capsys, argv) for argv in sequence]
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _ in in_process] == [2, 0, 0, 2, 2, 0, 0]
    assert in_process == separate


@pytest.mark.parametrize("size", [1, 7, 88, 89, 90])
def test_the_document_is_written_in_slices(capsys, monkeypatch, size):
    # SECTIONS_P13 is 89 characters with its newline.
    written = []
    monkeypatch.setattr(cli, "_WRITE_SLICE", size)
    monkeypatch.setattr(sys.stdout, "write", lambda text: written.append(text) or len(text))
    assert cli.main(["sections", "--weights", "1,3", "--degree", "6"]) == 0
    assert "".join(written) == SECTIONS_P13
    assert max(map(len, written)) == min(size, 88)


# (argv, module and name of the work the handler calls, exit code): one
# job of each kind of document, a domain failure and an argument error.
COLLECTOR_JOBS = [
    (["sections", "--weights", "1,3", "--degree", "6"], wps, "section_basis", 0),
    (["embed", "--weights", "1,3", "--degree", "1"], embed, "find_embedding_data", 0),
    (["proj", "--matrix", "1,3", "--chi", "1"], git, "proj_presentation", 0),
    (["stable-locus", "--matrix", "1,3", "--chi", "1"], git, "stable_locus", 0),
    (["embed", "--weights", "1,3", "--degree", "0"], embed, "find_embedding_data", 1),
    (["sections", "--weights", "1,3"], wps, "section_basis", 2),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize(
    "argv,module,name,code", COLLECTOR_JOBS, ids=[f"{job[0][0]} exit {job[3]}" for job in COLLECTOR_JOBS]
)
def test_the_collector_is_paused_over_every_job_and_restored(
    capsys, monkeypatch, enabled, argv, module, name, code
):
    work, print_document = getattr(module, name), cli.emit
    during, printing = [], []
    monkeypatch.setattr(module, name, lambda *a, **k: during.append(gc.isenabled()) or work(*a, **k))
    monkeypatch.setattr(cli, "emit", lambda doc: printing.append(gc.isenabled()) or print_document(doc))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        got = run(capsys, argv)[0]
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (got, after) == (code, enabled)
    assert during == ([] if code == 2 else [False])
    assert printing == [False]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_the_collector_comes_back_after_help(capsys, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled
    assert capsys.readouterr().out.startswith("usage: orbistack")


@pytest.mark.parametrize(
    "argv",
    [
        # About 1 MB, more than a pipe holds: print itself meets the closed pipe.
        ["sections", "--weights", "1,1,1", "--degree", "400"],
        # A few bytes, still in the buffer when main flushes it.
        ["sections", "--weights", "1,3", "--degree", "6"],
    ],
)
def test_closed_stdout_exits_1_with_nothing_on_stderr(argv):
    # As when the reader is `head -c 10`: the read end of stdout is
    # closed before the document is written.  stdout stays buffered, as
    # it is by default for a pipe.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "orbistack.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), stderr) == (1, b"")

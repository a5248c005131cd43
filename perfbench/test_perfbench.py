"""Tests of the benchmark itself: every check rejects a corrupted output,
the tracer changes no output bytes, and the runner refuses to run
without the program.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orbistack import cli  # noqa: E402

from perfbench import checks, oracles, tracer as tracer_mod, workloads  # noqa: E402
from perfbench.run import call, run_pass  # noqa: E402


def _run(argv, stdin=None):
    code, out, _ = call(cli, argv, stdin)
    return code, out


def _embed(weights, degree):
    code, out = _run(["embed", "--weights", ",".join(map(str, weights)), "--degree", str(degree)])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# embed


def _embed_group(weights=(2, 3, 5), degree=1):
    """The jobs of one mutated rung and their real outputs."""
    jobs = workloads.embed_group(weights, degree)
    result = run_pass(cli, jobs)
    assert result.failed == 0
    return jobs, result.outputs


def test_embed_checks_pass_on_real_outputs():
    jobs, outputs = _embed_group()
    assert [j.kind for j in jobs] == ["embed", "verify", "recover", "reject", "reject"]
    assert checks.check_embed(jobs, outputs) == []


def _corrupt(outputs, index, edit):
    doc = json.loads(outputs[index])
    edit(doc)
    changed = list(outputs)
    changed[index] = json.dumps(doc)
    return changed


EMBED_CORRUPTIONS = {
    "drop a V1 monomial": (0, lambda d: (d["V1"].pop(), d["coordinates"].pop(0), d["target_weights"].pop(0))),
    "repeat a V2 monomial": (0, lambda d: d["V2"][0].__setitem__(-1, d["V2"][0][0])),
    "raise a target weight": (0, lambda d: d["target_weights"].__setitem__(-1, d["target_weights"][-1] + 1)),
    "skip a chart": (1, lambda d: d["charts"].pop()),
    "skip a stratum": (1, lambda d: d["strata"].pop()),
    "fail the verdict": (1, lambda d: d.__setitem__("verdict", "fail")),
    "recover another twist": (2, lambda d: d.__setitem__("N", d["N"] + 1)),
    "reject with another error": (3, lambda d: d.__setitem__("error", "InvalidEmbeddingData")),
    "blame another coordinate": (3, lambda d: d["witness"].__setitem__("monomial", [1, 0, 0])),
    "misreport the twist": (4, lambda d: d["witness"].__setitem__("recovered", 0)),
}


@pytest.mark.parametrize("name", sorted(EMBED_CORRUPTIONS))
def test_embed_checks_catch_corruption(name):
    jobs, outputs = _embed_group()
    index, edit = EMBED_CORRUPTIONS[name]
    assert checks.check_embed(jobs, _corrupt(outputs, index, edit))


def test_embed_check_catches_a_wrong_section_count():
    doc = json.loads(_embed((2, 3, 5), 1))
    assert checks.check_embed_document(doc, (2, 3, 5), 1) == []
    # The same document read against other weights has the wrong sizes.
    assert checks.check_embed_document(doc, (2, 3, 7), 1)


def test_not_det_ample_rejection_is_checked():
    job = workloads.Job("reject", ("embed",), 1, "NotDetAmple", inputs={"weights": (2, 3), "degree": 2})
    code, out = _run(["embed", "--weights", "2,3", "--degree", "2"])
    assert code == 1
    assert checks.check_rejection(json.loads(out), job, None) == []
    wrong = workloads.Job("reject", ("embed",), 1, "ChartGenerationFailed", inputs=job.inputs)
    assert checks.check_rejection(json.loads(out), wrong, {"weights": [2, 3], "N": 1})


# ---------------------------------------------------------------------------
# stability


def _stability_pair():
    jobs = workloads.stability_jobs(3)[:2]
    result = run_pass(cli, jobs)
    assert result.failed == 0
    return jobs, result.outputs


def test_stability_checks_pass_on_real_outputs():
    jobs, outputs = _stability_pair()
    assert json.loads(outputs[0])["minimal_supports"]
    assert checks.check_stability(jobs, outputs) == []


def _edit_minimal(edit):
    def apply(doc):
        doc["minimal_supports"] = edit(doc["minimal_supports"])
    return apply


STABILITY_CORRUPTIONS = {
    "add a nested support": lambda m: m + [m[0] + [x for x in range(1, 13) if x not in m[0]][:1]],
    "shrink a minimal support": lambda m: [m[0][1:]] + m[1:],
    "grow every minimal support": lambda m: [
        sorted(set(s) | {next(x for x in range(1, 13) if x not in s)}) for s in m
    ],
    "drop all supports": lambda m: [],
}


@pytest.mark.parametrize("name", sorted(STABILITY_CORRUPTIONS))
def test_stability_checks_catch_corruption(name):
    jobs, outputs = _stability_pair()
    edit = _edit_minimal(STABILITY_CORRUPTIONS[name])
    assert checks.check_stability(jobs, _corrupt(outputs, 0, edit))


def test_stability_check_catches_a_changed_scaled_locus():
    jobs, outputs = _stability_pair()
    edit = _edit_minimal(lambda m: m[1:])
    assert checks.check_stability(jobs, _corrupt(outputs, 1, edit))


def test_stability_oracle_box_is_complete_on_small_cases():
    # chi = (0, 1) against columns (1, 0), (-1, 1): chi = c1 + c2 lies
    # in the interior of the cone they span, so the support is stable;
    # dropping a column leaves a rank-deficient support.
    oracle = oracles.StabilityOracle(((1, -1), (0, 1)), (0, 1), 2)
    assert oracle.stable([1, 2])
    assert not oracle.stable([1])
    # chi on a ray of the cone is not stable.
    boundary = oracles.StabilityOracle(((1, 0), (0, 1)), (1, 0), 2)
    assert not boundary.stable([1, 2])
    assert oracles.subgroup_box(3, 2) == 8


# ---------------------------------------------------------------------------
# graded


def _graded_outputs():
    jobs = [
        workloads.Job("sections", ("sections", "--weights", "1,2,3", "--degree", "12"),
                      inputs={"weights": (1, 2, 3), "degree": 12}),
        # Fourteen unit weights push the series past 2^53, where the
        # CLI prints decimal strings.
        workloads.Job("hilbert-series", ("hilbert-series", "--weights", ",".join(["1"] * 14), "--max-degree", "300"),
                      inputs={"weights": (1,) * 14, "max_degree": 300}),
    ] + [j for j in workloads.graded_jobs(0) if j.kind == "proj"][:1]
    jobs.append(workloads.Job("proj", ("proj", "--matrix=1,3", "--chi=1"),
                              inputs={"rows": ((1, 3),), "chi": (1,)}))
    result = run_pass(cli, jobs)
    assert result.failed == 0
    return jobs, result.outputs


def test_graded_checks_pass_on_real_outputs():
    jobs, outputs = _graded_outputs()
    assert checks.check_graded(jobs, outputs) == []


GRADED_CORRUPTIONS = {
    "drop a monomial": (0, lambda d: d["basis"].pop()),
    "repeat a monomial": (0, lambda d: d["basis"].__setitem__(1, d["basis"][0])),
    "reorder monomials": (0, lambda d: d["basis"].reverse()),
    "change a degree": (0, lambda d: d["basis"][-1].__setitem__(0, d["basis"][-1][0] + 1)),
    "bump a coefficient": (1, lambda d: d["series"].__setitem__(2, d["series"][2] + 1)),
    "bump a large coefficient": (1, lambda d: d["series"].__setitem__(-1, str(int(d["series"][-1]) + 1))),
    "break a generator": (2, lambda d: d["generators"][0]["monomial"].__setitem__(0, d["generators"][0]["monomial"][0] + 1)),
    "add a decomposable generator": (3, lambda d: d["generators"].append(
        {"monomial": [1, 1], "degree": 4, "support": [1, 2], "chart_stable": True})),
    "flip pointed": (3, lambda d: d.__setitem__("pointed", False)),
}


@pytest.mark.parametrize("name", sorted(GRADED_CORRUPTIONS))
def test_graded_checks_catch_corruption(name):
    jobs, outputs = _graded_outputs()
    index, edit = GRADED_CORRUPTIONS[name]
    assert checks.check_graded(jobs, _corrupt(outputs, index, edit))


# ---------------------------------------------------------------------------
# workloads, tracer, runner


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded_and_self_contained(name):
    build = workloads.WORKLOADS[name]
    assert build(4) == build(4)
    assert [j.argv for j in build(4)] != [j.argv for j in build(5)]
    for i, job in enumerate(build(4)):
        assert job.stdin_from is None or 0 <= job.stdin_from < i


def test_tracer_changes_no_bytes_and_restores_the_program():
    from orbistack import embed, lattice, wps

    jobs = workloads.embed_jobs(0)[:6] + workloads.stability_jobs(0)[:2]
    plain = run_pass(cli, jobs)
    tracer = tracer_mod.Tracer()
    traced = run_pass(cli, jobs, tracer)
    assert traced.outputs == plain.outputs
    assert embed.section_basis is wps.section_basis
    assert not hasattr(wps.section_basis, "__wrapped__")
    assert not hasattr(lattice.matrix_rank, "__wrapped__")

    metrics = tracer_mod.layer_metrics(tracer)
    assert metrics["cli.jobs"] == len(jobs)
    names = {span[0] for span in tracer.spans}
    # Names a module imported from another layer are traced where used.
    assert {"wps.section_basis", "lattice.graded_sections", "git.is_stable_support"} <= names
    assert "lattice.grlex_key" not in names
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracer_mod.LAYERS)
    assert 0 < self_total <= traced.wall * 1.01
    assert all(span[3] < i for i, span in enumerate(tracer.spans))


def test_runner_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "embed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

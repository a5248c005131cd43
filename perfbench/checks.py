"""Output checks, run after timing on one pass's outputs.

Each check compares a job's stdout with a computation made apart from
the program (``oracles``) or with a property the method must have.  A
check returns a list of problems; an empty list means the outputs hold.
Jobs that exited with an unexpected code count as failed operations and
are not checked here.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

from . import oracles
from .workloads import ENTRY_BOUND, heaviest


def _degree(weights, e) -> int:
    return sum(w * x for w, x in zip(weights, e))


def _grlex_descending(monomials) -> bool:
    for prev, cur in zip(monomials, monomials[1:]):
        sp, sc = sum(prev), sum(cur)
        if not (sp > sc or (sp == sc and list(prev) > list(cur))):
            return False
    return True


# ---------------------------------------------------------------------------
# embed


def check_embed_document(doc, weights, degree) -> list[str]:
    problems = []
    n_twist, m0 = doc["N"], doc["m0"]
    coeffs = oracles.series(weights, (m0 + n_twist) * degree)
    if len(doc["V1"]) != coeffs[n_twist * degree]:
        problems.append(f"|V1| = {len(doc['V1'])}, series says {coeffs[n_twist * degree]}")
    if len(doc["V2"]) != m0:
        problems.append(f"{len(doc['V2'])} V2 blocks for m0 = {m0}")
    for m, block in enumerate(doc["V2"], start=1):
        if len(block) != coeffs[(m + n_twist) * degree]:
            problems.append(
                f"|V2[{m}]| = {len(block)}, series says {coeffs[(m + n_twist) * degree]}"
            )
    for name, group in [("V1", doc["V1"])] + list(enumerate(doc["V2"], start=1)):
        if len({tuple(e) for e in group}) != len(group):
            problems.append(f"repeated monomial in block {name}")
    flat = doc["V1"] + [e for block in doc["V2"] for e in block]
    if doc["coordinates"] != flat:
        problems.append("coordinates are not V1 followed by the V2 blocks")
    expected_weights = [n_twist] * len(doc["V1"]) + [
        n_twist + m for m, block in enumerate(doc["V2"], start=1) for _ in block
    ]
    if doc["target_weights"] != expected_weights:
        problems.append("target weights are not N on V1 and N + m on block m")
    for e, t in zip(doc["coordinates"], doc["target_weights"]):
        if _degree(weights, e) != t * degree:
            problems.append(f"coordinate {e} has degree {_degree(weights, e)}, not {t} * {degree}")
            break
    return problems


def check_verify(report, doc) -> list[str]:
    problems = []
    n = len(doc["weights"])
    if report["verdict"] != "pass":
        problems.append(f"verdict {report['verdict']!r}")
    if [c["chart"] for c in report["charts"]] != doc["V1"]:
        problems.append("charts are not one per V1 monomial")
    supports = {tuple(s["support"]) for s in report["strata"]}
    if len(report["strata"]) != 2**n - 1 or len(supports) != 2**n - 1:
        problems.append(f"{len(report['strata'])} strata checked, expected {2**n - 1}")
    return problems


def check_recover(report, doc) -> list[str]:
    fields = ("dprime", "N", "m0", "V1", "V2")
    bad = [f for f in fields if report[f] != doc[f]]
    if bad or report["matches"] is not True:
        return [f"recover differs from the input on {bad or ['matches']}"]
    return []


def check_rejection(payload, job, doc) -> list[str]:
    if payload.get("error") != job.expect_error:
        return [f"rejected with {payload.get('error')!r}, expected {job.expect_error}"]
    witness = payload.get("witness", {})
    if job.expect_error == "ChartGenerationFailed":
        support = {i for i, x in enumerate(witness.get("monomial", [])) if x}
        if support != {heaviest(doc["weights"])}:
            return [f"chart failure witness {witness} is not the dropped pure power"]
    if job.expect_error == "RoundTripMismatch":
        expected = {"field": "N", "stored": 2 * doc["N"], "recovered": doc["N"]}
        if witness != expected:
            return [f"round-trip witness {witness}, expected {expected}"]
    return []


def check_embed(jobs, outputs) -> list[str]:
    problems = []
    for i, job in enumerate(jobs):
        out = outputs[i]
        if out is None:
            continue
        payload = json.loads(out)
        doc = json.loads(outputs[job.stdin_from]) if job.stdin_from is not None else None
        label = f"{job.argv[0]} {job.inputs['weights']}@{job.inputs['degree']}"
        if job.kind == "embed":
            found = check_embed_document(payload, job.inputs["weights"], job.inputs["degree"])
        elif job.kind == "verify":
            found = check_verify(payload, doc)
        elif job.kind == "recover":
            found = check_recover(payload, doc)
        else:
            found = check_rejection(payload, job, doc)
        problems.extend(f"{label}: {p}" for p in found)
    return problems


# ---------------------------------------------------------------------------
# stability


def check_locus(rows, chi, minimal, rng, samples: int = 6) -> list[str]:
    """Antichain, then the oracle on every minimal support, on each of its
    one-smaller subsets, on the full support and on sampled supports."""
    problems = []
    sets = [frozenset(s) for s in minimal]
    for a, b in combinations(sets, 2):
        if a <= b or b <= a:
            problems.append(f"minimal supports {sorted(a)} and {sorted(b)} are nested")
    oracle = oracles.StabilityOracle(rows, chi, ENTRY_BOUND)
    n = len(rows[0])
    for s in minimal:
        if not oracle.stable(s):
            problems.append(f"minimal support {s} is not stable")
        for i in s:
            smaller = [x for x in s if x != i]
            if oracle.stable(smaller):
                problems.append(f"minimal support {s} has a stable subset {smaller}")
    sampled = [list(range(1, n + 1))] + [
        sorted(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(samples)
    ]
    for s in sampled:
        claimed = any(m <= set(s) for m in sets)
        if claimed != oracle.stable(s):
            problems.append(f"support {s}: locus says {claimed}, oracle disagrees")
    return problems


def check_stability(jobs, outputs) -> list[str]:
    problems = []
    base = {}
    for i, job in enumerate(jobs):
        if outputs[i] is not None and job.kind == "stable-locus":
            base[(job.inputs["rows"], job.inputs["chi"])] = json.loads(outputs[i])
    for i, job in enumerate(jobs):
        if outputs[i] is None:
            continue
        rows, chi = job.inputs["rows"], job.inputs["chi"]
        minimal = json.loads(outputs[i])["minimal_supports"]
        label = f"stable-locus {rows} chi={chi}"
        if job.kind == "stable-locus":
            # Samples are drawn from the action itself, so a given action
            # is always checked on the same supports.
            found = check_locus(rows, chi, minimal, random.Random(repr((rows, chi))))
        else:
            reference = base.get((rows, chi))
            found = []
            if reference is not None and reference["minimal_supports"] != minimal:
                found.append(f"scaling chi by {job.inputs['scale']} changed the locus")
        problems.extend(f"{label}: {p}" for p in found)
    return problems


# ---------------------------------------------------------------------------
# graded


def check_sections(payload, weights, degree) -> list[str]:
    basis = payload["basis"]
    problems = []
    expected = oracles.series(weights, degree)[degree]
    if len(basis) != expected:
        problems.append(f"{len(basis)} monomials, series says {expected}")
    if len({tuple(e) for e in basis}) != len(basis):
        problems.append("repeated monomial")
    if any(len(e) != len(weights) or min(e) < 0 or _degree(weights, e) != degree for e in basis):
        problems.append(f"a monomial is not of degree {degree}")
    if not _grlex_descending(basis):
        problems.append("monomials are not in descending grlex order")
    return problems


def check_series(payload, weights, max_degree) -> list[str]:
    # Integers past 2^53 are printed as decimal strings.
    got = [int(c) for c in payload["series"]]
    if got != oracles.series(weights, max_degree):
        return ["series differs from the generating function"]
    return []


def check_proj(payload, rows, chi) -> list[str]:
    problems = []
    k, n = len(rows), len(rows[0])

    def image(e):
        return tuple(sum(r[j] * e[j] for j in range(n)) for r in rows)

    lifted = []
    for g in payload["generators"]:
        e, m = g["monomial"], g["degree"]
        if m < 1 or min(e) < 0 or image(e) != tuple(m * c for c in chi):
            problems.append(f"generator {e} of degree {m} does not solve W e = m chi")
        if tuple(g["support"]) != tuple(j + 1 for j, x in enumerate(e) if x):
            problems.append(f"generator {e} has the wrong support")
        lifted.append(tuple(e) + (m,))
    for e in payload["invariant_generators"]:
        if image(e) != (0,) * k or not any(e):
            problems.append(f"invariant generator {e} does not solve W e = 0")
        lifted.append(tuple(e) + (0,))
    if len(set(lifted)) != len(lifted):
        problems.append("repeated generator")
    for i, g in enumerate(lifted):
        if oracles.decomposes(g, lifted[:i] + lifted[i + 1 :]):
            problems.append(f"generator {list(g)} decomposes into the others")
    if payload["pointed"] != (not payload["invariant_generators"]):
        problems.append("pointed flag disagrees with the invariant generators")
    return problems


def check_graded(jobs, outputs) -> list[str]:
    problems = []
    for i, job in enumerate(jobs):
        if outputs[i] is None:
            continue
        payload = json.loads(outputs[i])
        if job.kind == "sections":
            found = check_sections(payload, job.inputs["weights"], job.inputs["degree"])
        elif job.kind == "hilbert-series":
            found = check_series(payload, job.inputs["weights"], job.inputs["max_degree"])
        else:
            found = check_proj(payload, job.inputs["rows"], job.inputs["chi"])
        problems.extend(f"{job.argv[0]} {job.inputs}: {p}" for p in found)
    return problems


CHECKS = {
    "embed": check_embed,
    "stability": check_stability,
    "graded": check_graded,
}

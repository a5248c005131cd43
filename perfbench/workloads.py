"""Job lists for the benchmark workloads.

A workload is a fixed list of CLI jobs built from a seed.  Every pass of
a run executes the same list, so every pass does the same operations.

The expensive inputs (the embedding ladder, the section degrees, the
Proj actions) are fixed: permuting the weights of a rung or the columns
of an action changes its cost by up to a factor of five, which would
turn the seed into the largest source of spread.  The seed chooses the
job order, the inputs of the cheap jobs, and the random actions of the
stability workload, whose cost concentrates because each pass runs many
of them.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    ``stdin_from`` names an earlier job of the same pass whose stdout is
    fed on stdin, after ``mutate`` when given.  ``inputs`` carries what
    the checks need to know about the job.
    """

    kind: str
    argv: tuple[str, ...]
    expect_exit: int = 0
    expect_error: str | None = None
    stdin_from: int | None = None
    mutate: Callable[[str], str] | None = None
    inputs: dict = field(default_factory=dict)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _matrix_arg(rows) -> str:
    return ";".join(_csv(r) for r in rows)


def _flatten(groups: list[list[Job]]) -> list[Job]:
    """Concatenate job groups, rebasing group-relative ``stdin_from``."""
    jobs: list[Job] = []
    for group in groups:
        base = len(jobs)
        for job in group:
            if job.stdin_from is not None:
                job = replace(job, stdin_from=base + job.stdin_from)
            jobs.append(job)
    return jobs


# ---------------------------------------------------------------------------
# embed

# Det-ample weight systems with 3 and 4 weights, up to just below the
# point where embed + verify cost more than a second each; the 4-weight
# rungs run the normality certificate, the 3-weight rungs skip it.
EMBED_LADDER = (
    ((2, 3, 5), 1),
    ((3, 5, 7), 1),
    ((3, 5, 7), 2),
    ((5, 7, 9), 1),
    ((5, 7, 11), 1),
    ((7, 9, 11), 1),
    ((1, 2, 3, 4), 1),
    ((1, 2, 4, 5), 1),
    ((1, 2, 3, 5), 1),
    ((2, 3, 4, 5), 1),
)

# Rungs whose documents are also mutated.  At degree 1 the section
# semigroup is generated by the coordinate axes, so m0 is the largest
# weight and the top block holds the heaviest variable's pure power.
MUTATED_RUNGS = (
    ((2, 3, 5), 1),
    ((3, 5, 7), 1),
    ((5, 7, 9), 1),
    ((5, 7, 11), 1),
    ((1, 2, 3, 4), 1),
    ((1, 2, 4, 5), 1),
    ((1, 2, 3, 5), 1),
)


def heaviest(weights) -> int:
    return max(range(len(weights)), key=lambda j: (weights[j], j))


def drop_top_power(text: str) -> str:
    """Remove the heaviest variable's pure power from the top V2 block."""
    doc = json.loads(text)
    weights = doc["weights"]
    j = heaviest(weights)
    top = doc["V2"][-1]
    pure = [e for e in top if all(x == 0 for i, x in enumerate(e) if i != j)]
    top.remove(pure[0])
    n_twist = doc["N"]
    doc["coordinates"] = doc["V1"] + [e for block in doc["V2"] for e in block]
    doc["target_weights"] = [n_twist] * len(doc["V1"]) + [
        n_twist + m for m, block in enumerate(doc["V2"], start=1) for _ in block
    ]
    return json.dumps(doc)


def double_twist(text: str) -> str:
    """Double N and leave everything else alone."""
    doc = json.loads(text)
    doc["N"] = 2 * doc["N"]
    return json.dumps(doc)


def embed_group(weights, degree) -> list[Job]:
    """The jobs of one ladder rung; ``stdin_from`` is relative to the group."""
    inputs = {"weights": weights, "degree": degree}
    argv = ("embed", "--weights", _csv(weights), "--degree", str(degree))
    group = [
        Job("embed", argv, inputs=inputs),
        Job("verify", ("verify", "--data", "-"), stdin_from=0, inputs=inputs),
        Job("recover", ("recover", "--data", "-"), stdin_from=0, inputs=inputs),
    ]
    if (weights, degree) in MUTATED_RUNGS:
        group.append(
            Job(
                "reject",
                ("verify", "--data", "-"),
                expect_exit=1,
                expect_error="ChartGenerationFailed",
                stdin_from=0,
                mutate=drop_top_power,
                inputs=inputs,
            )
        )
        group.append(
            Job(
                "reject",
                ("recover", "--data", "-"),
                expect_exit=1,
                expect_error="RoundTripMismatch",
                stdin_from=0,
                mutate=double_twist,
                inputs=inputs,
            )
        )
    return group


def embed_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    groups = [embed_group(weights, degree) for weights, degree in EMBED_LADDER]
    # Degrees sharing a factor with a weight act non-faithfully on that
    # weight's stabilizer; the seed picks the weight and the factor.
    for weights, _ in rng.sample(EMBED_LADDER, 3):
        w = rng.choice([x for x in weights if x > 1])
        degree = w * rng.randint(1, 3)
        argv = ("embed", "--weights", _csv(weights), "--degree", str(degree))
        groups.append(
            [
                Job(
                    "reject",
                    argv,
                    expect_exit=1,
                    expect_error="NotDetAmple",
                    inputs={"weights": weights, "degree": degree},
                )
            ]
        )
    rng.shuffle(groups)
    return _flatten(groups)


# ---------------------------------------------------------------------------
# stability

# (character rows, columns) of the seeded actions in one pass.
STABILITY_SHAPES = ((2, 10), (2, 11), (2, 12), (2, 12), (3, 10), (3, 10), (3, 11), (3, 11))

# Matrix and character entries lie in [-ENTRY_BOUND, ENTRY_BOUND]; the
# stability oracle's subgroup box is sized from this bound.
ENTRY_BOUND = 2


def stability_jobs(seed: int) -> list[Job]:
    """stable-locus on random actions, each again with chi scaled.

    Columns are distinct and nonzero: repeated columns are deduplicated
    inside the cone code, so allowing them would make the cost of an
    action depend on how many repeats the seed happened to draw.
    """
    rng = random.Random(seed)
    groups = []
    box = range(-ENTRY_BOUND, ENTRY_BOUND + 1)
    for k, n in STABILITY_SHAPES:
        pool = [c for c in itertools.product(box, repeat=k) if any(c)]
        columns = rng.sample(pool, n)
        rows = tuple(tuple(c[i] for c in columns) for i in range(k))
        chi = rng.choice(pool)
        scale = rng.randint(2, 5)
        scaled = tuple(scale * x for x in chi)
        matrix = _matrix_arg(rows)
        inputs = {"rows": rows, "chi": chi}
        groups.append(
            [
                Job(
                    "stable-locus",
                    ("stable-locus", f"--matrix={matrix}", f"--chi={_csv(chi)}"),
                    inputs=inputs,
                ),
                Job(
                    "stable-locus-scaled",
                    ("stable-locus", f"--matrix={matrix}", f"--chi={_csv(scaled)}"),
                    inputs=dict(inputs, scale=scale),
                ),
            ]
        )
    rng.shuffle(groups)
    return _flatten(groups)


# ---------------------------------------------------------------------------
# graded

# Large graded pieces: hundreds of thousands of monomials, MB-sized output.
SECTIONS = (
    ((1, 2, 3, 4, 5), 120),
    ((1, 1, 2, 3, 5, 8), 60),
    ((2, 3, 4, 5, 6, 7), 110),
)

# Small actions whose Proj completeness sweep costs 0.1-1 s.  Random
# actions of this size often take minutes in the sweep, so the list is
# fixed; the last one is not pointed and skips the sweep.
PROJ_ACTIONS = (
    (((4, 4, -2), (-1, -1, 4)), (3, 2)),
    (((2, 4, 2, 1),), (3,)),
    (((1, 3, -1, 2), (2, -1, 3, 2)), (3, 1)),
    (((0, 4, 2, 0, -1), (3, 3, 3, 1, 2)), (1, 1)),
    (((4, 0, 4, 4, 4), (2, 3, 4, 3, 0)), (2, 3)),
    (((-1, 4, 1, 3, -2), (4, 4, 0, 1, -1)), (1, 3)),
)


def graded_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = [
        Job(
            "sections",
            ("sections", "--weights", _csv(weights), "--degree", str(degree)),
            inputs={"weights": weights, "degree": degree},
        )
        for weights, degree in SECTIONS
    ]
    for _ in range(3):
        weights = tuple(sorted(rng.randint(1, 9) for _ in range(rng.randint(5, 6))))
        max_degree = rng.randint(300, 500)
        argv = ("hilbert-series", "--weights", _csv(weights), "--max-degree", str(max_degree))
        jobs.append(
            Job("hilbert-series", argv, inputs={"weights": weights, "max_degree": max_degree})
        )
    for rows, chi in PROJ_ACTIONS:
        argv = ("proj", f"--matrix={_matrix_arg(rows)}", f"--chi={_csv(chi)}")
        jobs.append(Job("proj", argv, inputs={"rows": rows, "chi": chi}))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "embed": embed_jobs,
    "stability": stability_jobs,
    "graded": graded_jobs,
}

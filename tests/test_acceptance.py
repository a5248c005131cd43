"""Acceptance suite: one test per shipped criterion, time budgets included.

The exhaustive stability claim is discharged by a reduction.  The
verdict for a support depends only on the set of weight columns it
selects plus the character: the implementation takes the rank and cone
position of exactly that column set, and the subgroup oracle imposes
sign conditions on the same columns.  Sweeping every column set of
size at most 4 against every character therefore covers every matrix
instance with at most 4 coordinates.  The oracle's subgroup search is
complete with entries in [-2, 2]: a nonempty destabilizer cone cut out
by functionals with entries in [-2, 2] is either pointed, with an
extreme ray orthogonal to one functional and hence proportional to a
vector with entries in [-2, 2], or contains a halfplane or line
through such a vector; in rank one the sign alone decides.
"""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

from orbistack import (
    CharacterAction,
    ChartGenerationFailed,
    IntMatrix,
    RoundTripMismatch,
    cli,
    find_embedding_data,
    hilbert_series,
    is_det_ample,
    is_stable_support,
    recover_data,
    section_basis,
    stable_locus,
    verify_immersion,
)
from tests import oracles
from tests.test_git import stability_power_invariance

SRC = Path(__file__).resolve().parent.parent / "src"

# Column-set verdict tables, shared between criteria 4 and 6.
_VERDICTS: dict[int, dict] = {}


def _box_verdicts(k: int) -> dict:
    """verdict[(column set, chi)] for every set of <= 4 distinct columns.

    Filled by an exhaustive sweep that also asserts agreement with the
    bounded subgroup oracle and invariance under scaling the character
    by 2 and 3.
    """
    if k in _VERDICTS:
        return _VERDICTS[k]
    cols_all = sorted(product(range(-2, 3), repeat=k))
    lambdas = [l for l in product(range(-2, 3), repeat=k) if any(l)]
    chis = cols_all
    full = (1 << len(lambdas)) - 1
    colmask = {}
    for c in cols_all:
        m = 0
        for b, lam in enumerate(lambdas):
            if sum(x * y for x, y in zip(lam, c)) >= 0:
                m |= 1 << b
        colmask[c] = m
    chimask = {}
    for chi in chis:
        m = 0
        for b, lam in enumerate(lambdas):
            if sum(x * y for x, y in zip(lam, chi)) <= 0:
                m |= 1 << b
        chimask[chi] = m

    verdicts = {}
    for size in range(1, 5):
        for subset in combinations(cols_all, size):
            rows = tuple(tuple(subset[j][i] for j in range(size)) for i in range(k))
            W = IntMatrix(rows, size)
            support = tuple(range(1, size + 1))
            mask = full
            for c in subset:
                mask &= colmask[c]
            spanning = oracles.frac_rank(subset) == k
            for chi in chis:
                got = is_stable_support(CharacterAction(W, chi), support).stable
                assert got == (spanning and not (mask & chimask[chi])), (subset, chi)
                for p in (2, 3):
                    scaled = CharacterAction(W, tuple(p * x for x in chi))
                    assert is_stable_support(scaled, support).stable == got
                verdicts[(subset, chi)] = got
    _VERDICTS[k] = verdicts
    return verdicts


def _run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_reference_embedding_is_exact(capsys):
    start = time.monotonic()
    code, doc = _run_cli(capsys, ["embed", "--weights", "1,3", "--degree", "1"])
    assert code == 0
    assert doc["m0"] == 3
    assert doc["N"] == 3
    assert doc["V1"] == [[3, 0], [0, 1]]
    assert doc["V2"] == [[[4, 0], [1, 1]], [[5, 0], [2, 1]], [[6, 0], [3, 1], [0, 2]]]
    assert doc["target_weights"] == [3, 3, 4, 4, 5, 5, 6, 6, 6]
    assert doc["coordinates"] == [
        [3, 0], [0, 1], [4, 0], [1, 1], [5, 0], [2, 1], [6, 0], [3, 1], [0, 2],
    ]
    assert time.monotonic() - start < 1.0


def test_criterion_2_proj_presents_two_generators(capsys):
    start = time.monotonic()
    code, doc = _run_cli(capsys, ["proj", "--matrix", "1,3", "--chi", "1"])
    assert code == 0
    assert [g["degree"] for g in doc["generators"]] == [1, 3]
    assert [g["monomial"] for g in doc["generators"]] == [[1, 0], [0, 1]]
    assert time.monotonic() - start < 1.0


def test_criterion_3_section_counts_match_the_generating_function():
    start = time.monotonic()
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 5)
        weights = tuple(rng.randint(1, 6) for _ in range(n))
        series = oracles.series_by_convolution(weights, 40)
        assert tuple(hilbert_series(weights, 40)) == tuple(series), weights
        for d in range(41):
            assert len(section_basis(weights, d).basis) == series[d], (weights, d)
    assert time.monotonic() - start < 30.0


def test_criterion_4_stability_matches_subgroup_oracle_exhaustively():
    start = time.monotonic()
    for k in (1, 2):
        verdicts = _box_verdicts(k)
        assert len(verdicts) == {1: 30 * 5, 2: 15275 * 25}[k]
        # The empty support never spans a positive-rank character space,
        # independently of the matrix.
        W = IntMatrix(tuple((0,) for _ in range(k)), 1)
        for chi in product(range(-2, 3), repeat=k):
            assert not is_stable_support(CharacterAction(W, chi), ()).stable

    # k = 0: the trivial group stabilizes nothing, so every support of
    # every matrix is stable and scaling the empty character is a no-op.
    for n in range(1, 5):
        act = CharacterAction(IntMatrix((), n), ())
        for size in range(n + 1):
            for s in combinations(range(1, n + 1), size):
                assert is_stable_support(act, s).stable
        assert stable_locus(act).minimal_stable_supports == ((),)

    # Literal spot checks on full matrices, duplicate columns included,
    # tying the column-set table back to concrete instances; the locus
    # comparison is the scaling claim stated on whole matrices.
    rng = random.Random(1)
    for _ in range(200):
        k = rng.randint(1, 2)
        n = rng.randint(1, 4)
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k))
        chi = tuple(rng.randint(-2, 2) for _ in range(k))
        act = CharacterAction(IntMatrix(rows, n), chi)
        for power in (2, 3):
            assert stability_power_invariance(act, power)
        support = tuple(
            sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        )
        colset = tuple(sorted(set(tuple(rows[i][j - 1] for i in range(k)) for j in support)))
        assert is_stable_support(act, support).stable == _VERDICTS[k][(colset, chi)]
    assert time.monotonic() - start < 60.0


def test_criterion_5_embedding_round_trip_and_mutations():
    start = time.monotonic()
    family = []
    for n in (1, 2, 3):
        for a in combinations_with_replacement(range(1, 6), n):
            for dprime in (1, 2, 3):
                if is_det_ample(a, dprime):
                    family.append((a, dprime))
    assert len(family) == 108  # distinct weight multisets; see note below

    for a, dprime in family:
        data = find_embedding_data(a, dprime)
        assert verify_immersion(data).verdict == "pass"
        report = recover_data(data)
        assert report.matches
        assert (report.dprime, report.N, report.m0) == (dprime, data.N, data.m0)
        assert report.V1 == data.V1
        assert report.V2_blocks == data.V2_blocks

        # Mutation 1: drop the top-degree pure power of the heaviest
        # variable.  Its block sits at index max(a), which equals m0 on
        # this family (asserted), so the dropped element is top-degree.
        n = len(a)
        jmax = max(range(n), key=lambda j: (a[j], j))
        assert a[jmax] == data.m0
        block = data.V2_blocks[data.m0 - 1]
        pure = [e for e in block if all(e[i] == 0 for i in range(n) if i != jmax)]
        assert len(pure) == 1
        blocks = list(data.V2_blocks)
        blocks[data.m0 - 1] = tuple(e for e in block if e != pure[0])
        blocks = tuple(blocks)
        mutated = dataclasses.replace(
            data,
            V2_blocks=blocks,
            coordinates=data.V1 + tuple(e for b in blocks for e in b),
            target_weights=tuple([data.N] * len(data.V1))
            + tuple(data.N + m for m, b in enumerate(blocks, start=1) for _ in b),
        )
        try:
            verify_immersion(mutated)
            raise AssertionError(f"dropped element not detected for {a}, {dprime}")
        except ChartGenerationFailed as err:
            bad = err.witness["monomial"]
            assert {i for i, x in enumerate(bad) if x} == {jmax}

        # Mutation 2: double N without rescaling anything else.  The
        # structural document stays self-consistent, so only the round
        # trip through the coordinate weights can notice.
        doubled = dataclasses.replace(data, N=2 * data.N)
        assert verify_immersion(doubled).verdict == "pass"
        try:
            recover_data(doubled)
            raise AssertionError(f"doubled twist not detected for {a}, {dprime}")
        except RoundTripMismatch as err:
            assert err.witness == {
                "field": "N",
                "stored": 2 * data.N,
                "recovered": data.N,
            }

    # The construction only reads per-coordinate weights, so permuting
    # the weights permutes every output; sorted representatives plus
    # sampled literal permutations cover the ordered tuples.
    rng = random.Random(5)
    mixed = [(a, d) for a, d in family if len(set(a)) > 1]
    for a, dprime in rng.sample(mixed, 15):
        p = list(a)
        while tuple(p) == a:
            rng.shuffle(p)
        data = find_embedding_data(tuple(p), dprime)
        assert verify_immersion(data).verdict == "pass"
        assert recover_data(data).matches
    assert time.monotonic() - start < 120.0


def test_criterion_6_upward_closure_and_positive_weight_specialization():
    # One-step closure on the column-set tables implies closure for
    # every instance: enlarging a support grows its column set one
    # column at a time, and duplicate columns do not change the set.
    for k in (1, 2):
        verdicts = _box_verdicts(k)
        cols_all = sorted(product(range(-2, 3), repeat=k))
        for (subset, chi), ok in verdicts.items():
            if not ok or len(subset) == 4:
                continue
            base = set(subset)
            for c in cols_all:
                if c not in base:
                    assert verdicts[(tuple(sorted(base | {c})), chi)], (subset, c, chi)

    # k = 1, positive weights, chi = 1: every coordinate axis is stable
    # and nothing smaller is, so the minimal supports are exactly the
    # singletons.  Exhaustive inside the [-2, 2] box, sampled beyond it.
    def expect_singletons(weights):
        act = CharacterAction(IntMatrix((tuple(weights),), len(weights)), (1,))
        locus = stable_locus(act)
        assert locus.minimal_stable_supports == tuple(
            (i,) for i in range(1, len(weights) + 1)
        ), weights

    for n in range(1, 5):
        for weights in product((1, 2), repeat=n):
            expect_singletons(weights)
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        expect_singletons(tuple(rng.randint(1, 9) for _ in range(n)))


# sha256 of the stdout of `embed --weights 1,2,3,4,5 --degree 1`, captured
# when the normality certificate still scanned every degree-jD monomial.
EMBED_12345_DIGEST = "445ac14039a48808367e8141e69726b2a0e37ef413135d805fa4ffbf4014f8ca"


def test_five_weight_embed_in_a_fresh_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["embed", "--weights", "1,2,3,4,5", "--degree", "1"]
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "orbistack.cli", *argv], capture_output=True, env=env, timeout=60
    )
    elapsed = time.monotonic() - start
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == EMBED_12345_DIGEST
    assert elapsed < 3.0

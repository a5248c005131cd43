"""Embedding construction, verification, and round trip.

The verifier certifies chart generation on semigroup generators and
stabilizer separation through an incremental relation lattice.  The
tests redo both claims literally: chart generation by exhaustive
multiset search over whole section blocks, separation by minor-gcd
lattice membership.  Expected outputs are frozen from hand
computations on small weight systems.
"""

import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest

from orbistack import (
    ChartGenerationFailed,
    EmbeddingData,
    InvalidEmbeddingData,
    NotDetAmple,
    RoundTripMismatch,
    StabilizerNotPreserved,
    VeryAmpleCertificationFailed,
    WeightSystem,
    find_embedding_data,
    hilbert_basis,
    morphism_from_sections,
    recover_data,
    section_basis,
    verify_immersion,
)
from orbistack import embed
from orbistack.embed import (
    STRATUM_CHUNK,
    _globally_generated,
    _lattice_index,
    _polytope_normality,
)
from orbistack import lattice
from orbistack.lattice import sort_monomials
from tests import oracles

GENUINE = [
    ((1, 3), 1),
    ((1, 1), 1),
    ((2,), 1),
    ((2, 3), 1),
    ((2, 4), 1),
    ((1, 3), 2),
    ((1, 1, 1, 1), 1),
]


def test_find_embedding_data_frozen_p13():
    data = find_embedding_data((1, 3), 1)
    assert data.source == WeightSystem.of((1, 3))
    assert data.dprime == 1
    assert data.m0 == 3
    assert data.N == 3
    assert data.V1 == ((3, 0), (0, 1))
    assert data.V2_blocks == (
        ((4, 0), (1, 1)),
        ((5, 0), (2, 1)),
        ((6, 0), (3, 1), (0, 2)),
    )
    assert data.target_weights == (3, 3, 4, 4, 5, 5, 6, 6, 6)
    assert data.coordinates == data.V1 + tuple(
        m for block in data.V2_blocks for m in block
    )
    cert = data.certification
    assert cert.descent_modulus == 3
    assert cert.candidates_tried == (3,)
    assert cert.first_candidate_passed
    assert cert.normality_degrees_checked == ()
    assert cert.assumption


def test_find_embedding_data_frozen_small_systems():
    data = find_embedding_data((1, 1), 1)
    assert (data.m0, data.N) == (1, 1)
    assert data.V1 == ((1, 0), (0, 1))
    assert data.V2_blocks == (((2, 0), (1, 1), (0, 2)),)
    assert data.target_weights == (1, 1, 2, 2, 2)

    data = find_embedding_data((2,), 1)
    assert (data.m0, data.N) == (2, 2)
    assert data.V1 == ((1,),)
    assert data.V2_blocks == ((), ((2,),))
    assert data.target_weights == (2, 4)

    data = find_embedding_data((1,), 1)
    assert (data.m0, data.N) == (1, 1)
    assert data.V1 == ((1,),)
    assert data.V2_blocks == (((2,),),)
    assert data.target_weights == (1, 2)

    data = find_embedding_data((2, 3), 1)
    assert (data.m0, data.N) == (3, 6)
    assert data.V1 == ((3, 0), (0, 2))
    assert data.V2_blocks == (((2, 1),), ((4, 0), (1, 2)), ((3, 1), (0, 3)))
    assert data.target_weights == (6, 6, 7, 8, 8, 9, 9)
    assert data.certification.first_candidate_passed

    data = find_embedding_data((2, 4), 1)
    assert (data.m0, data.N) == (4, 4)
    assert data.V1 == ((2, 0), (0, 1))
    assert data.V2_blocks == ((), ((3, 0), (1, 1)), (), ((4, 0), (2, 1), (0, 2)))
    assert data.target_weights == (4, 4, 6, 6, 8, 8, 8)


def test_find_embedding_data_frozen_twisted_bundle():
    data = find_embedding_data((1, 3), 2)
    assert (data.m0, data.N) == (3, 3)
    assert data.V1 == ((6, 0), (3, 1), (0, 2))
    assert data.V2_blocks == (
        ((8, 0), (5, 1), (2, 2)),
        ((10, 0), (7, 1), (4, 2), (1, 3)),
        ((12, 0), (9, 1), (6, 2), (3, 3), (0, 4)),
    )
    assert data.target_weights == (3, 3, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6)


def test_blocks_are_full_section_spaces():
    # Block m lists every section of degree (m + N) * dprime, in
    # canonical order; V1 lists degree N * dprime.
    for weights, dprime in GENUINE:
        data = find_embedding_data(weights, dprime)
        assert data.V1 == section_basis(weights, data.N * dprime).basis
        for m, block in enumerate(data.V2_blocks, start=1):
            assert block == section_basis(weights, (m + data.N) * dprime).basis


@pytest.mark.parametrize("weights,dprime", GENUINE)
def test_verify_immersion_passes_on_genuine_data(weights, dprime):
    data = find_embedding_data(weights, dprime)
    report = verify_immersion(data)
    assert report.verdict == "pass"
    assert report.certified_via == "semigroup-generators"
    assert tuple(c.chart for c in report.charts) == data.V1
    supports = [s.support for s in report.strata]
    n = len(data.source.weights)
    assert len(supports) == 2 ** n - 1
    for check in report.strata:
        assert check.lattice_index == 1
        g = 0
        for j in check.support:
            g = oracles.gcd(g, data.source.weights[j])
        assert check.stabilizer_order == g


def test_verify_strata_orders_frozen():
    report = verify_immersion(find_embedding_data((2, 4), 1))
    assert [(s.support, s.stabilizer_order, s.weight_gcd) for s in report.strata] == [
        ((0,), 2, 2),
        ((1,), 4, 4),
        ((0, 1), 2, 2),
    ]


@pytest.mark.parametrize("weights,dprime", GENUINE)
def test_chart_generation_matches_literal_search(weights, dprime):
    # The package certifies generation on semigroup generators only;
    # the oracle sweeps every monomial of every graded piece in a
    # window twice the generator range.
    data = find_embedding_data(weights, dprime)
    for chart in data.V1:
        for m in range(1, 2 * data.m0 + 1):
            for e in section_basis(weights, m * dprime):
                assert oracles.chart_generated(e, m, chart, data.V2_blocks), (
                    chart,
                    e,
                    m,
                )


@pytest.mark.parametrize("weights,dprime", GENUINE)
def test_stabilizer_separation_matches_minor_gcd_oracle(weights, dprime):
    data = find_embedding_data(weights, dprime)
    tagged = list(zip(data.target_weights, data.coordinates))
    n = len(data.source.weights)
    from itertools import combinations

    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            members = [
                (w, v)
                for w, v in tagged
                if all(v[j] == 0 for j in range(n) if j not in support)
            ]
            assert oracles.stratum_separated(data.source.weights, support, members)


def test_dropping_the_top_pure_power_breaks_a_chart():
    data = find_embedding_data((1, 3), 1)
    blocks = list(data.V2_blocks)
    blocks[2] = tuple(m for m in blocks[2] if m != (0, 2))
    mutated = dataclasses.replace(
        data,
        V2_blocks=tuple(blocks),
        coordinates=data.V1 + tuple(m for b in blocks for m in b),
        target_weights=data.target_weights[:-1],
    )
    with pytest.raises(ChartGenerationFailed) as exc:
        verify_immersion(mutated)
    assert exc.value.witness == {"chart": [0, 1], "monomial": [0, 1], "degree": 3}
    # The literal search agrees that the y chart lost generation.
    assert not oracles.chart_generated((0, 1), 3, (0, 1), blocks)
    assert oracles.chart_generated((0, 1), 3, (0, 1), data.V2_blocks)


def test_dropping_the_top_pure_power_breaks_p11_too():
    data = find_embedding_data((1, 1), 1)
    blocks = (tuple(m for m in data.V2_blocks[0] if m != (0, 2)),)
    mutated = dataclasses.replace(
        data,
        V2_blocks=blocks,
        coordinates=data.V1 + blocks[0],
        target_weights=data.target_weights[:-1],
    )
    with pytest.raises(ChartGenerationFailed) as exc:
        verify_immersion(mutated)
    assert exc.value.witness == {"chart": [0, 1], "monomial": [0, 1], "degree": 1}


def test_doubling_n_is_caught_by_recovery():
    for weights, dprime in [((1, 3), 1), ((2, 3), 1)]:
        data = find_embedding_data(weights, dprime)
        doubled = dataclasses.replace(data, N=2 * data.N)
        # The structural validator deliberately does not tie the listed
        # weights to the stored N, so the forgery survives verification
        # and the round trip is what catches it.
        assert verify_immersion(doubled).verdict == "pass"
        with pytest.raises(RoundTripMismatch) as exc:
            recover_data(doubled)
        assert exc.value.witness == {
            "field": "N",
            "stored": 2 * data.N,
            "recovered": data.N,
        }


@pytest.mark.parametrize("weights,dprime", GENUINE)
def test_recover_data_round_trips(weights, dprime):
    data = find_embedding_data(weights, dprime)
    report = recover_data(data)
    assert report.matches
    assert report.dprime == dprime
    assert report.N == data.N
    assert report.m0 == data.m0
    assert report.V1 == data.V1
    assert report.V2_blocks == data.V2_blocks


def test_recover_report_frozen():
    report = recover_data(find_embedding_data((1, 3), 2))
    assert report == type(report)(
        dprime=2,
        N=3,
        m0=3,
        V1=((6, 0), (3, 1), (0, 2)),
        V2_blocks=(
            ((8, 0), (5, 1), (2, 2)),
            ((10, 0), (7, 1), (4, 2), (1, 3)),
            ((12, 0), (9, 1), (6, 2), (3, 3), (0, 4)),
        ),
        matches=True,
    )


def test_tampered_dprime_is_caught():
    data = find_embedding_data((1, 3), 1)
    with pytest.raises(RoundTripMismatch) as exc:
        recover_data(dataclasses.replace(data, dprime=2))
    assert exc.value.witness == {"field": "dprime", "stored": 2, "recovered": 1}


def test_stratum_separation_failure_modes():
    base = find_embedding_data((1, 1), 1)
    # Forget y as a coordinate entirely: the y axis keeps only the
    # weight-2 member y^2, so the stratum gcd doubles.
    crafted = dataclasses.replace(
        base,
        V1=((1, 0),),
        coordinates=((1, 0),) + base.V2_blocks[0],
        target_weights=(1, 2, 2, 2),
    )
    with pytest.raises(StabilizerNotPreserved) as exc:
        verify_immersion(crafted)
    assert exc.value.witness == {
        "support": [1],
        "weight_gcd": 2,
        "stabilizer_order": 1,
        "index": None,
    }
    assert not oracles.stratum_separated((1, 1), (1,), [(2, (0, 2))])

    # Keep no member on the y axis at all.
    bare = dataclasses.replace(
        base,
        V1=((1, 0),),
        V2_blocks=(((2, 0),),),
        coordinates=((1, 0), (2, 0)),
        target_weights=(1, 2),
    )
    with pytest.raises(StabilizerNotPreserved) as exc:
        verify_immersion(bare)
    assert exc.value.witness == {"support": [1], "index": None}
    assert not oracles.stratum_separated((1, 1), (1,), [])


def test_verify_rejects_a_late_coordinate_off_the_degree_relation():
    # One full-support monomial of a foreign degree joins the top block,
    # so it comes after the rows that already fill the full stratum's
    # relation lattice.  Its row breaks a.v = d'w and puts a weight-0
    # vector outside ker(a) into the lattice.
    rng = random.Random(9)
    for weights in [(2, 3, 5), (1, 2, 3, 4)]:
        data = find_embedding_data(weights, 1)
        top_degree = (data.N + data.m0) * data.dprime
        for _ in range(5):
            while True:
                stray = tuple(rng.randint(1, 6) for _ in weights)
                if sum(a * x for a, x in zip(weights, stray)) != top_degree:
                    break
            top = sort_monomials(data.V2_blocks[-1] + (stray,))
            bad = with_blocks(data, data.V2_blocks[:-1] + (top,))
            with pytest.raises(StabilizerNotPreserved) as exc:
                verify_immersion(bad)
            assert str(exc.value) == "coordinate differences miss part of the stratum lattice"
            assert exc.value.witness == {"support": list(range(len(weights))), "index": None}


def test_lattice_index_unit_cases():
    # White box: the relation lattice of the members against the full
    # kernel of the stratum weights.
    assert _lattice_index((0, 1), (1, 1), [(2, (2, 0)), (2, (0, 2))]) == 2
    assert _lattice_index((0, 1), (1, 1), [(1, (1, 0)), (1, (0, 1))]) == 1
    assert _lattice_index((0, 1), (1, 1), [(2, (1, 1))]) == 0
    assert _lattice_index((0,), (2,), [(2, (1,)), (4, (2,))]) == 1
    # Index 2 is what the minor-gcd oracle sees as non-membership.
    assert not oracles.in_lattice((1, -1), [(2, -2)])


def lattice_index_by_definition(support, weights, members):
    """The index from its definition, through tests.oracles only.

    The image lattice is the kernel of the member weights pushed through
    the restricted exponent vectors; the relation lattice is saturated,
    so its maximal minors have gcd 1 and the index is the image's minor
    gcd, provided the image lies in it and has full rank.
    """
    stratum = [weights[j] for j in support]
    restricted = [[v[j] for j in support] for _, v in members]
    gens = [
        [sum(c * r[i] for c, r in zip(k, restricted)) for i in range(len(support))]
        for k in oracles.single_row_kernel_basis([wt for wt, _ in members])
    ]
    if any(sum(a * x for a, x in zip(stratum, g)) for g in gens):
        return 0
    rank, minor_gcd = oracles.lattice_det(gens)
    return minor_gcd if rank == len(support) - 1 else 0


def test_lattice_index_matches_its_definition():
    # Most members get a target weight proportional to their degree, as
    # genuine data has; the rest get an arbitrary one.
    rng = random.Random(4)
    seen = set()
    for _ in range(3000):
        weights = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        support = tuple(sorted(rng.sample(range(len(weights)), rng.randint(1, len(weights)))))
        dprime = rng.randint(1, 3)
        members = []
        for _ in range(rng.randint(1, 5)):
            v = [rng.randint(0, 3) if j in support else 0 for j in range(len(weights))]
            degree = sum(a * x for a, x in zip(weights, v))
            if degree and degree % dprime == 0 and rng.random() < 0.8:
                wt = degree // dprime
            else:
                wt = rng.randint(1, 8)
            members.append((wt, tuple(v)))
        expected = lattice_index_by_definition(support, weights, members)
        assert _lattice_index(support, weights, members) == expected, (support, weights, members)
        seen.add(min(expected, 2))
    # Failures, exact fits and proper sublattices all occur.
    assert seen == {0, 1, 2}


def consistent_member(rng, weights, support, dprime, scale=1):
    """A (target weight, exponent) pair with a.v = dprime * weight, v on support."""
    while True:
        v = tuple(rng.randint(0, 4) * scale if j in support else 0 for j in range(len(weights)))
        degree = sum(a * x for a, x in zip(weights, v))
        if degree and degree % dprime == 0:
            return degree // dprime, v


def test_lattice_index_stops_only_when_exact():
    # Member lists several chunks long, reduced with settled exactly when
    # every member satisfies a.v = d'w, as the stratum check passes it.
    # A "sublattice" list has even exponents in all but its last rows, so
    # its weight-0 rows lie in 2 ker(a_S) until then, of index at least 2.
    # A "stray" list ends in rows that break a.v = d'w, after a prefix
    # that already fills the relation lattice.  Stopping on either early
    # would change the index.
    rng = random.Random(12)
    kinds = Counter()
    for _ in range(240):
        n = rng.randint(2, 4)
        weights = tuple(rng.randint(1, 7) for _ in range(n))
        support = tuple(sorted(rng.sample(range(n), rng.randint(2, min(n, 3)))))
        dprime = rng.randint(1, 3)
        kind = rng.choice(["consistent", "sublattice", "stray"])
        length = rng.randint(2, 4) * STRATUM_CHUNK
        late = rng.randint(1, 3) + (len(support) if kind == "sublattice" else 0)
        scale = 2 if kind == "sublattice" else 1
        members = [
            consistent_member(rng, weights, support, dprime, scale) for _ in range(length - late)
        ]
        for _ in range(late):
            wt, v = consistent_member(rng, weights, support, dprime)
            if kind == "stray":
                wt += rng.choice([-1, 1]) if wt > 1 else 1
            members.append((wt, v))
        settled = all(
            sum(a * x for a, x in zip(weights, v)) == dprime * wt for wt, v in members
        )
        assert settled == (kind != "stray")
        # The definition does not depend on the order; late rows first
        # let its minor search reach gcd 1 sooner.
        expected = lattice_index_by_definition(support, weights, members[::-1])
        assert _lattice_index(support, weights, members, settled) == expected, (
            support,
            weights,
            dprime,
            members,
        )
        if kind == "stray":
            prefix = lattice_index_by_definition(support, weights, members[: length - late])
            kinds[kind] += prefix == 1 and expected != 1
        else:
            kinds[kind] += expected == 1
    # Each kind shows up often, the late rows changing the index.
    assert min(kinds.values()) >= 40, kinds


def test_stratum_checks_reduce_few_rows(monkeypatch):
    # All 69,459 coordinates of the (2,3,5,7) document lie in its full
    # stratum; the stratum checks stop once a stratum's relation lattice
    # is filled, after about one chunk each.
    data = find_embedding_data((2, 3, 5, 7), 1)
    reduced = []
    row_hnf = embed._row_hnf

    def counting(rows):
        rows = list(rows)
        reduced.append(len(rows))
        return row_hnf(rows)

    monkeypatch.setattr(embed, "_row_hnf", counting)
    report = verify_immersion(data)
    assert len(report.strata) == 15
    assert len(data.coordinates) == 69_459
    assert sum(reduced) <= 1_000


@pytest.mark.parametrize("weights,dprime", GENUINE)
def test_m0_is_the_last_generator_degree(weights, dprime):
    data = find_embedding_data(weights, dprime)
    basis = hilbert_basis(data.source.matrix(), (dprime,))
    assert data.m0 == basis.max_degree()
    assert any(m == data.m0 for _, m in basis.generators)
    # No new generators appear past m0: every later graded piece
    # decomposes over the basis, checked by independent search.
    gens = [e + (m,) for e, m in basis.generators]
    for m in range(data.m0 + 1, data.m0 + 4):
        for e in section_basis(weights, m * dprime):
            assert oracles.can_decompose(e + (m,), gens)


def test_normality_degrees_scale_with_dimension():
    assert find_embedding_data((1, 3), 1).certification.normality_degrees_checked == ()
    assert find_embedding_data((1, 1, 2), 1).certification.normality_degrees_checked == ()
    assert find_embedding_data((1, 1, 1, 1), 1).certification.normality_degrees_checked == (2,)
    data = find_embedding_data((1, 1, 1, 1, 1), 1)
    assert data.certification.normality_degrees_checked == (2, 3)
    assert verify_immersion(data).verdict == "pass"


def test_not_det_ample_witnesses():
    with pytest.raises(NotDetAmple) as exc:
        find_embedding_data((1, 3), 0)
    assert exc.value.witness == {
        "weights": [1, 3],
        "degree": 0,
        "support": [1],
        "stabilizer_order": 3,
    }
    with pytest.raises(NotDetAmple) as exc:
        find_embedding_data((1, 3), -1)
    assert exc.value.witness == {"weights": [1, 3], "degree": -1}
    with pytest.raises(NotDetAmple) as exc:
        find_embedding_data((2, 4), 2)
    assert exc.value.witness == {
        "weights": [2, 4],
        "degree": 2,
        "support": [0],
        "stabilizer_order": 2,
    }


def test_certification_failure_when_no_candidates(monkeypatch):
    monkeypatch.setattr(embed, "MAX_TWISTS", 0)
    with pytest.raises(VeryAmpleCertificationFailed) as exc:
        find_embedding_data((1, 3), 1)
    assert exc.value.witness == {"weights": [1, 3], "degree": 1, "tried": []}


def test_structure_validation():
    data = find_embedding_data((1, 3), 1)

    def expect_invalid(**changes):
        with pytest.raises(InvalidEmbeddingData):
            verify_immersion(dataclasses.replace(data, **changes))

    expect_invalid(V1=((0, 1), (3, 0)))  # canonical order broken
    expect_invalid(V1=())  # no chart coordinates
    expect_invalid(V1=((3, 0), (0, 0)))  # constant monomial
    expect_invalid(m0=2)  # block count disagrees
    expect_invalid(N=2)  # N * dprime does not descend
    expect_invalid(target_weights=(3, 3, 5, 4, 5, 5, 6, 6, 6))  # wrong pattern
    expect_invalid(coordinates=tuple(reversed(data.coordinates)))
    blocks = (((4, 0), (4, 0)),) + data.V2_blocks[1:]
    expect_invalid(
        V2_blocks=blocks,
        coordinates=data.V1 + tuple(m for b in blocks for m in b),
    )  # duplicate inside a block
    expect_invalid(dprime=3)  # not det-ample on the source


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"V1": [(3, 0), (0, 1)]}, "V1 must be a tuple"),
        ({"V2_blocks": [((4, 0), (1, 1)), ((5, 0), (2, 1)), ((6, 0), (3, 1), (0, 2))]},
         "V2_blocks must be a tuple"),
        ({"V2_blocks": (((4, 0), (1, 1)), [(5, 0), (2, 1)], ((6, 0), (3, 1), (0, 2)))},
         "V2[2] must be a tuple"),
        ({"V1": ((3, 0), [0, 1])}, "V1 monomial must be a tuple"),
        ({"V1": ([3, 0], [0, 1])}, "V1 monomial must be a tuple"),
        ({"V2_blocks": (((4, 0), (1, 1)), ((5, 0), (2, 1)), ((6, 0), (3, 1), [0, 2]))},
         "V2[3] monomial must be a tuple"),
        ({"coordinates": [(3, 0), (0, 1), (4, 0), (1, 1), (5, 0), (2, 1), (6, 0), (3, 1), (0, 2)]},
         "coordinates must be a tuple"),
    ],
    ids=["list V1", "list V2_blocks", "list block", "list monomial", "all list monomials",
         "list block monomial", "list coordinates"],
)
@pytest.mark.parametrize("check", [verify_immersion, recover_data])
def test_lists_in_place_of_tuples_are_invalid_data(check, changes, message):
    # A Python caller's lists get the typed error, never a bare TypeError
    # from hashing or comparing a list.
    data = dataclasses.replace(find_embedding_data((1, 3), 1), **changes)
    with pytest.raises(InvalidEmbeddingData) as exc:
        check(data)
    assert (str(exc.value), exc.value.witness) == (message, {})


def first_monomial_error(data):
    """(message, witness) of the first V1/V2 error found one monomial at a time, or None."""
    width = len(data.source.weights)
    groups = [("V1", data.V1)] + [
        (f"V2[{m}]", block) for m, block in enumerate(data.V2_blocks, start=1)
    ]
    for name, group in groups:
        for v in group:
            if len(v) != width:
                return f"{name} monomial has the wrong length", {"monomial": list(v)}
            if any(not isinstance(x, int) or x < 0 for x in v):
                return f"{name} monomial has a negative exponent", {"monomial": list(v)}
            if not any(v):
                return f"{name} contains the constant monomial", {}
        if len(set(group)) != len(group) or sort_monomials(group) != tuple(group):
            return f"{name} is not in canonical order", {}
    return None


def corrupt(rng, v, kind):
    """The exponent vector v, spoilt one way."""
    v = list(v)
    j = rng.randrange(len(v))
    if kind == "length":
        return tuple(v[:-1] if rng.random() < 0.5 else v + [0])
    if kind == "negative":
        v[j] = -rng.randint(1, 3)
    elif kind == "non-int":
        v[j] = rng.choice([v[j] + 0.5, float(v[j]), str(v[j]), None])
    elif kind == "bool":
        # The same value as a bool where the exponent is 0 or 1.
        v = [bool(x) if x in (0, 1) else x for x in v]
    elif kind == "constant":
        v = [0] * len(v)
    return tuple(v)


def test_structure_validation_reports_the_first_monomial_error():
    # One to three spoilt monomials anywhere in V1 or V2: the error raised
    # is the first one a monomial-by-monomial scan meets, with its
    # message and witness; bool exponents are accepted as ints.
    rng = random.Random(7)
    kinds = Counter()
    for weights in [(2, 3, 5), (1, 2, 3, 4)]:
        data = find_embedding_data(weights, 1)
        groups = [data.V1, *data.V2_blocks]
        for _ in range(150):
            spoilt = [list(group) for group in groups]
            for _ in range(rng.randint(1, 3)):
                group = rng.choice([g for g in spoilt if g])
                t = rng.randrange(len(group))
                kind = rng.choice(["length", "negative", "non-int", "bool", "constant"])
                group[t] = corrupt(rng, group[t], kind)
                kinds[kind] += 1
            V1, *blocks = map(tuple, spoilt)
            bad = with_blocks(dataclasses.replace(data, V1=V1), tuple(blocks))
            expected = first_monomial_error(bad)
            if expected is None:
                assert verify_immersion(bad) == verify_immersion(data)
                kinds["accepted"] += 1
                continue
            with pytest.raises(InvalidEmbeddingData) as exc:
                verify_immersion(bad)
            assert (str(exc.value), exc.value.witness) == expected
    assert min(kinds.values()) >= 20, kinds


def test_recovery_reports_the_first_disproportionate_coordinate():
    # Monomials of a foreign degree replace one to three block entries
    # (blocks kept in canonical order); recovery names the first
    # coordinate whose degree is not d' times its target weight.
    rng = random.Random(8)
    for weights in [(2, 3, 5), (1, 2, 3, 4)]:
        data = find_embedding_data(weights, 1)
        a = data.source
        for _ in range(60):
            blocks = [set(block) for block in data.V2_blocks]
            for _ in range(rng.randint(1, 3)):
                m = rng.randrange(len(blocks))
                blocks[m].discard(rng.choice(sorted(blocks[m])))
                while True:
                    v = tuple(rng.randint(0, 6) for _ in weights)
                    if any(v) and a.degree(v) != (data.N + m + 1) * data.dprime:
                        break
                blocks[m].add(v)
            bad = with_blocks(data, tuple(sort_monomials(block) for block in blocks))
            first = next(
                (v, wt)
                for v, wt in zip(bad.coordinates, bad.target_weights)
                if a.degree(v) != data.dprime * wt
            )
            with pytest.raises(RoundTripMismatch) as exc:
                recover_data(bad)
            assert str(exc.value) == "coordinate degrees are not proportional to target weights"
            assert exc.value.witness == {
                "field": "dprime",
                "monomial": list(first[0]),
                "weight": first[1],
            }


def test_morphism_reports_frozen():
    full = [
        ((3, 0), 3), ((0, 1), 3), ((4, 0), 4), ((1, 1), 4), ((5, 0), 5),
        ((2, 1), 5), ((6, 0), 6), ((3, 1), 6), ((0, 2), 6),
    ]
    report = morphism_from_sections((1, 3), 1, full)
    assert report == type(report)(
        well_defined=True, polynomial_target=True, base_locus=(), lands_in_stable=True
    )

    report = morphism_from_sections((1, 1), 1, [((1, 0), 1), ((0, 1), -1)])
    assert not report.well_defined
    assert not report.polynomial_target
    assert report.base_locus == ()

    report = morphism_from_sections((1, 1), 1, [((1, 0), 1)])
    assert report.well_defined and report.polynomial_target
    assert report.base_locus == ((1,),)
    assert not report.lands_in_stable


def test_morphism_validation():
    with pytest.raises(ValueError):
        morphism_from_sections((1, 1), 0, [((1, 0), 1)])
    with pytest.raises(ValueError):
        morphism_from_sections((1, 1), 1, [((1,), 1)])
    with pytest.raises(ValueError):
        morphism_from_sections((1, 1), 1, [((-1, 2), 1)])
    # Non-integer exponents and weights are rejected, not truncated.
    for section in [((1.7, 0), 1), ((0, "1"), 1.9), ((1, 0), 1.0)]:
        with pytest.raises(ValueError):
            morphism_from_sections((1, 1), 1, [section])


def test_embedding_data_is_deterministic():
    assert find_embedding_data((2, 3), 1) == find_embedding_data((2, 3), 1)


def test_polytope_normality_matches_scan_oracle():
    # The bitset subset sum against the literal decomposition scan, on
    # seeded 4- and 5-weight systems at arbitrary degrees (not only the
    # descended ones), so both verdicts occur often.
    rng = random.Random(8)
    verdicts = Counter()
    for _ in range(400):
        weights = tuple(rng.randint(1, 6) for _ in range(rng.randint(4, 5)))
        degree = rng.randint(1, 12)
        expected = oracles.normality_by_scan(weights, degree)
        assert _polytope_normality(WeightSystem.of(weights), degree) == expected, (weights, degree)
        verdicts[expected] += 1
    assert verdicts[False] >= 100
    assert verdicts[True] >= 50


def test_polytope_normality_matches_subset_sum_oracle():
    # The pruned walk against the per-monomial subset sum it replaced: on
    # seeded 4- and 5-weight systems at arbitrary degrees, and at degrees
    # a multiple of the weights' lcm (the descended case, where the
    # simplex is a lattice simplex and True dominates).
    rng = random.Random(14)
    cases = [
        (tuple(rng.randint(1, 6) for _ in range(rng.randint(4, 5))), rng.randint(1, 12))
        for _ in range(1500)
    ]
    while len(cases) < 1900:
        weights = tuple(rng.randint(1, 6) for _ in range(rng.randint(4, 5)))
        if math.lcm(*weights) <= 12:
            cases.append((weights, math.lcm(*weights)))
    verdicts = Counter()
    for weights, degree in cases:
        expected = oracles.normality_by_subset_sum(weights, degree)
        assert _polytope_normality(WeightSystem.of(weights), degree) == expected, (weights, degree)
        verdicts[expected] += 1
    assert verdicts[False] >= 1000
    assert verdicts[True] >= 200


def test_polytope_normality_walk_depth_is_not_the_recursion_limit():
    # One walk level per weight: a thousand unit weights go a thousand
    # levels deep, and every degree-jD monomial dominates a unit vector.
    assert _polytope_normality(WeightSystem.of((1,) * 1000), 1)


def test_minimal_residue_patterns_match_the_box_antichain():
    # Every residue of seeded off-weights, against the oracle's antichain
    # of the same box filtered to the class.
    rng = random.Random(23)
    sizes = Counter()
    for i in range(150):
        width, modulus = i % 5, rng.randint(1, 9)
        off = tuple(rng.randint(1, 12) for _ in range(width))
        box = list(itertools.product(range(modulus), repeat=width))
        for residue in range(modulus):
            got = embed._minimal_residue_patterns(off, modulus)[residue]
            in_class = [f for f in box if sum(a * b for a, b in zip(off, f)) % modulus == residue]
            assert len(got) == len(set(got))
            assert set(got) == oracles.minimal_vectors(in_class), (off, modulus, residue)
            sizes[min(len(got), 3)] += 1
    # Empty classes, single patterns and antichains of several.
    assert min(sizes[0], sizes[1], sizes[3]) >= 50, sizes


def test_global_generation_matches_section_oracle():
    # The degree bound on minimal residue patterns against whole section
    # spaces, at arbitrary twists (not only descended ones), so both
    # verdicts occur often.  Many passing cases have a minimal pattern
    # of degree exactly c, so a strict bound would fail them.
    rng = random.Random(10)
    verdicts = Counter()
    for _ in range(1200):
        weights = tuple(rng.randint(1, 7) for _ in range(rng.randint(2, 4)))
        dprime, m0, N = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        expected = oracles.globally_generated_by_sections(weights, dprime, m0, N)
        got = _globally_generated(WeightSystem.of(weights), dprime, m0, N)
        assert got == expected, (weights, dprime, m0, N)
        verdicts[expected] += 1
    assert verdicts[False] >= 200
    assert verdicts[True] >= 200


def with_blocks(data, blocks):
    """data with its V2 blocks replaced, coordinates and weights to match."""
    return dataclasses.replace(
        data,
        V2_blocks=blocks,
        coordinates=data.V1 + tuple(v for block in blocks for v in block),
        target_weights=(data.N,) * len(data.V1)
        + tuple(data.N + m for m, block in enumerate(blocks, start=1) for _ in block),
    )


def test_chart_projection_once_per_support(monkeypatch):
    calls = []
    search = embed._multiset_reaches

    def counting(e, m, off, per_block):
        calls.append((off, e, m, per_block))
        return search(e, m, off, per_block)

    def off_supports(data):
        return {tuple(j for j, x in enumerate(s) if not x) for s in data.V1}

    def assert_once_per_support(data):
        # One projection per off-support, shared by every search on it,
        # and no (off-support, generator) pair searched twice.
        projections = {}
        for off, _, _, per_block in calls:
            assert projections.setdefault(off, per_block) is per_block
        assert set(projections) <= off_supports(data)
        assert len({(off, e, m) for off, e, m, _ in calls}) == len(calls)

    monkeypatch.setattr(embed, "_multiset_reaches", counting)
    # The witness is the first failing chart in V1 order, and on it the
    # first failing generator in generator order.
    dropped_witness = {
        (3, 5, 7): {"chart": [0, 0, 15], "monomial": [0, 0, 1], "degree": 7},
        (1, 2, 3, 5): {"chart": [0, 0, 0, 6], "monomial": [0, 0, 0, 1], "degree": 5},
    }
    for weights, witness in dropped_witness.items():
        data = find_embedding_data(weights, 1)
        # On genuine data every chart times every generator is a block
        # monomial, so no search runs at all.
        calls.clear()
        assert verify_immersion(data).verdict == "pass"
        assert calls == []

        # Without the heaviest (last) variable's pure power in the top block.
        top = tuple(v for v in data.V2_blocks[-1] if any(v[:-1]))
        dropped = with_blocks(data, data.V2_blocks[:-1] + (top,))
        with pytest.raises(ChartGenerationFailed) as exc:
            verify_immersion(dropped)
        assert exc.value.witness == witness
        assert_once_per_support(dropped)

    # Without any full-support block monomial, every full-support chart
    # needs a search per generator: searching per chart would make 150
    # searches on (3, 5, 7) and 58 projections.
    data = find_embedding_data((3, 5, 7), 1)
    data = with_blocks(data, tuple(tuple(v for v in b if not all(v)) for b in data.V2_blocks))
    calls.clear()
    assert verify_immersion(data).verdict == "pass"
    assert calls
    assert_once_per_support(data)


def test_chart_search_matches_the_full_scan_and_the_literal_search():
    # Seeded documents that each lose one random block element.  The whole
    # check must fail with the witness of the full scan it replaced, or
    # pass where that passes.  On every chart class and generator, the
    # search cut at the cap agrees with the full scan and with the literal
    # search, over full-support charts (off = ()) and one-index
    # off-supports too.
    rng = random.Random(26)
    systems = [
        ((1, 1), 2),
        ((2, 3), 1),
        ((1, 3), 2),
        ((1, 1, 2), 1),
        ((1, 2, 3), 1),
        ((2, 3, 5), 1),
        ((1, 2, 3, 4), 1),
    ]
    seen = Counter()
    for weights, dprime in systems:
        data = find_embedding_data(weights, dprime)
        generators = hilbert_basis(data.source.matrix(), (dprime,), certify=False).generators
        charts = {}
        for s in data.V1:
            charts.setdefault(tuple(j for j, x in enumerate(s) if not x), s)
        for _ in range(40):
            blocks = list(data.V2_blocks)
            m = rng.choice([m for m, block in enumerate(blocks) if block])
            drop = rng.randrange(len(blocks[m]))
            blocks[m] = blocks[m][:drop] + blocks[m][drop + 1 :]
            blocks = tuple(blocks)
            expected = oracles.chart_failure_by_scan(data.V1, blocks, generators)
            try:
                embed._check_chart_generation(with_blocks(data, blocks))
            except ChartGenerationFailed as err:
                assert err.witness == expected
            else:
                assert expected is None
            seen["fails" if expected else "passes"] += 1
            for off, chart in charts.items():
                per_block = [embed._projections(block, off) for block in blocks]
                for e, m in generators:
                    verdict = embed._multiset_reaches(e, m, off, per_block)
                    assert verdict == oracles.multiset_reaches_by_scan(e, m, off, per_block)
                    assert verdict == oracles.chart_generated(e, m, chart, blocks)
                    seen[min(len(off), 2), verdict] += 1
    assert seen["fails"] >= 50 and seen["passes"] >= 50
    # Off one or more indices both verdicts occur.  A full-support chart
    # fails only when a block is left empty, which losing one element
    # of these blocks never does.
    assert all(seen[size, verdict] >= 20 for size in (1, 2) for verdict in (True, False)), seen
    assert seen[0, True] >= 100


def test_recovery_reads_the_validated_layout():
    # recover_data reads N, m0, V1 and the blocks off the layout that
    # structure validation has fixed.  The weight-class reading of the
    # coordinates must agree wherever validation passes: on what recovery
    # reports, on the N or m0 it rejects, and on V1 and the blocks whenever
    # N and m0 match, so no input can tell V1 or a block apart from the
    # stored one.
    rng = random.Random(13)
    kinds = Counter()
    systems = [((1, 3), 1), ((2, 3), 1), ((1, 3), 2), ((2, 3, 5), 1), ((1, 2, 3, 4), 1)]
    for weights, dprime in systems:
        data = find_embedding_data(weights, dprime)
        for _ in range(160):
            blocks = list(data.V2_blocks)
            bad = data
            for _ in range(rng.randint(1, 2)):
                kind = rng.choice(
                    ["N", "shift", "empty", "drop", "move", "extra", "dprime", "weight", "swap"]
                )
                m = rng.randrange(len(blocks))
                if kind == "N":
                    bad = dataclasses.replace(bad, N=bad.N * rng.randint(2, 3))
                    continue
                if kind == "shift":
                    c = rng.randint(1, 3)
                    bad = dataclasses.replace(
                        bad, target_weights=tuple(w + c for w in bad.target_weights)
                    )
                    continue
                if kind == "dprime":
                    bad = dataclasses.replace(bad, dprime=bad.dprime * 2)
                    continue
                if kind == "weight":
                    t = rng.randrange(len(bad.target_weights))
                    tw = list(bad.target_weights)
                    tw[t] += rng.choice([-1, 1])
                    bad = dataclasses.replace(bad, target_weights=tuple(tw))
                    continue
                if kind == "swap":
                    coords = list(bad.coordinates)
                    i, j = rng.sample(range(len(coords)), 2)
                    coords[i], coords[j] = coords[j], coords[i]
                    bad = dataclasses.replace(bad, coordinates=tuple(coords))
                    continue
                if kind == "empty":
                    blocks[m] = ()
                elif kind == "drop" and blocks[m]:
                    block = list(blocks[m])
                    del block[rng.randrange(len(block))]
                    blocks[m] = tuple(block)
                elif kind == "move" and blocks[m]:
                    target = rng.randrange(len(blocks))
                    v = rng.choice(blocks[m])
                    blocks[m] = tuple(x for x in blocks[m] if x != v)
                    blocks[target] = sort_monomials(set(blocks[target]) | {v})
                elif kind == "extra":
                    blocks.append(())
                    bad = dataclasses.replace(bad, m0=bad.m0 + 1)
                bad = dataclasses.replace(
                    with_blocks(dataclasses.replace(bad, N=data.N), tuple(blocks)), N=bad.N
                )
            try:
                embed._validate_structure(bad)
            except InvalidEmbeddingData:
                kinds["invalid"] += 1
                continue
            v1, v2, n, m0 = oracles.recover_by_weight_classes(bad.coordinates, bad.target_weights)
            if (n, m0) == (bad.N, bad.m0):
                assert (v1, v2) == (bad.V1, bad.V2_blocks)
            try:
                report = recover_data(bad)
            except RoundTripMismatch as err:
                field = err.witness["field"]
                kinds[field] += 1
                if field == "N":
                    assert err.witness["recovered"] == n
                elif field == "m0":
                    assert (bad.N, err.witness["recovered"]) == (n, m0)
                else:
                    assert field == "dprime"
            else:
                kinds["recovered"] += 1
                assert (report.V1, report.V2_blocks, report.N, report.m0) == (v1, v2, n, m0)
    assert min(kinds[k] for k in ["invalid", "N", "m0", "dprime", "recovered"]) >= 20, kinds


def test_base_locus_matches_the_support_walk():
    # Minimal hitting sets bounded by the section count, against the
    # maximal supports of the full 2^n walk.
    rng = random.Random(21)
    seen = Counter()
    for case in range(2400):
        width = case % 8 + 1
        weights = tuple(rng.randint(1, 3) for _ in range(width))
        sections = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.1:
                e = (0,) * width
            else:
                e = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(width))
            sections.append((e, rng.randint(-1, 3)))
        report = morphism_from_sections(weights, 1, sections)
        supports = [{j for j, x in enumerate(e) if x} for e, _ in sections]
        assert report.base_locus == oracles.base_locus_by_walk(width, supports)
        assert report.lands_in_stable == (not report.base_locus)
        seen["no sections"] += not sections
        seen["constant section"] += any(not any(e) for e, _ in sections)
        seen["several maximal"] += len(report.base_locus) > 1
        seen["empty locus with sections"] += bool(sections) and not report.base_locus
    assert min(seen.values()) >= 100, seen


def test_base_locus_walk_is_bounded_by_the_sections(monkeypatch):
    # 40 unit weights and one section: the hitting sets have at most one
    # element, so at most 1 + 40 supports are tested instead of 2^40.
    tested = []

    def counting(items, max_size, holds):
        return lattice._minimal_supports(items, max_size, lambda t: tested.append(t) or holds(t))

    monkeypatch.setattr(embed, "_minimal_supports", counting)
    report = morphism_from_sections((1,) * 40, 1, [((1,) + (0,) * 39, 1)])
    assert report.base_locus == (tuple(range(1, 40)),)
    assert 0 < len(tested) <= 41

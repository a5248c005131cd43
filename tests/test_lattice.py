"""Integer cone and semigroup layer.

Frozen expectations are derived by hand; sweeps recompute results
through tests.oracles, which shares no code with the package.
"""

import dataclasses
import gc
import hashlib
import itertools
import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul

import pytest

from orbistack import (
    CharacterAction,
    InfiniteSolutionSet,
    IntMatrix,
    InvariantViolation,
    graded_sections,
    grlex_key,
    hilbert_basis,
    integer_kernel,
    matrix_rank,
    minimal_homogeneous_solutions,
    positive_functional,
    primitive,
    proj_presentation,
    sort_monomials,
)
from orbistack import lattice
from orbistack.lattice import sublattice_index
from tests import oracles


def W(*rows):
    return IntMatrix.from_rows(rows)


def canonical(monomials):
    return tuple(sorted(monomials, key=lambda e: (-sum(e), tuple(-c for c in e))))


def test_sort_monomials_by_total_degree_then_lexicographically():
    assert sort_monomials([(0, 2), (1, 0), (3, 1), (6, 0)]) == ((6, 0), (3, 1), (0, 2), (1, 0))
    assert sort_monomials([(0, 2), (1, 1), (2, 0)]) == ((2, 0), (1, 1), (0, 2))
    assert grlex_key((3, 1)) == (-4, (-3, -1))
    # Duplicates are kept; callers dedup where it matters.
    assert sort_monomials([(1, 0), (1, 0)]) == ((1, 0), (1, 0))


def test_sort_monomials_matches_the_grlex_key_sort():
    # The two stable sorts give exactly the order of the key, on lists
    # with many degree ties and repeated vectors, given as lists.
    rng = random.Random(12)
    for _ in range(300):
        width = rng.randint(1, 5)
        vectors = [[rng.randint(0, 3) for _ in range(width)] for _ in range(rng.randint(0, 40))]
        expected = tuple(sorted((tuple(v) for v in vectors), key=grlex_key))
        assert sort_monomials(vectors) == expected == canonical(map(tuple, vectors))


def test_matrix_rank_matches_fraction_elimination():
    for entries in product((-2, -1, 0, 1, 2), repeat=4):
        rows = (entries[:2], entries[2:])
        assert matrix_rank(rows) == oracles.frac_rank(rows)
    rng = random.Random(7)
    for _ in range(200):
        rows = tuple(
            tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(3)
        )
        assert matrix_rank(rows) == oracles.frac_rank(rows)
    assert matrix_rank(()) == 0
    assert matrix_rank(((0, 0),)) == 0


def test_primitive_divides_by_content():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((5,)) == (1,)
    assert primitive((7, 0)) == (1, 0)
    assert primitive((0, 0)) == (0, 0)


KERNEL_CASES = [
    ((1, 3),),
    ((2, 4),),
    ((1, -1), (1, 1)),
    ((0, 0),),
    ((2, -3, 5),),
    ((6, 10, 15),),
    ((1, 0, -1, 0), (0, 1, 0, -1)),
]


@pytest.mark.parametrize("rows", KERNEL_CASES)
def test_integer_kernel_solves_and_saturates(rows):
    n = len(rows[0])
    basis = integer_kernel(rows, n)
    for v in basis:
        assert all(sum(r[j] * v[j] for j in range(n)) == 0 for r in rows)
    assert len(basis) == n - oracles.frac_rank(rows)
    if basis:
        # Saturated: the basis generates the full rational kernel
        # intersected with the integers, so its minor gcd is 1.
        rank, det = oracles.lattice_det(basis)
        assert rank == len(basis)
        assert det == 1


@pytest.mark.parametrize("row", [(1, 3), (2, 4), (1, -1), (0, 5), (6, 10, 15), (2, -3, 5)])
def test_integer_kernel_matches_bezout_chain(row):
    ours = integer_kernel((row,), len(row))
    reference = oracles.single_row_kernel_basis(row)
    for v in ours:
        assert oracles.in_lattice(v, reference)
    for v in reference:
        assert oracles.in_lattice(v, ours)


def test_integer_kernel_of_empty_matrix_is_identity():
    assert integer_kernel((), 2) == ((1, 0), (0, 1))
    assert integer_kernel(((1, -1), (1, 1)), 2) == ()


def dual_cone_generators(columns, k):
    """Generators of the dual cone of the columns, each checked to be a length-k integer vector."""
    return lattice._dual_cone(tuple(lattice._as_vec(c, k, "column") for c in columns), k)


def cone_position(chi, columns):
    """(position, full_dim, witness) of chi against the cone the columns generate.

    Positive rescaling does not move chi relative to the cone, so a
    rational chi is first cleared to integers.  The witness is a dual-cone
    generator: the first negative on chi when chi is outside, else the
    first vanishing on chi but not on every column when chi is on the
    boundary, and None in the relative interior.
    """
    den = lcm(*(Fraction(x).denominator for x in chi))
    chi = tuple(int(Fraction(x) * den) for x in chi)
    k = len(chi)
    cols = tuple(lattice._as_vec(c, k, "column") for c in columns)
    gens = lattice._dual_cone(cols, k)
    full_dim = lattice._rank_cached(cols) == k
    dot = lattice._dot
    for lam in gens:
        if dot(lam, chi) < 0:
            return "outside", full_dim, lam
    for lam in gens:
        if not dot(lam, chi) and any(dot(lam, c) for c in cols):
            return "boundary", full_dim, lam
    return "relative_interior", full_dim, None


def test_dual_cone_generators_frozen():
    assert dual_cone_generators((), 1) == ((-1,), (1,))
    assert dual_cone_generators(((1,), (3,)), 1) == ((1,),)
    assert dual_cone_generators(((1,), (-1,)), 1) == ()
    assert dual_cone_generators(((1, 0), (0, 1)), 2) == ((0, 1), (1, 0))
    assert dual_cone_generators(((1, 0),), 2) == ((0, -1), (0, 1), (1, 0))
    assert dual_cone_generators((), 2) == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert dual_cone_generators(((1, 1), (1, -1)), 2) == ((1, -1), (1, 1))


def test_dual_cone_generators_are_sound():
    # Soundness only; completeness is exercised end to end by the
    # exhaustive stability comparison in the acceptance suite.
    rng = random.Random(11)
    for _ in range(150):
        k = rng.choice((1, 2, 3))
        cols = tuple(
            tuple(rng.randint(-2, 2) for _ in range(k))
            for _ in range(rng.randint(0, 4))
        )
        for gen in dual_cone_generators(cols, k):
            assert any(gen)
            assert gcd(*(abs(x) for x in gen)) == 1 if len(gen) > 1 else abs(gen[0]) == 1
            for c in cols:
                assert sum(g * x for g, x in zip(gen, c)) >= 0


def test_dual_cone_of_spanning_columns_matches_the_subset_search():
    # Columns that span Q^k take their dual cone from the sign table's
    # facets; the oracle solves one Fraction kernel per (k - 1)-subset.
    rng = random.Random(71)
    checked = {k: 0 for k in range(1, 5)}
    zero = repeated = 0
    while min(checked.values()) < 100:
        k = rng.randint(1, 4)
        cols = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(k, k + 4))]
        if rng.random() < 0.3:
            cols[rng.randrange(len(cols))] = (0,) * k
        if rng.random() < 0.3:
            cols.append(rng.choice(cols))
        if oracles.frac_rank(cols) < k:
            continue
        assert dual_cone_generators(cols, k) == oracles.dual_cone_by_subsets(cols, k), cols
        checked[k] += 1
        zero += (0,) * k in cols
        repeated += len(set(cols)) < len(cols)
    assert zero >= 120 and repeated >= 140


def frozen_cone_sample():
    """Seeded cone inputs: k in 1..4, 0-7 columns from [-3, 3]^k, rational chi."""
    rng = random.Random(2024)
    for _ in range(3000):
        k = rng.randint(1, 4)
        cols = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(0, 7))]
        if cols and rng.random() < 0.2:
            # Repeat a column or zero one out; both leave the cone unchanged.
            cols[rng.randrange(len(cols))] = rng.choice([cols[0], (0,) * k])
        chi = tuple(rng.randint(-3, 3) for _ in range(k))
        if rng.random() < 0.3:
            chi = tuple(Fraction(x, rng.randint(1, 4)) for x in chi)
        yield k, tuple(cols), chi


# sha256 of the outputs over frozen_cone_sample(), captured before the
# per-subset kernel cache went in.
FROZEN_CONE_DIGEST = "1124e7dfe188d01e176907c8f4999144a7d67f8ba08d930b353b80caf5a76b2c"


def test_cone_outputs_match_frozen_digest():
    h = hashlib.sha256()
    deficient = repeated = rational = 0
    for k, cols, chi in frozen_cone_sample():
        position, full_dim, witness = cone_position(chi, cols)
        h.update(repr((dual_cone_generators(cols, k), position, full_dim, witness)).encode())
        # Rank strictly between 0 and k: a nonzero lineality space that
        # still leaves facet candidates to solve.
        deficient += 0 < oracles.frac_rank(cols) < k
        repeated += len(set(cols)) < len(cols) or (0,) * k in cols
        rational += any(isinstance(x, Fraction) for x in chi)
    assert deficient >= 500 and repeated >= 300 and rational >= 600
    assert h.hexdigest() == FROZEN_CONE_DIGEST


def test_cone_position_frozen():
    assert cone_position((1,), ()) == ("outside", False, (-1,))
    assert cone_position((0,), ((1,), (-1,))) == ("relative_interior", True, None)
    assert cone_position((1, 0), ((1, 0), (0, 1))) == ("boundary", True, (0, 1))
    assert cone_position((1, 1), ((1, 0), (0, 1))) == ("relative_interior", True, None)
    assert cone_position((-1, 2), ((1, 0), (0, 1))) == ("outside", True, (1, 0))
    # On the ray through (1, 0) the point sits in the relative interior
    # of a cone that is not full dimensional.
    assert cone_position((1, 0), ((1, 0),)) == ("relative_interior", False, None)


def test_cone_position_accepts_rational_chi():
    position, _, _ = cone_position((Fraction(1, 2), Fraction(1, 2)), ((1, 0), (0, 1)))
    assert position == "relative_interior"
    # Positive scaling does not move the point relative to the cone.
    for cols in [((1, 0), (0, 1)), ((1, 2), (2, 1)), ((1, -1),)]:
        a = cone_position((Fraction(2, 3), Fraction(1, 3)), cols)
        b = cone_position((2, 1), cols)
        assert a[:2] == b[:2]


def test_cone_position_witnesses_are_sound():
    rng = random.Random(13)
    for _ in range(300):
        k = rng.choice((1, 2))
        cols = tuple(
            tuple(rng.randint(-2, 2) for _ in range(k))
            for _ in range(rng.randint(0, 4))
        )
        chi = tuple(rng.randint(-2, 2) for _ in range(k))
        position, _, lam = cone_position(chi, cols)
        if position == "outside":
            assert sum(l * x for l, x in zip(lam, chi)) < 0
            assert all(sum(l * x for l, x in zip(lam, c)) >= 0 for c in cols)
        elif position == "boundary":
            assert sum(l * x for l, x in zip(lam, chi)) == 0
            assert all(sum(l * x for l, x in zip(lam, c)) >= 0 for c in cols)
            assert any(sum(l * x for l, x in zip(lam, c)) > 0 for c in cols)


def test_positive_functional_frozen():
    assert positive_functional(((1,), (3,)), 1) == (1,)
    assert positive_functional(((1, 0), (0, 1)), 2) == (1, 1)
    assert positive_functional(((1,), (-1,)), 1) is None
    assert positive_functional(((1,), (0,)), 1) is None


def test_positive_functional_alternative():
    # Either a strictly positive functional exists, or some nonzero
    # nonnegative combination of the columns vanishes; never both.
    cases = [
        ((1,), (3,)),
        ((1,), (-1,)),
        ((2,), (3,), (5,)),
        ((1, 0), (0, 1)),
        ((1, 0), (-1, 0)),
        ((1, 1), (1, -1)),
        ((1, 1), (-1, -1)),
        ((2, 1), (1, 2)),
        ((1, -1), (-1, 1), (1, 1)),
    ]
    for cols in cases:
        lam = positive_functional(cols, len(cols[0]))
        rows = [[c[i] for c in cols] for i in range(len(cols[0]))]
        vanishing = [
            e
            for e in product(range(4), repeat=len(cols))
            if any(e) and all(sum(r[j] * e[j] for j in range(len(e))) == 0 for r in rows)
        ]
        if lam is None:
            assert vanishing
        else:
            assert all(sum(l * x for l, x in zip(lam, c)) > 0 for c in cols)
            assert not vanishing


MINIMAL_CASES = [
    # (rows, frozen minimal solutions, box bound)
    (((1, -1),), ((1, 1),), 1),
    (((2, -3),), ((3, 2),), 3),
    (((1, 1, -1),), ((1, 0, 1), (0, 1, 1)), 1),
    (((1, 2, -2),), ((2, 0, 1), (0, 1, 1)), 2),
    (((0, 0),), ((1, 0), (0, 1)), 1),
    (((1, 0, -1, 0), (0, 1, 0, -1)), ((1, 0, 1, 0), (0, 1, 0, 1)), 1),
]


@pytest.mark.parametrize("rows,expected,box", MINIMAL_CASES)
def test_minimal_homogeneous_solutions_frozen(rows, expected, box):
    got = minimal_homogeneous_solutions(rows, len(rows[0]))
    assert got == expected
    # For a single row every minimal solution has entries bounded by the
    # largest coefficient magnitude, so the box search is complete.  The
    # multi-row cases are small enough to check the box by hand.
    assert set(got) == oracles.brute_minimal_kernel(rows, len(rows[0]), box)


def test_minimal_homogeneous_solutions_single_rows_match_brute():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 4)
        row = tuple(rng.randint(-4, 4) for _ in range(n))
        got = minimal_homogeneous_solutions((row,), n)
        bound = max((abs(x) for x in row), default=1) or 1
        assert set(got) == oracles.brute_minimal_kernel((row,), n, bound)
        assert list(got) == sorted(got, key=grlex_key)


def test_minimal_homogeneous_solutions_multi_rows_match_brute_in_a_box():
    # A box cuts out exactly the minimal solutions inside it: anything
    # below a solution in the box is in the box too.  Each system has a
    # planted solution (x, 1) with x a 0/1 vector, so none is empty, and
    # some have minimal solutions past the box.
    rng = random.Random(29)
    multi = past = 0
    for i in range(80):
        k, n = 2 + i % 2, rng.randint(3, 5)
        x = [rng.randint(0, 1) for _ in range(n - 1)]
        heads = [[rng.randint(-2, 2) for _ in range(n - 1)] for _ in range(k)]
        rows = tuple(tuple(r + [-sum(a * b for a, b in zip(r, x))]) for r in heads)
        got = minimal_homogeneous_solutions(rows, n)
        b = 3 if n < 5 else 2
        inside = {s for s in got if max(s) <= b}
        assert inside == oracles.brute_minimal_kernel(rows, n, b), rows
        multi += len(inside) > 1
        past += len(inside) < len(got)
    assert multi >= 20 and past >= 5


def test_minimal_homogeneous_solutions_on_a_pointed_3x11_action():
    # The augmented system of the pointed 3x11 action with chi = (2, 1, 0).
    matrix = (
        (1, 2, 1, 2, 1, 2, 2, 1, 2, 2, 1),
        (-1, 2, 2, 1, 2, 1, 1, -1, 2, 2, 2),
        (0, -2, -2, 0, 1, 2, 1, 1, 1, 2, 0),
    )
    rows = tuple(r + (-c,) for r, c in zip(matrix, (2, 1, 0)))
    got = minimal_homogeneous_solutions(rows, 12)
    assert len(got) == len(set(got)) == 129
    assert all(sum(a * b for a, b in zip(r, s)) == 0 for r in rows for s in got)
    # Pairwise incomparable.
    assert not any(all(map(int.__le__, s, t)) for s, t in itertools.permutations(got, 2))
    assert {s for s in got if max(s) <= 1} == oracles.brute_minimal_kernel(rows, 12, 1)


def test_minimal_homogeneous_solutions_rejects_row_length_mismatch():
    with pytest.raises(ValueError):
        minimal_homogeneous_solutions(((1, -1),), 3)
    with pytest.raises(ValueError):
        minimal_homogeneous_solutions(((1, -1, 2),), 2)


def test_graded_sections_frozen():
    m13 = W((1, 3))
    assert graded_sections(m13, (1,), 0).basis == ((0, 0),)
    assert graded_sections(m13, (1,), 3).basis == ((3, 0), (0, 1))
    piece = graded_sections(m13, (1,), 6)
    assert piece.basis == ((6, 0), (3, 1), (0, 2))
    assert len(piece) == 3
    assert list(piece) == [(6, 0), (3, 1), (0, 2)]
    assert (3, 1) in piece and (2, 2) not in piece
    assert graded_sections(W((1, 1)), (2,), 1).basis == ((2, 0), (1, 1), (0, 2))
    assert graded_sections(W((1, 0), (0, 1)), (1, 1), 4).basis == ((4, 4),)


def test_graded_sections_match_box_enumeration():
    for weights in [(1, 3), (2, 3), (1, 1, 2)]:
        mat = W(weights)
        for m in range(9):
            piece = graded_sections(mat, (1,), m)
            box = oracles.box_solutions([weights], (m,), tuple(m // a for a in weights))
            assert set(piece.basis) == set(box)
            assert piece.basis == canonical(piece.basis)


def frozen_graded_sample():
    """Seeded graded pieces: k in 1..3 rows, k..6 columns, degrees 0..5.

    The first row is positive so most pieces are finite.  A quarter of
    the multi-row inputs get a dependent last row, and a fifth get a
    repeated or zero column; a zero column makes the piece infinite or
    empty, so those inputs stay at degree 2 or less.
    """
    rng = random.Random(2025)
    for _ in range(1500):
        k = rng.randint(1, 3)
        n = rng.randint(k, 6)
        rows = [[rng.randint(1, 3) for _ in range(n)]]
        rows += [[rng.randint(-2, 3) for _ in range(n)] for _ in range(k - 1)]
        if k >= 2 and rng.random() < 0.25:
            a, b = rng.randint(-1, 2), rng.randint(-1, 2)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
        top = 5
        if rng.random() < 0.2:
            j = rng.randrange(n)
            zero = rng.random() < 0.3
            for r in rows:
                r[j] = 0 if zero else r[0]
            if zero:
                top = 2
        chi = (rng.randint(0, 3),) + tuple(rng.randint(-2, 3) for _ in range(k - 1))
        yield IntMatrix.from_rows(rows), chi, rng.randint(0, top)


# sha256 of the outputs over frozen_graded_sample(), captured before
# graded pieces were enumerated by pivot elimination.
FROZEN_GRADED_DIGEST = "cbae1b88a18d20d4d72b4a517d821cdd2a09cb8baedd3661d30ec42894ab50ef"


def test_graded_outputs_match_frozen_digest():
    h = hashlib.sha256()
    counts = dict.fromkeys(
        ("two_rows", "three_rows", "deficient", "repeated", "zero", "square", "empty", "infinite", "large"), 0
    )
    for mat, chi, m in frozen_graded_sample():
        try:
            out = graded_sections(mat, chi, m).basis
        except InfiniteSolutionSet as exc:
            out = exc.witness
            counts["infinite"] += 1
        else:
            counts["empty"] += not out
            counts["large"] += len(out) >= 20
        h.update(repr((mat.entries, chi, m, out)).encode())
        cols = mat.columns()
        counts["two_rows"] += mat.k == 2
        counts["three_rows"] += mat.k == 3
        counts["deficient"] += oracles.frac_rank(mat.entries) < mat.k
        counts["repeated"] += len(set(cols)) < len(cols)
        counts["zero"] += (0,) * mat.k in cols
        counts["square"] += mat.cols == mat.k
    minimum = dict(
        two_rows=400, three_rows=400, deficient=200, repeated=500, zero=60,
        square=200, empty=500, infinite=30, large=50,
    )
    assert all(counts[case] >= floor for case, floor in minimum.items()), counts
    assert h.hexdigest() == FROZEN_GRADED_DIGEST


def test_graded_sections_order_on_large_seeded_pieces():
    # Pieces come out of the enumeration in canonical order, with no sort
    # of the monomials; each is compared, content and order, with one
    # keyed stdlib sort of a plain recursive enumeration.  One weight
    # gives at most one monomial per degree; from two weights on, every
    # piece holds at least 10**4 monomials.
    rng = random.Random(1616)
    sizes = []
    for n in range(1, 7):
        for _ in range(3):
            weights = tuple(rng.randint(1, 6) for _ in range(n))
            g = gcd(*weights)
            degree = g * rng.randint(0, 40)
            expected = oracles.grlex_sorted(oracles.monomials_of_degree(weights, degree))
            while n > 1 and len(expected) < 10**4:
                degree += g * max(1, degree // (4 * g))
                expected = oracles.grlex_sorted(oracles.monomials_of_degree(weights, degree))
            got = graded_sections(W(weights), (1,), degree).basis
            assert list(got) == expected, (weights, degree)
            sizes.append(len(got))
    assert min(sizes[3:]) >= 10**4


def test_graded_sections_order_past_64_bit_keys():
    # Exponents reach 1500 and need 11 bits each, so with six columns the
    # ordering keys pass 2**66.
    weights = (1, 100, 200, 300, 400, 500)
    got = graded_sections(W(weights), (1,), 1500).basis
    assert list(got) == oracles.grlex_sorted(oracles.monomials_of_degree(weights, 1500))
    assert len(got) > 100
    got = graded_sections(W((1, 100, 200, 300), (0, 1, 0, 1)), (1500, 3), 1).basis
    first_row = oracles.monomials_of_degree((1, 100, 200, 300), 1500)
    assert list(got) == oracles.grlex_sorted(e for e in first_row if e[1] + e[3] == 3)
    assert got
    # Exponents past 64 bits.
    assert graded_sections(W((1, 10**30)), (1,), 10**30).basis == ((10**30, 0), (0, 1))
    assert graded_sections(W((3, 2**70)), (1,), 3 * 2**70).basis == ((2**70, 0), (0, 3))


# One positive row with a weight of 1, so every exponent and the total
# degree are bounded by the degree: its bit length picks the field width
# (1, 2, 4 or 8 bytes, or None past 64 bits) and the key holds n + 1
# fields.  Large weights come first so that the oracle's recursion stays
# short.
READBACK_PIECES = [
    ((3, 1, 1), 255),
    ((3, 1, 1), 256),
    ((40, 50, 60, 70, 80, 90, 1), 255),
    ((40, 50, 60, 70, 80, 90, 100, 1), 255),
    ((20000, 30000, 40000, 50000, 1), 65535),
    ((8000, 9000, 10000, 11000, 12000, 13000, 14000, 15000, 1), 65535),
    ((1,), 65536),
    ((1, 1), 65536),
    ((2**31, 2**31 + 1, 3 * 2**30, 2**32 - 2, 1), 2**32 - 1),
    ((1,), 2**32),
    ((2**32 - 1, 1), 2**32),
    ((2**63, 2**63 + 1, 1), 2**64 - 1),
    ((2**64 - 1, 1), 2**64),
]


def readback_layout(weights, degree):
    """(field width in bytes or None, 64-bit words per key) of a piece."""
    bits = degree.bit_length()
    width = next((w for w in (1, 2, 4, 8) if bits <= 8 * w), None)
    return width, -(-(len(weights) + 1) * 8 * (width or 0) // 64) or None


def test_readback_pieces_cover_every_field_width_and_key_length():
    layouts = [readback_layout(w, d) for w, d in READBACK_PIECES]
    assert {width for width, _ in layouts} == {1, 2, 4, 8, None}
    assert {words for _, words in layouts} >= {1, 2, 3}
    assert {(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3), (8, 2)} <= set(layouts)
    # Seven and eight columns at width 1: records of 8 and 9 fields.
    assert {len(w) for w, d in READBACK_PIECES if readback_layout(w, d)[0] == 1} >= {7, 8}
    exponents = {
        x for w, d in READBACK_PIECES for e in oracles.monomials_of_degree(w, d) for x in e
    }
    for edge in (2**8, 2**16, 2**32, 2**64):
        assert {edge - 1, edge} <= exponents


@pytest.mark.parametrize("weights,degree", READBACK_PIECES)
def test_graded_sections_read_back_at_every_field_width(weights, degree):
    got = graded_sections(W(weights), (1,), degree).basis
    assert list(got) == oracles.grlex_sorted(oracles.monomials_of_degree(weights, degree))
    assert got and all(type(x) is int for e in got[:3] + got[-3:] for x in e)


def test_graded_sections_leave_no_garbage_cycle():
    # With the collector paused, as over a CLI job, a cycle left by one
    # enumeration would hold its keys until the job ends.
    pieces = [((1, 2, 3, 4, 5), 60), ((3, 1, 1), 256), ((1,), 2**64), ((2**64 - 1, 1), 2**64), ((2, 4), 3)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for weights, degree in pieces:
            graded_sections(W(weights), (1,), degree)
            assert gc.collect() == 0, (weights, degree)
        graded_sections(W((1, 100, 200, 300), (0, 1, 0, 1)), (1500, 3), 1)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_graded_sections_read_back_literal_bases():
    assert graded_sections(W((1,)), (1,), 2**64 - 1).basis == ((2**64 - 1,),)
    assert graded_sections(W((1,)), (1,), 2**64).basis == ((2**64,),)
    # Eight columns at width 1: the top byte of every exponent word is
    # used, and the total degree is in a word of its own.
    assert graded_sections(W((1,) + (200,) * 7), (1,), 255).basis == (
        (255, 0, 0, 0, 0, 0, 0, 0),
        *((55, *(int(i == j) for i in range(7))) for j in range(7)),
    )


def test_graded_sections_box_by_the_tightest_functional():
    # Nearly parallel columns: positive_functional's lambda is almost
    # orthogonal to some of them and would box each exponent by about
    # 9 * 10**9, while the first row, positive on every column, boxes
    # them by 15.
    rows = (
        (1000000005, 2000000013, 2000000011, 2000000012),
        (1000000005, 3000000023, 3000000022, 2000000014),
    )
    target = (15000000086, 18000000124)
    assert positive_functional(tuple(zip(*rows)), 2) == (3000000021, -2000000010)
    # A fresh interpreter, so that a box of 9 * 10**9 fails on the
    # subprocess timeout instead of hanging the suite.
    done = run_limited(["-c", (
        "import time; from orbistack import IntMatrix, graded_sections\n"
        f"start = time.perf_counter(); got = graded_sections(IntMatrix.from_rows({rows}), {target}, 1)\n"
        "print(time.perf_counter() - start, got.basis)"
    )])
    assert done.stderr == ""
    seconds, got = done.stdout.split(" ", 1)
    assert float(seconds) < 1
    assert got.strip() == "((3, 1, 2, 3),)"
    assert oracles.box_solutions(rows, target, [15] * 4) == [(3, 1, 2, 3)]


@pytest.mark.parametrize(
    "rows,target,expected",
    [
        # Every column a pivot: one point or none.
        (((1, 0), (0, 1)), (4, 4), ((4, 4),)),
        (((2, 1), (1, 3)), (3, 4), ((1, 1),)),
        (((2, 0), (0, 2)), (1, 2), ()),
        (((1, -1), (1, 1)), (0, -2), ()),
        # Every column a pivot, and a third row dependent on the first two.
        (((1, 0), (0, 1), (1, 1)), (2, 4, 6), ((2, 4),)),
        (((1, 0), (0, 1), (1, 1)), (2, 4, 5), ()),
        # Free columns, and a dependent row the pivots leave out.
        (((1, 1, 1), (1, 2, 3), (2, 3, 4)), (6, 12, 18), ((3, 0, 3), (2, 2, 2), (1, 4, 1), (0, 6, 0))),
        (((1, 1, 1), (1, 2, 3), (2, 3, 4)), (6, 12, 17), ()),
    ],
)
def test_graded_sections_multi_row_branches(rows, target, expected):
    got = graded_sections(W(*rows), target, 1).basis
    assert got == expected
    bounds = [max(target)] * len(rows[0])
    assert list(got) == oracles.grlex_sorted(oracles.box_solutions(rows, target, bounds))


def test_graded_sections_order_on_seeded_multi_row_pieces():
    # Two and three rows, the first positive, so the box from the first
    # row holds the piece.  Half the inputs get a dependent last row and
    # a fifth have no more columns than the rank, so both the all-pivot
    # branch and the span check on left-out rows run, with and without
    # points.
    rng = random.Random(1617)
    counts = dict.fromkeys(
        ("all_pivot", "all_pivot_nonempty", "deficient", "deficient_nonempty", "large"), 0
    )
    for _ in range(400):
        k = rng.randint(2, 3)
        n = rng.randint(k - 1, 5) if rng.random() < 0.8 else rng.randint(1, k)
        rows = [[rng.randint(1, 3) for _ in range(n)]]
        rows += [[rng.randint(-2, 3) for _ in range(n)] for _ in range(k - 1)]
        if rng.random() < 0.5:
            a, b = rng.randint(-1, 2), rng.randint(-1, 2)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
        target = (rng.randint(0, 8),) + tuple(rng.randint(-4, 8) for _ in range(k - 1))
        if rng.random() < 0.5:
            # Aim at the span: the target of a random point.
            e = [rng.randint(0, 2) for _ in range(n)]
            target = tuple(sum(r[j] * e[j] for j in range(n)) for r in rows)
        got = graded_sections(W(*rows), target, 1).basis
        bounds = [target[0] // rows[0][j] for j in range(n)]
        assert list(got) == oracles.grlex_sorted(oracles.box_solutions(rows, target, bounds))
        rank = oracles.frac_rank(rows)
        counts["all_pivot"] += rank == n
        counts["all_pivot_nonempty"] += rank == n and bool(got)
        counts["deficient"] += rank < k
        counts["deficient_nonempty"] += rank < k and bool(got)
        counts["large"] += len(got) >= 10
    minimum = dict(
        all_pivot=100, all_pivot_nonempty=50, deficient=180, deficient_nonempty=80, large=12
    )
    assert all(counts[case] >= floor for case, floor in minimum.items()), counts


def memo_pieces():
    """Seeded pieces (rows, target) of one degree with at least four free exponents.

    Twelve one-row pieces of 5-7 weights have a weight of 1, so the
    pivot minor is 1, and twelve have none, so it is the smallest
    weight; twelve pointed two-row pieces have 6-7 columns and a
    positive first row.  The box the first row gives holds at most
    40,000 points.
    """
    rng = random.Random(2029)
    pieces = []
    while len(pieces) < 24:
        n = rng.randint(5, 7)
        weights = [rng.randint(2, 9) for _ in range(n)]
        if len(pieces) % 2:
            weights[rng.randrange(n)] = 1
        degree = rng.randint(12, 40)
        if prod(degree // w + 1 for w in weights) <= 40000:
            pieces.append(((tuple(weights),), (degree,)))
    while len(pieces) < 36:
        n = rng.randint(6, 7)
        rows = ((*(rng.randint(1, 3) for _ in range(n)),), (*(rng.randint(-2, 2) for _ in range(n)),))
        e = [rng.randint(0, 2) for _ in range(n)]
        target = tuple(sum(map(mul, row, e)) for row in rows)
        if prod(target[0] // a + 1 for a in rows[0]) <= 40000:
            pieces.append((rows, target))
    return pieces


def test_graded_sections_reuse_tail_lines_as_box_enumeration_finds_them():
    # Below two or more enumerated exponents, the lines of the last two
    # are built once per residual and budget and shifted on each visit.
    dets = set()
    sizes = []
    for rows, target in memo_pieces():
        mat = W(*rows)
        assert mat.cols - matrix_rank(rows) >= 4
        got = graded_sections(mat, target, 1).basis
        bounds = [target[0] // a for a in rows[0]]
        assert list(got) == oracles.grlex_sorted(oracles.box_solutions(rows, target, bounds)), rows
        dets.add(min(lattice._pivot_plan(mat.columns())[3], 2))
        sizes.append(len(got))
    assert dets == {1, 2}
    assert sum(size >= 20 for size in sizes) >= 12, sizes


@pytest.mark.parametrize(
    "rows",
    [
        # Pivots (2, 0) and (0, 3), det 6; the free column moves the
        # residual by (9, 8) in pivot coordinates, so the first row fixes
        # its exponent mod 2 and the second, given that, mod 3.
        ((2, 0, 3), (0, 3, 4)),
        ((2, 0, 3, 5), (0, 3, 4, 1)),
        # Three rows, det 30 split over 2, 3 and 5.
        ((2, 0, 0, 15), (0, 3, 0, 10), (0, 0, 5, 6)),
    ],
)
def test_graded_sections_residue_solved_across_rows(rows):
    rng = random.Random(1619)
    cols = list(zip(*rows))
    nonempty = 0
    for _ in range(150):
        e = [rng.randint(0, 4) for _ in cols]
        target = [sum(c[i] * x for c, x in zip(cols, e)) for i in range(len(rows))]
        if rng.random() < 0.5:
            target[rng.randrange(len(rows))] += rng.randint(1, 5)
        got = graded_sections(W(*rows), target, 1).basis
        # Every entry is nonnegative, so each row caps the exponents it meets.
        bounds = [min(t // a for t, a in zip(target, c) if a) for c in cols]
        expected = oracles.grlex_sorted(oracles.box_solutions(rows, target, bounds))
        assert list(got) == expected, target
        nonempty += bool(got)
    assert nonempty >= 75


def large_det_pieces():
    """Check graded pieces whose smallest pivot minor is past 10**9.

    The answers come from exact Cramer solves over a box of the other
    two exponents.
    """
    p, q = 10**9 + 7, 10**9 + 9
    cases = [
        ((p, q), 1, ()),
        ((p, q), p * q, ((q, 0), (0, p))),
        ((p, q), p * q + p + q, ((q + 1, 1), (1, p + 1))),
    ]
    for weights, degree, expected in cases:
        assert graded_sections(W(weights), (1,), degree).basis == expected
    # Two rows: every column is (a, p c + d) with a, c, d small, so a
    # 2 x 2 minor is p (a c' - a' c) plus a small remainder; pieces where
    # every minor is past 10**9 are kept.
    rng = random.Random(1618)
    nonempty = checked = 0
    while checked < 40:
        cols = [(rng.randint(1, 3), p * rng.randint(1, 3) + rng.randint(-3, 3)) for _ in range(4)]
        minors = [abs(a[0] * b[1] - a[1] * b[0]) for a, b in itertools.combinations(cols, 2)]
        if min(minors) < 10**9:
            continue
        checked += 1
        e = [rng.randint(0, 3) for _ in range(4)]
        target = tuple(sum(c[i] * x for c, x in zip(cols, e)) for i in range(2))
        if rng.random() < 0.3:
            target = (target[0], target[1] + rng.randint(1, 3))
        expected = []
        (a0, b0), (a1, b1) = cols[:2]
        det = a0 * b1 - a1 * b0
        for rest in product(*(range(target[0] // c[0] + 1) for c in cols[2:])):
            r0 = target[0] - cols[2][0] * rest[0] - cols[3][0] * rest[1]
            r1 = target[1] - cols[2][1] * rest[0] - cols[3][1] * rest[1]
            x0 = Fraction(r0 * b1 - r1 * a1, det)
            x1 = Fraction(a0 * r1 - b0 * r0, det)
            if x0.denominator == x1.denominator == 1 and x0 >= 0 and x1 >= 0:
                expected.append((int(x0), int(x1), *rest))
        got = graded_sections(W(*zip(*cols)), target, 1).basis
        assert list(got) == oracles.grlex_sorted(expected), (cols, target)
        nonempty += bool(got)
    assert nonempty >= 20


def run_limited(argv):
    """Run argv in a fresh interpreter under a 1 GiB address-space limit.

    A regression that tabulates residues up to the pivot minor needs
    gigabytes here; the limit turns that into a failed run instead of
    memory taken from the rest of the machine.
    """
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    paths = [str(repo / "src"), str(repo), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
        timeout=120,
    )


def test_graded_sections_with_large_pivot_minors():
    done = run_limited(["-c", "from tests.test_lattice import large_det_pieces; large_det_pieces()"])
    assert (done.returncode, done.stderr) == (0, "")
    argv = ["sections", "--weights", "1000000007,1000000009", "--degree", "1"]
    done = run_limited(["-m", "orbistack.cli", *argv])
    assert (done.returncode, done.stdout, done.stderr) == (
        0,
        '{"schema":1,"command":"sections","weights":[1000000007,1000000009],'
        '"degree":1,"basis":[]}\n',
        "",
    )


def test_graded_sections_empty_and_infinite():
    skew = W((2, -2))
    assert graded_sections(skew, (1,), 1).basis == ()
    with pytest.raises(InfiniteSolutionSet) as exc:
        graded_sections(skew, (1,), 2)
    witness = exc.value.witness
    assert witness["degree"] == 2
    recession = witness["recession"]
    assert any(recession) and all(x >= 0 for x in recession)
    assert sum(w * x for w, x in zip((2, -2), recession)) == 0
    with pytest.raises(ValueError):
        graded_sections(skew, (1,), -1)


def test_infinite_pieces_name_the_first_minimal_recession_direction():
    # The witness is the first minimal solution of W u = 0, u >= 0, in
    # grlex_key order, also where there are several to choose from.
    assert minimal_homogeneous_solutions([(1, -1, -2)], 3) == ((2, 0, 1), (1, 1, 0))
    with pytest.raises(InfiniteSolutionSet) as exc:
        graded_sections(W((1, -1, -2)), (1,), 1)
    assert exc.value.witness == {"degree": 1, "recession": [2, 0, 1]}
    rng = random.Random(1717)
    several = 0
    while several < 40:
        k, n = rng.randint(1, 2), rng.randint(2, 4)
        mat = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])
        if positive_functional(mat.columns(), k) is not None:
            continue
        chi = tuple(rng.randint(-2, 2) for _ in range(k))
        try:
            graded_sections(mat, chi, rng.randint(0, 3))
        except InfiniteSolutionSet as exc:
            mins = minimal_homogeneous_solutions(mat.entries, n)
            assert exc.witness["recession"] == list(mins[0])
            several += len(mins) > 1


def test_hilbert_basis_frozen():
    basis = hilbert_basis(W((1, 3)), (1,))
    assert basis.generators == (((1, 0), 1), ((0, 1), 3))
    assert basis.invariant_generators == ()
    assert basis.pointed and basis.certified_degree == 12
    assert basis.max_degree() == 3

    basis = hilbert_basis(W((1, 1)), (1,))
    assert basis.generators == (((1, 0), 1), ((0, 1), 1))
    assert basis.pointed and basis.certified_degree == 4

    basis = hilbert_basis(W((1, -1)), (0,))
    assert basis.generators == (((0, 0), 1),)
    assert basis.invariant_generators == ((1, 1),)
    assert not basis.pointed and basis.certified_degree is None

    basis = hilbert_basis(W((1, -1)), (1,))
    assert basis.generators == (((1, 0), 1),)
    assert basis.invariant_generators == ((1, 1),)
    assert not basis.pointed


HB_CASES = [
    ((1, 3), (1,)),
    ((1, 1), (1,)),
    ((2, 3), (1,)),
    ((1, -1), (0,)),
    ((1, 2), (2,)),
]


@pytest.mark.parametrize("weights,chi", HB_CASES)
def test_hilbert_basis_matches_brute_minimal_solutions(weights, chi):
    basis = hilbert_basis(W(weights), chi, certify=False)
    augmented = {e + (m,) for e, m in basis.generators}
    augmented |= {e + (0,) for e in basis.invariant_generators}
    row = weights + (-chi[0],)
    bound = max(abs(x) for x in row)
    assert augmented == oracles.brute_minimal_kernel((row,), len(row), bound)


def test_hilbert_basis_generates_all_graded_pieces():
    # Independent decomposition search against every graded piece in a
    # window well past the certification bound.
    basis = hilbert_basis(W((1, 3)), (1,))
    gens = [e + (m,) for e, m in basis.generators]
    for m in range(1, 11):
        for e in graded_sections(W((1, 3)), (1,), m):
            assert oracles.can_decompose(e + (m,), gens)


def drop_minimal_solution(monkeypatch, dropped):
    """Make minimal_homogeneous_solutions lose one solution, as a faulty search would."""
    search = lattice.minimal_homogeneous_solutions
    monkeypatch.setattr(
        lattice,
        "minimal_homogeneous_solutions",
        lambda rows, n: tuple(s for s in search(rows, n) if s != dropped),
    )


def test_hilbert_basis_completeness_failure_is_typed(monkeypatch):
    # Without (1, 0, 1) the only generator left is x_1 in degree 3, so
    # the sweep finds x_0 in degree 1 undominated.
    drop_minimal_solution(monkeypatch, (1, 0, 1))
    with pytest.raises(InvariantViolation) as exc:
        hilbert_basis(W((1, 3)), (1,))
    assert exc.value.witness == {"degree": 1, "monomial": [1, 0]}
    # Without the completeness sweep the check is never reached.
    assert hilbert_basis(W((1, 3)), (1,), certify=False).certified_degree is None


def test_hilbert_basis_certify_degree_is_a_nonnegative_integer():
    # A negative bound would report a sweep that never ran.
    for bound in (-3, -1, 2.5, "2"):
        with pytest.raises(ValueError, match="certify_degree"):
            hilbert_basis(W((1, 3)), (1,), certify_degree=bound)
    assert hilbert_basis(W((1, 3)), (1,), certify_degree=0).certified_degree == 0


def pointed_actions():
    """Seeded pointed actions (rows, chi) of full rank with 2-4 columns.

    The first row and chi's first entry are positive, so the semigroup
    is pointed; half the actions have a second row.  The box the first
    row gives the last piece of the completeness sweep holds at most
    10,000 points.  The first action's pieces have exponents past 255, so
    they are read back into 2-byte columns.
    """
    rng = random.Random(2030)
    actions = [(((1, 300),), (300,))]
    while len(actions) < 24:
        k = 1 + len(actions) % 2
        n = rng.randint(k + 1, 4)
        rows = ((*(rng.randint(1, 4) for _ in range(n)),),)
        rows += tuple((*(rng.randint(-2, 3) for _ in range(n)),) for _ in range(k - 1))
        chi = (rng.randint(1, 4), *(rng.randint(-2, 3) for _ in range(k - 1)))
        if matrix_rank(rows) < k:
            continue
        gens = hilbert_basis(W(*rows), chi, certify=False).generators
        bound = 4 * max((m for _, m in gens), default=0)
        if len(gens) >= 2 and prod(bound * chi[0] // a + 1 for a in rows[0]) <= 10000:
            actions.append((rows, chi))
    return actions


def sweep_outcome(rows, chi, certify_degree=None):
    """hilbert_basis's completeness verdict: the witness of its InvariantViolation, or its certified degree."""
    try:
        return hilbert_basis(W(*rows), chi, certify_degree=certify_degree).certified_degree
    except InvariantViolation as exc:
        return exc.witness


def oracle_outcome(rows, chi, generators, bound):
    witness = oracles.completeness_witness(rows, chi, generators, bound)
    if witness is None:
        return bound
    return {"degree": witness[0], "monomial": list(witness[1])}


def test_completeness_sweep_matches_the_element_by_element_oracle(monkeypatch):
    # The sweep covers a piece by bitmasks over its exponent columns; the
    # oracle compares each element of a box enumeration with each
    # generator.  Dropping any one or two generators must give the same
    # witness; two of one degree leave two elements of that piece
    # uncovered, and the witness is the first in basis order.
    # The last action's pieces have an exponent of 65536 and come back
    # as plain tuples; its box is large, so it is swept to degree 1 only.
    actions = [(rows, chi, None) for rows, chi in pointed_actions()]
    actions.append((((1, 65536),), (65536,), 1))
    failures = same_degree_pairs = 0
    for rows, chi, certify_degree in actions:
        gens = hilbert_basis(W(*rows), chi, certify=False).generators
        for size in (0, 1, 2):
            for dropped in itertools.combinations(gens, size):
                rest = [g for g in gens if g not in dropped]
                with monkeypatch.context() as patch:
                    for e, m in dropped:
                        drop_minimal_solution(patch, e + (m,))
                    got = sweep_outcome(rows, chi, certify_degree)
                bound = 4 * max((m for _, m in rest), default=0) if certify_degree is None else certify_degree
                assert got == oracle_outcome(rows, chi, rest, bound), (rows, chi, dropped)
                assert size or got == bound
                failures += isinstance(got, dict)
                same_degree_pairs += size == 2 and dropped[0][1] == dropped[1][1]
    assert failures >= 75 and same_degree_pairs >= 15
    # Both wide pieces lose their second point with it as generator.
    with monkeypatch.context() as patch:
        drop_minimal_solution(patch, (0, 1, 1))
        assert sweep_outcome(((1, 300),), (300,)) == {"degree": 1, "monomial": [0, 1]}
        assert sweep_outcome(((1, 65536),), (65536,), 1) == {"degree": 1, "monomial": [0, 1]}
    assert type(lattice._piece(graded_sections(W((1, 300)), (300,), 4))) is lattice._Columns
    assert type(lattice._piece(graded_sections(W((1, 65536)), (65536,), 1))) is tuple


def test_completeness_sweep_builds_no_point(monkeypatch):
    # The sweep reads the pieces' columns: with packaging into points
    # refused, the golden pointed 2x5 action still certifies to degree 68.
    rows, chi = ((-2, 3, 3, 1, 2), (3, 4, 2, 0, 2)), (1, 2)
    expected = hilbert_basis(W(*rows), chi)
    assert expected.certified_degree == 68

    def refuse(piece):
        raise AssertionError("a point was built")

    monkeypatch.setattr(lattice, "_points", refuse)
    assert hilbert_basis(W(*rows), chi, certify=True) == expected


KERNEL_123 = ((1, 1, -1), (0, 3, -2))


def test_sublattice_index_matches_minor_gcds():
    # A sublattice of Z^n (or of a saturated kernel) has index equal to
    # its maximal-minor gcd, and 0 when its rank falls short.
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        rank, minor_gcd = oracles.lattice_det(rows)
        full = [[int(i == j) for j in range(n)] for i in range(n)]
        assert sublattice_index(rows, full) == (minor_gcd if rank == n else 0)
        # Inside the rank-2 kernel of (1, 2, 3): the index is |det| of
        # the coefficient matrix over the kernel basis.
        coeffs = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        sub = [[c0 * x + c1 * y for x, y in zip(*KERNEL_123)] for c0, c1 in coeffs]
        assert sublattice_index(sub, KERNEL_123) == abs(oracles.int_det(coeffs))
    assert sublattice_index([], []) == 1


def test_hilbert_basis_k0():
    free = IntMatrix((), 2)
    basis = hilbert_basis(free, ())
    assert basis.generators == (((0, 0), 1),)
    assert basis.invariant_generators == ((1, 0), (0, 1))
    assert not basis.pointed
    with pytest.raises(InfiniteSolutionSet):
        graded_sections(free, (), 0)


def lattice_spans(columns, k):
    """Do the given vectors span Q^k?"""
    return matrix_rank([lattice._as_vec(c, k, "column") for c in columns]) == k


def test_lattice_spans_is_a_rational_rank_test():
    assert lattice_spans(((1,), (3,)), 1)
    assert lattice_spans(((2,),), 1)
    assert not lattice_spans((), 1)
    assert not lattice_spans(((1, 0),), 2)
    assert lattice_spans(((1, 0), (0, 1)), 2)


def test_intmatrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(((1,),), 0)
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (1,)), 2)
    with pytest.raises(ValueError):
        IntMatrix(((1, 2.5),), 2)
    # from_rows rejects non-integers as the constructor does, rather than
    # truncating them.
    for rows in [[(1.7, 3)], [(1, 3), (2, 4.0)], [("1", "3")]]:
        with pytest.raises(ValueError):
            IntMatrix.from_rows(rows)
    assert IntMatrix.from_rows([[1, 3], (2, 4)]) == IntMatrix(((1, 3), (2, 4)), 2)
    # Rows given as lists are stored as tuples, so the matrix hashes and
    # its rows extend by a tuple.
    listed = IntMatrix(([1, 3],), 2)
    assert listed == IntMatrix.from_rows([[1, 3]]) and listed.entries == ((1, 3),)
    assert hash(listed) == hash(IntMatrix.from_rows([[1, 3]]))
    degrees = [c.degree for c in proj_presentation(CharacterAction(listed, (1,))).charts]
    assert degrees == [1, 3]
    assert hilbert_basis(listed, (1,)).generators == (((1, 0), 1), ((0, 1), 3))
    mat = W((1, 3))
    assert mat.k == 1 and mat.cols == 2
    assert mat.column(1) == (3,)
    assert mat.columns() == ((1,), (3,))
    assert mat.apply((3, 1)) == (6,)
    # The stored columns are not part of equality, hash or repr.
    assert mat == IntMatrix(((1, 3),), 2)
    assert hash(mat) == hash((((1, 3),), 2))
    assert repr(mat) == "IntMatrix(entries=((1, 3),), cols=2)"
    assert dataclasses.replace(mat, entries=((2, 5),)).columns() == ((2,), (5,))
    empty = IntMatrix((), 3)
    assert empty.columns() == ((), (), ())
    assert all(empty.column(j) == () for j in range(3))


def test_results_are_deterministic():
    a = hilbert_basis(W((2, 3)), (1,))
    b = hilbert_basis(W((2, 3)), (1,))
    assert a == b
    assert dual_cone_generators(((1, 2), (2, 1)), 2) == dual_cone_generators(((1, 2), (2, 1)), 2)

"""Diagonalizable group quotients and their stability data.

The stability verdicts here are pinned by hand on small actions and
cross-checked against a bounded search over integer one-parameter
subgroups (tests.oracles.stable_by_search); the exhaustive comparison
over a whole parameter box lives in the acceptance suite.
"""

import json
import random
from itertools import combinations, product
from math import comb

import pytest

from orbistack import (
    CHI_ON_BOUNDARY,
    CHI_OUTSIDE_CONE,
    CharacterAction,
    DomainError,
    IntMatrix,
    NOT_STABLE,
    STABILIZER_INFINITE,
    STABLE,
    is_stable_support,
    proj_presentation,
    stable_locus,
)
from orbistack import cli, git, lattice
from tests import oracles
from tests.test_golden import ACTIONS


def act(rows, chi):
    return CharacterAction(IntMatrix.from_rows(rows), chi)


def stability_power_invariance(action, power):
    """Compare the stable loci for chi and for power * chi."""
    if not isinstance(power, int) or power < 1:
        raise ValueError("power must be a positive integer")
    scaled = CharacterAction(action.matrix, tuple(power * c for c in action.character))
    return stable_locus(action) == stable_locus(scaled)


class NotPolynomial(DomainError):
    """Some weight entry is negative, so the action does not extend to the monoid."""

    name = "NotPolynomial"


def is_polynomial(W):
    """Does the action extend to the multiplicative monoid (all weights >= 0)?"""
    return all(x >= 0 for row in W.entries for x in row)


def representation_degree(W):
    """Largest total weight of a coordinate, for a polynomial action.

    Coordinate j transforms by the monomial whose exponents are column j,
    of total degree equal to the column sum.
    """
    for i, row in enumerate(W.entries):
        for j, x in enumerate(row):
            if x < 0:
                raise NotPolynomial(
                    "a negative weight entry leaves the polynomial regime",
                    entry=[i, j],
                    value=x,
                )
    return max((sum(W.column(j)) for j in range(W.cols)), default=0)


def test_reason_constants():
    assert STABLE == "Stable"
    assert NOT_STABLE == "NotStable"
    assert STABILIZER_INFINITE == "StabilizerInfinite"
    assert CHI_OUTSIDE_CONE == "ChiOutsideCone"
    assert CHI_ON_BOUNDARY == "ChiOnBoundary"


def test_is_stable_support_frozen():
    weighted = act([(1, 3)], (1,))
    for support in [(1,), (2,), (1, 2)]:
        cert = is_stable_support(weighted, support)
        assert cert.stable and cert.verdict == STABLE
        assert cert.reason is None and cert.witness is None

    cert = is_stable_support(weighted, ())
    assert (cert.verdict, cert.reason, cert.witness) == (NOT_STABLE, STABILIZER_INFINITE, (-1,))

    cert = is_stable_support(act([(1, 3)], (0,)), (1,))
    assert (cert.verdict, cert.reason, cert.witness) == (NOT_STABLE, CHI_ON_BOUNDARY, (1,))

    mixed = act([(1, -1)], (0,))
    assert is_stable_support(mixed, (1, 2)).stable
    cert = is_stable_support(mixed, (1,))
    assert (cert.verdict, cert.reason) == (NOT_STABLE, CHI_ON_BOUNDARY)

    cert = is_stable_support(act([(1, 0), (0, 1)], (1, 1)), (1,))
    assert (cert.verdict, cert.reason, cert.witness) == (NOT_STABLE, STABILIZER_INFINITE, (0, -1))

    cert = is_stable_support(act([(1,)], (-1,)), (1,))
    assert (cert.verdict, cert.reason) == (NOT_STABLE, CHI_OUTSIDE_CONE)


def test_support_validation():
    weighted = act([(1, 3)], (1,))
    for support, entry in [((0,), "0"), ((3,), "3"), ((1, 0), "0"), ((1, 3), "3"),
                           ([1, "a"], "'a'"), ((1, "a"), "'a'"), ((1.0,), "1.0")]:
        with pytest.raises(ValueError) as exc:
            is_stable_support(weighted, support)
        assert str(exc.value) == f"support entries must lie in 1..2, got {entry}"
    # Duplicate entries collapse to a set.
    assert is_stable_support(weighted, (1, 1)).stable
    # Canonical supports come back as they are; anything else is sorted
    # and deduplicated, bool entries kept as given.
    for support, normalized in [((), ()), ((1, 2), (1, 2)), ((2, 1), (1, 2)), ((1, 1), (1,)),
                                ([2, 1], (1, 2)), ((i for i in (2, 1)), (1, 2)), ([], ()),
                                ((True,), (True,)), ((2, True), (True, 2))]:
        got = git._normalize_support(support, 2)
        assert got == normalized and list(map(type, got)) == list(map(type, normalized))


def test_character_validation():
    with pytest.raises(ValueError):
        CharacterAction(IntMatrix.from_rows([(1, 3)]), (1, 2))
    with pytest.raises(ValueError):
        CharacterAction(IntMatrix.from_rows([(1, 3)]), (1.5,))


def test_action_matrix_must_be_an_intmatrix():
    for matrix in [((1, 3),), [[1, 3]], None]:
        with pytest.raises(TypeError):
            CharacterAction(matrix, (1,))


def test_unstable_witnesses_destabilize():
    # Every failure certificate carries a one-parameter subgroup that is
    # nonnegative on the support weights and nonpositive on chi.
    rng = random.Random(31)
    for _ in range(400):
        k = rng.choice((1, 2))
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
        chi = tuple(rng.randint(-2, 2) for _ in range(k))
        action = act(rows, chi)
        size = rng.randint(0, n)
        support = tuple(sorted(rng.sample(range(1, n + 1), size)))
        cert = is_stable_support(action, support)
        if cert.stable:
            continue
        lam = cert.witness
        assert any(lam)
        cols = [tuple(r[j - 1] for r in rows) for j in support]
        assert all(sum(l * w for l, w in zip(lam, c)) >= 0 for c in cols)
        assert sum(l * x for l, x in zip(lam, chi)) <= 0


def test_verdicts_match_subgroup_search():
    rng = random.Random(37)
    for _ in range(300):
        k = rng.choice((1, 2))
        n = rng.randint(1, 3)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
        chi = tuple(rng.randint(-2, 2) for _ in range(k))
        action = act(rows, chi)
        cols = [tuple(r[j] for r in rows) for j in range(n)]
        for size in range(n + 1):
            for sel in combinations(range(n), size):
                support = tuple(j + 1 for j in sel)
                expected = oracles.stable_by_search([cols[j] for j in sel], chi, 2)
                assert is_stable_support(action, support).stable == expected


def certificate_by_dual_cone(action, support):
    """A rank test, then the first of the oracle's dual-cone rays against chi."""
    k = action.matrix.k
    chi = action.character
    cols = [action.matrix.column(j - 1) for j in sorted(set(support))]
    if oracles.frac_rank(cols) < k:
        lam = lattice.integer_kernel(cols, k)[0]
        if sum(l * x for l, x in zip(lam, chi)) > 0:
            lam = tuple(-x for x in lam)
        return (NOT_STABLE, STABILIZER_INFINITE, lam)
    rays = oracles.dual_cone_by_subsets(cols, k)
    value = {lam: sum(l * x for l, x in zip(lam, chi)) for lam in rays}
    outside = [lam for lam in rays if value[lam] < 0]
    if outside:
        return (NOT_STABLE, CHI_OUTSIDE_CONE, outside[0])
    # A ray of a full-dimensional cone is nonzero on some column.
    boundary = [lam for lam in rays if value[lam] == 0]
    if boundary:
        return (NOT_STABLE, CHI_ON_BOUNDARY, boundary[0])
    return (STABLE, None, None)


def test_sign_table_certificates_match_the_dual_cone_route():
    # Verdict, reason and witness agree with a rank test and the dual
    # cone's first facet against chi, on k = 0..4 with zero and repeated
    # columns, whole matrices of rank < k, chi = 0 and chi on a wall (a
    # sum of max(k - 1, 1) columns).  It kills a copy that treats every support
    # as spanning, reports the last negative facet instead of the first
    # or the last vanishing one instead of the first, keeps lam_T but
    # never -lam_T as a facet, or counts a zero value as positive in a
    # hyperplane's sign masks.
    rng = random.Random(53)
    outcomes = {STABLE: 0, STABILIZER_INFINITE: 0, CHI_OUTSIDE_CONE: 0, CHI_ON_BOUNDARY: 0}
    pairs = deficient = 0
    for i in range(600):
        k = i % 5
        n = rng.randint(1, 8)
        cols = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(n)]
        if i % 3 == 0:
            cols[rng.randrange(n)] = (0,) * k
        if n >= 2 and i % 4 == 0:
            cols[rng.randrange(1, n)] = cols[0]
        if i % 7 == 0 and k >= 2:
            # Every column a multiple of one vector: the matrix has rank <= 1.
            base = cols[0]
            cols = [tuple(rng.randint(-2, 2) * x for x in base) for _ in range(n)]
        if i % 5 == 1:
            chi = (0,) * k
        elif i % 5 == 2 and k:
            picked = rng.sample(cols, min(n, max(k - 1, 1)))
            chi = tuple(sum(c[r] for c in picked) for r in range(k))
        else:
            chi = tuple(rng.randint(-3, 3) for _ in range(k))
        rows = tuple(tuple(c[r] for c in cols) for r in range(k))
        action = CharacterAction(IntMatrix(rows, n), chi)
        deficient += lattice.matrix_rank(cols) < k
        for j in range(4):
            # Mostly supports large enough to span.
            size = rng.randint(0 if j == 0 else min(k, n), n)
            support = tuple(sorted(rng.sample(range(1, n + 1), size)))
            cert = is_stable_support(action, support)
            expected = certificate_by_dual_cone(action, support)
            assert (cert.verdict, cert.reason, cert.witness) == expected, (cols, chi, support)
            outcomes[cert.reason or cert.verdict] += 1
            pairs += 1
    # 480 of the stable pairs are k = 0 pairs.
    assert pairs >= 2000 and deficient >= 60
    assert outcomes[STABLE] >= 700, outcomes
    assert outcomes[STABILIZER_INFINITE] >= 500, outcomes
    assert outcomes[CHI_OUTSIDE_CONE] >= 250, outcomes
    assert outcomes[CHI_ON_BOUNDARY] >= 250, outcomes


def test_wide_action_certificates_match_the_dual_cone_route_for_scaled_chi():
    # Actions of the stability benchmark's shapes: entries in [-2, 2],
    # distinct nonzero columns.  Every support of at most 2k columns (all
    # that stable_locus can test) gets the dual-cone route's certificate
    # for chi and for p * chi, p running through 2..5 support by support.
    # The 600 cases above stop at 8 columns and never scale chi.
    rng = random.Random(20261021)
    outcomes = {STABLE: 0, STABILIZER_INFINITE: 0, CHI_OUTSIDE_CONE: 0, CHI_ON_BOUNDARY: 0}
    for k, n in ((2, 10), (2, 12), (3, 10), (3, 11)):
        pool = [c for c in product(range(-2, 3), repeat=k) if any(c)]
        cols = rng.sample(pool, n)
        chi = rng.choice(pool)
        rows = tuple(tuple(c[r] for c in cols) for r in range(k))
        actions = [CharacterAction(IntMatrix(rows, n), tuple(p * x for x in chi)) for p in range(1, 6)]
        supports = (s for size in range(2 * k + 1) for s in combinations(range(1, n + 1), size))
        for i, support in enumerate(supports):
            for action in (actions[0], actions[1 + i % 4]):
                cert = is_stable_support(action, support)
                expected = certificate_by_dual_cone(action, support)
                assert (cert.verdict, cert.reason, cert.witness) == expected, (action, support)
            outcomes[cert.reason or cert.verdict] += 1
    assert sum(outcomes.values()) == 386 + 794 + 848 + 1486
    assert min(outcomes.values()) >= 200, outcomes


def test_reused_kernel_lines_keep_the_kernel_sign_where_chi_vanishes_on_them():
    # A support of rank k - 1 takes its StabilizerInfinite witness from
    # a sign-table row, oriented against chi; where chi vanishes on that
    # line it keeps the row's own sign, which is the sign of the kernel
    # solve (a primitive vector with a positive pivot).  Seeded actions with
    # k = 1..4, zero and duplicate columns, matrices whose columns all
    # lie in a random hyperplane, and chi = 0 or chi a column: every
    # support gets the dual-cone route's certificate on a fresh action
    # and on one whose tables stable_locus has already filled.
    rng = random.Random(20261022)
    vanishing = 0
    for i in range(160):
        k = 1 + i % 4
        n = rng.randint(1, 6)
        if i % 5 == 0 and k >= 2:
            basis = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k - 1)]
            coefficients = [[rng.randint(-1, 1) for _ in basis] for _ in range(n)]
            cols = [tuple(sum(a * b[r] for a, b in zip(c, basis)) for r in range(k)) for c in coefficients]
        else:
            cols = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(n)]
        if i % 3 == 0:
            cols[rng.randrange(n)] = (0,) * k
        if n >= 2 and i % 4 < 2:
            cols[rng.randrange(1, n)] = cols[0]
        chi = rng.choice(cols) if i % 2 else (0,) * k
        matrix = IntMatrix(tuple(tuple(c[r] for c in cols) for r in range(k)), n)
        walked = CharacterAction(matrix, chi)
        stable_locus(walked)
        for size in range(n + 1):
            for support in combinations(range(1, n + 1), size):
                expected = certificate_by_dual_cone(walked, support)
                for action in (CharacterAction(matrix, chi), walked):
                    cert = is_stable_support(action, support)
                    assert (cert.verdict, cert.reason, cert.witness) == expected, (cols, chi, support)
                picked = [cols[j - 1] for j in support]
                vanishing += oracles.frac_rank(picked) == k - 1 == oracles.frac_rank(picked + [chi])
    assert vanishing >= 500, vanishing


def test_stable_locus_frozen():
    assert stable_locus(act([(1, 3)], (1,))).minimal_stable_supports == ((1,), (2,))
    assert stable_locus(act([(1, 3)], (0,))).minimal_stable_supports == ()
    assert stable_locus(act([(1, -1)], (0,))).minimal_stable_supports == ((1, 2),)
    assert stable_locus(act([(1, 0), (0, 1)], (1, 1))).minimal_stable_supports == ((1, 2),)


def test_stable_locus_contains():
    locus = stable_locus(act([(1, 3)], (1,)))
    assert locus.contains((1,)) and locus.contains((2,)) and locus.contains((1, 2))
    assert not locus.contains(())
    empty = stable_locus(act([(1, 3)], (0,)))
    assert not empty.contains((1, 2))


def test_stability_is_upward_closed():
    rng = random.Random(41)
    for _ in range(100):
        k = rng.choice((1, 2))
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
        chi = tuple(rng.randint(-2, 2) for _ in range(k))
        action = act(rows, chi)
        for size in range(n):
            for sel in combinations(range(1, n + 1), size):
                if not is_stable_support(action, sel).stable:
                    continue
                for extra in range(1, n + 1):
                    if extra not in sel:
                        bigger = tuple(sorted(sel + (extra,)))
                        assert is_stable_support(action, bigger).stable


def test_stable_locus_lists_minimal_antichain():
    rng = random.Random(43)
    for _ in range(60):
        k = rng.choice((1, 2))
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
        chi = tuple(rng.randint(-2, 2) for _ in range(k))
        action = act(rows, chi)
        minimal = stable_locus(action).minimal_stable_supports
        listed = set(minimal)
        for a in minimal:
            for b in minimal:
                if a != b:
                    assert not set(a) <= set(b)
        for size in range(n + 1):
            for sel in combinations(range(1, n + 1), size):
                expected = any(set(m) <= set(sel) for m in listed)
                assert is_stable_support(action, sel).stable == expected


# Destabilizer box that makes the full-walk oracle complete for entries
# in [-2, 2] (see oracles.minimal_stable_supports_by_walk).
WALK_BOUND = {1: 1, 2: 2, 3: 8}


def test_stable_locus_matches_full_walk_oracle():
    # The search stops at 2k columns and skips supersets of what it has
    # found; the oracle classifies all 2^n supports and asserts upward
    # closure.  Wide actions are built like the stability benchmark's
    # (distinct nonzero columns); the small ones draw zero and repeated
    # columns and chi = 0 on purpose.
    rng = random.Random(47)
    cases = []
    for k, n in [(2, 14)] * 3 + [(3, 12)] * 3 + [(2, 12), (3, 10), (2, 10), (3, 8)]:
        pool = [c for c in product(range(-2, 3), repeat=k) if any(c)]
        cases.append((rng.sample(pool, n), rng.choice(pool)))
    for i in range(100):
        k = rng.randint(1, 3)
        n = rng.randint(1, 6)
        cols = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(n)]
        if i % 3 == 0:
            cols[rng.randrange(n)] = (0,) * k
        if n >= 2 and i % 4 == 0:
            cols[1] = cols[0]
        chi = (0,) * k if i % 5 == 0 else tuple(rng.randint(-2, 2) for _ in range(k))
        cases.append((cols, chi))
    for cols, chi in cases:
        k = len(chi)
        rows = [tuple(c[i] for c in cols) for i in range(k)]
        action = CharacterAction(IntMatrix(tuple(rows), len(cols)), chi)
        expected = oracles.minimal_stable_supports_by_walk(cols, chi, WALK_BOUND[k])
        assert stable_locus(action).minimal_stable_supports == expected, (cols, chi)


def support_walks(items, max_size, holds):
    """The walk by level sets and the oracle's superset scan agree, holds call for call."""
    calls = ([], [])
    walks = (lattice._minimal_supports, oracles.minimal_supports_by_superset_scan)
    found = [
        walk(items, max_size, lambda s, seen=seen: seen.append(s) or holds(s))
        for walk, seen in zip(walks, calls)
    ]
    assert found[0] == found[1]
    assert calls[0] == calls[1]
    return found[0], calls[0]


def test_support_walk_by_level_sets_matches_the_superset_scan():
    # Upward-closed predicates: a support holds when it contains one of a
    # seeded family of sets, the empty set among them now and then.
    rng = random.Random(20261020)
    skipped = 0
    for _ in range(400):
        items = sorted(rng.sample(range(14), rng.randrange(11)))
        family = [
            set(rng.sample(items, rng.randrange(min(len(items), 4) + 1)))
            for _ in range(rng.randrange(5))
        ]
        max_size = rng.randrange(len(items) + 1)
        _, tested = support_walks(items, max_size, lambda s: any(f <= set(s) for f in family))
        skipped += sum(comb(len(items), r) for r in range(max_size + 1)) - len(tested)
    assert skipped > 10_000
    # The golden 2x22 and 3x16 actions, walked as stable_locus walks them.
    for name, chi in (("2x22", (-2, 1)), ("3x16", (-1, 2, -2))):
        rows = [[int(x) for x in row.split(",")] for row in ACTIONS[name].split(";")]
        action = act(rows, chi)
        n, k = action.matrix.cols, action.matrix.k
        found, tested = support_walks(
            range(1, n + 1), min(n, 2 * k), lambda s: is_stable_support(action, s).stable
        )
        assert found == stable_locus(action).minimal_stable_supports
        assert found and len(tested) < sum(comb(n, r) for r in range(2 * k + 1))


def test_stable_locus_solves_each_facet_candidate_once(monkeypatch):
    # A 3x11 action of the benchmark's shape.  Facet candidates of a
    # support's cone come from its 2-column subsets, and there are only
    # C(11, 2) of those however many supports contain them; the
    # other kernel solves are git's StabilizerInfinite witnesses, one
    # per tested support of rank < 2 (a rank-2 support reuses a
    # sign-table line).  The search tests no support of more than
    # 2k = 6 columns.
    # The action's data is validated when it is built, so the sweep
    # revalidates no column.
    rows = [
        (1, -2, -1, -2, -1, 1, 1, -2, 1, 1, 1),
        (-1, 1, 0, 0, 0, 1, -1, 1, -2, 0, 1),
        (0, -1, 2, -2, -2, 0, 1, 1, 1, 0, 1),
    ]
    action = act(rows, (0, -1, -1))
    cols = [tuple(r[j] for r in rows) for j in range(11)]
    for module in (lattice, git):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    calls = []
    solve = lattice.integer_kernel

    def counting(rows, n):
        calls.append(n)
        return solve(rows, n)

    tested = []
    classify = git.is_stable_support

    def recording(act, support):
        tested.append(tuple(support))
        return classify(act, support)

    validations = []
    as_vec = lattice._as_vec

    def counting_as_vec(*args):
        validations.append(args)
        return as_vec(*args)

    monkeypatch.setattr(lattice, "integer_kernel", counting)
    monkeypatch.setattr(git, "integer_kernel", counting)
    monkeypatch.setattr(git, "is_stable_support", recording)
    monkeypatch.setattr(lattice, "_as_vec", counting_as_vec)
    locus = stable_locus(action)
    assert locus.minimal_stable_supports
    needed = sum(oracles.frac_rank([cols[j - 1] for j in s]) < 2 for s in tested)
    assert len(tested) <= sum(comb(11, i) for i in range(7)) == 1486
    assert needed <= len(calls) <= comb(11, 2) + needed
    assert validations == []


def test_stable_locus_classifies_each_tested_support_once_from_the_chi_table(capsys, monkeypatch):
    # The walk calls git.is_stable_support through the module global,
    # once per support it tests (the benchmark's tracer counts those
    # calls as git.supports_tested), and a support is classified from
    # the action's chi-valued table, never from the facet list of
    # lattice._dual_cone.  The tested supports are exactly those of at
    # most 2k columns that contain no other minimal stable support, in
    # walk order.
    tested = []
    classify = git.is_stable_support

    def recording(act, support):
        tested.append(tuple(support))
        return classify(act, support)

    cone_calls = []
    dual_cone = lattice._dual_cone

    def counting_dual_cone(*args):
        cone_calls.append(args)
        return dual_cone(*args)

    monkeypatch.setattr(git, "is_stable_support", recording)
    monkeypatch.setattr(lattice, "_dual_cone", counting_dual_cone)
    for name, chi in (("3x11", "0,-1,-1"), ("2x12", "1,-2"), ("4x12", "2,-2,1,0")):
        tested.clear()
        assert cli.main(["stable-locus", f"--matrix={ACTIONS[name]}", f"--chi={chi}"]) == 0
        doc = json.loads(capsys.readouterr().out)
        minimal = [set(m) for m in doc["minimal_supports"]]
        k, n = len(doc["matrix"]), len(doc["matrix"][0])
        expected = [
            support
            for size in range(min(n, 2 * k) + 1)
            for support in combinations(range(1, n + 1), size)
            if not any(m < set(support) for m in minimal)
        ]
        assert minimal and tested == expected, name
    assert cone_calls == []


def test_stability_power_invariance():
    assert stability_power_invariance(act([(1, 3)], (1,)), 2)
    assert stability_power_invariance(act([(1, 3)], (1,)), 3)
    assert stability_power_invariance(act([(1, 0), (0, 1)], (1, 1)), 2)
    assert stability_power_invariance(act([(1, -1)], (0,)), 3)
    with pytest.raises(ValueError):
        stability_power_invariance(act([(1, 3)], (1,)), 0)


def test_k0_action_is_entirely_stable():
    trivial = CharacterAction(IntMatrix((), 2), ())
    assert is_stable_support(trivial, ()).stable
    assert is_stable_support(trivial, (1, 2)).stable
    assert stable_locus(trivial).minimal_stable_supports == ((),)


def test_proj_presentation_frozen():
    pres = proj_presentation(act([(1, 3)], (1,)))
    assert pres.basis.generators == (((1, 0), 1), ((0, 1), 3))
    assert pres.basis.pointed and pres.basis.certified_degree == 12
    assert [(c.monomial, c.degree, c.support, c.stable) for c in pres.charts] == [
        ((1, 0), 1, (1,), True),
        ((0, 1), 3, (2,), True),
    ]
    assert pres.locus.minimal_stable_supports == ((1,), (2,))


def test_proj_presentation_mixed_weights():
    pres = proj_presentation(act([(1, -1)], (1,)))
    assert pres.basis.generators == (((1, 0), 1),)
    assert pres.basis.invariant_generators == ((1, 1),)
    assert not pres.basis.pointed and pres.basis.certified_degree is None
    assert [(c.monomial, c.degree, c.support, c.stable) for c in pres.charts] == [
        ((1, 0), 1, (1,), True),
    ]
    assert pres.locus.minimal_stable_supports == ((1,),)

    degenerate = proj_presentation(act([(1, -1)], (0,)))
    assert [(c.monomial, c.degree, c.support, c.stable) for c in degenerate.charts] == [
        ((0, 0), 1, (), False),
    ]
    assert degenerate.locus.minimal_stable_supports == ((1, 2),)


def test_proj_presentation_torus_square():
    pres = proj_presentation(act([(1, 0), (0, 1)], (1, 1)))
    assert pres.basis.generators == (((1, 1), 1),)
    assert [(c.monomial, c.degree, c.support, c.stable) for c in pres.charts] == [
        ((1, 1), 1, (1, 2), True),
    ]


def test_proj_presentation_certify_degree_plumbs_through():
    pres = proj_presentation(act([(1, 3)], (1,)), certify_degree=20)
    assert pres.basis.certified_degree == 20


def test_representation_degree():
    assert representation_degree(IntMatrix.from_rows([(1, 3)])) == 3
    assert representation_degree(IntMatrix.from_rows([(1, 0), (0, 1)])) == 1
    assert representation_degree(IntMatrix.from_rows([(2, 1), (1, 2)])) == 3
    assert representation_degree(IntMatrix((), 2)) == 0


def test_is_polynomial_and_witness():
    assert is_polynomial(IntMatrix.from_rows([(1, 3)]))
    assert not is_polynomial(IntMatrix.from_rows([(1, -1)]))
    with pytest.raises(NotPolynomial) as exc:
        representation_degree(IntMatrix.from_rows([(1, -1)]))
    assert exc.value.witness == {"entry": [0, 1], "value": -1}
    assert exc.value.name == "NotPolynomial"

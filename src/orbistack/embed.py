"""Monomial immersions of weighted projective stacks.

Given a faithful positive degree d' on a source stack, the pipeline
chooses twist data (m0, N, V1, V2): m0 bounds the degrees needed to
generate the section semigroup, N is a descent-admissible twist whose
descended bundle is certified very ample and whose twisted section
modules are globally generated, V1 and V2 are full section spaces.  The
concatenated monomials map the source into a target weighted projective
stack; verification checks chart generation and stabilizer preservation,
and recovery reads the data back off the map.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from operator import add, contains, eq, gt, is_, itemgetter, le, mul, not_, or_, sub
from typing import Sequence

from .errors import (
    ChartGenerationFailed,
    InvalidEmbeddingData,
    NotDetAmple,
    RoundTripMismatch,
    StabilizerNotPreserved,
    VeryAmpleCertificationFailed,
)
from .lattice import (
    Vec,
    _as_vec,
    _dominates,
    _dot,
    _minimal_supports,
    _row_hnf,
    hilbert_basis,
    integer_kernel,
    sublattice_index,
)
from .wps import WeightSystem, descent_modulus, is_det_ample, is_faithful, section_basis, strata

# Member rows reduced per step of a stratum's Hermite form.
STRATUM_CHUNK = 32

# Multiples of the descent step tried as the twist N before giving up.
MAX_TWISTS = 16


@dataclass(frozen=True)
class Certification:
    """How the twist N was chosen, and what was assumed along the way."""

    descent_modulus: int
    candidates_tried: tuple[int, ...]
    first_candidate_passed: bool
    normality_degrees_checked: tuple[int, ...]
    assumption: str

VANISHING_ASSUMPTION = (
    "higher cohomology of the twisted pushforwards is assumed to vanish, "
    "as for nef bundles on a projective toric coarse space"
)


@dataclass(frozen=True)
class EmbeddingData:
    """The full input of the monomial immersion.

    V2_blocks holds one tuple of exponent vectors per degree m = 1..m0
    (empty blocks are kept so the grouping stays positional), and
    coordinates is always V1 followed by the flattened blocks.  Target
    weights are the bundle degrees of the coordinates: N on V1 and
    m + N on block m.
    """

    source: WeightSystem
    dprime: int
    m0: int
    N: int
    V1: tuple[Vec, ...]
    V2_blocks: tuple[tuple[Vec, ...], ...]
    target_weights: tuple[int, ...]
    coordinates: tuple[Vec, ...]
    certification: Certification | None = None

    @property
    def V2(self) -> tuple[Vec, ...]:
        return tuple(itertools.chain.from_iterable(self.V2_blocks))


@dataclass(frozen=True)
class ChartCheck:
    chart: Vec
    generators_checked: int


@dataclass(frozen=True)
class StratumCheck:
    support: tuple[int, ...]
    stabilizer_order: int
    weight_gcd: int
    lattice_index: int


@dataclass(frozen=True)
class VerifyReport:
    verdict: str
    certified_via: str
    charts: tuple[ChartCheck, ...]
    strata: tuple[StratumCheck, ...]


@dataclass(frozen=True)
class RecoveryReport:
    dprime: int
    N: int
    m0: int
    V1: tuple[Vec, ...]
    V2_blocks: tuple[tuple[Vec, ...], ...]
    matches: bool


@dataclass(frozen=True)
class MorphismReport:
    """Diagnostics for a map given by weighted sections.

    base_locus lists the maximal supports on which every section
    vanishes; the family of such supports is downward closed, so the
    maximal elements determine it.
    """

    well_defined: bool
    polynomial_target: bool
    base_locus: tuple[tuple[int, ...], ...]
    lands_in_stable: bool


def _polytope_normality(a: WeightSystem, big_degree: int) -> bool:
    """Degree-one generation certificate for the descended bundle.

    The sections of the descended degree D span a lattice simplex of
    dimension n (the descent modulus divides D, so the vertices are
    integral).  Lattice points of the j-th dilation decompose as j-fold
    sums automatically once j reaches the dimension (Bruns-Gubeladze-
    Trung), so only j = 2 .. n-1 need checking.  A degree-jD monomial z
    splits off a degree-D monomial g exactly when g <= z, and then the
    rest z - g is a degree-(j-1)D monomial, so the certificate is that
    every such z dominates some degree-D monomial.  That is a bounded
    subset sum: does some g with 0 <= g_i <= z_i reach sum a_i g_i = D?

    The z are walked depth first, one exponent per level and heaviest
    weight first (the verdict does not depend on the order), on an
    explicit stack so that no weight count meets the recursion limit.
    Each prefix carries the int bitset of the sums 0..D it reaches: one
    shift-or per unit of z_i, up to D // a_i.  Once bit D is set, every z
    extending the prefix dominates the same g, including those with a
    larger z_i, since domination is upward closed; that subtree passes
    without being walked.  The last exponent is fixed by the degree (a
    remainder means no monomial), and bit D is reachable with at most k
    copies of the last weight exactly when the prefix bitset meets
    hits[k], the sums D - t a_n for t <= k.
    """
    w = sorted(a.weights, reverse=True)
    n = len(w) - 1
    if n <= 2:
        return True
    full = (1 << (big_degree + 1)) - 1
    target = 1 << big_degree
    caps = [big_degree // ai for ai in w]
    last = w[n]
    hits = list(itertools.accumulate((target >> t * last for t in range(caps[n] + 1)), or_))

    # Prefixes still to extend: (level, degree left, reachable sums).
    stack = [(0, j * big_degree, 1) for j in range(2, n)]
    while stack:
        i, rest, reach = stack.pop()
        ai, cap = w[i], caps[i]
        step = reach
        for zi in range(rest // ai + 1):
            if zi and zi <= cap:
                step = (step << ai) & full
                reach |= step
                if reach & target:
                    break
            r = rest - zi * ai
            if i + 1 < n:
                stack.append((i + 1, r, reach))
            elif r % last == 0 and not reach & hits[min(r // last, caps[n])]:
                return False
    return True


def _minimal_residue_patterns(off_weights: Sequence[int], modulus: int) -> list[list[Vec]]:
    """For each residue r mod modulus, the minimal f >= 0 with sum(off_weights[t] f_t) = r mod modulus.

    Subtracting modulus from any single exponent preserves the class, so
    minimal elements have all entries below the modulus, and one walk of
    that box serves every class.  The box comes in lex order, where
    anything below f comes before it, so f is minimal in its class
    unless it dominates one kept there.
    """
    box = itertools.product(range(modulus), repeat=len(off_weights))
    bits = [1 << t for t in range(len(off_weights))]
    found: list[dict[int, list[Vec]]] = [{} for _ in range(modulus)]
    for f in box:
        kept = found[_dot(off_weights, f) % modulus]
        if not _dominates(f, mask := sum(itertools.compress(bits, f)), kept):
            kept.setdefault(mask, []).append(f)
    return [list(itertools.chain.from_iterable(kept.values())) for kept in found]


def _globally_generated(a: WeightSystem, dprime: int, m0: int, N: int) -> bool:
    """Do global sections span each twisted module on every coarse chart?

    Chart i inverts coordinate i.  The local twisted module in degree
    c = (m+N)d' is spanned by the off-i exponent patterns whose weighted
    degree is congruent to c mod a_i; global sections surject exactly
    when each minimal pattern p is the off-i part of a degree-c monomial,
    that is when its off-i degree is at most c.  (An off-i part below p
    lies in p's residue class, so by minimality it is p itself.)
    """
    w = a.weights
    for i, ai in enumerate(w):
        off_w = w[:i] + w[i + 1 :]
        patterns = _minimal_residue_patterns(off_w, ai)
        for m in range(1, m0 + 1):
            c = (m + N) * dprime
            if any(_dot(off_w, p) > c for p in patterns[c % ai]):
                return False
    return True


def _layout(V1, blocks, base: int) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Coordinates V1 then each block, with target weight base on V1 and base + m on block m."""
    coordinates = V1 + tuple(itertools.chain.from_iterable(blocks))
    weights = [(base,) * len(V1)] + [(base + m,) * len(b) for m, b in enumerate(blocks, start=1)]
    return coordinates, tuple(itertools.chain.from_iterable(weights))


def find_embedding_data(a, dprime: int) -> EmbeddingData:
    """Choose (m0, N, V1, V2) for the degree-dprime bundle on weights a.

    m0 is exact: the largest degree among the minimal generators of the
    section semigroup.  N is the smallest multiple of the descent step
    passing both certificates; candidates stop after MAX_TWISTS
    multiples and failure is reported, never silently escalated.
    """
    a = WeightSystem.of(a)
    if not isinstance(dprime, int):
        raise TypeError("bundle degree must be an integer")
    if not is_det_ample(a, dprime):
        _, offender = is_faithful(a, dprime)
        witness = {"weights": list(a.weights), "degree": dprime}
        if offender is not None:
            witness["support"] = list(offender.support)
            witness["stabilizer_order"] = offender.stabilizer_order
        raise NotDetAmple("the requested degree is not det-ample", **witness)

    semigroup = hilbert_basis(a.matrix(), (dprime,), certify=False)
    m0 = semigroup.max_degree()
    step_base = descent_modulus(a)
    step = step_base // gcd(step_base, dprime)
    tried = []
    chosen = None
    for t in range(1, MAX_TWISTS + 1):
        candidate = t * step
        normal = _polytope_normality(a, candidate * dprime)
        generated = _globally_generated(a, dprime, m0, candidate) if normal else None
        tried.append({"N": candidate, "normality": normal, "generation": generated})
        if normal and generated:
            chosen = candidate
            break
    if chosen is None:
        raise VeryAmpleCertificationFailed(
            "no tested twist passed both certificates",
            weights=list(a.weights),
            degree=dprime,
            tried=tried,
        )

    V1 = section_basis(a, chosen * dprime).basis
    blocks = tuple(section_basis(a, (m + chosen) * dprime).basis for m in range(1, m0 + 1))
    coordinates, target_weights = _layout(V1, blocks, chosen)
    certification = Certification(
        descent_modulus=step_base,
        candidates_tried=tuple(item["N"] for item in tried),
        first_candidate_passed=len(tried) == 1,
        normality_degrees_checked=tuple(range(2, max(2, len(a.weights) - 1))),
        assumption=VANISHING_ASSUMPTION,
    )
    return EmbeddingData(
        source=a,
        dprime=dprime,
        m0=m0,
        N=chosen,
        V1=V1,
        V2_blocks=blocks,
        target_weights=target_weights,
        coordinates=coordinates,
        certification=certification,
    )


def _typed_parts(data: EmbeddingData) -> tuple:
    return (data.source, data.V1, data.V2_blocks, data.coordinates, data.target_weights)


def _record_typed(data: EmbeddingData) -> EmbeddingData:
    """data, marked as built by a decoder that checked the types of its parts.

    The caller vouches that every monomial of V1, the blocks and
    coordinates is a tuple of non-negative ints of the source's width, and
    that every target weight is an int.  The mark holds the very objects
    vouched for, and _is_typed trusts it only while data still holds them,
    so a dataclasses.replace copy (which never carries the mark) or data
    whose parts were swapped afterwards is validated in full.
    """
    object.__setattr__(data, "_typed", _typed_parts(data))
    return data


def _is_typed(data: EmbeddingData) -> bool:
    record = getattr(data, "_typed", None)
    return record is not None and all(map(is_, record, _typed_parts(data)))


def _plain_monomials(group, width: int) -> bool:
    """Are all of group's monomials int tuples of length width, >= 0?

    Checked in bulk; when this fails, the per-monomial loop of
    _validate_structure finds the first offender, or accepts bools.
    """
    if not (set(map(type, group)) <= {tuple} and set(map(len, group)) <= {width}):
        return False
    flat = list(itertools.chain.from_iterable(group))
    return set(map(type, flat)) <= {int} and min(flat, default=0) >= 0


def _validate_structure(data: EmbeddingData) -> None:
    """Shape-level invariants only.

    Deliberately does not tie monomial degrees or weights to data.N, so
    bookkeeping inconsistencies surface as verification or recovery
    failures with their own named errors.  Data marked by _record_typed
    skips the type, length and sign checks its decoder made, and gets the
    same errors otherwise.
    """
    if not isinstance(data.source, WeightSystem):
        raise InvalidEmbeddingData("source must be a WeightSystem")
    a = data.source
    width = len(a.weights)
    if not isinstance(data.dprime, int) or data.dprime < 1:
        raise InvalidEmbeddingData("bundle degree must be a positive integer", degree=data.dprime)
    if not is_det_ample(a, data.dprime):
        raise InvalidEmbeddingData(
            "bundle degree is not det-ample on the source",
            weights=list(a.weights),
            degree=data.dprime,
        )
    if not isinstance(data.m0, int) or data.m0 < 1:
        raise InvalidEmbeddingData("m0 must be a positive integer", m0=data.m0)
    if not isinstance(data.N, int) or data.N < 1:
        raise InvalidEmbeddingData("N must be a positive integer", N=data.N)
    if (data.N * data.dprime) % descent_modulus(a):
        raise InvalidEmbeddingData(
            "the twist degree does not descend",
            N=data.N,
            degree=data.dprime,
            descent_modulus=descent_modulus(a),
        )
    for name in ("V2_blocks", "coordinates"):
        if not isinstance(getattr(data, name), tuple):
            raise InvalidEmbeddingData(f"{name} must be a tuple")
    if len(data.V2_blocks) != data.m0:
        raise InvalidEmbeddingData(
            "one block per degree 1..m0 required",
            m0=data.m0,
            blocks=len(data.V2_blocks),
        )
    if not data.V1:
        raise InvalidEmbeddingData("V1 must be nonempty")

    typed = _is_typed(data)
    groups = [("V1", data.V1)] + [
        (f"V2[{m}]", block) for m, block in enumerate(data.V2_blocks, start=1)
    ]
    for name, group in groups:
        if not isinstance(group, tuple):
            raise InvalidEmbeddingData(f"{name} must be a tuple")
        if not (typed or _plain_monomials(group, width)):
            for v in group:
                if not isinstance(v, tuple):
                    raise InvalidEmbeddingData(f"{name} monomial must be a tuple")
                if len(v) != width:
                    raise InvalidEmbeddingData(
                        f"{name} monomial has the wrong length", monomial=list(v)
                    )
                if any(not isinstance(x, int) or x < 0 for x in v):
                    raise InvalidEmbeddingData(
                        f"{name} monomial has a negative exponent", monomial=list(v)
                    )
                if not any(v):
                    raise InvalidEmbeddingData(f"{name} contains the constant monomial")
        # The exponents are now non-negative ints, so a monomial is
        # constant exactly when its total degree is 0.
        totals = list(map(sum, group))
        if 0 in totals:
            raise InvalidEmbeddingData(f"{name} contains the constant monomial")
        # Canonical and duplicate-free is strictly decreasing in (degree, lex).
        keyed = list(zip(totals, group))
        if not all(map(gt, keyed, keyed[1:])):
            raise InvalidEmbeddingData(f"{name} is not in canonical order")

    layout, offsets = _layout(data.V1, data.V2_blocks, 0)
    if data.coordinates != layout:
        raise InvalidEmbeddingData("coordinates must be V1 followed by the V2 blocks")
    if len(data.target_weights) != len(data.coordinates):
        raise InvalidEmbeddingData(
            "one target weight per coordinate required",
            coordinates=len(data.coordinates),
            weights=len(data.target_weights),
        )
    weights = data.target_weights
    plain = (typed or set(map(type, weights)) <= {int}) and min(weights) >= 1
    if not plain and any(not isinstance(x, int) or x < 1 for x in weights):
        raise InvalidEmbeddingData("target weights must be positive integers")
    if tuple(map(sub, weights, itertools.repeat(weights[0]))) != offsets:
        raise InvalidEmbeddingData(
            "target weights must be constant on V1 and offset by the block degree"
        )


def _multiset_reaches(e: Vec, m: int, off: tuple[int, ...], per_block) -> bool:
    """Can block elements with degrees summing to m fit under e off-chart?

    Blocks are scanned in nonincreasing degree so each multiset is tried
    once; failures are memoized on the residual state.  per_block holds
    each block's projections sorted, so only the prefix whose first entry
    is at most the cap's can fit, and the scan stops there.
    """
    failed: set[tuple[int, tuple[int, ...], int]] = set()

    def rec(m_rem: int, cap: tuple[int, ...], max_block: int) -> bool:
        if m_rem == 0:
            return True
        key = (m_rem, cap, max_block)
        if key in failed:
            return False
        for mb in range(min(max_block, m_rem), 0, -1):
            projs = per_block[mb - 1]
            if cap:
                projs = projs[: bisect_left(projs, (cap[0] + 1,))]
            for proj in projs:
                if all(map(le, proj, cap)) and rec(m_rem - mb, tuple(map(sub, cap, proj)), mb):
                    return True
        failed.add(key)
        return False

    return rec(m, tuple(e[j] for j in off), len(per_block))


def _projections(block, off: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct off-support parts of block's monomials, sorted."""
    if not off:
        return [()] if block else []
    projs = map(itemgetter(*off), block)
    # itemgetter of one index gives the entry itself, not a 1-tuple.
    return sorted(set(zip(projs) if len(off) == 1 else projs))


def _check_chart_generation(data: EmbeddingData) -> tuple[ChartCheck, ...]:
    """On each chart cut out by a V1 monomial, V2 generates the sections.

    The chart's section algebra inverts the chart monomial, so exponents
    on its support are free; a section monomial is generated exactly
    when some multiset of block elements with matching total degree
    fits under it away from the chart support.  The test runs on the
    minimal generators of the section semigroup, which suffices because
    the fitting property is multiplicative.

    A generator e of degree m whose product with the chart monomial is
    itself in block m fits alone, and then the search below would find
    it too.  So the verdict depends on the chart only through its
    off-support: the check runs once per off-support, in order of first
    appearance in V1, trying that shortcut with the first chart of the
    class, and a failure names that chart, the first one in V1 that
    fails.  The classes are V1's zero patterns, read column by column;
    the blocks are projected onto an off-support when a search first
    needs them.
    """
    generators = hilbert_basis(data.source.matrix(), (data.dprime,), certify=False).generators
    block_sets = [set(block) for block in data.V2_blocks]
    V1 = data.V1
    patterns = list(zip(*[map(not_, column) for column in zip(*V1)]))
    # Read backwards, the first chart of each pattern is the last one stored.
    first = dict(zip(patterns[::-1], V1[::-1]))
    positions = range(len(data.source.weights))
    for pattern in dict.fromkeys(patterns):
        s, off = first[pattern], tuple(itertools.compress(positions, pattern))
        per_block = None
        for e, m in generators:
            if 1 <= m <= len(block_sets) and tuple(map(add, e, s)) in block_sets[m - 1]:
                continue
            if per_block is None:
                per_block = [_projections(block, off) for block in data.V2_blocks]
            if not _multiset_reaches(e, m, off, per_block):
                raise ChartGenerationFailed(
                    "chart sections are not generated by the designated coordinates",
                    chart=list(s),
                    monomial=list(e),
                    degree=m,
                )
    return tuple(ChartCheck(s, len(generators)) for s in V1)


def _fits(data: EmbeddingData, dprime: int) -> list[bool]:
    """Does a.v = dprime * w hold, for each coordinate v of target weight w?

    The weighted degrees a.v come from one lockstep pass of C-level maps,
    one term a_j * v[j] per weight, with no Python call per coordinate.
    """
    degrees = None
    for j, aj in enumerate(data.source.weights):
        term = map(mul, itertools.repeat(aj), map(itemgetter(j), data.coordinates))
        degrees = term if degrees is None else map(add, degrees, term)
    return list(map(eq, degrees, map(mul, itertools.repeat(dprime), data.target_weights)))


def _image_index(basis, weight_row, kernel) -> int:
    """Index of the weight-0 rows of a Hermite basis in the relation lattice."""
    gens = [row[1:] for row in basis[1:]]
    if any(_dot(weight_row, gen) for gen in gens):
        return 0
    return sublattice_index(gens, kernel)


def _lattice_index(s_idx, weights_a, members, settled=False) -> int:
    """Index of the weight-kernel image inside the stratum relation lattice.

    members are (target weight, coordinate) pairs supported inside the
    stratum S.  The Hermite form of the rows (target weight | coordinate on
    S) has the weight gcd as its first pivot and weight 0 on every later
    row, and those later rows span exactly the image of the kernel of the
    weight form.  The relation lattice is the saturated kernel of the
    stratum weight form, so the image lies in it exactly when the form
    vanishes on every generator.  Returns 0 for infinite index or an image
    not contained in the relation lattice.

    Rows are reduced in chunks, carrying only the running Hermite basis:
    first |S| + 2 rows, one more than the basis can hold, then
    STRATUM_CHUNK at a time.  On genuine data the first few rows usually
    fill the lattice already, and the test below then stops before a
    full chunk is reduced.  settled says that every member satisfies
    a_S.v = d'w for one d'.  Every row then lies in {(w, v) : a_S.v =
    d'w}, whose weight-0 part is 0 x ker(a_S), so once the weight-0 rows
    reduced so far fill ker(a_S) with index 1, no further row can change
    the index and the rest is never reduced.
    """
    weight_row = [weights_a[j] for j in s_idx]
    kernel = integer_kernel([weight_row], len(s_idx))
    rows = ([wt] + [vec[j] for j in s_idx] for wt, vec in members)
    basis: list[list[int]] = []
    size = len(s_idx) + 2
    while chunk := list(itertools.islice(rows, size)):
        basis, rank = _row_hnf(basis + chunk)
        del basis[rank:]
        if settled and _image_index(basis, weight_row, kernel) == 1:
            return 1
        size = STRATUM_CHUNK
    return _image_index(basis, weight_row, kernel)


def _check_stratum_separation(data: EmbeddingData) -> tuple[StratumCheck, ...]:
    """Every stratum keeps its stabilizer order and character lattice.

    For support S the coordinates supported inside S must have target
    weights with gcd equal to the stratum's stabilizer order, and the
    differences of their exponent patterns (through the weight kernel)
    must fill the stratum's relation lattice with index one.

    a.v = d'w is checked once for the whole document; for a coordinate
    inside S, a.v is a_S.v.  Only coordinates with a zero exponent lie in
    a proper stratum, so only they get a support mask, and they are
    grouped by it.
    """
    a = data.source.weights
    weights, coordinates = data.target_weights, data.coordinates
    settled = all(_fits(data, data.dprime))
    bits = [1 << j for j in range(len(a))]
    has_zero = map(contains, coordinates, itertools.repeat(0))
    by_mask: dict[int, list[int]] = {}
    for t in itertools.compress(range(len(coordinates)), has_zero):
        by_mask.setdefault(sum(itertools.compress(bits, coordinates[t])), []).append(t)
    reports = []
    for stratum in strata(data.source):
        s, g_s = stratum.support, stratum.stabilizer_order
        if len(s) == len(a):
            member_weights, members = weights, zip(weights, coordinates)
        else:
            s_mask = sum(bits[j] for j in s)
            inside = (ts for mask, ts in by_mask.items() if mask | s_mask == s_mask)
            ts = sorted(itertools.chain.from_iterable(inside))
            member_weights = [weights[t] for t in ts]
            members = zip(member_weights, map(coordinates.__getitem__, ts))
        if not member_weights:
            raise StabilizerNotPreserved(
                "no coordinate is supported inside the stratum",
                support=list(s),
                index=None,
            )
        weight_gcd = gcd(*member_weights)
        if weight_gcd != g_s:
            raise StabilizerNotPreserved(
                "coordinate weights do not realize the stabilizer order",
                support=list(s),
                weight_gcd=weight_gcd,
                stabilizer_order=g_s,
                index=None,
            )
        index = _lattice_index(s, a, members, settled)
        if index != 1:
            raise StabilizerNotPreserved(
                "coordinate differences miss part of the stratum lattice",
                support=list(s),
                index=index if index else None,
            )
        reports.append(StratumCheck(s, g_s, weight_gcd, index))
    return tuple(reports)


def verify_immersion(data: EmbeddingData) -> VerifyReport:
    """Certify that the monomial map is an immersion preserving stabilizers.

    Two independent checks must pass: chart generation (the sections on
    each V1 chart are generated by V2 over the inverted chart monomial)
    and stratum separation (weights and exponent differences reproduce
    each stratum's stabilizer and character lattice).  Chart generation
    is certified on the semigroup generators, which covers every degree.
    """
    _validate_structure(data)
    charts = _check_chart_generation(data)
    strata = _check_stratum_separation(data)
    return VerifyReport(
        verdict="pass",
        certified_via="semigroup-generators",
        charts=charts,
        strata=strata,
    )


def recover_data(data: EmbeddingData) -> RecoveryReport:
    """Read (d', N, m0, V1, V2) back off the coordinates and compare.

    The bundle degree is the common ratio of weighted monomial degree to
    target weight.  Validation has already fixed the layout: coordinates
    are V1 then the blocks, with weight N on V1 and N + m on block m, so
    N is the first target weight, m0 the last minus N, and V1 and the
    blocks are the stored ones.  The first stored field that disagrees
    is reported.
    """
    _validate_structure(data)
    a = data.source
    deg0 = a.degree(data.coordinates[0])
    w0 = data.target_weights[0]
    if deg0 % w0:
        raise RoundTripMismatch(
            "no integer bundle degree matches the first coordinate",
            field="dprime",
            monomial=list(data.coordinates[0]),
            weight=w0,
        )
    d_hat = deg0 // w0
    fits = _fits(data, d_hat)
    if not all(fits):
        t = fits.index(False)
        raise RoundTripMismatch(
            "coordinate degrees are not proportional to target weights",
            field="dprime",
            monomial=list(data.coordinates[t]),
            weight=data.target_weights[t],
        )
    if d_hat != data.dprime:
        raise RoundTripMismatch(
            "recovered bundle degree differs",
            field="dprime",
            stored=data.dprime,
            recovered=d_hat,
        )
    n_hat = data.target_weights[0]
    if n_hat != data.N:
        raise RoundTripMismatch(
            "recovered twist differs", field="N", stored=data.N, recovered=n_hat
        )
    m0_hat = data.target_weights[-1] - n_hat
    if m0_hat != data.m0:
        raise RoundTripMismatch(
            "recovered generation degree differs",
            field="m0",
            stored=data.m0,
            recovered=m0_hat,
        )
    return RecoveryReport(d_hat, n_hat, m0_hat, data.V1, data.V2_blocks, True)


def morphism_from_sections(a, dprime: int, sections) -> MorphismReport:
    """Diagnose the map to weighted projective space given by tagged sections.

    Each section is (exponent vector, target weight alpha); the map is
    well defined when every weighted degree equals alpha * dprime, and
    the target action is polynomial when every alpha is nonnegative.
    """
    a = WeightSystem.of(a)
    if not isinstance(dprime, int) or dprime < 1:
        raise ValueError("bundle degree must be a positive integer")
    entries = []
    for e, alpha in sections:
        vec = _as_vec(e, what="exponent vector")
        if len(vec) != len(a.weights) or any(x < 0 for x in vec):
            raise ValueError(f"bad exponent vector {e!r}")
        _as_vec((alpha,), what="target weight")
        entries.append((vec, alpha))
    well_defined = all(a.degree(e) == alpha * dprime for e, alpha in entries)
    polynomial = all(alpha >= 0 for _, alpha in entries)
    supports = [{j for j, x in enumerate(e) if x} for e, _ in entries]
    width = len(a.weights)
    # A nonempty S is in the base locus when no section support lies in S,
    # that is when its complement T meets every support, so maximal S are
    # the complements of minimal such T with |T| < width.  In a minimal T
    # each t has a support meeting T only in t, so |T| <= #sections.  A T
    # that misses a support escapes only through that support's items.
    masks = [sum(1 << j for j in s) for s in supports]

    def escape(t: tuple[int, ...]) -> int | None:
        hit = sum(1 << j for j in t)
        return next((m for m in masks if not m & hit), None)

    hitting = _minimal_supports(min(width - 1, len(supports)), escape)
    maximal = (tuple(j for j in range(width) if j not in t) for t in hitting)
    base_locus = tuple(sorted(maximal, key=lambda t: (len(t), t)))
    return MorphismReport(well_defined, polynomial, base_locus, not base_locus)

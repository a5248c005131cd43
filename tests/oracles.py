"""Reference computations used only by the tests.

Everything here recomputes package results by a different route: ranks
via Fraction Gaussian elimination, lattice membership via minor gcds,
solution sets via box enumeration, dual cones via one Fraction kernel
per subset of columns, stability via bounded search over
one-parameter subgroups, chart generation via literal multiset search
and via a scan of every projection of every block, normality via the
literal decomposition scan, global generation via whole section spaces,
the canonical monomial order via one keyed sort, canonical JSON via a
full copy of the document, recovery by grouping coordinates into weight
classes, base loci by walking every support, minimal supports by a scan
over the supports found so far.
Slow and obvious on purpose; nothing imports from the package.
"""

import json
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm


def frac_rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c]
        m[rank] = [x / inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def int_det(rows) -> int:
    """Determinant of a square integer matrix, exactly."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = m[c][c]
        m[c] = [x / inv for x in m[c]]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    assert det.denominator == 1
    return int(det)


def lattice_det(rows) -> tuple[int, int]:
    """(rank r, gcd of all r x r minors) for the lattice the rows generate.

    The minor gcd is the product of the invariant factors, so together
    with the rank it pins the lattice up to index-preserving change of
    generators: a sublattice of equal rank and equal minor gcd is the
    whole lattice.
    """
    rows = [tuple(r) for r in rows if any(r)]
    r = frac_rank(rows)
    if r == 0:
        return 0, 1
    g = 0
    cols = len(rows[0])
    for rsel in combinations(range(len(rows)), r):
        for csel in combinations(range(cols), r):
            minor = int_det([[rows[i][j] for j in csel] for i in rsel])
            g = gcd(g, minor)
            if g == 1:
                return r, 1
    return r, g


def in_lattice(vector, gens) -> bool:
    """Is vector an integer combination of the generator rows?"""
    vec = tuple(vector)
    rows = [tuple(g) for g in gens if any(g)]
    if not any(vec):
        return True
    r, d = lattice_det(rows)
    r2, d2 = lattice_det(rows + [vec])
    return r2 == r and d2 == d


def _ext_gcd(x, y) -> tuple[int, int, int]:
    """(g, s, t) with s*x + t*y == g == gcd(x, y) >= 0."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def single_row_kernel_basis(row) -> list[tuple[int, ...]]:
    """Basis of {u : sum row[i] u[i] = 0}, built from a Bezout chain.

    The chain keeps gcd(row[:i]) together with an integer vector
    expressing it; each later entry contributes one relation.  The
    resulting lattice is the full (saturated) kernel.
    """
    row = [int(x) for x in row]
    d = len(row)
    basis = []
    g = 0
    express = [0] * d
    for i in range(d):
        a = row[i]
        if g == 0:
            if a == 0:
                vec = [0] * d
                vec[i] = 1
                basis.append(tuple(vec))
            else:
                express[i] = 1
                g = a
            continue
        g2, s, t = _ext_gcd(g, a)
        rel = [(a // g2) * x for x in express]
        rel[i] -= g // g2
        basis.append(tuple(rel))
        express = [s * x for x in express]
        express[i] += t
        g = g2
    return basis


def box_solutions(rows, target, bounds) -> list[tuple[int, ...]]:
    """All e with 0 <= e_i <= bounds_i and (rows) e == target."""
    out = []
    rows = [tuple(r) for r in rows]
    target = tuple(target)
    for e in product(*(range(b + 1) for b in bounds)):
        if all(sum(r[j] * e[j] for j in range(len(e))) == t for r, t in zip(rows, target)):
            out.append(e)
    return out


def grlex_sorted(vectors) -> list[tuple[int, ...]]:
    """The canonical monomial order by one keyed sort.

    Higher total degree first; within a degree, larger exponents first,
    compared left to right.
    """
    return sorted((tuple(v) for v in vectors), key=lambda e: (-sum(e), [-x for x in e]))


def minimal_vectors(vectors) -> set[tuple[int, ...]]:
    """Componentwise-minimal elements, as a set."""
    vs = sorted(set(tuple(v) for v in vectors), key=lambda t: (sum(t), t))
    out = []
    for v in vs:
        if not any(all(o <= x for o, x in zip(m, v)) for m in out):
            out.append(v)
    return set(out)


def brute_minimal_kernel(rows, n, bound) -> set[tuple[int, ...]]:
    """Minimal nonzero solutions of (rows) x = 0, x >= 0, inside the box."""
    sols = [
        e
        for e in product(range(bound + 1), repeat=n)
        if any(e) and all(sum(r[j] * e[j] for j in range(n)) == 0 for r in rows)
    ]
    return minimal_vectors(sols)


def series_by_convolution(weights, max_degree) -> tuple[int, ...]:
    """Coefficients of prod 1/(1 - q^w) via explicit polynomial products."""
    poly = [1] + [0] * max_degree
    for w in weights:
        geo = [1 if d % w == 0 else 0 for d in range(max_degree + 1)]
        poly = [
            sum(poly[i] * geo[d - i] for i in range(d + 1))
            for d in range(max_degree + 1)
        ]
    return tuple(poly)


def can_decompose(target, gens) -> bool:
    """Is target a nonnegative integer combination of the generator vectors?

    Searches coefficient vectors directly, one generator at a time.
    """
    gens = [tuple(g) for g in gens]

    def rec(i, rest):
        if not any(rest):
            return True
        if i == len(gens):
            return False
        g = gens[i]
        cmax = min((r // x for r, x in zip(rest, g) if x > 0), default=0)
        if any(x > 0 and r < 0 for r, x in zip(rest, g)):
            cmax = 0
        for c in range(cmax, -1, -1):
            nxt = tuple(r - c * x for r, x in zip(rest, g))
            if all(x >= 0 for x in nxt) and rec(i + 1, nxt):
                return True
        return False

    return rec(0, tuple(target))


def _kernel_line(rows, k):
    """Primitive integer vector spanning the kernel of rows, or None when that is not a line."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(k):
        piv = next((r for r in range(len(pivots), len(m)) if m[r][c]), None)
        if piv is None:
            continue
        r = len(pivots)
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    if len(pivots) != k - 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    line = [Fraction(0)] * k
    line[free] = Fraction(1)
    for row, c in zip(m, pivots):
        line[c] = -row[free]
    den = lcm(*(x.denominator for x in line))
    ints = [int(x * den) for x in line]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def dual_cone_by_subsets(columns, k) -> tuple[tuple[int, ...], ...]:
    """Sorted extreme rays of the dual cone of columns that span Q^k.

    Every extreme ray is cut out by k - 1 independent columns, so each
    (k - 1)-subset with a one-dimensional kernel gives a candidate line;
    it is kept, oriented inward, when it takes one sign on every column.
    """
    if k == 0:
        return ()
    cols = [tuple(c) for c in columns]
    rays = set()
    for t in combinations(cols, k - 1):
        line = _kernel_line(t, k)
        if line is None:
            continue
        values = [sum(l * x for l, x in zip(line, c)) for c in cols]
        if all(v >= 0 for v in values):
            rays.add(line)
        elif all(v <= 0 for v in values):
            rays.add(tuple(-x for x in line))
    return tuple(sorted(rays))


def find_destabilizer(columns, chi, bound):
    """Nonzero lam in the box with lam.w >= 0 for all columns and lam.chi <= 0."""
    cols = [tuple(c) for c in columns]
    chi = tuple(chi)
    k = len(chi)
    for lam in product(range(-bound, bound + 1), repeat=k):
        if not any(lam):
            continue
        if all(sum(l * w for l, w in zip(lam, c)) >= 0 for c in cols) and (
            sum(l * x for l, x in zip(lam, chi)) <= 0
        ):
            return lam
    return None


def stable_by_search(columns, chi, bound) -> bool:
    """Stability by the definition: finite stabilizer, no destabilizing subgroup."""
    cols = [tuple(c) for c in columns]
    k = len(chi)
    if frac_rank(cols) != k:
        return False
    return find_destabilizer(cols, chi, bound) is None


def chart_generated(e, m, chart, blocks) -> bool:
    """Literal search: block elements with degrees summing to m fitting
    under e away from the chart support."""
    off = [j for j, x in enumerate(chart) if x == 0]

    def rec(m_rem, cap):
        if m_rem == 0:
            return True
        for mb in range(1, min(m_rem, len(blocks)) + 1):
            for v in blocks[mb - 1]:
                p = [v[j] for j in off]
                if all(x <= c for x, c in zip(p, cap)):
                    if rec(m_rem - mb, tuple(c - x for c, x in zip(cap, p))):
                        return True
        return False

    return rec(m, tuple(e[j] for j in off))


def multiset_reaches_by_scan(e, m, off, per_block) -> bool:
    """The chart search with every projection of every block tried.

    Blocks in nonincreasing degree, failures memoized on the residual
    state, as the package's search does; only the cut of each block's
    sorted projections at the cap is missing.
    """
    failed = set()

    def rec(m_rem, cap, max_block):
        if m_rem == 0:
            return True
        key = (m_rem, cap, max_block)
        if key in failed:
            return False
        for mb in range(min(max_block, m_rem), 0, -1):
            for proj in per_block[mb - 1]:
                if all(p <= c for p, c in zip(proj, cap)):
                    if rec(m_rem - mb, tuple(c - p for c, p in zip(cap, proj)), mb):
                        return True
        failed.add(key)
        return False

    return rec(m, tuple(e[j] for j in off), len(per_block))


def chart_failure_by_scan(V1, blocks, generators):
    """The witness of the first chart V1's blocks fail to generate, or None.

    Charts are grouped by their zero exponents in order of first
    appearance, each group tried with its first chart, and the blocks
    projected by set comprehension and searched in full.
    """
    block_sets = [set(block) for block in blocks]
    classes = {}
    for s in V1:
        classes.setdefault(tuple(j for j, x in enumerate(s) if not x), s)
    for off, s in classes.items():
        per_block = None
        for e, m in generators:
            if 1 <= m <= len(blocks) and tuple(x + y for x, y in zip(e, s)) in block_sets[m - 1]:
                continue
            if per_block is None:
                per_block = [sorted({tuple(v[j] for j in off) for v in block}) for block in blocks]
            if not multiset_reaches_by_scan(e, m, off, per_block):
                return {"chart": list(s), "monomial": list(e), "degree": m}
    return None


def stratum_separated(weights, support, members) -> bool:
    """Definition-level stabilizer preservation for one stratum.

    members are (target weight, full exponent vector) pairs supported
    inside the support.  Preservation needs the member weights to have
    gcd equal to the stratum stabilizer order, and the member exponent
    restrictions to generate a lattice containing the full relation
    lattice of the stratum weights.
    """
    ws = [weights[j] for j in support]
    g = 0
    for w in ws:
        g = gcd(g, w)
    wg = 0
    for wt, _ in members:
        wg = gcd(wg, wt)
    if not members or wg != g:
        return False
    restricted = [tuple(v[j] for j in support) for _, v in members]
    for b in single_row_kernel_basis(ws):
        if not in_lattice(b, restricted):
            return False
    return True


def monomials_of_degree(weights, degree) -> list[tuple[int, ...]]:
    """Every e >= 0 with sum weights[i] e[i] == degree, by recursion."""
    weights = tuple(weights)
    out = []

    def rec(i, rest, prefix):
        if i == len(weights) - 1:
            if rest % weights[i] == 0:
                out.append(prefix + (rest // weights[i],))
            return
        for x in range(rest // weights[i] + 1):
            rec(i + 1, rest - x * weights[i], prefix + (x,))

    if weights and degree >= 0:
        rec(0, degree, ())
    return out


def globally_generated_by_sections(weights, dprime, m0, N) -> bool:
    """Global generation of the twisted modules, by enumerating sections.

    On chart i (coordinate i inverted) and in each degree c = (m+N)d',
    1 <= m <= m0, every off-i exponent pattern with entries below a_i
    and weighted degree congruent to c mod a_i must dominate the off-i
    part of some degree-c monomial.  The minimal patterns of the class
    all lie in that box and every box pattern dominates one of them, so
    this is the same as asking it of the minimal patterns.
    """
    weights = tuple(weights)
    for i, ai in enumerate(weights):
        off_w = weights[:i] + weights[i + 1 :]
        for m in range(1, m0 + 1):
            c = (m + N) * dprime
            parts = {e[:i] + e[i + 1 :] for e in monomials_of_degree(weights, c)}
            for p in product(range(ai), repeat=len(off_w)):
                if sum(w * x for w, x in zip(off_w, p)) % ai != c % ai:
                    continue
                if not any(all(x >= y for x, y in zip(p, g)) for g in parts):
                    return False
    return True


def normality_by_scan(weights, degree) -> bool:
    """Degree-one generation of the degree-D section simplex, by scan.

    Every monomial of degree j*D, 2 <= j <= n-1 (n + 1 weights), must be
    some degree-D monomial plus a monomial of degree (j-1)*D: each
    candidate difference is looked up in the previous dilation.
    """
    n = len(weights) - 1
    if n <= 2:
        return True
    base = monomials_of_degree(weights, degree)
    prev = set(base)
    for j in range(2, n):
        cur = monomials_of_degree(weights, j * degree)
        for z in cur:
            hit = False
            for g in base:
                rest = tuple(zi - gi for zi, gi in zip(z, g))
                if all(x >= 0 for x in rest) and rest in prev:
                    hit = True
                    break
            if not hit:
                return False
        prev = set(cur)
    return True


def normality_by_subset_sum(weights, degree) -> bool:
    """Degree-one generation of the degree-D section simplex, by subset sum.

    Every monomial z of degree j*D, 2 <= j <= n-1, must dominate some
    degree-D monomial: some g with 0 <= g_i <= z_i reaches sum a_i g_i = D.
    Each z is scanned on its own, with an int bitset of the sums 0..D
    reachable with g_i copies of a_i for each i in turn.
    """
    n = len(weights) - 1
    if n <= 2:
        return True
    full = (1 << (degree + 1)) - 1
    target = 1 << degree
    for j in range(2, n):
        for z in monomials_of_degree(weights, j * degree):
            reach = 1
            for ai, zi in zip(weights, z):
                for _ in range(min(zi, degree // ai)):
                    reach |= (reach << ai) & full
            if not reach & target:
                return False
    return True


def minimal_stable_supports_by_walk(columns, chi, bound) -> tuple[tuple[int, ...], ...]:
    """Minimal stable supports (1-based) by classifying all 2^n supports.

    A support is stable when its columns have rank k (some k of them are
    independent, by Fraction elimination) and no nonzero lam
    in the box [-bound, bound]^k has lam.w >= 0 on the support and
    lam.chi <= 0.  The box is complete when it holds one generalized
    cross product of any k - 1 of the columns and chi: the destabilizers
    form the cone {lam : lam.w >= 0, lam.chi <= 0}, and a nonzero such
    cone has an extreme ray or a line cut out by k - 1 independent
    tight constraints, proportional to the cross product of those
    vectors (a vector and a unit vector, when they span less).  With
    entries in [-2, 2] that needs bound 1 for k = 1, bound 2 for k = 2
    (a rotated vector) and bound 8 for k = 3 (2 x 2 minors).

    Every verdict is kept, and the family must be upward closed: each
    stable support contains a minimal one, and each support containing
    a minimal one is stable.  Minimal supports are listed by size, then
    in combinations order.
    """
    cols = [tuple(c) for c in columns]
    chi = tuple(chi)
    k, n = len(chi), len(cols)
    lambdas = [l for l in product(range(-bound, bound + 1), repeat=k) if any(l)]
    full = (1 << len(lambdas)) - 1

    def pairing_mask(v, keep):
        return sum(
            1 << b for b, l in enumerate(lambdas) if keep(sum(x * y for x, y in zip(l, v)))
        )

    colmask = [pairing_mask(c, lambda p: p >= 0) for c in cols]
    chimask = pairing_mask(chi, lambda p: p <= 0)

    # Rank k means k independent columns: keep the spanning k-subsets.
    bases = [
        sum(1 << j for j in sel)
        for sel in combinations(range(n), k)
        if frac_rank([cols[j] for j in sel]) == k
    ]

    verdicts = {}
    minimal = []
    for size in range(n + 1):
        for sel in combinations(range(n), size):
            bits = sum(1 << j for j in sel)
            mask = full
            for j in sel:
                mask &= colmask[j]
            stable = any(b & bits == b for b in bases) and not mask & chimask
            verdicts[bits] = stable
            if stable and not any(m & bits == m for m in minimal):
                minimal.append(bits)
    for bits, stable in verdicts.items():
        assert stable == any(m & bits == m for m in minimal), ("not upward closed", bits)
    return tuple(tuple(j + 1 for j in range(n) if m >> j & 1) for m in minimal)


def minimal_supports_by_superset_scan(items, max_size, holds) -> tuple[tuple[int, ...], ...]:
    """Minimal supports of at most max_size items satisfying an upward-closed holds.

    Supports are walked by size, then in combinations order; one whose
    bitmask contains the bitmask of a support already found is skipped
    untested, by a scan over every support found so far.  Items are
    distinct nonnegative ints, which double as bit positions.
    """
    found = []
    out = []
    for size in range(max_size + 1):
        for s in combinations(items, size):
            mask = sum(1 << i for i in s)
            if all(m & mask != m for m in found) and holds(s):
                found.append(mask)
                out.append(s)
    return tuple(out)


def recover_by_weight_classes(coordinates, target_weights):
    """(V1, blocks, N, m0) read back off a map by its target weight classes.

    N is the least target weight and m0 the weight spread; V1 holds the
    coordinates of weight N and block m those of weight N + m, in order.
    """
    n = min(target_weights)
    m0 = max(target_weights) - n

    def weight_class(w):
        return tuple(v for v, wt in zip(coordinates, target_weights) if wt == w)

    return weight_class(n), tuple(weight_class(n + m) for m in range(1, m0 + 1)), n, m0


def base_locus_by_walk(width, supports):
    """Maximal nonempty S in range(width) containing no support, by all 2^width supports.

    Supports are walked from the largest size down, so a walked S that
    lies inside one already kept is not maximal.  Sorted by (size, S).
    """
    supports = [set(s) for s in supports]
    maximal = []
    for size in range(width, 0, -1):
        for s in combinations(range(width), size):
            if any(sp <= set(s) for sp in supports):
                continue
            if any(set(s) <= set(m) for m in maximal):
                continue
            maximal.append(s)
    return tuple(sorted(maximal, key=lambda t: (len(t), t)))


SAFE_MAX = 2**53 - 1


def canonical_json(value) -> str:
    """The CLI's canonical text by the original two-pass rule.

    A copy of value with every int past +-SAFE_MAX replaced by its decimal
    string and every tuple by a list, printed by compact json.dumps.
    """

    def encode(v):
        if isinstance(v, bool) or v is None or isinstance(v, str):
            return v
        if isinstance(v, int):
            return v if abs(v) <= SAFE_MAX else str(v)
        if isinstance(v, (list, tuple)):
            return [encode(x) for x in v]
        if isinstance(v, dict):
            return {str(k): encode(x) for k, x in v.items()}
        raise TypeError(f"cannot serialize {v!r}")

    return json.dumps(encode(value), separators=(",", ":"))

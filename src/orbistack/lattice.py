"""Exact integer linear algebra for graded lattice-point semigroups.

The central objects are the solution sets of ``W e = m chi`` with ``e`` a
nonnegative integer vector: single graded pieces, the semigroup of all
pairs ``(e, m)``, and the rational cone geometry (spans, dual cones,
relative interiors) that decides finiteness and stability questions.

All arithmetic is exact and integral.  Python integers are unbounded, so
there is no overflow to guard against, and no rational number is formed.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, prod
from operator import add, and_, ge, lt, mul, rshift, sub
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InfiniteSolutionSet, InvariantViolation, ResourceLimitExceeded

Vec = tuple[int, ...]


def grlex_key(e: Sequence[int]):
    """Sort key for the canonical monomial order.

    Lists are emitted with the graded-lex largest monomial first: higher
    total degree wins, ties break toward larger leading exponents.
    """
    return (-sum(e), tuple(-c for c in e))


def sort_monomials(vectors: Iterable[Sequence[int]]) -> tuple[Vec, ...]:
    """The vectors in grlex_key order, without a Python key per vector.

    Descending lex, then a stable descending sort by total degree, gives
    exactly the grlex_key order: ties in degree keep the lex order.
    """
    lex = sorted((tuple(v) for v in vectors), reverse=True)
    return tuple(sorted(lex, key=sum, reverse=True))


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _neg(v: Sequence[int]) -> Vec:
    return tuple(-x for x in v)


def _as_vec(v: Sequence[int], length: int | None = None, what: str = "vector") -> Vec:
    out = tuple(v)
    for x in out:
        if not isinstance(x, int):
            raise ValueError(f"{what} entries must be integers, got {x!r}")
    if length is not None and len(out) != length:
        raise ValueError(f"{what} must have length {length}, got {len(out)}")
    return out


@dataclass(frozen=True)
class IntMatrix:
    """Integer matrix of character weights; column j is the weight of x_j."""

    entries: tuple[Vec, ...]
    cols: int
    _by_column: tuple[Vec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cols < 1:
            raise ValueError("need at least one column")
        entries = tuple(_as_vec(row, self.cols, "matrix row") for row in self.entries)
        columns = tuple(zip(*entries)) if entries else ((),) * self.cols
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_by_column", columns)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        entries = tuple(tuple(row) for row in rows)
        if cols is None:
            if not entries:
                raise ValueError("column count required for a matrix with no rows")
            cols = len(entries[0])
        return cls(entries, cols)

    @property
    def k(self) -> int:
        return len(self.entries)

    def column(self, j: int) -> Vec:
        return self._by_column[j]

    def columns(self) -> tuple[Vec, ...]:
        return self._by_column

    def apply(self, e: Sequence[int]) -> Vec:
        if len(e) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(_dot(row, e) for row in self.entries)


class _Columns:
    """A graded piece as the exponent columns it was read back into, with no point built.

    Only _bounded_solutions builds one: _columns holds, for each
    exponent, a strided memoryview with one unsigned 1- or 2-byte item
    per point, the points in grlex_key order.  Its length is the number
    of points, and iterating builds them one at a time.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns):
        self._columns = tuple(columns)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[Vec]:
        return zip(*self._columns)


class Monomials(tuple):
    """The points of a graded piece, with the exponent columns they were read back from.

    Only _points builds one, keeping the _columns of its _Columns, and
    cli._compact prints the points straight from them.  Being the basis
    itself, not a field beside it, the columns travel with it into an
    embed document's V1 and V2 blocks.  Equality, hashing and repr are
    the tuple's, and a copy or a pickle is a plain tuple, as memoryviews
    do not pickle.
    """

    def __reduce__(self):
        return tuple, (tuple(self),)


def _points(piece: _Columns) -> Monomials:
    """The points of piece, one tuple each: the packaging of a graded piece."""
    points = Monomials(piece)
    points._columns = piece._columns
    return points


class _Packaged:
    """The basis field of GradedSolutionSet: a _Columns is packaged on its first read.

    The instance stores the basis as given, under the field's name.  A
    caller that prints a piece from its columns reads it with _piece
    instead, and no point is ever built; any read of basis, equality,
    hashing and repr included, sees the points.
    """

    def __get__(self, solutions, owner=None):
        if solutions is None:
            raise AttributeError("basis")  # the field has no default
        basis = _piece(solutions)
        if type(basis) is _Columns:
            basis = vars(solutions)["basis"] = _points(basis)
        return basis

    def __set__(self, solutions, basis):
        vars(solutions)["basis"] = basis


def _piece(solutions: "GradedSolutionSet") -> tuple[Vec, ...] | _Columns:
    """The basis of solutions as stored: the _Columns of a piece not yet packaged."""
    return vars(solutions)["basis"]


@dataclass(frozen=True)
class GradedSolutionSet:
    """All nonnegative integer solutions of one graded piece.

    basis may be given as a _Columns, which becomes Monomials when first
    read (see _Packaged).
    """

    degree: int
    basis: tuple[Vec, ...] = _Packaged()

    def __len__(self) -> int:
        return len(_piece(self))

    def __iter__(self) -> Iterator[Vec]:
        return iter(self.basis)

    def __contains__(self, e) -> bool:
        return tuple(e) in self.basis

    def __reduce__(self):
        return GradedSolutionSet, (self.degree, self.basis)


@dataclass(frozen=True)
class SemigroupBasis:
    """Minimal generators of the graded solution semigroup.

    ``generators`` hold the degree m >= 1 part as (exponents, m) pairs.
    ``invariant_generators`` are the minimal nonzero solutions in degree
    zero; when present the semigroup is not pointed and ``pointed`` is
    False.  ``certified_degree`` records how far completeness was checked
    against direct enumeration (None when the sweep was skipped).
    """

    generators: tuple[tuple[Vec, int], ...]
    invariant_generators: tuple[Vec, ...]
    pointed: bool
    certified_degree: int | None

    def max_degree(self) -> int:
        return max((m for _, m in self.generators), default=0)


def _row_axpy(target: list[int], source: list[int], q: int) -> None:
    for i, s in enumerate(source):
        target[i] -= q * s


def _row_hnf(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Row Hermite normal form by integer row operations; returns (H, rank)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nr):
            while m[i][c]:
                q = m[r][c] // m[i][c]
                _row_axpy(m[r], m[i], q)
                m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                _row_axpy(m[i], m[r], q)
        r += 1
    return m, r


@lru_cache(maxsize=65536)
def _rank_cached(rows: tuple[Vec, ...]) -> int:
    live = [r for r in rows if any(r)]
    if not live:
        return 0
    _, r = _row_hnf(live)
    return r


def matrix_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over the rationals of the matrix with the given rows."""
    return _rank_cached(tuple(tuple(r) for r in rows))


def integer_kernel(rows: Iterable[Sequence[int]], n: int) -> tuple[Vec, ...]:
    """Basis of the saturated lattice {v in Z^n : row . v = 0 for all rows}."""
    rows = [tuple(r) for r in rows]
    k = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("row length does not match n")
    aug = []
    for j in range(n):
        aug.append([rows[i][j] for i in range(k)] + [1 if t == j else 0 for t in range(n)])
    h, _ = _row_hnf(aug)
    return tuple(tuple(row[k:]) for row in h if not any(row[:k]))


def sublattice_index(sub_rows: Iterable[Sequence[int]], rows: Iterable[Sequence[int]]) -> int:
    """Index of span_Z(sub_rows) in span_Z(rows), or 0 when sub_rows has smaller rank.

    The caller guarantees span_Z(sub_rows) is inside span_Z(rows).  Equal
    rank then means equal rational span, hence the same HNF pivot
    columns, and each lattice's covolume on those columns is the product
    of its HNF pivots.
    """
    sub_h, sub_rank = _row_hnf(sub_rows)
    h, rank = _row_hnf(rows)
    if sub_rank < rank:
        return 0
    return _pivot_product(sub_h, sub_rank) // _pivot_product(h, rank)


def _pivot_product(h: Sequence[Sequence[int]], rank: int) -> int:
    return prod(next(x for x in row if x) for row in h[:rank])


def primitive(v: Sequence[int]) -> Vec:
    """Divide out the gcd of the entries; the zero vector is returned as is."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


@lru_cache(maxsize=65536)
def _quotient_line(t_rows: tuple[Vec, ...], lin: tuple[Vec, ...], k: int) -> Vec | None:
    """Primitive kernel vector of t_rows outside span(lin), or None.

    When the r - 1 rows of T are independent, ker(T) contains the
    lineality space with one extra dimension; any kernel vector outside
    it spans that quotient line.  Many supports share T, so the solve is
    cached here rather than per support.
    """
    if matrix_rank(t_rows) != k - len(lin) - 1:
        return None
    for w in integer_kernel(t_rows, k):
        if matrix_rank(lin + (w,)) > len(lin):
            return primitive(w)
    return None


@lru_cache(maxsize=1024)
def _sign_table(columns: tuple[Vec, ...], k: int) -> dict:
    """Hyperplane sign masks of a column tuple, one per (k - 1)-subset.

    Keys are (k - 1)-subsets T of 1-based column indices; the value is
    None when T has rank < k - 1, else (lam_T, -lam_T, pos, neg) with
    lam_T the primitive normal of span(T) and pos, neg the bitmasks (bit
    j for column j) of the columns where lam_T is positive or negative,
    shared by every subset of the columns and every character on the
    matrix.  Both normals are stored so that no support negates one.
    """
    subsets = itertools.combinations(range(1, len(columns) + 1), k - 1)
    return {t: _hyperplane(columns, t, k) for t in subsets}


def _hyperplane(columns: tuple[Vec, ...], t: tuple[int, ...], k: int) -> tuple[Vec, Vec, int, int] | None:
    """One _sign_table row: (lam_T, -lam_T, pos, neg), or None when T has rank < k - 1."""
    lam = _quotient_line(tuple(columns[i - 1] for i in t), (), k)
    if lam is None:
        return None
    pos = neg = 0
    for j, c in enumerate(columns, 1):
        v = _dot(lam, c)
        if v > 0:
            pos |= 1 << j
        elif v < 0:
            neg |= 1 << j
    return lam, _neg(lam), pos, neg


def _dual_cone(cols: tuple[Vec, ...], k: int) -> tuple[Vec, ...]:
    """Generators of {lam : lam . c >= 0 for every column c}; length-k integer columns.

    The list may be redundant but always generates.  Spanning columns take
    the sorted inward facet normals of their cone: a facet F has dimension
    k - 1, so it contains k - 1 independent columns T, span(F) = span(T)
    and the inward normal of F is +-lam_T; conversely a lam_T that takes
    one sign on the columns cuts out a face containing T, which is a
    facet.  Others take the lineality space ker(cols) with both signs,
    plus the edges cut out by (r - 1)-subsets of the distinct nonzero
    columns, r the rank.
    """
    if k == 0:
        return ()
    if _rank_cached(cols) == k:
        facets = set()
        for row in _sign_table(cols, k).values():
            if row is not None:
                lam, minus, pos, neg = row
                if not neg:
                    facets.add(lam)
                elif not pos:
                    facets.add(minus)
        return tuple(sorted(facets))
    # Duplicate and zero columns do not change the dual cone.
    rows = tuple(dict.fromkeys(c for c in cols if any(c)))
    lin = integer_kernel(rows, k)
    gens = set(lin) | {_neg(v) for v in lin}
    for t_rows in itertools.combinations(rows, k - len(lin) - 1) if rows else ():
        v = _quotient_line(t_rows, lin, k)
        if v is None:
            continue
        if all(_dot(v, c) >= 0 for c in rows):
            gens.add(v)
        elif all(_dot(v, c) <= 0 for c in rows):
            gens.add(_neg(v))
    return tuple(sorted(gens))


def positive_functional(columns: Iterable[Sequence[int]], k: int) -> Vec | None:
    """An integer functional strictly positive on every column, or None.

    The sum of the dual cone generators lies in the relative interior of
    the dual cone, so it is strictly positive on a column exactly when
    some dual functional is; None therefore proves that no such
    functional exists (and, by Gordan duality, that the nonnegative
    kernel is nontrivial).
    """
    cols = tuple(_as_vec(c, k, "column") for c in columns)
    lam = tuple(map(sum, zip((0,) * k, *_dual_cone(cols, k))))
    if all(_dot(lam, c) > 0 for c in cols):
        return lam
    return None


def _det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in m]
    size = len(a)
    sign, prev = 1, 1
    for c in range(size - 1):
        piv = next((i for i in range(c, size) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, size):
            for j in range(c + 1, size):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[-1][-1] if size else 1


@lru_cache(maxsize=1024)
def _pivot_plan(cols: tuple[Vec, ...]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[Vec, ...], int]:
    """Pivots for _bounded_solutions: (rows, pivot columns, adjugate, det).

    With r the rank, rows are the first r independent rows and the pivot
    columns the r-subset whose minor B on those rows has the smallest
    nonzero |det|.  The adjugate is signed so that det > 0 and
    B^-1 = adj / det.
    """
    k = len(cols[0])
    r = _rank_cached(cols)
    rows = next(
        rs for rs in itertools.combinations(range(k), r)
        if _rank_cached(tuple(tuple(c[i] for i in rs) for c in cols)) == r
    )
    det, pivots, signed = min(
        (abs(d), ps, d)
        for ps in itertools.combinations(range(len(cols)), r)
        if (d := _det([[cols[j][i] for j in ps] for i in rows]))
    )
    b = [[cols[j][i] for j in pivots] for i in rows]
    sign = 1 if signed > 0 else -1
    adj = tuple(
        tuple(
            sign * (-1) ** (i + j)
            * _det([row[:i] + row[i + 1:] for t, row in enumerate(b) if t != j])
            for j in range(r)
        )
        for i in range(r)
    )
    return rows, pivots, adj, det


def _bounded_solutions(
    cols: Sequence[Vec], target: Vec, costs: Sequence[int], budget: int
) -> tuple[Vec, ...] | _Columns:
    """All e >= 0 with sum_j e_j * cols[j] == target, in grlex_key order.

    costs[j] > 0 is the value of a strict functional on column j and the
    functional takes value ``budget`` on the target, so exponents are
    boxed.  Only the non-pivot exponents are enumerated, inside that
    box; the pivots are recovered exactly as x_B = adj(B) . res / det B
    and a point is kept when the division is exact and x_B >= 0.  The
    last free exponent is not enumerated: x_B is affine in it, so the
    sign constraints give its range and the divisibility constraints a
    residue class, and its points are one line, one range of keys: a
    line of more than sys.maxsize points, more than len() of a range can
    report, raises ResourceLimitExceeded.  Rows outside the pivot rows
    are rational combinations of them: a target outside the span of the
    columns has no solution, and for any other target a solution of the
    pivot rows solves them all.

    Points are found as keys.  No exponent, and not the total degree
    either, exceeds budget // min(costs), so each fits in a field of
    ``size`` bits: the smallest of 8, 16, 32 or 64 that holds it, or just
    as many bits past 64.  Then
    key(e) = sum_j e_j * (2**(size*n) + 2**(size*(n-1-j))),
    the total degree followed by the exponents as size-bit fields, is
    injective and sorts exactly as grlex_key in reverse.  The key is
    affine in the exponents, so each line is one range of keys; the keys
    are sorted once as ints and their fields read back as the points.
    With fields of at most 64 bits they are read back a machine word at
    a time: word i of every key goes into one array("Q"), the keys are
    freed, and each exponent is a strided view of its word's array with
    one item per field.  Where a field sits inside a word is read off one
    probe word, so either byte order works.  With fields of 1 or 2 bytes
    (every exponent below 65536), a piece with a point comes back as
    _Columns, those views with no point built: the `sections` command
    prints it from them, and GradedSolutionSet packages it into points
    only when its basis is read.  Any other piece comes back as a plain
    tuple.
    """
    rows, pivots, adj, det = _pivot_plan(tuple(cols))
    if len(rows) < len(target) and _rank_cached(tuple(cols) + (target,)) > len(rows):
        return ()
    n = len(cols)
    bits = (budget // min(costs)).bit_length()
    width = next((w for w in (1, 2, 4, 8) if bits <= 8 * w), 0)
    size = 8 * width or bits
    shifts = [size * (n - 1 - j) for j in range(n)]
    weight = [(1 << size * n) + (1 << s) for s in shifts]
    # The cheapest column, with the widest range, goes last, where its
    # range is computed rather than enumerated.
    free = sorted((j for j in range(n) if j not in pivots), key=lambda j: -costs[j])
    # The residual in pivot coordinates: adj . (target - sum e_j cols[j]).
    moved = [tuple(_dot(a, [cols[j][i] for i in rows]) for a in adj) for j in free]
    start = tuple(_dot(a, [target[i] for i in rows]) for a in adj)
    # det * key of a point is _dot(start, pivot_weight) plus rise[f] per
    # unit of each free exponent e_f, the pivots taking up the residual.
    pivot_weight = [weight[p] for p in pivots]
    rise = [det * weight[j] - _dot(v, pivot_weight) for j, v in zip(free, moved)]
    keys: list[int] = []
    if free:
        # On the last free column the t with u - t v = 0 mod det form one
        # class mod step, solved row by row: with t fixed mod m by the
        # rows before, row i asks s * (m v_i) = u_i - t v_i mod det of
        # the next digit s, which has a solution iff g = gcd(m v_i, det)
        # divides the right side, and then one mod det // g.  The plan
        # depends on v and det only, so each line costs a few int
        # operations per row, however large det is.
        v, slope = moved[-1], rise[-1]
        step = det // gcd(det, *v)
        solve = []
        m = 1
        for vi in v if det > 1 else ():
            g = gcd(m * vi, det)
            n_i = det // g
            solve.append((vi, g, pow(m * vi // g, -1, n_i) if n_i > 1 else 0, n_i, m))
            m *= n_i

    def last(u: Vec, hi: int, scaled: int) -> None:
        lo = 0
        for ui, vi in zip(u, v):
            if vi > 0:
                hi = min(hi, ui // vi)
            elif vi < 0:
                lo = max(lo, -(ui // -vi))
            elif ui < 0:
                return
        t = 0
        for ui, (vi, g, inv, n_i, m) in zip(u, solve):
            d = ui - t * vi
            if d % g:
                return
            t += (d // g * inv % n_i) * m
        t = lo + (t - lo) % step
        if t > hi:
            return
        count = (hi - t) // step + 1
        key, dkey = (scaled + t * slope) // det, step * slope // det
        # Distinct points have distinct keys, so dkey != 0 when count > 1.
        keys.extend(range(key, key + dkey * count, dkey) if count > 1 else (key,))

    def rec(depth: int, u: Vec, b: int, scaled: int) -> None:
        c = costs[free[depth]]
        if depth == len(free) - 1:
            last(u, b // c, scaled)
            return
        for t in range(b // c + 1):
            rec(depth + 1, u, b - c * t, scaled)
            u = tuple(map(sub, u, moved[depth]))
            scaled += rise[depth]

    try:
        if free:
            rec(0, start, budget, _dot(start, pivot_weight))
        elif all(ui >= 0 and ui % det == 0 for ui in start):
            # Every column is a pivot, in order.
            keys.append(_dot(start, pivot_weight) // det)
    except OverflowError:
        # A line with more than sys.maxsize points: its range has no len().
        raise ResourceLimitExceeded(
            "a line of the graded piece has more points than a range can count", limit=sys.maxsize
        ) from None
    finally:
        # rec refers to itself through its cell: drop that cycle, which
        # would hold last and the keys until the next collection.
        del rec
    keys.sort(reverse=True)
    if not width:
        mask = (1 << size) - 1
        digits = [map(and_, map(rshift, keys, itertools.repeat(s)), itertools.repeat(mask)) for s in shifts]
        return tuple(zip(*digits))
    # The exponents go through arrays so that the keys are freed before
    # any point is built: points built while the keys live share their
    # memory pools and keep them from the system afterwards.  array is
    # imported here to keep it out of the CLI's start-up.
    from array import array

    per_word = 8 // width
    code = next(c for c in "BHILQ" if array(c).itemsize == width)

    def fields(words):
        return memoryview(words).cast("B").cast(code)

    at = fields(array("Q", [sum(f << size * f for f in range(per_word))])).tolist()
    if size * (n + 1) <= 64:
        words = [array("Q", keys)]
    else:
        word = (1 << 64) - 1
        words = [
            array("Q", map(and_, map(rshift, keys, itertools.repeat(64 * i)), itertools.repeat(word)))
            for i in range(-(-n // per_word))
        ]
    keys.clear()
    views = [fields(w) for w in words]
    # Exponent j is field n-1-j, counted from the low end of the key.
    columns = [views[f // per_word][at.index(f % per_word)::per_word] for f in range(n - 1, -1, -1)]
    if width > 2 or not len(words[0]):
        return tuple(zip(*columns))
    return _Columns(columns)


def _dominates(x: Vec, mask: int, found: dict[int, list[Vec]]) -> bool:
    """Is x componentwise at least some vector of found?

    found maps a support bitmask to the vectors with that support, and
    mask is the support of x: x can only be at least a vector whose
    support lies inside its own, so only those buckets are compared.
    """
    return any(all(map(ge, x, m)) for bits, group in found.items() if not bits & ~mask for m in group)


def _minimal_supports(
    items: Sequence[int], max_size: int, holds: Callable[[tuple[int, ...]], bool]
) -> tuple[tuple[int, ...], ...]:
    """Minimal supports of at most max_size items satisfying an upward-closed holds.

    Supports are walked by size, then lexicographically, and one that
    contains a support already found is skipped untested, so every
    support that passes holds is minimal.  Items are distinct
    nonnegative ints, which double as bit positions.  covered holds the
    bitmasks of the previous size that contain a found support, and a
    support contains a smaller found one exactly when removing one of
    its items leaves a bitmask in covered.
    """
    bits = [1 << i for i in items]
    covered: set[int] = set()
    out = []
    for size in range(max_size + 1):
        level = set()
        for s, s_bits in zip(itertools.combinations(items, size), itertools.combinations(bits, size)):
            mask = sum(s_bits)
            if not covered.isdisjoint(map(mask.__xor__, s_bits)):
                level.add(mask)
            elif holds(s):
                level.add(mask)
                out.append(s)
        covered = level
    return tuple(out)


def minimal_homogeneous_solutions(rows: Iterable[Sequence[int]], n: int) -> tuple[Vec, ...]:
    """Componentwise-minimal nonzero solutions of row . x = 0, x >= 0.

    Breadth-first completion (Contejean and Devie, 1994): x is extended
    by the unit e_j only when <Ax, A e_j> is negative, and anything
    dominating a solution found is pruned by _dominates on its support.
    This terminates with exactly the minimal solutions of the system.
    Each node carries g = A^T A x rather than Ax: g_j is <Ax, A e_j>, a
    child adds row j of the Gram matrix A^T A, and g = 0 exactly when
    Ax = 0, since x . g = |Ax|^2.
    """
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != n:
            raise ValueError("row length does not match n")
    cols = [tuple(r[j] for r in rows) for j in range(n)]
    gram = [tuple(_dot(c, d) for d in cols) for c in cols]
    minimals: dict[int, list[Vec]] = {}
    frontier: dict[Vec, tuple[Vec, int]] = {}
    for j in range(n):
        unit = tuple(1 if t == j else 0 for t in range(n))
        frontier[unit] = (gram[j], 1 << j)
    seen = set(frontier)
    while frontier:
        nxt: dict[Vec, tuple[Vec, int]] = {}
        for x, (g, mask) in frontier.items():
            if not any(g):
                if not _dominates(x, mask, minimals):
                    minimals.setdefault(mask, []).append(x)
                continue
            for j in itertools.compress(range(n), map(lt, g, itertools.repeat(0))):
                y = x[:j] + (x[j] + 1,) + x[j + 1 :]
                if y in seen:
                    continue
                seen.add(y)
                ymask = mask | 1 << j
                if _dominates(y, ymask, minimals):
                    continue
                nxt[y] = (tuple(map(add, g, gram[j])), ymask)
        frontier = nxt
    return sort_monomials(x for group in minimals.values() for x in group)


def graded_sections(W: IntMatrix, chi: Sequence[int], m: int) -> GradedSolutionSet:
    """The graded piece {e >= 0 : W e = m chi}, fully enumerated.

    The basis comes out of the enumeration in grlex_key order, the
    canonical order of every emitted monomial list, with no sort of the
    monomials themselves.  Raises InfiniteSolutionSet (with a recession
    direction as witness) when the piece is infinite, rather than
    truncating it.
    """
    chi_v = _as_vec(chi, W.k, "character")
    if not isinstance(m, int):
        raise ValueError("degree must be an integer")
    if m < 0:
        raise ValueError("degree must be nonnegative")
    target = tuple(m * x for x in chi_v)
    cols = W.columns()
    lam = positive_functional(cols, W.k)
    if lam is None:
        # A point of the piece is a solution of [W | -target] with last
        # entry 1, a sum of minimal ones, one of which ends in 1; the
        # minimal ones ending in 0 are the minimal recession directions.
        aug = [W.entries[i] + (-target[i],) for i in range(W.k)]
        mins = minimal_homogeneous_solutions(aug, W.cols + 1)
        if not any(s[-1] == 1 for s in mins):
            return GradedSolutionSet(m, ())
        recession = next((s[:-1] for s in mins if s[-1] == 0), None)
        if recession is None:
            raise InvariantViolation(
                "no recession direction found", matrix=[list(r) for r in W.entries]
            )
        raise InfiniteSolutionSet("graded piece is infinite", degree=m, recession=list(recession))
    # Any functional positive on every column boxes the piece; lam can be
    # nearly orthogonal to a column, so a row of W that is positive on
    # every column may box it far tighter.  The smallest bound wins.
    boxes = [(_dot(lam, target), [_dot(lam, c) for c in cols])]
    boxes += [(t, list(row)) for t, row in zip(target, W.entries) if min(row) > 0]
    budget, costs = min(boxes, key=lambda box: box[0] // min(box[1]))
    if budget < 0:
        return GradedSolutionSet(m, ())
    return GradedSolutionSet(m, _bounded_solutions(cols, target, costs, budget))


def hilbert_basis(
    W: IntMatrix,
    chi: Sequence[int],
    *,
    certify: bool = True,
    certify_degree: int | None = None,
) -> SemigroupBasis:
    """Minimal generators of {(e, m) : W e = m chi, e >= 0, m >= 0}.

    The solution monoid of the homogenized system is always finitely
    generated, so this never raises; degree-zero generators (invariant
    directions) are reported separately and flip ``pointed`` to False.

    When the semigroup is pointed, completeness is optionally re-checked
    against every element of the graded pieces up to ``certify_degree``
    (default: four times the largest generator degree), degree by degree.
    Each element x only has to dominate some generator g: then x - g is
    a solution of lower degree, already certified (degree 0 holds only
    the zero vector, since the semigroup is pointed), so x decomposes.
    No element is decomposed.  Every degree is >= 1, so _dominates
    buckets generators by the support of their exponents alone.
    """
    chi_v = _as_vec(chi, W.k, "character")
    if certify_degree is not None and (not isinstance(certify_degree, int) or certify_degree < 0):
        raise ValueError("certify_degree must be a nonnegative integer")
    aug = [W.entries[i] + (-chi_v[i],) for i in range(W.k)]
    mins = minimal_homogeneous_solutions(aug, W.cols + 1)
    gens: list[tuple[Vec, int]] = []
    invs: list[Vec] = []
    for sol in mins:
        e, mdeg = sol[:-1], sol[-1]
        if mdeg == 0:
            invs.append(e)
        else:
            gens.append((e, mdeg))
    # mins is in grlex_key order, and on solutions of one degree m that
    # is the order of their exponents; the stable sort keeps it.
    gens.sort(key=lambda g: g[1])
    invariants = tuple(invs)
    pointed = not invariants
    certified = None
    if certify and pointed:
        bound = certify_degree
        if bound is None:
            bound = 4 * max((m for _, m in gens), default=0)
        bits = [1 << j for j in range(W.cols)]
        found: dict[int, list[Vec]] = {}
        for g, m in gens:
            found.setdefault(sum(itertools.compress(bits, g)), []).append(g + (m,))
        for mm in range(1, bound + 1):
            for e in graded_sections(W, chi_v, mm).basis:
                if not _dominates(e + (mm,), sum(itertools.compress(bits, e)), found):
                    raise InvariantViolation(
                        "generator completeness failed", degree=mm, monomial=list(e)
                    )
        certified = bound
    return SemigroupBasis(tuple(gens), invariants, pointed, certified)

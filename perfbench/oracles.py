"""Reference computations for the benchmark's output checks.

Each one reaches its answer by a different route from the program, and
none imports it: series by explicit polynomial convolution, rank by
Fraction elimination, stability by searching a box of one-parameter
subgroups, decomposition by a memoized subtraction search.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial


def series(weights, max_degree: int) -> list[int]:
    """Coefficients of prod_i 1/(1 - q^{a_i}) up to max_degree.

    Multiplies by each truncated geometric series term by term.
    """
    poly = [1] + [0] * max_degree
    for w in weights:
        out = [0] * (max_degree + 1)
        for i, c in enumerate(poly):
            if c:
                for d in range(i, max_degree + 1, w):
                    out[d] += c
        poly = out
    return poly


def rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors if any(v)]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def subgroup_box(k: int, bound: int) -> int:
    """Radius of a box of one-parameter subgroups complete for the entries.

    The destabilizing subgroups of a support form the cone
    {lam : lam.w >= 0 on the support, lam.chi <= 0}, cut out by vectors
    with entries in [-bound, bound].  If that cone is nonzero it holds an
    integer vector orthogonal to k - 1 independent cutting vectors (or
    unit vectors), whose entries are (k-1)-minors, at most
    (k-1)! * bound^(k-1) in absolute value.
    """
    return factorial(k - 1) * bound ** (k - 1)


class StabilityOracle:
    """Stability of supports by the definition, for one action."""

    def __init__(self, rows, chi, bound: int):
        self.k = len(rows)
        self.columns = [tuple(r[j] for r in rows) for j in range(len(rows[0]))]
        radius = subgroup_box(self.k, bound)
        box = range(-radius, radius + 1)
        self.candidates = [
            lam
            for lam in product(box, repeat=self.k)
            if any(lam) and sum(l * x for l, x in zip(lam, chi)) <= 0
        ]

    def stable(self, support) -> bool:
        """support is 1-based; stable iff full rank and no destabilizer."""
        cols = [self.columns[i - 1] for i in support]
        if rank(cols) < self.k:
            return False
        live = self.candidates
        for w in cols:
            live = [lam for lam in live if sum(l * x for l, x in zip(lam, w)) >= 0]
            if not live:
                return True
        return False


def decomposes(target, generators) -> bool:
    """Is target a nonnegative integer combination of the generators?"""
    gens = [tuple(g) for g in generators if any(g)]

    @lru_cache(maxsize=None)
    def reach(rest) -> bool:
        if not any(rest):
            return True
        for g in gens:
            nxt = tuple(r - x for r, x in zip(rest, g))
            if all(x >= 0 for x in nxt) and reach(nxt):
                return True
        return False

    return reach(tuple(target))

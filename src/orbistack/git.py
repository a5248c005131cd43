"""Character-twisted affine GIT for diagonal torus actions.

A k-torus acts diagonally on affine n-space through the columns of an
integer weight matrix, twisted by a character chi.  Every function in a
twisted graded piece is a sum of monomials, so its nonvanishing at a
point depends only on which coordinates of the point vanish: points
enter the theory purely through their supports, and stability becomes a
rank-and-cone condition on (W, chi, S).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .errors import NotPolynomial
from .lattice import (
    IntMatrix,
    SemigroupBasis,
    Vec,
    _as_vec,
    _dot,
    _minimal_supports,
    _neg,
    _quotient_line,
    hilbert_basis,
    integer_kernel,
)

STABLE = "Stable"
NOT_STABLE = "NotStable"
STABILIZER_INFINITE = "StabilizerInfinite"
CHI_OUTSIDE_CONE = "ChiOutsideCone"
CHI_ON_BOUNDARY = "ChiOnBoundary"


@dataclass(frozen=True)
class CharacterAction:
    """Diagonal action data: weight matrix plus twisting character."""

    matrix: IntMatrix
    character: Vec

    def __post_init__(self):
        if not isinstance(self.matrix, IntMatrix):
            raise TypeError(f"matrix must be an IntMatrix, got {type(self.matrix).__name__}")
        object.__setattr__(self, "character", _as_vec(self.character, self.matrix.k, "character"))


@dataclass(frozen=True)
class StabilityCertificate:
    """Verdict for one support, with a destabilizing witness when unstable.

    The witness is a one-parameter subgroup lam with lam.w_i >= 0 for
    every i in the support and lam.chi <= 0; the equality pattern
    matches the reason (zero on the weights for StabilizerInfinite,
    strictly negative on chi for ChiOutsideCone, zero on chi but not on
    the whole cone for ChiOnBoundary).
    """

    verdict: str
    reason: str | None = None
    witness: Vec | None = None

    @property
    def stable(self) -> bool:
        return self.verdict == STABLE


@dataclass(frozen=True)
class StableLocus:
    """Stable supports by minimal elements: upward closed by theorem, not by a check."""

    minimal_stable_supports: tuple[tuple[int, ...], ...]

    def contains(self, support: Iterable[int]) -> bool:
        s = set(support)
        return any(set(m) <= s for m in self.minimal_stable_supports)


def is_polynomial(W: IntMatrix) -> bool:
    """Does the action extend to the multiplicative monoid (all weights >= 0)?"""
    return all(x >= 0 for row in W.entries for x in row)


def representation_degree(W: IntMatrix) -> int:
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


def _normalize_support(support: Iterable[int], n: int) -> tuple[int, ...]:
    s = tuple(support)
    for i in s:
        if not isinstance(i, int) or not 1 <= i <= n:
            raise ValueError(f"support entries must lie in 1..{n}, got {i!r}")
    return tuple(sorted(set(s)))


@lru_cache(maxsize=1024)
def _sign_table(columns: tuple[Vec, ...]) -> dict:
    """Hyperplane sign masks of an action, filled by _facets on first use.

    Keys are (k - 1)-subsets T of 1-based column indices; the value is
    None when T has rank < k - 1, else (lam_T, pos, neg) with lam_T the
    primitive normal of span(T) and pos, neg the bitmasks (bit j for
    column j) of the columns where lam_T is positive or negative.  The
    character plays no part, so every chi on the same matrix shares it.
    """
    return {}


@lru_cache(maxsize=65536)
def _facets(columns: tuple[Vec, ...], s: tuple[int, ...], k: int) -> tuple[Vec, ...] | None:
    """Sorted inward facet normals of cone(S) when S spans Q^k, else None.

    A facet F of a full-dimensional cone(S) is a face, so it is the cone
    over the columns of S it contains; it has dimension k - 1, so those
    columns include k - 1 independent ones T, span(F) = span(T) and the
    inward normal of F is +-lam_T.  Conversely, when S spans, a lam_T
    with T in S that takes one sign on S cuts out a face containing T,
    which is a facet.  S spans exactly when some lam_T with T in S is
    nonzero on S; when S does not span, span(T) = span(S) for every T
    in S of rank k - 1, so the first such T decides.  This is the set
    lattice.dual_cone_generators builds for a full-rank S.
    """
    table = _sign_table(columns)
    mask = 0
    for i in s:
        mask |= 1 << i
    facets = set()
    spans = False
    for t in combinations(s, k - 1):
        try:
            row = table[t]
        except KeyError:
            row = table[t] = _hyperplane(columns, t, k)
        if row is None:
            continue
        lam, pos, neg = row
        if not mask & (pos | neg):
            return None
        spans = True
        if not mask & neg:
            facets.add(lam)
        elif not mask & pos:
            facets.add(_neg(lam))
    return tuple(sorted(facets)) if spans else None


def _hyperplane(columns: tuple[Vec, ...], t: tuple[int, ...], k: int) -> tuple[Vec, int, int] | None:
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
    return lam, pos, neg


def is_stable_support(act: CharacterAction, support: Iterable[int]) -> StabilityCertificate:
    """Stability of points whose nonvanishing coordinates are exactly the support.

    Stable means the weights on the support span the full rational
    character space (finite stabilizer) and the twist lies in the
    relative interior of the cone they generate (a twisted covariant is
    nonvanishing there and the lifted orbit is closed).  Supports are
    1-based.

    The cone is read off the action's hyperplane sign table: for every
    k - 1 columns T of rank k - 1, the normal lam_T of span(T) and the
    columns where it is positive or negative.  S spans when some lam_T
    with T in S is nonzero on S, and then the inward facet normals of
    cone(S) are the lam_T (up to sign) that take one sign on S (see
    _facets).  The first facet normal, in sorted order, that is negative
    on chi is the ChiOutsideCone witness; failing that, the first that
    vanishes on chi is the ChiOnBoundary witness.
    """
    s = _normalize_support(support, act.matrix.cols)
    k = act.matrix.k
    if k == 0:
        return StabilityCertificate(STABLE)
    columns = act.matrix.columns()
    facets = _facets(columns, s, k)
    if facets is None:
        # Any functional vanishing on the support weights destabilizes;
        # orient it against chi.
        lam = integer_kernel([columns[i - 1] for i in s], k)[0]
        if _dot(lam, act.character) > 0:
            lam = _neg(lam)
        return StabilityCertificate(NOT_STABLE, STABILIZER_INFINITE, lam)
    boundary = None
    for lam in facets:
        val = _dot(lam, act.character)
        if val < 0:
            return StabilityCertificate(NOT_STABLE, CHI_OUTSIDE_CONE, lam)
        if val == 0 and boundary is None:
            boundary = lam
    if boundary is not None:
        return StabilityCertificate(NOT_STABLE, CHI_ON_BOUNDARY, boundary)
    return StabilityCertificate(STABLE)


def stable_locus(act: CharacterAction) -> StableLocus:
    """Minimal stable supports; the stable family is their upward closure.

    By Steinitz's theorem, chi interior to cone(S) is interior to the cone
    of at most 2k columns of S, which then span: no minimal stable support
    has more than 2k columns.  Adding columns only enlarges a
    full-dimensional cone, so a support containing a stable one is stable
    and is skipped; a stable support that does get tested is minimal.
    """
    n = act.matrix.cols
    return StableLocus(
        _minimal_supports(
            range(1, n + 1), min(n, 2 * act.matrix.k), lambda s: is_stable_support(act, s).stable
        )
    )


@dataclass(frozen=True)
class ChartReport:
    """One Proj chart: a semigroup generator and whether its chart is stable.

    The chart is stable when every support containing the generator's
    support is stable; by upward closure that is the generator support's
    own verdict.
    """

    monomial: Vec
    degree: int
    support: tuple[int, ...]
    stable: bool


@dataclass(frozen=True)
class ProjPresentation:
    basis: SemigroupBasis
    charts: tuple[ChartReport, ...]
    locus: StableLocus


def proj_presentation(act: CharacterAction, *, certify_degree: int | None = None) -> ProjPresentation:
    """Generators of the twisted section ring with per-chart stability.

    Degree-zero invariant generators, when present, are reported on the
    basis object and flip its pointed flag; they do not get charts.
    """
    basis = hilbert_basis(act.matrix, act.character, certify_degree=certify_degree)
    locus = stable_locus(act)
    charts = []
    for e, m in basis.generators:
        supp = tuple(j + 1 for j, x in enumerate(e) if x)
        charts.append(ChartReport(e, m, supp, locus.contains(supp)))
    return ProjPresentation(basis, tuple(charts), locus)


def stability_power_invariance(act: CharacterAction, power: int) -> bool:
    """Compare the stable loci for chi and for power * chi."""
    if not isinstance(power, int) or power < 1:
        raise ValueError("power must be a positive integer")
    scaled = CharacterAction(act.matrix, tuple(power * c for c in act.character))
    return stable_locus(act) == stable_locus(scaled)

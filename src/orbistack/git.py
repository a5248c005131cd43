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
from typing import Iterable

from .lattice import (
    IntMatrix,
    SemigroupBasis,
    Vec,
    _as_vec,
    _dot,
    _facets,
    _minimal_supports,
    _neg,
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


def _normalize_support(support: Iterable[int], n: int) -> tuple[int, ...]:
    # A tuple of ints strictly increasing in 1..n, as stable_locus passes, is canonical.
    if type(support) is tuple:
        last = 0
        for i in support:
            if type(i) is not int or i <= last:
                break
            last = i
        else:
            if last <= n:
                return support
    s = tuple(support)
    for i in s:
        if not isinstance(i, int) or not 1 <= i <= n:
            raise ValueError(f"support entries must lie in 1..{n}, got {i!r}")
    return tuple(sorted(set(s)))


def is_stable_support(act: CharacterAction, support: Iterable[int]) -> StabilityCertificate:
    """Stability of points whose nonvanishing coordinates are exactly the support.

    Stable means the weights on the support span the full rational
    character space (finite stabilizer) and the twist lies in the
    relative interior of the cone they generate (a twisted covariant is
    nonvanishing there and the lifted orbit is closed).  Supports are
    1-based.

    One pass over the sorted facets of cone(S), read off the action's
    sign table (lattice._facets), finds the witness: the first facet
    negative on chi (ChiOutsideCone), else the first vanishing on it
    (ChiOnBoundary), which is nonzero on some column of S as S spans.
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
        value = _dot(lam, act.character)
        if value < 0:
            return StabilityCertificate(NOT_STABLE, CHI_OUTSIDE_CONE, lam)
        if not value and boundary is None:
            boundary = lam
    if boundary is None:
        return StabilityCertificate(STABLE)
    return StabilityCertificate(NOT_STABLE, CHI_ON_BOUNDARY, boundary)


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

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
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .lattice import (
    IntMatrix,
    SemigroupBasis,
    Vec,
    _as_vec,
    _dot,
    _minimal_supports,
    _neg,
    _sign_table,
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

    @cached_property
    def _classifier(self) -> tuple[dict, _Certificates]:
        """The chi-valued sign table and the certificates handed out so far.

        The table maps each (k - 1)-subset T of the columns to None or to
        the row (lam_T, -lam_T, pos, neg, lam_T . chi) of the matrix's
        sign table (lattice._sign_table) with its value on chi appended.
        Certificates are keyed by (reason, witness), so supports with the
        same verdict share one object.  Built on first use, k >= 1.
        """
        chi = self.character
        table = _sign_table(self.matrix.columns(), self.matrix.k)
        return {t: row and row + (_dot(row[0], chi),) for t, row in table.items()}, _Certificates()


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


_STABLE = StabilityCertificate(STABLE)


class _Certificates(dict):
    """An action's NotStable certificates by (reason, witness), each built once."""

    def __missing__(self, key: tuple[str, Vec]) -> StabilityCertificate:
        cert = self[key] = StabilityCertificate(NOT_STABLE, *key)
        return cert


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

    One pass over the rows of the action's chi-valued sign table whose T
    lies in S classifies it.  When S spans, a row whose normal takes one
    sign on S is a facet of cone(S) (see lattice._dual_cone), and the
    witness is the least facet negative on chi (ChiOutsideCone), else
    the least vanishing on it (ChiOnBoundary), which is nonzero on some
    column of S.  When S has rank k - 1, the first row of rank k - 1
    vanishes on S, and ker(S) is its line, oriented against chi; where
    chi vanishes on it, lam_T keeps its own sign, which is the kernel
    solve's (integer_kernel gives the primitive vector with a positive
    pivot).  Only a support of lower rank solves its kernel.
    """
    s = _normalize_support(support, act.matrix.cols)
    k = len(act.character)  # one entry per row of the matrix
    if not k:
        return _STABLE
    rows, certificates = act._classifier
    mask = 0
    for i in s:
        mask |= 1 << i
    spans = False
    outside = boundary = None
    for row in map(rows.__getitem__, combinations(s, k - 1)):
        if row is None:
            continue
        lam, minus, pos, neg, value = row
        if mask & neg:
            if mask & pos:
                # lam_T takes both signs on S: no facet.
                spans = True
                continue
            lam = minus
            value = -value
        elif not mask & pos:
            # lam_T vanishes on S, which has rank k - 1.
            return certificates[STABILIZER_INFINITE, minus if value > 0 else lam]
        spans = True
        if value < 0:
            if outside is None or lam < outside:
                outside = lam
        elif not value and (boundary is None or lam < boundary):
            boundary = lam
    if not spans:
        # Any functional vanishing on the support weights destabilizes;
        # orient it against chi.
        columns = act.matrix.columns()
        lam = integer_kernel([columns[i - 1] for i in s], k)[0]
        if _dot(lam, act.character) > 0:
            lam = _neg(lam)
        return certificates[STABILIZER_INFINITE, lam]
    if outside is not None:
        return certificates[CHI_OUTSIDE_CONE, outside]
    if boundary is not None:
        return certificates[CHI_ON_BOUNDARY, boundary]
    return _STABLE


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

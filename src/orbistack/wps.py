"""Weighted projective quotient stacks and their line bundles.

A weight system (a_0, ..., a_n) presents the stack as the quotient of
punctured affine (n+1)-space by the one-dimensional torus acting with
those weights.  Sections, strata with their cyclic stabilizers, and the
ampleness predicates for degree-d bundles all reduce to gcd and
lattice-point arithmetic on the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm
from typing import Sequence, Union

from .lattice import GradedSolutionSet, IntMatrix, graded_sections


@dataclass(frozen=True)
class WeightSystem:
    """Positive coordinate weights (a_0, ..., a_n)."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("need at least one weight")
        for w in self.weights:
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"weights must be positive integers, got {w!r}")

    @classmethod
    def of(cls, weights) -> "WeightSystem":
        if isinstance(weights, WeightSystem):
            return weights
        return cls(tuple(weights))

    def matrix(self) -> IntMatrix:
        return IntMatrix((self.weights,), len(self.weights))

    def degree(self, e: Sequence[int]) -> int:
        """Weighted degree of the monomial with exponent vector e."""
        if len(e) != len(self.weights):
            raise ValueError("exponent vector length does not match weights")
        return sum(w * x for w, x in zip(self.weights, e))


@dataclass(frozen=True)
class LineBundle:
    """Degree-d bundle; the Picard group here is the integers."""

    degree: int


@dataclass(frozen=True)
class Stratum:
    """Locus of points whose nonvanishing coordinates are exactly the support.

    The stabilizer is cyclic of order gcd(a_i : i in support); supports
    are 0-based coordinate indices.
    """

    support: tuple[int, ...]
    stabilizer_order: int


Degree = Union[LineBundle, int]


def _degree(bundle: Degree) -> int:
    if isinstance(bundle, LineBundle):
        return bundle.degree
    if isinstance(bundle, int):
        return bundle
    raise TypeError(f"expected a LineBundle or an integer degree, got {bundle!r}")


def section_basis(a, d: Degree) -> GradedSolutionSet:
    """Monomial basis of the degree-d sections: {e >= 0 : sum a_i e_i = d}."""
    a = WeightSystem.of(a)
    d = _degree(d)
    if d < 0:
        return GradedSolutionSet(d, ())
    return graded_sections(a.matrix(), (1,), d)


def hilbert_series(a, max_degree: int) -> tuple[int, ...]:
    """Section-space dimensions in degrees 0..max_degree.

    Expands prod_i 1/(1 - q^{a_i}) by polynomial arithmetic, independent
    of any lattice-point enumeration; serves as the oracle for
    section_basis cardinalities.
    """
    a = WeightSystem.of(a)
    if not isinstance(max_degree, int):
        raise ValueError("max_degree must be an integer")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    coeffs = [0] * (max_degree + 1)
    coeffs[0] = 1
    for w in a.weights:
        for d in range(w, max_degree + 1):
            coeffs[d] += coeffs[d - w]
    return tuple(coeffs)


def strata(a) -> tuple[Stratum, ...]:
    """All nonempty supports with their stabilizer orders, smallest first.

    Weights are positive, so every support is realized by a point.
    """
    a = WeightSystem.of(a)
    out = []
    for size in range(1, len(a.weights) + 1):
        for s in combinations(range(len(a.weights)), size):
            out.append(Stratum(s, gcd(*(a.weights[i] for i in s))))
    return tuple(out)


def descent_modulus(a) -> int:
    """Smallest m > 0 such that the degree-m bundle descends to the coarse space.

    Every stabilizer acts on the degree-m fiber with weight m, so descent
    needs (and gets) exactly lcm(a_i) | m.
    """
    a = WeightSystem.of(a)
    return lcm(*a.weights)


def is_faithful(a, bundle: Degree) -> tuple[bool, Stratum | None]:
    """Do all stabilizers act faithfully on the fibers of the bundle?

    The order-a_i stabilizer at the i-th coordinate point acts with
    weight d, faithfully iff gcd(d, a_i) = 1.  Larger supports have
    stabilizer orders dividing each of their a_i, so singleton strata
    are the binding constraints.  Returns the first offending stratum.
    """
    a = WeightSystem.of(a)
    d = _degree(bundle)
    for i, w in enumerate(a.weights):
        if gcd(d, w) > 1:
            return False, Stratum((i,), w)
    return True, None


def is_det_ample(a, bundle: Degree) -> bool:
    """Faithful on stabilizers and a positive power descends to an ample bundle.

    Positivity of the degree is exactly ampleness of the descended class
    on the coarse space.
    """
    a = WeightSystem.of(a)
    d = _degree(bundle)
    faithful, _ = is_faithful(a, d)
    return faithful and d > 0


def is_h_ample(a, bundle: Degree) -> bool:
    """Alias of is_det_ample documenting an equivalence, not a new test.

    For line bundles on stacks with finite cyclic stabilizers (the only
    stacks modeled here) the two ampleness notions coincide; outside
    this regime the equivalence is not known and this function must not
    be trusted.
    """
    return is_det_ample(a, bundle)

"""Weighted projective source geometry.

Series values are pinned three ways: the package counts sections by
direct enumeration, builds the generating function by a coin change
recurrence, and the tests rebuild it again by explicit polynomial
convolution.  The three routes are asserted against each other and
never merged.
"""

import random
from math import gcd

import pytest

from orbistack import (
    LineBundle,
    Stratum,
    WeightSystem,
    descent_modulus,
    hilbert_series,
    is_det_ample,
    is_faithful,
    is_h_ample,
    section_basis,
    strata,
)
from tests import oracles


def test_weight_system_validation():
    ws = WeightSystem.of((1, 3))
    assert ws.weights == (1, 3)
    assert ws.degree((3, 1)) == 6
    assert ws.matrix().entries == ((1, 3),)
    with pytest.raises(ValueError):
        WeightSystem.of((1, 0))
    with pytest.raises(ValueError):
        WeightSystem.of(())
    with pytest.raises(ValueError):
        ws.degree((1,))
    # Non-integer weights are rejected, not truncated to (1, 3).
    for bad in [(1.5, 3), (1, 3.0), ("1", "3")]:
        with pytest.raises(ValueError):
            WeightSystem.of(bad)
    with pytest.raises(ValueError):
        section_basis((1.5, 3), 3)


def test_section_basis_frozen():
    assert section_basis((1, 3), 6).basis == ((6, 0), (3, 1), (0, 2))
    assert section_basis((1, 3), 0).basis == ((0, 0),)
    assert section_basis((1, 3), 2).basis == ((2, 0),)
    assert section_basis((2,), 3).basis == ()
    assert section_basis((1, 1), 2).basis == ((2, 0), (1, 1), (0, 2))
    piece = section_basis((1, 3), -2)
    assert piece.degree == -2 and piece.basis == ()


def test_section_basis_accepts_line_bundles():
    assert section_basis((1, 3), LineBundle(6)) == section_basis((1, 3), 6)
    with pytest.raises(TypeError):
        section_basis((1, 3), "6")


def test_hilbert_series_frozen():
    assert hilbert_series((1, 3), 6) == (1, 1, 1, 2, 2, 2, 3)
    assert hilbert_series((1, 1), 3) == (1, 2, 3, 4)
    assert hilbert_series((2,), 4) == (1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        hilbert_series((1, 3), -1)
    for bad in (2.5, "3", None):
        with pytest.raises(ValueError, match="max_degree must be an integer"):
            hilbert_series((1, 2), bad)


def test_series_three_routes_agree():
    rng = random.Random(23)
    systems = [(1, 3), (2, 3), (1, 1, 2), (2, 2), (5,)]
    systems += [
        tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        for _ in range(10)
    ]
    for weights in systems:
        series = hilbert_series(weights, 12)
        reference = oracles.series_by_convolution(weights, 12)
        assert series == reference
        for d in range(13):
            assert len(section_basis(weights, d)) == series[d]


def test_strata_frozen():
    assert strata((1, 3)) == (
        Stratum((0,), 1),
        Stratum((1,), 3),
        Stratum((0, 1), 1),
    )
    assert strata((2, 4)) == (
        Stratum((0,), 2),
        Stratum((1,), 4),
        Stratum((0, 1), 2),
    )
    # Supports come in size order, lexicographic within a size, and the
    # stabilizer order is the gcd of the member weights.
    st = strata((1, 1, 2))
    assert [s.support for s in st] == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    for s in st:
        weights = (1, 1, 2)
        expected = 0
        for j in s.support:
            expected = gcd(expected, weights[j])
        assert s.stabilizer_order == expected


def test_descent_modulus_frozen():
    assert descent_modulus((1, 3)) == 3
    assert descent_modulus((2, 4)) == 4
    assert descent_modulus((1, 1)) == 1
    assert descent_modulus((2, 3)) == 6


def test_is_faithful_frozen():
    assert is_faithful((1, 3), 1) == (True, None)
    assert is_faithful((1, 3), 3) == (False, Stratum((1,), 3))
    assert is_faithful((2, 4), 2) == (False, Stratum((0,), 2))
    assert is_faithful((2, 3), 1) == (True, None)


def test_is_faithful_matches_stratumwise_definition():
    # A stratum acts unfaithfully on the bundle exactly when the bundle
    # degree shares a factor with its stabilizer order.  Any such
    # stratum forces a singleton one, so checking singletons suffices;
    # this sweeps the full definition independently.
    for weights in [(1,), (2,), (1, 3), (2, 4), (2, 3), (1, 1, 2), (2, 4, 6), (3, 5)]:
        for d in range(1, 13):
            verdict, offender = is_faithful(weights, d)
            fullscan = [s for s in strata(weights) if gcd(d, s.stabilizer_order) > 1]
            assert verdict == (not fullscan)
            if offender is not None:
                assert offender in fullscan
                assert len(offender.support) == 1


def test_descended_degrees_are_never_faithful():
    for weights in [(2,), (1, 3), (2, 3), (2, 4), (1, 1, 2)]:
        modulus = descent_modulus(weights)
        if max(weights) == 1:
            continue
        verdict, offender = is_faithful(weights, modulus)
        assert not verdict
        assert offender is not None


def test_is_det_ample_frozen():
    assert is_det_ample((1, 3), 1)
    assert not is_det_ample((1, 3), 0)
    assert not is_det_ample((1, 3), -1)
    assert not is_det_ample((1, 3), 3)
    assert is_det_ample((2, 3), 1)
    assert not is_det_ample((2, 3), 6)


def test_is_h_ample_agrees_with_is_det_ample():
    # In this regime the two ampleness notions coincide; the alias must
    # never drift.
    rng = random.Random(29)
    for _ in range(60):
        weights = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        d = rng.randint(-2, 8)
        assert is_h_ample(weights, d) == is_det_ample(weights, d)


def test_multiplicative_closure_of_sections():
    # The product of sections is a section of the summed degree.
    for weights in [(1, 3), (2, 3)]:
        for d1 in range(5):
            for d2 in range(5):
                basis = set(section_basis(weights, d1 + d2).basis)
                for e1 in section_basis(weights, d1):
                    for e2 in section_basis(weights, d2):
                        s = tuple(x + y for x, y in zip(e1, e2))
                        assert s in basis

"""Property tests: graded pieces against box enumeration.

Inputs are drawn by hypothesis with a fixed derivation (derandomized,
no example database), so every run checks the same cases.  Each matrix
carries a known positive row combination, which gives the oracle its
box; the rows the package sees hide it, so every row may have negative
entries, and a repeated row makes some matrices rank-deficient.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from orbistack import IntMatrix, graded_sections
from tests import oracles


@st.composite
def graded_inputs(draw):
    """(rows, chi, m, bounds): bounds box every solution of rows . e = m chi."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    entry = st.integers(-2, 2)
    positive = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    others = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k - 1)]
    if k == 3 and draw(st.booleans()):
        others[1] = others[0]
    # The first row hides the positive one: rows[0] - a * rows[1] == positive.
    a = draw(st.integers(-1, 1)) if k > 1 else 0
    rows = [[p + a * x for p, x in zip(positive, others[0])] if k > 1 else positive] + others
    chi = [draw(st.integers(0, 3))] + [draw(entry) for _ in range(k - 1)]
    m = draw(st.integers(0, 4))
    level = m * (chi[0] - a * chi[1]) if k > 1 else m * chi[0]
    bounds = tuple(max(level // p, -1) for p in positive)
    return rows, tuple(chi), m, bounds


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(graded_inputs())
def test_graded_sections_match_box_enumeration(case):
    rows, chi, m, bounds = case
    basis = graded_sections(IntMatrix.from_rows(rows), chi, m).basis
    expected = oracles.box_solutions(rows, tuple(m * c for c in chi), bounds)
    assert len(set(basis)) == len(basis)
    assert set(basis) == set(expected)
    assert list(basis) == sorted(basis, key=lambda e: (-sum(e), tuple(-c for c in e)))

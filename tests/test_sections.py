"""The `sections` command against independent oracles, and the memory it spends.

`sections` prints a graded piece straight from the exponent columns it
was read back into (lattice._Columns), with no tuple built per point.
These tests pin its bytes to `oracles.canonical_json` of the document
built from `wps.section_basis`, pin that basis to `oracles.monomials_of_degree`
in grlex order, and check that printing a piece needs no point at all.
Pieces cover every field width of the readback (1, 2, 4 and 8 bytes and
past 64 bits), empty pieces, degree 0 and negative degrees.
"""

import random
import sys
import tracemalloc

import pytest

from orbistack import cli, lattice, wps
from orbistack.lattice import grlex_key
from tests import oracles

# Field widths in bytes of the readback; None is past 64 bits.
WIDTHS = (1, 2, 4, 8, None)

EDGE_PIECES = [
    ((2, 4), 3),  # empty
    ((6, 10, 15), 1),  # empty
    ((1, 2, 3), 0),
    ((5,), 0),
    ((7,), 3),  # one weight, empty
    ((1, 2), -1),
    ((3, 5), -7),
    ((1, 10**16), 3),  # a 16-digit weight: the document goes through the string copy
]


def field_width(weights, degree):
    """The field width of the piece's readback: every exponent is at most degree // min(weights)."""
    bits = (degree // min(weights)).bit_length()
    return next((w for w in (1, 2, 4, 8) if bits <= 8 * w), None)


def seeded_pieces():
    """(weights, degree) with few points, sixteen for each field width.

    One weight is small and sets the width; the others are at least a
    twelfth of the degree, so each of their exponents is at most 12.
    """
    rng = random.Random(20261024)
    for width in WIDTHS:
        bits = 8 * width if width else 80
        low = 1 << (4 * width if width else 64)
        for _ in range(16):
            small = rng.randint(1, 3)
            degree = small * rng.randrange(low, 1 << bits) + rng.randrange(small)
            others = [rng.randint(max(small, degree // 12), degree + 1) for _ in range(rng.randint(0, 3))]
            weights = [small, *others]
            rng.shuffle(weights)
            assert field_width(weights, degree) == width
            yield tuple(weights), degree


def all_pieces():
    return [*seeded_pieces(), *EDGE_PIECES]


def oracle_basis(weights, degree):
    """The degree-d monomials in grlex order, enumerated with the smallest weight last."""
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    found = oracles.monomials_of_degree([weights[i] for i in order], degree)
    place = [order.index(j) for j in range(len(weights))]
    return sorted((tuple(e[t] for t in place) for e in found), key=grlex_key)


def sections_text(capsys, weights, degree):
    argv = ["sections", "--weights", ",".join(map(str, weights)), f"--degree={degree}"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def expected_text(weights, degree):
    basis = wps.section_basis(weights, degree).basis
    document = {"schema": 1, "command": "sections", "weights": weights, "degree": degree, "basis": basis}
    return oracles.canonical_json(document) + "\n"


def test_sections_prints_the_canonical_document_of_section_basis(capsys):
    printed = dict.fromkeys(WIDTHS, 0)
    for weights, degree in all_pieces():
        assert sections_text(capsys, weights, degree) == expected_text(weights, degree), (weights, degree)
        piece = lattice._piece(wps.section_basis(weights, degree))
        # Only a piece with a point and 1- or 2-byte fields is read back
        # into columns; every other piece is the plain tuple it was.
        narrow = degree >= 0 and field_width(weights, degree) in (1, 2) and len(piece) > 0
        assert type(piece) is (lattice._Columns if narrow else tuple), (weights, degree)
        if degree >= 0 and len(piece):
            printed[field_width(weights, degree)] += 1
    assert min(printed.values()) >= 10, printed


def test_section_basis_is_the_degree_oracle_in_grlex_order():
    sizes = set()
    for weights, degree in all_pieces():
        basis = wps.section_basis(weights, degree).basis
        assert list(basis) == oracle_basis(weights, degree), (weights, degree)
        narrow = degree >= 0 and field_width(weights, degree) in (1, 2) and len(basis) > 0
        assert type(basis) is (lattice.Monomials if narrow else tuple)
        sizes.add(min(len(basis), 2))
    assert sizes == {0, 1, 2}


def test_sections_prints_the_same_bytes_with_point_packaging_refused(capsys, monkeypatch):
    expected = {piece: expected_text(*piece) for piece in all_pieces()}
    assert any(type(lattice._piece(wps.section_basis(*piece))) is lattice._Columns for piece in expected)

    def refuse(piece):
        raise AssertionError("a point was built")

    monkeypatch.setattr(lattice, "_points", refuse)
    # The refusal is live: reading a basis read back into columns packages it.
    with pytest.raises(AssertionError, match="a point was built"):
        wps.section_basis((1, 2, 3), 12).basis
    # Its length needs no point.
    assert len(wps.section_basis((1, 2, 3), 12)) == 19
    for (weights, degree), text in expected.items():
        assert sections_text(capsys, weights, degree) == text, (weights, degree)


class Sink:
    """A stdout that keeps only the number of characters written."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)

    def flush(self):
        pass


def test_sections_traced_peak_stays_under_six_times_its_output(monkeypatch):
    # A tuple per point costs about 96 bytes against about 14 characters
    # of output; printing from the columns leaves the text as the peak.
    argv = ["sections", "--weights", "1,2,3,4,5", "--degree", "120"]
    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(argv[:-1] + ["30"]) == 0  # caches and imports
    sink.written = 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written == 1275901
    assert peak < 6 * sink.written, peak / sink.written

"""Golden corpus: the sha256 of the stdout bytes of fixed CLI jobs.

The corpus is every command line example in the README, embed, verify
and recover on six weight systems, and stable-locus and proj on
actions of the stability benchmark's shape and on wider ones.  A change
that alters any byte of these outputs fails here, so refactors of the
lattice and embedding layers have to keep the canonical JSON exactly as
it was.
"""

import hashlib
import io
import json
import sys
from math import comb

import pytest

from orbistack import cli, git, lattice
from tests import oracles

README_JOBS = [
    (["sections", "--weights", "1,3", "--degree", "6"],
     "38ad86023f7172cec2e9318e9dd09ead1bc81f7420c944708d51cddf812ccebd"),
    (["hilbert-series", "--weights", "1,3", "--max-degree", "6"],
     "fa5e9f7c1df866662e68397c020eb526986f1ad4940b1619659531b55e3c5792"),
    (["ample-check", "--weights", "1,3", "--degree", "3"],
     "8b0921f36d6678131f353a09641856c6f9e595838232b7eea09be3790b88eddd"),
    (["embed", "--weights", "1,3", "--degree", "1", "--pretty"],
     "6b90d025a471ed82f9f063794c5f657ae35074466bac2c0a5280ccc951984cd8"),
    (["stable-locus", "--matrix", "1,3", "--chi", "1"],
     "16e562cf00c345fb75502a7b58f34d3165aebaee06584b2ecae138d49fb59a8a"),
    (["proj", "--matrix", "1,3", "--chi", "1"],
     "20592b67598a4bbf882ddec97ae267ed6e7d2c5ed8efeb45e3c36e062d9340b7"),
    (["morphism-check", "--weights", "1,1", "--degree", "1", "--sections", "1,0:1;0,1:1"],
     "bcf0bf72207dc8933944bcdbb4448282029fac0d06cb8cab68a4c0c8cdc510ba"),
    (["selftest"],
     "75d373cab3ef9234f947a13a9f4a8cb2bf4b917b3e3f9c5800a85d0a449ccded"),
]

# weights -> digests of embed (degree 1), verify and recover on its output.
ROUND_TRIPS = {
    "1,3": (
        "efc7f6417cb1ae7d7928940a9847b548ae786a880e3153d7b106caf237038c48",
        "fba531446c3e9cd1a0a537b1282eae4a45f8df36c81ed70f1903774028b38425",
        "81603e97c7736b1c82c711a94cdf6f126a59db1b19e2f6dac905accca75f677b",
    ),
    "2,3,5": (
        "bb3bbf874dd4e7465139a0fff9595703d2a3eba22486d4cc38fc9c58793523a1",
        "48b82abc566da3a6ab5c24659061a505f9f06555dd6abfa298069c2c1a5f4594",
        "2bd6f42a7901b81f4568c57f1f052d9aeff8ddb3840b2c32281351782a2f24b8",
    ),
    "3,4,5": (
        "67349151a7a7cd201cbb5144b1184f94981195bc91aa6ff79ca22512d28bb699",
        "c53977c6476813c2f2bdb6f16938aafe2ac2f36c98e749d9dc2e57fc0a26a8ed",
        "b3a5073d780a23449aa2e25a034dbdcb199d0396dea2f9e635df65bd01715672",
    ),
    "1,2,3,4": (
        "0ec509416cc96365c8837b8cae0db54e558713c944f296afc0a600b52316e1f9",
        "9b1bea04ddb94e1886ee0aa909149ae198f9c14fb0e2518edc1ff2fe01dc7a23",
        "b39ed8bd2b36bbbf31832e32cb2e880301fb128c1046318ba4eef9c50414cc66",
    ),
    "5,7,11": (
        "5f0b855ed1bde36cabdf3d36bbeb45f0db4d5abadd3709cc5efabbba72e4fa47",
        "23183491ded4f9288987a21eb2533425f9e32ffd08a56c5f57ce4d57ce0c86e2",
        "ce413d2b32aeea5d183fcc959bd85a8e61efaec33338631fa5e71e66fef41f05",
    ),
    # N = 210 gives 8,276 charts: the normality certificate and the
    # per-chart projections stopped embed and verify scaling here.
    "2,3,5,7": (
        "62a4dc9da7724388a2605b0add440cccb3eb79b71c8fb400162738c09583192c",
        "6c9257df3b84c1247bcf261a476777448f7c01d6caeabd5c5394fa27aa2345af",
        "bff14bf3b5216e0eab96b80a049edc12e8849ccb402bc37efb25776b52b2d6e9",
    ),
}

# Benchmark-shaped actions (distinct nonzero columns, entries in [-2, 2]),
# each also with chi scaled by 3.  proj on a 3x11 action with a nonempty
# stable locus runs for well over 10 s (its Hilbert basis), so proj pins
# a second 3x11 action whose semigroup is not pointed: no stable support,
# but the whole support walk still runs.
ACTIONS = {
    "2x12": "1,-2,0,-2,-2,2,2,-1,1,-2,-1,2;2,-2,-1,-1,0,2,-1,-2,1,2,0,-2",
    "3x11": "1,-2,-1,-2,-1,1,1,-2,1,1,1;-1,1,0,0,0,1,-1,1,-2,0,1;0,-1,2,-2,-2,0,1,1,1,0,1",
    "3x11-unpointed": "-1,-1,2,0,1,1,-2,-1,2,2,-1;-1,-2,-2,0,1,0,0,0,-1,-1,-1;2,-2,0,2,1,2,2,0,0,1,1",
    "2x5": "-2,3,3,1,2;3,4,2,0,2",
    # Wider actions drawn as the stability benchmark draws them (seed 0).
    "2x20": "0,0,-2,-1,1,1,2,-1,1,-1,2,-2,2,-2,-2,0,2,2,0,-1;"
            "1,2,-1,1,0,-1,2,2,2,-2,-2,1,-1,0,2,-2,0,1,-1,-1",
    "3x14": "2,-1,1,2,0,-2,-1,2,0,0,0,2,2,2;"
            "-1,2,2,0,-2,-1,-1,2,1,0,-2,1,-2,-1;"
            "2,2,1,2,1,-2,1,2,-1,1,-1,1,-1,0",
    "2x22": "0,0,-2,-1,1,1,2,-1,1,-1,2,-2,2,-2,-2,0,2,2,0,-1,-1,1;"
            "1,2,-1,1,0,-1,2,2,2,-2,-2,1,-1,0,2,-2,0,1,-1,-1,0,1",
    "3x16": "2,-1,1,2,0,-2,-1,2,0,0,0,2,2,2,-1,0;"
            "-1,2,2,0,-2,-1,-1,2,1,0,-2,1,-2,-1,0,0;"
            "2,2,1,2,1,-2,1,2,-1,1,-1,1,-1,0,1,-1",
    "4x12": "1,1,-2,0,2,1,1,0,1,0,2,-1;-2,0,-1,-2,-2,2,-1,0,2,2,1,1;"
            "2,-1,1,1,2,2,1,0,0,1,2,2;-2,-1,-1,-2,2,1,-2,-2,2,0,1,1",
}
STABILITY_JOBS = [
    ("stable-locus", "2x12", "-2,0",
     "97005523e62aa6af166462dd5b0d9ea16dd52d2c2acabd8f870a824e2a11c16a"),
    ("stable-locus", "2x12", "-6,0",
     "ca3c95f2cd5407e84858adac0094e5fc1a937d365a51519789c8bb5e4c4cf255"),
    ("stable-locus", "3x11", "0,-1,-1",
     "4745f387925d29e03b542dd9ae6df4b3bf2ad6b73fd4307dd640b99647f59c58"),
    ("stable-locus", "3x11", "0,-3,-3",
     "39ef262e4db165fe23e06759e55453f773a6e44d9c9930de86610417fc33b1bd"),
    # Captured while stable-locus still classified all 2^n supports.
    ("stable-locus", "2x20", "2,1",
     "8dc0806b322825b84e1f8f0a476e466f47409a77c8f7dc4ebe2bc5055fb20833"),
    ("stable-locus", "3x14", "-1,0,1",
     "f6e9574fc3dce595710822e44890e4fc0ce77d5f30d9fc224fbf733ad6b55c38"),
    # Captured while each support still built its own dual cone.
    ("stable-locus", "3x16", "-1,2,-2",
     "df049add3f078fc156d3a805ce72bd23ccc07160cf01d337374b32eef4bf5329"),
    ("stable-locus", "4x12", "2,-2,1,0",
     "ba2d579c95a3a8ca142742218f7068e1cdee992a2434e1e0ce27935f1eb2b273"),
    ("proj", "2x12", "-2,0",
     "8d7b08ea6506f024b0e5ca05508c11b70e20f739892178cde00fd552a14c8620"),
    ("proj", "2x12", "-6,0",
     "b6040fc123cb786e64531f2001a28ff27a0f6c9b2a0961a5d2a7347e0a32c937"),
    ("proj", "3x11-unpointed", "1,2,-2",
     "c575105540522f170976f4907eafff79081889fc4eafd2660b299b656b8660c1"),
    ("proj", "3x11-unpointed", "3,6,-6",
     "e52f34fa6ce6b6537458560a8665f1238c9b8d7c7631738cf7d50deb3336fbbc"),
    # A pointed 2x5 action with 71 generators up to degree 17, so the
    # completeness sweep runs through degree 68.
    ("proj", "2x5", "1,2",
     "d3c6073964244951ee0c3a6221b6ca72d14ba29bef42970d0b9f43ccb67be677"),
]


def stdout_of(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv,expected", README_JOBS, ids=[" ".join(a) for a, _ in README_JOBS])
def test_readme_example_bytes(capsys, argv, expected):
    assert digest(stdout_of(capsys, argv)) == expected


@pytest.mark.parametrize("weights", list(ROUND_TRIPS))
def test_embed_verify_recover_bytes(capsys, monkeypatch, tmp_path, weights):
    embed_hex, verify_hex, recover_hex = ROUND_TRIPS[weights]
    document = stdout_of(capsys, ["embed", "--weights", weights, "--degree", "1"])
    assert digest(document) == embed_hex
    # As in the README: verify reads a file, recover reads stdin.
    path = tmp_path / "data.json"
    path.write_text(document, encoding="utf-8")
    assert digest(stdout_of(capsys, ["verify", "--data", str(path)])) == verify_hex
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    assert digest(stdout_of(capsys, ["recover", "--data", "-"])) == recover_hex


@pytest.mark.parametrize(
    "command,action,chi,expected",
    STABILITY_JOBS,
    ids=[f"{c} {a} chi={x}" for c, a, x, _ in STABILITY_JOBS],
)
def test_stability_bytes(capsys, command, action, chi, expected):
    argv = [command, f"--matrix={ACTIONS[action]}", f"--chi={chi}"]
    assert digest(stdout_of(capsys, argv)) == expected


def test_stable_locus_on_22_columns_tests_supports_of_at_most_2k(capsys, monkeypatch):
    # 2^22 supports exist; minimal stable supports have at most 2k = 4
    # columns, so the search classifies no more than sum C(22, i), i <= 4.
    tested = []
    classify = git.is_stable_support

    def recording(act, support):
        tested.append(support)
        return classify(act, support)

    monkeypatch.setattr(git, "is_stable_support", recording)
    argv = ["stable-locus", f"--matrix={ACTIONS['2x22']}", "--chi=-2,1"]
    assert json.loads(stdout_of(capsys, argv))["minimal_supports"]
    assert len(tested) <= sum(comb(22, i) for i in range(5)) == 9109


def test_stable_locus_on_16_columns_solves_each_hyperplane_once(capsys, monkeypatch):
    # Every facet normal the 3x16 action's supports use is the normal of
    # a 2-column subset, solved once into the action's sign table however
    # many supports contain it: at most C(16, 2) kernel solves, plus one
    # StabilizerInfinite witness per tested support of rank < 2 (a
    # support of rank 2 reuses a sign-table line).
    for module in (lattice, git):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    calls = []
    solve = lattice.integer_kernel

    def counting(rows, n):
        calls.append(n)
        return solve(rows, n)

    tested = []
    classify = git.is_stable_support

    def recording(act, support):
        tested.append(tuple(support))
        return classify(act, support)

    monkeypatch.setattr(lattice, "integer_kernel", counting)
    monkeypatch.setattr(git, "integer_kernel", counting)
    monkeypatch.setattr(git, "is_stable_support", recording)
    argv = ["stable-locus", f"--matrix={ACTIONS['3x16']}", "--chi=-1,2,-2"]
    assert json.loads(stdout_of(capsys, argv))["minimal_supports"]
    rows = [[int(x) for x in row.split(",")] for row in ACTIONS["3x16"].split(";")]
    cols = [tuple(r[j] for r in rows) for j in range(16)]
    needed = sum(oracles.frac_rank([cols[j - 1] for j in s]) < 2 for s in tested)
    assert len(tested) <= sum(comb(16, i) for i in range(7))
    assert needed <= len(calls) <= comb(16, 2) + needed

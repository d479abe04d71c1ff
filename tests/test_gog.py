from fractions import Fraction
from types import SimpleNamespace

import pytest

from gbsn import gog, gogfile
from gbsn.britton import is_identity
from gbsn.classify import classify, compression_report, qi_compare
from gbsn.gog import (
    Edge,
    GoGSpec,
    InvalidSpecError,
    bass_serre_degrees,
    presentation,
    underlying_rank,
    validate,
    vertex_letters,
)
from gbsn.gogfile import GoGDocument
from gbsn.holonomy import compute_holonomy
from gbsn.linalg import QMat
from gbsn.words import Word

from conftest import DATA

SPECS = DATA.parent / "tests" / "specs"


def make_loop_spec(rank, loops):
    edges = [Edge(name, "X", "X", QMat(a), QMat(o)) for name, a, o in loops]
    return GoGSpec.make(rank, ["X"], edges)


def problems_of(build):
    """The violations that ``build()`` raises as ``InvalidSpecError``."""
    with pytest.raises(InvalidSpecError) as info:
        build()
    return info.value.problems


class TestValidate:
    def test_golden_spec_is_valid(self, spec_a):
        assert validate(spec_a) == []

    def test_singular_inclusion(self):
        problems = problems_of(
            lambda: make_loop_spec(2, [("h", [[1, 0], [0, 0]], [[1, 0], [0, 1]])])
        )
        assert any("not injective" in p for p in problems)

    def test_disconnected(self):
        problems = problems_of(
            lambda: GoGSpec.make(
                1,
                ["X", "Y"],
                [Edge("t", "X", "X", QMat([[1]]), QMat([[2]]))],
                spanning_tree=(),
            )
        )
        assert any("not connected" in p for p in problems)

    def test_dimension_mismatch(self):
        problems = problems_of(lambda: make_loop_spec(2, [("h", [[1]], [[2]])]))
        assert any("dimension" in p for p in problems)

    def test_duplicate_names(self):
        problems = problems_of(
            lambda: make_loop_spec(1, [("t", [[1]], [[2]]), ("t", [[1]], [[3]])])
        )
        assert any("not unique" in p for p in problems)

    def test_non_integral_inclusion_reported(self):
        half = Edge("t", "X", "X", QMat([[Fraction(1, 2)]]), QMat([[2]]))
        with pytest.raises(InvalidSpecError, match="alpha is not an integer matrix") as info:
            GoGSpec.make(1, ["X"], [half])
        assert info.value.problems == ["edge t: alpha is not an integer matrix"]

    def test_non_square_rows_reported(self):
        doc = GoGDocument(1, ("X",), (("t", "X", "X", ((1, 2),), ((1,),)),))
        assert problems_of(doc.to_spec) == ["edge t: alpha is not square"]

    def test_undeclared_endpoint_is_not_a_cut(self):
        # X is the only declared vertex, and the walk from it reaches it
        edge = Edge("t", "X", "Y", QMat([[1]]), QMat([[2]]))
        assert problems_of(lambda: GoGSpec.make(1, ["X"], [edge])) == [
            "edge t: unknown endpoint"
        ]

    def test_bad_spanning_tree(self):
        problems = problems_of(
            lambda: GoGSpec.make(
                1,
                ["X"],
                [Edge("t", "X", "X", QMat([[1]]), QMat([[2]]))],
                spanning_tree=("t",),
            )
        )
        assert any("spanning tree" in p for p in problems)

    def test_spanning_tree_edge_listed_twice(self):
        # one tree edge e and a loop t: the tree "e e" has the right number
        # of distinct edges and spans, but names e twice
        edges = [
            Edge("e", "X", "Y", QMat([[1]]), QMat([[1]])),
            Edge("t", "X", "X", QMat([[1]]), QMat([[2]])),
        ]
        problems = problems_of(
            lambda: GoGSpec.make(1, ["X", "Y"], edges, spanning_tree=("e", "e"))
        )
        assert problems == ["spanning tree lists an edge twice"]


def _loop(name, src, dst, alpha, omega):
    return Edge(name, src, dst, QMat(alpha), QMat(omega))


VIOLATIONS = {
    "singular inclusion": (
        2, ("X",), (_loop("h", "X", "X", [[1, 0], [0, 0]], [[1, 0], [0, 1]]),), (),
        ["edge h: edge inclusion not injective (alpha)"],
    ),
    "dimension mismatch": (
        2, ("X",), (_loop("h", "X", "X", [[1]], [[2]]),), (),
        ["edge h: alpha has dimension 1, expected 2", "edge h: omega has dimension 1, expected 2"],
    ),
    "undeclared endpoint": (
        1, ("X",), (_loop("t", "X", "Y", [[1]], [[2]]),), ("t",),
        ["edge t: unknown endpoint"],
    ),
    "disconnected": (
        1, ("X", "Y"), (_loop("t", "X", "X", [[1]], [[2]]),), (),
        ["graph not connected"],
    ),
    "tree not spanning": (
        1,
        ("X", "Y", "Z"),
        (
            _loop("s", "X", "Y", [[1]], [[1]]),
            _loop("u", "X", "Y", [[1]], [[2]]),
            _loop("r", "Y", "Z", [[1]], [[1]]),
        ),
        ("s", "u"),
        ["spanning tree does not span the graph"],
    ),
}


class TestValidByConstruction:
    """A ``GoGSpec`` that exists is valid: the constructor itself, not only
    ``make``, raises with ``validate``'s list."""

    @pytest.mark.parametrize("kind", sorted(VIOLATIONS))
    def test_constructor_raises_validate_list(self, kind):
        rank, vertices, edges, tree, expected = VIOLATIONS[kind]
        parts = SimpleNamespace(rank=rank, vertices=vertices, edges=edges, spanning_tree=tree)
        with pytest.raises(InvalidSpecError) as info:
            GoGSpec(rank, vertices, edges, tree)
        assert info.value.problems == validate(parts) == expected
        assert str(info.value) == "; ".join(expected)

    def test_validated_once(self, monkeypatch):
        """Building a spec from text validates it once; no verdict on it
        validates it again."""
        calls = []
        real = gog.validate

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(gog, "validate", counting)
        specs = []
        for path in (DATA / "bs12.gog", DATA / "specA.gog", SPECS / "rank3_relation.gog"):
            specs.append(gogfile.parse(path.read_text()).to_spec())
            assert len(calls) == len(specs)
        calls.clear()
        for spec in specs:
            presentation(spec)
            bass_serre_degrees(spec)
            underlying_rank(spec)
            compute_holonomy(spec)
            classify(spec)
            qi_compare(spec, spec)
            compression_report(spec, Fraction(3, 2))
            if len(spec.vertices) == 1:
                assert is_identity(spec, Word())
        assert calls == []


class TestPresentation:
    def test_two_loop_presentation(self, spec_a):
        pres = presentation(spec_a)
        assert pres.generators == ("a", "b", "h", "p")
        rendered = [f"{lhs} = {rhs}" for lhs, rhs in pres.relations]
        assert rendered == [
            "a b = b a",
            "h^-1 a h = a^2",
            "h^-1 b^2 h = b",
            "p^-1 a p = a",
            "p^-1 b p = a b",
        ]

    def test_three_loop_presentation(self, spec_b):
        pres = presentation(spec_b)
        assert pres.generators == ("a", "b", "h", "p", "e")
        rendered = [f"{lhs} = {rhs}" for lhs, rhs in pres.relations]
        assert rendered[:5] == [
            "a b = b a",
            "h^-1 a h = a^2",
            "h^-1 b^2 h = b",
            "p^-1 a p = a",
            "p^-1 b p = a b",
        ]
        assert rendered[5:] == ["e^-1 a e = b^-1", "e^-1 b e = a"]

    def test_classical_one_relator_case(self, spec_bs12):
        pres = presentation(spec_bs12)
        assert pres.generators == ("a", "t")
        assert [f"{l} = {r}" for l, r in pres.relations] == ["t^-1 a t = a^2"]

    def test_counts(self, spec_a, spec_b, spec_bs12):
        for spec in (spec_a, spec_b, spec_bs12):
            pres = presentation(spec)
            n, v = spec.rank, len(spec.vertices)
            loops = len(spec.loop_edges())
            tree = len(spec.tree_edges())
            assert len(pres.generators) == n * v + loops
            assert len(pres.relators) == v * n * (n - 1) // 2 + n * loops + n * tree

    def test_vertex_letters_skip_edge_names(self):
        spec = make_loop_spec(2, [("a", [[1, 0], [0, 1]], [[1, 0], [0, 1]])])
        letters = vertex_letters(spec)["X"]
        assert "a" not in letters and len(letters) == 2

    def test_multi_vertex_identification_relations(self):
        # two vertices joined by a tree edge with an index-2 inclusion
        spec = GoGSpec.make(
            1,
            ["X", "Y"],
            [
                Edge("f", "X", "Y", QMat([[2]]), QMat([[1]])),
                Edge("t", "X", "X", QMat([[1]]), QMat([[3]])),
            ],
        )
        assert spec.spanning_tree == ("f",)
        pres = presentation(spec)
        assert pres.generators == ("a", "b", "t")
        assert [f"{l} = {r}" for l, r in pres.relations] == [
            "a^2 = b",
            "t^-1 a t = a^3",
        ]

    def test_invalid_spec_raises(self):
        problems = problems_of(
            lambda: make_loop_spec(2, [("h", [[1, 0], [0, 0]], [[1, 0], [0, 1]])])
        )
        assert problems == ["edge h: edge inclusion not injective (alpha)"]


class TestBassSerre:
    def test_six_regular(self, spec_a):
        data = bass_serre_degrees(spec_a)
        assert data.degrees == {"X": 6}
        assert data.ends == "infinitely-many-ends"

    def test_eight_regular(self, spec_b):
        data = bass_serre_degrees(spec_b)
        assert data.degrees == {"X": 8}
        assert data.ends == "infinitely-many-ends"

    def test_line(self):
        spec = make_loop_spec(1, [("t", [[1]], [[1]])])
        data = bass_serre_degrees(spec)
        assert data.degrees == {"X": 2}
        assert data.ends == "two-ended (line)"

    def test_bounded_collapsing_tree(self):
        spec = GoGSpec.make(
            1,
            ["X", "Y"],
            [Edge("f", "X", "Y", QMat([[2]]), QMat([[1]]))],
        )
        assert bass_serre_degrees(spec).ends == "bounded"

    def test_proper_amalgam_trees(self):
        # indices (2,2): the tree is 2-regular, a line; (2,3): branching
        line = GoGSpec.make(
            1, ["X", "Y"], [Edge("f", "X", "Y", QMat([[2]]), QMat([[2]]))]
        )
        assert bass_serre_degrees(line).ends == "two-ended (line)"
        branching = GoGSpec.make(
            1, ["X", "Y"], [Edge("f", "X", "Y", QMat([[2]]), QMat([[3]]))]
        )
        assert bass_serre_degrees(branching).ends == "infinitely-many-ends"

    def test_chain_collapse_composes_indices(self):
        # X -(2,1)- Y -(1,2)- Z collapses to a proper (2,2) amalgam, whose
        # tree is an infinite line (a naive index check would say bounded)
        spec = GoGSpec.make(
            1,
            ["X", "Y", "Z"],
            [
                Edge("f", "X", "Y", QMat([[2]]), QMat([[1]])),
                Edge("g", "Y", "Z", QMat([[1]]), QMat([[2]])),
            ],
        )
        assert bass_serre_degrees(spec).ends == "two-ended (line)"

    def test_orientation_invariance(self, spec_a):
        flipped = GoGSpec.make(
            spec_a.rank,
            spec_a.vertices,
            [spec_a.edges[0].flipped(), spec_a.edges[1]],
            spec_a.spanning_tree,
        )
        assert bass_serre_degrees(flipped).degrees == bass_serre_degrees(spec_a).degrees


class TestUnderlyingRank:
    def test_examples(self, spec_a, spec_b):
        assert underlying_rank(spec_a) == 2
        assert underlying_rank(spec_b) == 3

    def test_tree_shape(self):
        spec = GoGSpec.make(
            1,
            ["X", "Y"],
            [Edge("f", "X", "Y", QMat([[1]]), QMat([[1]]))],
        )
        assert underlying_rank(spec) == 0

    def test_independent_of_spanning_tree(self):
        edges = [
            Edge("f", "X", "Y", QMat([[1]]), QMat([[1]])),
            Edge("g", "X", "Y", QMat([[1]]), QMat([[2]])),
        ]
        s1 = GoGSpec.make(1, ["X", "Y"], edges, spanning_tree=("f",))
        s2 = GoGSpec.make(1, ["X", "Y"], edges, spanning_tree=("g",))
        assert underlying_rank(s1) == underlying_rank(s2) == 1

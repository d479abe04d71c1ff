import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn.gogfile import GoGDocument, GoGParseError, parse, render

from conftest import DATA

SPEC_A_TEXT = """\
rank 2
vertex X
edge h: X -> X alpha [[1,0],[0,2]] omega [[2,0],[0,1]]
edge p: X -> X alpha [[1,0],[0,1]] omega [[1,1],[0,1]]
"""


class TestParse:
    def test_two_loop_document(self):
        doc = parse(SPEC_A_TEXT)
        assert doc.rank == 2
        assert doc.vertices == ("X",)
        assert len(doc.edges) == 2
        assert doc.edges[0] == ("h", "X", "X", ((1, 0), (0, 2)), ((2, 0), (0, 1)))
        assert doc.tree is None

    def test_three_loop_document(self):
        text = SPEC_A_TEXT + "edge e: X -> X alpha [[1,0],[0,1]] omega [[0,1],[-1,0]]\n"
        assert len(parse(text).edges) == 3

    def test_empty_input(self):
        with pytest.raises(GoGParseError, match="missing rank declaration"):
            parse("")

    def test_rank_must_come_first(self):
        with pytest.raises(GoGParseError, match="missing rank declaration"):
            parse("vertex X\nrank 2\n")

    def test_comments_and_blank_lines(self):
        text = "# header\n\nrank 1\nvertex X  # inline comment\n"
        doc = parse(text)
        assert doc.rank == 1 and doc.vertices == ("X",)

    def test_whitespace_insensitive_within_lines(self):
        text = "rank 2\nvertex X\nedge h :  X ->X  alpha [ [1, 0],[0,2] ]   omega [[2,0] , [0,1]]\n"
        doc = parse(text)
        assert doc.edges[0][3] == ((1, 0), (0, 2))

    def test_error_position(self):
        with pytest.raises(GoGParseError) as err:
            parse("rank 2\nvertex X\nedge h: X -> X alpha [[1,x],[0,2]] omega [[1,0],[0,1]]\n")
        assert err.value.line == 3
        assert err.value.column == 26  # 1-based position of the bad entry

    def test_unknown_directive(self):
        with pytest.raises(GoGParseError, match="unknown directive"):
            parse("rank 1\nfrobnicate X\n")

    def test_trailing_garbage(self):
        with pytest.raises(GoGParseError, match="trailing input"):
            parse("rank 1 1\n")

    def test_duplicate_rank(self):
        with pytest.raises(GoGParseError, match="duplicate rank"):
            parse("rank 1\nrank 2\n")

    def test_duplicate_tree(self):
        with pytest.raises(GoGParseError, match="duplicate tree"):
            parse("rank 1\nvertex X\nedge f: X -> X alpha [[1]] omega [[2]]\ntree\ntree f\n")

    def test_non_square_matrix(self):
        with pytest.raises(GoGParseError, match="square"):
            parse("rank 2\nvertex X\nedge h: X -> X alpha [[1,0]] omega [[1,0],[0,1]]\n")

    def test_tree_directive(self):
        text = (
            "rank 1\nvertex X\nvertex Y\n"
            "edge f: X -> Y alpha [[1]] omega [[1]]\n"
            "edge g: X -> Y alpha [[1]] omega [[2]]\n"
            "tree f\n"
        )
        doc = parse(text)
        assert doc.tree == ("f",)
        assert doc.to_spec().spanning_tree == ("f",)


class TestRoundTrip:
    def test_render_parse_fixed_point(self):
        doc = parse(SPEC_A_TEXT)
        assert parse(render(doc)) == doc

    @pytest.mark.parametrize(
        "name", ["specA.gog", "specB.gog", "bs12.gog", "ascend2.gog"]
    )
    def test_shipped_files(self, name):
        text = (DATA / name).read_text()
        doc = parse(text)
        assert parse(render(doc)) == doc
        spec = doc.to_spec()
        from gbsn.gog import validate

        assert validate(spec) == []

    def test_tree_roundtrip(self):
        doc = GoGDocument(
            1,
            ("X", "Y"),
            (("f", "X", "Y", ((1,),), ((1,),)), ("g", "X", "Y", ((1,),), ((2,),))),
            ("f",),
        )
        assert parse(render(doc)) == doc


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,5}", fullmatch=True)


@st.composite
def documents(draw):
    """A document of rank 1-3 with 1-3 vertices: a tree edge into each vertex
    after the first, from an earlier one, then 0-3 edges between any two
    vertices (loops among them), with or without a ``tree`` line."""
    rank = draw(st.integers(1, 3))
    vertices = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    ends = [(draw(st.sampled_from(vertices[:i])), v) for i, v in enumerate(vertices) if i]
    n_loops = draw(st.integers(0, 3))
    ends += [tuple(draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=2)))
             for _ in range(n_loops)]
    names = draw(st.lists(NAMES, min_size=len(ends), max_size=len(ends), unique=True))
    matrix = st.lists(
        st.lists(st.integers(-50, 50), min_size=rank, max_size=rank).map(tuple),
        min_size=rank, max_size=rank,
    ).map(tuple)
    edges = tuple((name, src, dst, draw(matrix), draw(matrix))
                  for name, (src, dst) in zip(names, ends))
    tree = draw(st.sampled_from((None, tuple(names[: len(vertices) - 1]))))
    return GoGDocument(rank, tuple(vertices), edges, tree)


@given(documents())
@settings(derandomize=True, deadline=None, max_examples=100)
def test_parse_inverts_render(doc):
    assert parse(render(doc)) == doc

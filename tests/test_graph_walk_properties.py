"""``gog.walk`` against the graph walks it replaced, kept here as the
reference: the level-by-level default spanning tree, the two fixpoint
connectivity checks of ``validate`` and the fixpoint transport of the
holonomy. Checked on generated graphs of rank 1 and 2, invalid ones
included: repeated vertex and edge names, undeclared endpoints, singular
inclusions, disconnected graphs and trees that are not spanning trees."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn.gog import Edge, GoGSpec, InvalidSpecError, _default_spanning_tree
from gbsn.holonomy import compute_holonomy
from gbsn.linalg import QMat

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

VERTICES = ("X", "Y", "Z", "W")
EDGE_NAMES = ("p", "q", "s", "t", "u")


def reference_tree(vertices, edges):
    """Breadth-first tree from the least vertex, one frontier at a time;
    KeyError when it reaches an undeclared endpoint."""
    if not vertices:
        return ()
    adjacency = {v: [] for v in vertices}
    for e in edges:
        if e.src in adjacency:
            adjacency[e.src].append(e)
        if e.dst in adjacency and e.dst != e.src:
            adjacency[e.dst].append(e)
    seen = {min(vertices)}
    tree = []
    frontier = [min(vertices)]
    while frontier:
        nxt = []
        for v in frontier:
            for e in sorted(adjacency[v], key=lambda e: e.name):
                other = e.dst if e.src == v else e.src
                if other not in seen:
                    seen.add(other)
                    tree.append(e.name)
                    nxt.append(other)
        frontier = nxt
    return tuple(tree)


def fixpoint_reach(start, edges):
    """Every endpoint connected to ``start``, by sweeping the edges until
    nothing changes."""
    seen = {start}
    changed = True
    while changed:
        changed = False
        for e in edges:
            if e.src in seen and e.dst not in seen:
                seen.add(e.dst)
                changed = True
            if e.dst in seen and e.src not in seen:
                seen.add(e.src)
                changed = True
    return seen


def reference_validate(rank, vertices, edges, spanning_tree):
    """The violations of the spec with these parts, read off the parts, so
    that no spec need be built."""
    problems = []
    if rank < 1:
        problems.append("rank must be a positive integer")
    if not vertices:
        problems.append("graph has no vertices")
    if len(set(vertices)) != len(vertices):
        problems.append("vertex names not unique")
    names = [e.name for e in edges]
    if len(set(names)) != len(names):
        problems.append("edge names not unique")
    vertex_set = set(vertices)
    for e in edges:
        if e.src not in vertex_set or e.dst not in vertex_set:
            problems.append(f"edge {e.name}: unknown endpoint")
            continue
        for label, m in (("alpha", e.alpha), ("omega", e.omega)):
            if m.n != rank:
                problems.append(f"edge {e.name}: {label} has dimension {m.n}, expected {rank}")
            elif m.det() == 0:
                problems.append(f"edge {e.name}: edge inclusion not injective ({label})")
    # an edge to an undeclared vertex is reported above, not as a cut
    declared = [e for e in edges if {e.src, e.dst} <= vertex_set]
    if vertices and fixpoint_reach(vertices[0], declared) != vertex_set:
        problems.append("graph not connected")
    tree_names = set(spanning_tree)
    if not tree_names <= set(names):
        problems.append("spanning tree refers to unknown edges")
    elif not problems:
        tree = [e for e in edges if e.name in tree_names]
        if len(tree) != len(vertices) - 1:
            problems.append("spanning tree has wrong edge count")
        elif fixpoint_reach(vertices[0], tree) != vertex_set:
            problems.append("spanning tree does not span the graph")
    return problems


def build(rank, vertices, edges, tree):
    """(spec, violations, spanning tree): the spec ``GoGSpec.make`` builds
    from the parts, or None and the violations that it raises, and the tree
    it was given or picked by default."""
    picked = _default_spanning_tree(vertices, edges) if tree is None else tuple(tree)
    try:
        spec = GoGSpec.make(rank, vertices, edges, tree)
    except InvalidSpecError as exc:
        return None, exc.problems, picked
    assert spec.spanning_tree == picked
    return spec, [], picked


def reference_holonomy(spec):
    """Stable-letter matrices, transported by sweeping the tree edges until
    every vertex has its transport."""
    base = spec.base_vertex()
    transport = {base: QMat.identity(spec.rank)}
    while len(transport) < len(spec.vertices):
        for e in spec.tree_edges():
            comparison = e.omega * e.alpha.inverse()
            if e.src in transport and e.dst not in transport:
                transport[e.dst] = transport[e.src] * comparison.inverse()
            elif e.dst in transport and e.src not in transport:
                transport[e.src] = transport[e.dst] * comparison
    return {
        e.name: transport[e.dst]
        * (e.omega * e.alpha.inverse())
        * transport[e.src].inverse()
        for e in spec.loop_edges()
    }


RARELY = st.sampled_from((False,) * 9 + (True,))


@st.composite
def graphs(draw):
    """(rank, vertices, edges, tree) for ``GoGSpec.make``; tree None picks
    the default spanning tree. Unless a rare draw breaks it, the first edges
    join each vertex to an earlier one, so most graphs are connected."""
    rank = draw(st.integers(1, 2))
    vertices = draw(st.lists(st.sampled_from(VERTICES), min_size=1, max_size=4, unique=True))
    if draw(RARELY):
        vertices.append(vertices[-1])
    count = draw(st.integers(len(vertices) - 1, len(EDGE_NAMES)))
    names = draw(st.permutations(EDGE_NAMES))[:count]
    if names and draw(RARELY):
        names.append(names[0])
    matrices = st.lists(
        st.lists(st.integers(-2, 2), min_size=rank, max_size=rank), min_size=rank, max_size=rank
    ).filter(lambda rows: QMat(rows).det() != 0)
    endpoints = st.sampled_from(vertices)
    joined = not draw(RARELY)
    edges = []
    for i, name in enumerate(names):
        if joined and i + 1 < len(vertices):
            src, dst = vertices[i + 1], draw(st.sampled_from(vertices[: i + 1]))
            if draw(st.booleans()):
                src, dst = dst, src
        else:
            src, dst = draw(endpoints), draw(endpoints)
        if draw(RARELY):
            dst = "Q"  # never declared
        edges.append(Edge(name, src, dst, QMat(draw(matrices)), QMat(draw(matrices))))
    if edges and draw(RARELY):
        e = edges[0]
        edges[0] = Edge(e.name, e.src, e.dst, QMat([[0] * rank] * rank), e.omega)
    kind = draw(st.sampled_from(("default", "joined", "shifted", "any", "unknown name")))
    if kind == "default":
        return rank, vertices, edges, None
    if kind == "joined":
        return rank, vertices, edges, names[: len(vertices) - 1]
    if kind == "shifted":
        # one joining edge swapped for the next edge: often not a tree
        return rank, vertices, edges, names[1 : len(vertices)]
    tree = draw(st.lists(st.sampled_from(EDGE_NAMES), unique=True))
    if kind == "unknown name":
        tree.append("zz")  # names no edge
    return rank, vertices, edges, tree


@PROPERTY
@given(graphs())
def test_walk_matches_references(args):
    spec, problems, tree = build(*args)
    rank, vertices, edges, _ = args
    assert problems == reference_validate(rank, vertices, edges, tree)
    try:
        expected = reference_tree(vertices, edges)
    except KeyError:
        # the reference stops at an undeclared endpoint; the walk goes on,
        # and validate names that endpoint
        assert any(p.endswith("unknown endpoint") for p in problems)
    else:
        assert _default_spanning_tree(vertices, edges) == expected
    if spec is not None:
        assert compute_holonomy(spec).stable == reference_holonomy(spec)


@PROPERTY
@given(graphs(), st.randoms(use_true_random=False))
def test_edge_order_changes_nothing(args, rnd):
    rank, vertices, edges, tree = args
    if len({e.name for e in edges}) != len(edges):
        return  # repeated names: ties between them fall in input order
    shuffled = list(edges)
    rnd.shuffle(shuffled)
    first, problems, first_tree = build(rank, vertices, edges, tree)
    second, second_problems, second_tree = build(rank, vertices, shuffled, tree)
    assert Counter(second_problems) == Counter(problems)
    assert second_tree == first_tree
    if not problems:
        assert compute_holonomy(second).stable == compute_holonomy(first).stable


def test_undeclared_endpoint_and_cut_both_reported():
    edge = Edge("t", "X", "Q", QMat([[1]]), QMat([[2]]))
    spec, problems, tree = build(1, ["X", "Y"], [edge], None)
    expected = ["edge t: unknown endpoint", "graph not connected"]
    assert spec is None
    assert problems == reference_validate(1, ["X", "Y"], [edge], tree) == expected


def test_generated_graphs_reach_every_branch():
    """The generator yields valid specs of both ranks and each violation
    that the walk decides."""
    seen = Counter()

    @PROPERTY
    @given(graphs())
    def collect(args):
        spec, problems, _ = build(*args)
        if spec is not None:
            seen[f"valid rank {spec.rank}"] += 1
        seen.update(p.split(": ")[-1] for p in problems)  # drop "edge t: "

    collect()
    for label in (
        "valid rank 1",
        "valid rank 2",
        "unknown endpoint",
        "graph not connected",
        "spanning tree does not span the graph",
        "spanning tree has wrong edge count",
    ):
        assert seen[label] > 0, (label, seen)

"""Finite graphs of Z^n-groups: validation, presentations, local tree data.

A spec is a connected graph whose vertices all carry the group Z^n and whose
edges carry two injective lattice maps: ``alpha`` includes the edge group
into the source vertex group, ``omega`` into the target. The fundamental
group has n commuting generators per vertex, one stable letter per edge
outside the spanning tree (with t^-1 alpha(c) t = omega(c)), and spanning
tree edges contribute identification relations instead. A ``GoGSpec`` is
valid by construction: it runs ``validate`` once, when it is built, and
raises ``InvalidSpecError`` on any violation.

One breadth-first walk, ``walk``, serves every graph question: the default
spanning tree, the two connectivity checks of ``validate`` and the transport
of the holonomy along the tree.
"""

from __future__ import annotations

from typing import Optional

from .linalg import QMat, sublattice_index
from .record import Record
from .words import Word


class Edge(Record):
    """An edge src -> dst; ``alpha`` and ``omega`` are its inclusions into
    the source and target vertex groups, integer matrices (``QMat``s with
    ``den == 1``) whose columns span the image of the edge group."""

    name: str
    src: str
    dst: str
    alpha: QMat
    omega: QMat

    def flipped(self) -> "Edge":
        """Same edge traversed backwards (swaps endpoints and inclusions)."""
        return Edge(self.name, self.dst, self.src, self.omega, self.alpha)

    def comparison(self) -> QMat:
        """omega alpha^-1: source coordinates to target coordinates on the
        edge group's image; for a stable letter t, the map x -> t^-1 x t."""
        return self.omega * self.alpha.inverse()


class InvalidSpecError(ValueError):
    """``validate``'s violations of a spec, as ``problems`` and joined by "; "."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class GoGSpec(Record):
    rank: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    spanning_tree: tuple[str, ...] = ()

    def __post_init__(self):
        if problems := validate(self):
            raise InvalidSpecError(problems)

    @staticmethod
    def make(rank, vertices, edges, spanning_tree=None) -> "GoGSpec":
        edges = tuple(edges)
        if spanning_tree is None:
            spanning_tree = _default_spanning_tree(vertices, edges)
        return GoGSpec(int(rank), tuple(vertices), edges, tuple(spanning_tree))

    def tree_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.name in self.spanning_tree)

    def loop_edges(self) -> tuple[Edge, ...]:
        """Edges outside the spanning tree; each contributes a stable letter."""
        return tuple(e for e in self.edges if e.name not in self.spanning_tree)

    def base_vertex(self) -> str:
        return min(self.vertices)


def walk(start: str, edges) -> list[tuple[Edge, str, str]]:
    """Breadth-first walk from ``start``: each edge that first reaches a
    vertex, in order, as (edge, reached vertex, new vertex).

    Edges at a vertex are taken by name, ties in input order; an endpoint
    that names no declared vertex is reached like any other.
    """
    adjacency: dict[str, list[Edge]] = {}
    for e in sorted(edges, key=lambda e: e.name):
        adjacency.setdefault(e.src, []).append(e)
        if e.dst != e.src:
            adjacency.setdefault(e.dst, []).append(e)
    steps = []
    seen = {start}
    queue = [start]
    for v in queue:  # the queue grows while it is read
        for e in adjacency.get(v, ()):
            other = e.dst if e.src == v else e.src
            if other not in seen:
                seen.add(other)
                queue.append(other)
                steps.append((e, v, other))
    return steps


def _default_spanning_tree(vertices, edges) -> tuple[str, ...]:
    """Deterministic breadth-first tree from the lexicographically least vertex."""
    if not vertices:
        return ()
    return tuple(e.name for e, _, _ in walk(min(vertices), edges))


def _spans(vertices, edges) -> bool:
    """Does the walk from the first vertex reach exactly ``vertices``?"""
    start = vertices[0]
    return {start, *(new for _, _, new in walk(start, edges))} == set(vertices)


def validate(spec: GoGSpec) -> list[str]:
    """Return a list of violations; an empty list means the spec is valid."""
    problems = []
    if spec.rank < 1:
        problems.append("rank must be a positive integer")
    if not spec.vertices:
        problems.append("graph has no vertices")
    if len(set(spec.vertices)) != len(spec.vertices):
        problems.append("vertex names not unique")
    names = [e.name for e in spec.edges]
    if len(set(names)) != len(names):
        problems.append("edge names not unique")
    vertex_set = set(spec.vertices)
    for e in spec.edges:
        if e.src not in vertex_set or e.dst not in vertex_set:
            problems.append(f"edge {e.name}: unknown endpoint")
            continue
        for label, m in (("alpha", e.alpha), ("omega", e.omega)):
            if m.n != spec.rank:
                problems.append(f"edge {e.name}: {label} has dimension {m.n}, expected {spec.rank}")
            elif any(len(row) != m.n for row in m.num):
                problems.append(f"edge {e.name}: {label} is not square")
            elif not m.is_integral():
                problems.append(f"edge {e.name}: {label} is not an integer matrix")
            elif m.det() == 0:
                problems.append(f"edge {e.name}: edge inclusion not injective ({label})")
    # an edge to an undeclared vertex is reported above, not as a cut
    declared = [e for e in spec.edges if e.src in vertex_set and e.dst in vertex_set]
    if spec.vertices and not _spans(spec.vertices, declared):
        problems.append("graph not connected")
    # spanning tree: distinct known edges, right edge count, touches every vertex, acyclic
    tree_names = set(spec.spanning_tree)
    if len(tree_names) != len(spec.spanning_tree):
        problems.append("spanning tree lists an edge twice")
    if not tree_names <= set(names):
        problems.append("spanning tree refers to unknown edges")
    elif not problems:
        tree = [e for e in spec.edges if e.name in tree_names]
        if len(tree) != len(spec.vertices) - 1:
            problems.append("spanning tree has wrong edge count")
        elif not _spans(spec.vertices, tree):
            problems.append("spanning tree does not span the graph")
    return problems


def vertex_letters(spec: GoGSpec) -> dict[str, tuple[str, ...]]:
    """Deterministic generator names for each vertex group.

    Letters a, b, c, ... are handed out vertex by vertex (vertices in input
    order), skipping any name already taken by an edge.
    """
    taken = {e.name for e in spec.edges}
    pool = (name for name in _letter_names() if name not in taken)
    return {v: tuple(next(pool) for _ in range(spec.rank)) for v in spec.vertices}


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _letter_names():
    yield from _ALPHABET
    i = 1
    while True:
        for ch in _ALPHABET:
            yield f"{ch}{i}"
        i += 1


class Presentation(Record, uncompared=("relations",)):
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    relations: tuple[tuple[Word, Word], ...] = ()

    def __str__(self):
        rels = ", ".join(f"{lhs} = {rhs}" for lhs, rhs in self.relations)
        return f"< {', '.join(self.generators)} | {rels} >"


def vector_word(letters: tuple[str, ...], vec) -> Word:
    """Spell a vertex-group vector multiplicatively, e.g. (2,-1) -> a^2 b^-1."""
    return Word((letters[i], int(c)) for i, c in enumerate(vec))


def presentation(spec: GoGSpec) -> Presentation:
    """Finite presentation of the fundamental group.

    Per vertex: n commuting generators. Per non-tree edge e: a stable letter
    t with relations t^-1 alpha(c) t = omega(c) for each basis vector c of
    the edge group. Per tree edge: identifications alpha(c) = omega(c).
    """
    letters = vertex_letters(spec)
    gens: list[str] = []
    for v in spec.vertices:
        gens.extend(letters[v])
    gens.extend(e.name for e in spec.loop_edges())

    relations: list[tuple[Word, Word]] = []
    relators: list[Word] = []
    for v in spec.vertices:
        ls = letters[v]
        for i in range(spec.rank):
            for j in range(i + 1, spec.rank):
                lhs = Word([(ls[i], 1), (ls[j], 1)])
                rhs = Word([(ls[j], 1), (ls[i], 1)])
                relations.append((lhs, rhs))
                relators.append(lhs * rhs.inverse())
    for e in spec.edges:
        src_letters, dst_letters = letters[e.src], letters[e.dst]
        # the inclusions are integral: column c of num is the image of e_c
        for a_col, o_col in zip(zip(*e.alpha.num), zip(*e.omega.num)):
            a_word = vector_word(src_letters, a_col)
            o_word = vector_word(dst_letters, o_col)
            if e.name in spec.spanning_tree:
                relations.append((a_word, o_word))
                relators.append(a_word * o_word.inverse())
            else:
                t = Word([(e.name, 1)])
                lhs = t.inverse() * a_word * t
                relations.append((lhs, o_word))
                relators.append(lhs * o_word.inverse())
    return Presentation(tuple(gens), tuple(relators), tuple(relations))


class BassSerreLocalData(Record):
    """Per-vertex degrees in the Bass-Serre tree and its ends type."""

    degrees: dict
    ends: str  # 'bounded' | 'two-ended (line)' | 'infinitely-many-ends'


def bass_serre_degrees(spec: GoGSpec) -> BassSerreLocalData:
    """Vertex degrees (sums of edge-inclusion indices over incident ends).

    Ends classification: the tree is infinite with some degree >= 3 exactly
    when the group does not fix a point or act as on a line. A graph that
    iteratively collapses along index-1 tree edges to a point gives a finite
    tree (bounded); all-degree-2 gives a line.
    """
    degrees = {v: 0 for v in spec.vertices}
    for e in spec.edges:
        degrees[e.src] += sublattice_index(e.alpha)
        degrees[e.dst] += sublattice_index(e.omega)
    infinite = _tree_is_infinite(spec)
    if not infinite:
        ends = "bounded"
    elif max(degrees.values()) >= 3:
        ends = "infinitely-many-ends"
    else:
        ends = "two-ended (line)"
    return BassSerreLocalData(degrees, ends)


def _tree_is_infinite(spec: GoGSpec) -> bool:
    if spec.loop_edges():
        # any HNN letter acts with unbounded orbits on the tree
        return True
    # pure amalgam along the spanning tree: collapse edges with an index-1
    # side (absorbing that vertex, which multiplies the indices of its other
    # edge ends); the tree is finite iff everything collapses away
    edges = [
        [e.src, e.dst, sublattice_index(e.alpha), sublattice_index(e.omega)]
        for e in spec.edges
    ]
    while edges:
        pick = next((i for i, (_, _, ia, io) in enumerate(edges) if ia == 1 or io == 1), None)
        if pick is None:
            return True
        u, v, ia, io = edges.pop(pick)
        if io == 1:
            keep, gone, factor = u, v, ia
        else:
            keep, gone, factor = v, u, io
        for rec in edges:
            if rec[0] == gone:
                rec[0], rec[2] = keep, rec[2] * factor
            if rec[1] == gone:
                rec[1], rec[3] = keep, rec[3] * factor
    return False


def underlying_rank(spec: GoGSpec) -> int:
    """Free rank of the underlying graph: #edges - #vertices + 1."""
    return len(spec.edges) - len(spec.vertices) + 1

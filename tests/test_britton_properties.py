"""Properties of the one normal-form step, checked on generated words.

The checks of canonicity use ``linalg`` directly (Hermite bases and
residues), not the kernel's own tables. The stable step is checked against
its earlier form, which pushed the lattice part as a vector through the
rational push map; the geodesic search, which skips the step back to each
state's BFS parent and the earlier steps that commute with the step that
reached it, against a plain breadth-first ball that skips nothing.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbsn import britton
from gbsn.britton import GeodesicOracle, _fast_ops, britton_reduce, is_identity, nf_multiply
from gbsn.gog import Edge, GoGSpec, presentation, vertex_letters
from gbsn.holonomy import compute_holonomy, word_image
from gbsn.linalg import QMat, hermite_normal_form, lattice_residue
from gbsn.words import Word, parse_word

from conftest import apply_step, load_spec, naive_ball, one_vertex_specs, word_of_normal_form

RANK3 = GoGSpec.make(
    3,
    ["X"],
    [
        Edge("t", "X", "X", QMat([[2, 0, 0], [0, 1, 0], [0, 0, 1]]), QMat([[1, 0, 0], [1, 3, 0], [0, 0, 1]])),
        Edge("u", "X", "X", QMat.identity(3), QMat([[1, 1, 0], [0, 1, 1], [0, 0, 2]])),
    ],
)
# rank 2, and both Hermite bases have an entry below the diagonal: alpha's
# columns (2, 1), (0, 3) and omega's (1, 1), (0, 2)
SHEAR = GoGSpec.make(
    2, ["X"], [Edge("t", "X", "X", QMat([[2, 0], [1, 3]]), QMat([[1, 0], [1, 2]]))]
)
# Z x BS(1,3): t^-1 a t = a, so a and a^-1 commute with t and t^-1
ZBS13 = GoGSpec.make(2, ["X"], [Edge("t", "X", "X", QMat.identity(2), QMat([[1, 0], [0, 3]]))])
# t pinches against t^-1 after the free vector (2, 1), alpha's first column:
# its pushed part (1, 1), omega's first column, joins the residue (0, 1)
# before t^-1
PINCH_WITH_PUSH = (SHEAR, parse_word("b t^-1 a^2 b"), parse_word("t a"))
SPECS = {name: load_spec(f"{name}.gog") for name in ("specA", "specB", "bs12", "ascend2")}
SPECS["rank3"] = RANK3

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def words_over(spec, max_exp, max_stable_exp=2):
    """Words of up to 8 syllables: vertex letters to |exponent| <= max_exp,
    stable letters to |exponent| <= max_stable_exp."""
    vertex = vertex_letters(spec)[spec.vertices[0]]
    stable = [e.name for e in spec.loop_edges()]
    letter = st.one_of(
        st.tuples(st.sampled_from(vertex), st.integers(-max_exp, max_exp)),
        st.tuples(st.sampled_from(stable), st.integers(-max_stable_exp, max_stable_exp)),
    )
    return st.lists(letter, max_size=8).map(Word)


@st.composite
def spec_and_words(draw):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    word = words_over(spec, 10**5)
    return spec, draw(word), draw(word)


@st.composite
def generated_spec_and_words(draw):
    """A one-vertex spec of rank 1-3 with 1-3 loops and any nonsingular
    inclusions, |x| <= 4: lower-triangular Hermite bases with off-diagonal
    entries and negative determinants, which the data specs lack."""
    spec = draw(one_vertex_specs(max_rank=3, bound=4))
    word = words_over(spec, 50)
    return spec, draw(word), draw(word)


@st.composite
def short_run_words(draw):
    """A data spec or a generated one (rank 1-3, 1-3 loops) and two words
    with vertex exponents to 50 and stable exponents to 3, so that a
    letter-at-a-time fold of them stays cheap."""
    if draw(st.booleans()):
        spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    else:
        spec = draw(one_vertex_specs(max_rank=3, bound=4))
    word = words_over(spec, 50, max_stable_exp=3)
    return spec, draw(word), draw(word)


def letter_at_a_time(spec, start, w):
    """``start`` right-multiplied by ``w`` with one ``apply_step`` per
    single letter: kind 0 with step +-1 for a vertex letter, kind 1 for a
    stable letter. The reference for the fold, which reads runs."""
    ops = _fast_ops(spec)
    s = list(ops.to_flat(start))
    for name, exp in w:
        if name in ops.vletters:
            kind, index = 0, ops.vletters[name]
        else:
            kind, index = 1, ops.loop_index[name]
        for _ in range(abs(exp)):
            apply_step(ops, s, kind, index, 1 if exp > 0 else -1)
    return ops.from_flat(s)


def reference_stable_step(spec, ops, s, index, step):
    """``s`` right-multiplied in place by t_index^step (step +-1) as the
    stable step did it before the integer move maps: the lattice part is
    accumulated as a vector ``lat``, pushed through the integer rows
    ``push`` of the loop edge's push map and divided by its ``den``. The
    push map (``Edge.comparison``, inverted for step -1) and the Hermite
    basis of alpha or omega come from the edge, not from the kernel."""
    n = ops.n
    last = len(s) - n
    e = next(e for e in spec.loop_edges() if e.name == ops.loop_names[index])
    mat = e.comparison() if step == 1 else e.comparison().inverse()
    push, den = mat.num, mat.den
    hnf = hermite_normal_form(e.alpha if step == 1 else e.omega)
    cols = tuple(zip(*hnf.num))
    lat = [0] * n
    for i in range(n):
        q = s[last + i] // cols[i][i]
        for r in range(i, n):
            s[last + r] -= q * cols[i][r]
            lat[r] += q * cols[i][r]
    pos = last - 2
    if pos >= n and s[pos] == index and s[pos + 1] == -step and not any(s[last:]):
        del s[pos:]
    else:
        s += (index, step, *[0] * n)
    last = len(s) - n
    for j in range(n):
        pushed, rem = divmod(sum(push[j][k] * lat[k] for k in range(n)), den)
        assert rem == 0
        s[last + j] += pushed


def affine_image(spec, w):
    """Image of ``w`` in the affine group of Q^n: a vertex letter translates,
    t acts by M^-1 where t^-1 x t = M x. A homomorphism on every spec, so
    unlike ``word_image`` it also sees the vertex vectors; faithful for one
    ascending loop (bs12, ascend2)."""
    n = spec.rank
    letters = vertex_letters(spec)[spec.vertices[0]]
    linear = {}
    for e in spec.loop_edges():
        m = (e.omega * e.alpha.inverse()).inverse()
        linear[e.name] = QMat([list(row) + [0] for row in m.rows] + [[0] * n + [1]])
    image = QMat.identity(n + 1)
    for name, exp in w:
        if name in linear:
            image = image * linear[name] ** exp
        else:
            shift = [list(row) for row in QMat.identity(n + 1).rows]
            shift[letters.index(name)][n] = exp
            image = image * QMat(shift)
    return image


def canonical_violations(spec, nf):
    """Why ``nf`` is not canonical: each vector before a letter t^e must be
    its residue modulo the lattice that passes right through t^e (the
    alpha-image for e = +1, the omega-image for e = -1), and no zero vector
    may sit between t^e and t^-e."""
    lattices = {}
    for e in spec.loop_edges():
        lattices[(e.name, 1)] = hermite_normal_form(e.alpha)
        lattices[(e.name, -1)] = hermite_normal_form(e.omega)
    bad = []
    before = nf.head
    for i, (name, sign, vec) in enumerate(nf.tail):
        if lattice_residue(lattices[(name, sign)], before)[0] != before:
            bad.append(f"entry {i}: {before} before it is not a residue")
        if i + 1 < len(nf.tail) and not any(vec):
            next_name, next_sign, _ = nf.tail[i + 1]
            if next_name == name and next_sign == -sign:
                bad.append(f"entries {i}, {i + 1}: pinchable")
        before = vec
    return bad


@PROPERTY
@given(spec_and_words())
def test_incremental_multiply_matches_whole_word(case):
    spec, u, v = case
    assert nf_multiply(spec, britton_reduce(spec, u), v) == britton_reduce(spec, u * v)


@PROPERTY
@given(short_run_words())
@example(PINCH_WITH_PUSH)
def test_run_fold_matches_letter_at_a_time(case):
    spec, u, v = case
    ops = _fast_ops(spec)
    identity = ops.from_flat(ops.identity())
    assert britton_reduce(spec, v) == letter_at_a_time(spec, identity, v)
    start = letter_at_a_time(spec, identity, u)
    assert nf_multiply(spec, start, v) == letter_at_a_time(spec, start, v)


@PROPERTY
@given(generated_spec_and_words())
@example(PINCH_WITH_PUSH)
def test_stable_step_matches_the_push_map(case):
    # every stable step from the canonical forms of u, u v and v: the
    # integer move map gives what pushing the lattice part through the
    # rational push map gave
    spec, u, v = case
    ops = _fast_ops(spec)
    for w in (u, u * v, v):
        state = ops.to_flat(britton_reduce(spec, w))
        for index in range(len(ops.loop_names)):
            for step in (1, -1):
                got, want = list(state), list(state)
                apply_step(ops, got, 1, index, step)
                reference_stable_step(spec, ops, want, index, step)
                assert got == want


# radius of the plain ball the geodesic search is checked against on
# generated specs, which have up to 12 generator steps
BALL_RADIUS = 4


@PROPERTY
@given(one_vertex_specs(max_rank=3, bound=4))
@example(ZBS13)
def test_search_skips_the_earlier_commuting_steps(spec):
    # after step g the search drops step h exactly when h undoes g, or h
    # comes first and g h and h g are one element; the identity drops none
    oracle = GeodesicOracle(spec)
    ops = oracle.ops
    vertex = vertex_letters(spec)[spec.vertices[0]]
    words = [
        Word([(vertex[index] if kind == 0 else ops.loop_names[index], step)])
        for kind, index, step in oracle.steps
    ]
    assert oracle.after[-1] == tuple((h ^ 1, *s) for h, s in enumerate(oracle.steps))
    for g, word_g in enumerate(words):
        kept = {back ^ 1: rest for back, *rest in oracle.after[g ^ 1]}
        for h, word_h in enumerate(words):
            dropped = h == g ^ 1 or (
                h < g and britton_reduce(spec, word_g * word_h) == britton_reduce(spec, word_h * word_g)
            )
            assert (h not in kept) == dropped
            if h in kept:
                assert tuple(kept[h]) == oracle.steps[h]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(one_vertex_specs(max_rank=3, bound=4))
@example(SPECS["ascend2"])
@example(SPECS["specA"])
def test_geodesic_search_matches_the_plain_ball(spec):
    # the plain ball expands every state by every step; the oracle skips
    # the step back to each state's BFS parent and the earlier steps that
    # commute with the step that reached it, forwards and backwards. Random
    # specs seldom have a stable letter that fixes a basis vector, so the
    # examples are ascend2 and specA, where t and p fix a
    naive = naive_ball.__wrapped__(spec, BALL_RADIUS)
    spheres = [[] for _ in range(BALL_RADIUS + 1)]
    for state, d in naive.items():
        spheres[d].append(state)
    ops = _fast_ops(spec)
    oracle = GeodesicOracle(spec)
    with pytest.MonkeyPatch.context() as mp:
        for d in range(1, BALL_RADIUS + 1):
            # a radius-2d query with cap d grows the ball to depth d exactly
            mp.setattr(britton, "FORWARD_CAP", d)
            oracle._grow_forward(2 * d, None)
            assert oracle.depth == d
            assert oracle.dist == {s: k for s, k in naive.items() if k <= d}
            assert sorted(oracle.frontier) == sorted(spheres[d])
            for state, back in oracle.frontier.items():
                parent = list(state)
                apply_step(ops, parent, *oracle.steps[back])
                assert naive[tuple(parent)] == d - 1
        # backward searches from forward depths 1 and 2, at the boundary
        # radii D - 1 and D
        for cap in (1, 2):
            mp.setattr(britton, "FORWARD_CAP", cap)
            for d, sphere in enumerate(spheres[1:], start=1):
                for state in (sphere[0], sphere[-1]):
                    assert GeodesicOracle(spec).distance(state, d - 1) is None
                    assert GeodesicOracle(spec).distance(state, d) == d


# radius of the plain ball whose states the level routine expands
LEVEL_RADIUS = 3


@settings(derandomize=True, deadline=None, max_examples=30)
@given(one_vertex_specs(max_rank=3, bound=4))
@example(ZBS13)
@example(SPECS["specA"])
def test_level_children_match_the_reference_step(spec):
    # each sphere of the plain ball as one frontier, each state by every
    # step: forward growth and a backward search both give the reference
    # step's children, in order, each with its step back, pinches
    # included. Forward growth's table serves every sphere, so its moves
    # are reused under other heads; a last backward level keeps no child,
    # and a backward level stops at a child in the ball
    naive = naive_ball.__wrapped__(spec, LEVEL_RADIUS)
    oracle = GeodesicOracle(spec)
    ops = oracle.ops
    moves = {}
    pinched = False
    for d in range(LEVEL_RADIUS + 1):
        frontier = {state: -1 for state, k in naive.items() if k == d}
        want = {}
        for state in frontier:
            for back, kind, index, step in oracle.after[-1]:
                child = list(state)
                apply_step(ops, child, kind, index, step)
                pinched |= len(child) < len(state)
                want.setdefault(tuple(child), back)
        assert list(oracle._level(frontier, {}, moves).items()) == list(want.items())
        assert list(oracle._level(frontier, {}, seen=set()).items()) == list(want.items())
        assert oracle._level(frontier, {}) == {}
        assert oracle._level(frontier, dict.fromkeys(list(want)[-1:])) is None
    assert pinched


@PROPERTY
@given(spec_and_words())
def test_normal_form_is_canonical_and_spells_the_word(case):
    spec, u, v = case
    w = u * v
    nf = britton_reduce(spec, w)
    assert canonical_violations(spec, nf) == []
    hd = compute_holonomy(spec)
    respelled = word_of_normal_form(spec, nf)
    assert word_image(hd, respelled) == word_image(hd, w)
    assert affine_image(spec, respelled) == affine_image(spec, w)


@PROPERTY
@given(generated_spec_and_words())
def test_abelian_test_agrees_with_the_normal_form(case):
    # the abelian test answers alone for words with a nonzero image; w c x
    # c^-1 has the image of w x, so x = w^-1 and x = a relator give words
    # with a zero image, which the fold decides
    spec, w, c = case
    relators = presentation(spec).relators
    for x in (w.inverse(), *relators):
        for word in (w, w * c, w * c * x * c.inverse()):
            assert is_identity(spec, word) == britton_reduce(spec, word).is_trivial()
    assert is_identity(spec, w * c * w.inverse() * c.inverse()) == (
        britton_reduce(spec, w * c) == britton_reduce(spec, c * w)
    )


@settings(derandomize=True, deadline=None, max_examples=150)
@given(generated_spec_and_words())
def test_kernel_on_generated_specs(case):
    spec, u, v = case
    hd = compute_holonomy(spec)
    relators = presentation(spec).relators
    w = u * v
    nf = britton_reduce(spec, w)
    assert canonical_violations(spec, nf) == []
    assert nf_multiply(spec, britton_reduce(spec, u), v) == nf
    respelled = word_of_normal_form(spec, nf)
    assert word_image(hd, respelled) == word_image(hd, w)
    assert affine_image(spec, respelled) == affine_image(spec, w)
    # relators, and a product of their conjugates by u and v, are the
    # identity; so the holonomy image of each is I
    loop = Word()
    for i, relator in enumerate(relators):
        conj = (u, v)[i % 2]
        loop = loop * conj * relator * conj.inverse()
    for identity in (*relators, loop):
        assert is_identity(spec, identity)
        assert word_image(hd, identity) == QMat.identity(spec.rank)

"""The distortion window's upper bounds and scaling letter, checked against
the forms they had when spellings were built as words.

``reference_window`` keeps the earlier ``distortion_profile`` spelling as a
``Word`` per power, measured by ``len``, with the scaling letter found on
``QMat.apply`` (Fractions; now ``quadratic_reference.qmat_apply``) and the
analytic constant read off the push maps' ``Fraction`` entries.
``distortion_profile`` counts the same lengths and tests the same scaling
on integer rows. Each spelled word reduces to its power m*v, which is what
lets a window search only below the upper bound; the exact lengths that
search gives are checked against a plain breadth-first ball, in any order of
the powers: a window settles some powers from the lengths it has found
already, by the triangle inequality, and each must be what a search of that
power alone finds.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbsn import britton
from gbsn.britton import NormalForm, _fast_ops, britton_reduce, distortion_profile
from gbsn.gog import Edge, GoGSpec, vertex_letters
from gbsn.linalg import QMat, hermite_normal_form, lattice_residue
from gbsn.words import Word
from conftest import naive_ball
from quadratic_reference import qmat_apply

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
POWERS = range(1, 301)
NONZERO = st.integers(-6, 6).filter(bool)


def reference_find_doubler(ops, spec, vec):
    """Stable letter whose conjugation scales k*vec, the least multiple of
    ``vec`` in its lattice, by an integer lambda with |lambda| >= 2, tested
    on the push maps as ``QMat``s, as (name, sign, lambda, k): the largest
    |lambda|, then lambda > 0, then the least k; and if that letter has
    k > 1, the least bound (2 + |vec|_1 k|lambda|/2) / log|lambda| on the
    spelling's letters per factor e of the power, ties in the same order. k
    is the first multiple up to the lattice's index with a zero residue."""
    edges = {e.name: e for e in spec.loop_edges()}
    best = None
    found = []
    for name in ops.loop_names:
        e = edges[name]
        mat = e.comparison()
        for sign, image_lattice, push in ((1, e.alpha, mat), (-1, e.omega, mat.inverse())):
            image = qmat_apply(push, vec)
            ratios = {image[i] / vec[i] for i in range(len(vec)) if vec[i] != 0}
            if len(ratios) != 1:
                continue
            lam = ratios.pop()
            if lam.denominator != 1 or abs(lam) < 2:
                continue
            if any(image[i] != 0 for i in range(len(vec)) if vec[i] == 0):
                continue
            hnf = hermite_normal_form(image_lattice)
            k = next(k for k in range(1, int(abs(image_lattice.det())) + 1)
                     if not any(lattice_residue(hnf, [k * c for c in vec])[0]))
            lam = int(lam)
            found.append((name, sign, lam, k))
            if best is None or (abs(lam), lam, -k) > (abs(best[2]), best[2], -best[3]):
                best = (name, sign, lam, k)
    if best is not None and best[3] > 1:
        weight = sum(abs(c) for c in vec)
        for name, sign, lam, k in found:
            rate = (2 + weight * k * abs(lam) / 2) / math.log(abs(lam))
            best_rate = (2 + weight * best[3] * abs(best[2]) / 2) / math.log(abs(best[2]))
            if (rate, -abs(lam), -lam, k) < (best_rate, -abs(best[2]), -best[2], best[3]):
                best = (name, sign, lam, k)
    return best


def reference_window(spec, vec, powers):
    """(spellings, doubler, analytic constant, max ratio) with every
    spelling built as a ``Word``, one per power; the ratios are those of a
    window with no exact lengths."""
    ops = _fast_ops(spec)
    doubler = reference_find_doubler(ops, spec, vec)
    memo = {}

    def direct(m):
        return Word((name, m * vec[i]) for name, i in ops.vletters.items())

    def spell(m):
        if m < 0:
            return spell(-m).inverse()
        if m in memo:
            return memo[m]
        best = direct(m)
        if doubler is not None and m >= 2:
            name, sign, lam, k = doubler
            q0, r0 = divmod(m, k * lam)
            branches = [(q0, r0)]
            if r0:
                branches.append((q0 + 1, r0 - k * lam))
            for q, r in branches:
                if abs(q * k) >= m:
                    continue
                cand = Word([(name, -sign)]) * spell(q * k) * Word([(name, sign)]) * direct(r)
                if len(cand) < len(best):
                    best = cand
        memo[m] = best
        return best

    growth = 2.0
    for e in spec.loop_edges():
        for push in (e.comparison(), e.comparison().inverse()):
            growth = max(growth, float(max(abs(x) for row in push.rows for x in row)))
    words = [spell(m) for m in powers]
    ratios = [len(w) / math.log(m) for w, m in zip(words, powers) if m >= 2]
    return words, doubler, growth, max(ratios) if ratios else None


def loop(name, alpha, omega):
    return Edge(name, "X", "X", QMat(alpha), QMat(omega))


@st.composite
def rank1(draw):
    return GoGSpec.make(1, ["X"], [loop("t", [[draw(NONZERO)]], [[draw(NONZERO)]])])


@st.composite
def rank2_diagonal(draw):
    alpha = [[draw(NONZERO), 0], [0, draw(NONZERO)]]
    omega = [[draw(NONZERO), 0], [0, draw(NONZERO)]]
    return GoGSpec.make(2, ["X"], [loop("t", alpha, omega)])


@st.composite
def rank2_shear(draw):
    p, q = draw(NONZERO), draw(NONZERO)
    alpha = [[p, 0], [0, p]]
    omega = [[q, draw(st.integers(-3, 3))], [0, q]]
    return GoGSpec.make(2, ["X"], [loop("t", alpha, omega)])


@st.composite
def bs1n(draw):
    n = draw(st.integers(-6, 6).filter(lambda n: n not in (-1, 0, 1)))
    return GoGSpec.make(1, ["X"], [loop("t", [[1]], [[n]])])


@st.composite
def z_times_bs1n(draw):
    n = draw(st.integers(-5, 5).filter(lambda n: n not in (-1, 0, 1)))
    return GoGSpec.make(2, ["X"], [loop("t", [[1, 0], [0, 1]], [[1, 0], [0, n]])])


@st.composite
def two_loops(draw):
    rank = draw(st.integers(1, 2))
    edges = []
    for name in "tu":
        alpha = [[draw(NONZERO) if i == j else 0 for j in range(rank)] for i in range(rank)]
        omega = [[draw(NONZERO) if i == j else 0 for j in range(rank)] for i in range(rank)]
        edges.append(loop(name, alpha, omega))
    return GoGSpec.make(rank, ["X"], edges)


@st.composite
def spec_and_vector(draw):
    spec = draw(st.one_of(rank1(), rank2_diagonal(), rank2_shear(), z_times_bs1n(), two_loops()))
    vec = draw(
        st.lists(st.integers(-4, 4), min_size=spec.rank, max_size=spec.rank).filter(any)
    )
    return spec, tuple(vec)


# the branches of the scaling test: in BS(2,4) the push map through t
# doubles a, and a is outside t's lattice 2Z, so t scales 2a (k = 2) by 2,
# while a^2 is scaled by t with k = 1; in BS(2,6) the lattice part 2 of a^3
# pushes to 6, twice a^3, but push(6a) = 18a, so t scales k*a^3 with k = 2
# by 3; in BS(2,1) only t^-1 scales a, since t maps 2a to a; of s and t,
# which scale a by -2 and 2, the tie goes to t; and of s and t in
# BS(2,4) with a second loop BS(1,2), both scale a by 2, and t wins with
# k = 1; of s and t in rank1_cyclic, s scales 4a by 2 and t scales 9a by 8,
# and s wins, its spelling costing at most 6 letters a factor 2 against 38
# a factor 8
BS24 = GoGSpec.make(1, ["X"], [loop("t", [[2]], [[4]])])
BS26 = GoGSpec.make(1, ["X"], [loop("t", [[2]], [[6]])])
BS21 = GoGSpec.make(1, ["X"], [loop("t", [[2]], [[1]])])
TIE = GoGSpec.make(1, ["X"], [loop("s", [[1]], [[-2]]), loop("t", [[1]], [[2]])])
TIE_K = GoGSpec.make(1, ["X"], [loop("s", [[2]], [[4]]), loop("t", [[1]], [[2]])])
CYCLIC = GoGSpec.make(1, ["X"], [loop("s", [[4]], [[8]]), loop("t", [[9]], [[72]])])


@PROPERTY
@given(spec_and_vector())
@example((BS24, (1,)))
@example((BS24, (2,)))
@example((BS26, (3,)))
@example((BS21, (1,)))
@example((TIE, (1,)))
@example((TIE_K, (1,)))
@example((TIE_K, (3,)))
@example((CYCLIC, (1,)))
def test_window_matches_spelled_words(case):
    spec, vec = case
    names = vertex_letters(spec)[spec.vertices[0]]
    element = Word((names[i], c) for i, c in enumerate(vec))
    profile = distortion_profile(spec, element, POWERS, bfs_cap=0)
    words, doubler, growth, max_ratio = reference_window(spec, vec, POWERS)
    assert [e.upper_bound for e in profile.entries] == [len(w) for w in words]
    # the premise of the exact lengths: each counted spelling is a word for
    # m*v, so no search past its length is needed
    for m, w in zip(POWERS, words):
        assert britton_reduce(spec, w) == NormalForm(tuple(m * c for c in vec), ())
    assert all(e.exact_length is None for e in profile.entries)
    assert profile.doubling_letter == (doubler[0] if doubler else None)
    assert profile.doubling_factor == (doubler[2] if doubler else None)
    assert profile.doubling_multiple == (doubler[3] if doubler else None)
    assert profile.analytic_constant == growth
    assert profile.max_ratio == max_ratio


# largest bfs_cap of the exactness property, and the radius of its naive ball
EXACT_CAP = 7


@st.composite
def small_windows(draw):
    """A rank-1 BS(p, q), a BS(1, n) or a Z x BS(1, n), a vertex vector and
    a bfs_cap from 4 up, so that most windows have exact lengths, some of
    them below the upper bound. BS(1, n), negative n included, is drawn as
    often as the other shapes, since independent p and q seldom give it."""
    spec = draw(st.one_of(rank1(), bs1n(), z_times_bs1n()))
    vec = draw(
        st.lists(st.integers(-6, 6), min_size=spec.rank, max_size=spec.rank).filter(any)
    )
    return spec, tuple(vec), draw(st.integers(4, EXACT_CAP))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_windows())
def test_exact_lengths_match_the_naive_ball(case):
    # the search goes to ub - 1 and the spelling certifies ub, so every
    # exact length is the distance in a plain breadth-first ball
    spec, vec, cap = case
    ops = _fast_ops(spec)
    ball = naive_ball(spec, EXACT_CAP)
    names = vertex_letters(spec)[spec.vertices[0]]
    element = Word((names[i], c) for i, c in enumerate(vec))
    profile = distortion_profile(spec, element, range(1, 17), bfs_cap=cap)
    for e in profile.entries:
        if e.upper_bound > cap:
            assert e.exact_length is None
        else:
            target = NormalForm(tuple(e.power * c for c in vec), ())
            assert e.exact_length == ball[ops.to_flat(target)]


@st.composite
def shuffled_windows(draw):
    """A small window with its powers 1..16 in any order, some of them
    repeated, and a forward cap of 0 to 3 levels, so that the window tests
    its powers against each other rather than its ball answering them all
    by a lookup."""
    spec, vec, cap = draw(small_windows())
    repeats = draw(st.lists(st.integers(1, 16), max_size=8))
    return spec, vec, cap, draw(st.permutations([*range(1, 17), *repeats])), draw(st.integers(0, 3))


# in BS(1,-6), a^5 has length 4, below its spelled bound 5, and with no
# forward ball the window tests it against the longer powers near it
BS1_MINUS6 = GoGSpec.make(1, ["X"], [loop("t", [[1]], [[-6]])])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(shuffled_windows())
@example((BS1_MINUS6, (5,), 7, [*range(16, 0, -1), 1], 0))
def test_any_order_matches_each_power_alone(case):
    # powers settled by the triangle inequality from longer ones, in
    # whatever order they come, have the lengths of the window in order, of
    # the naive ball and of each power searched alone on a fresh store
    spec, vec, cap, powers, forward = case
    ops = _fast_ops(spec)
    ball = naive_ball(spec, EXACT_CAP)
    names = vertex_letters(spec)[spec.vertices[0]]
    element = Word((names[i], c) for i, c in enumerate(vec))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(britton, "FORWARD_CAP", forward)
        britton._kept.clear()
        in_order = distortion_profile(spec, element, range(1, 17), bfs_cap=cap).entries
        britton._kept.clear()
        profile = distortion_profile(spec, element, powers, bfs_cap=cap)
        assert [e.power for e in profile.entries] == powers
        for e in profile.entries:
            assert e == in_order[e.power - 1]
            if e.exact_length is not None:
                target = NormalForm(tuple(e.power * c for c in vec), ())
                assert e.exact_length == ball[ops.to_flat(target)]
        for e in in_order:
            britton._kept.clear()
            assert distortion_profile(spec, element, [e.power], bfs_cap=cap).entries == (e,)
    britton._kept.clear()  # no ball of a lowered cap is left for later tests

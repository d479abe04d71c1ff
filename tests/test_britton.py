import random
from functools import lru_cache
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn.britton import (
    FORWARD_BALL_STATES,
    GeodesicOracle,
    NormalForm,
    UnsupportedSpecError,
    _fast_ops,
    britton_reduce,
    distortion_profile,
    geodesic_length,
    is_identity,
    nf_multiply,
)
from gbsn.gog import Edge, GoGSpec, presentation, vertex_letters
from gbsn.holonomy import compute_holonomy, word_image
from gbsn.linalg import QMat, ZMat
from gbsn.words import Word, parse_word

from conftest import load_spec, naive_ball, word_of_normal_form

# radius of the naive ball each spec's geodesic answers are checked against
NAIVE_RADIUS = {"bs12": 10, "ascend2": 10, "specB": 6, "specA": 7}
NAIVE_SPECS = {name: load_spec(f"{name}.gog") for name in NAIVE_RADIUS}


def random_word(rng, letters, max_len=10, max_exp=2):
    choices = [e for e in range(-max_exp, max_exp + 1) if e]
    return Word(
        (rng.choice(letters), rng.choice(choices)) for _ in range(rng.randint(0, max_len))
    )


class TestBrittonReduce:
    def test_doubling_relation(self, spec_a):
        assert britton_reduce(spec_a, parse_word("h^-1 a h")) == NormalForm((2, 0), ())

    def test_shear_relation(self, spec_a):
        assert britton_reduce(spec_a, parse_word("p^-1 b p")) == NormalForm((1, 1), ())

    def test_refused_pinch(self, spec_a):
        nf = britton_reduce(spec_a, parse_word("h^-1 b h"))
        assert nf == NormalForm((0, 0), (("h", -1, (0, 1)), ("h", 1, (0, 0))))
        assert str(nf) == "h^-1 (0,1) h"

    def test_power_law(self, spec_a):
        for k in range(0, 11):
            nf = britton_reduce(spec_a, parse_word(f"h^{-k} a h^{k}"))
            assert nf == NormalForm((2 ** k, 0), ())

    def test_unknown_letter(self, spec_a):
        with pytest.raises(KeyError):
            britton_reduce(spec_a, Word([("z", 1)]))

    def test_multi_vertex_unsupported(self):
        spec = GoGSpec.make(
            1,
            ["X", "Y"],
            [
                Edge("f", "X", "Y", ZMat([[2]]), ZMat([[3]])),
                Edge("t", "X", "X", ZMat([[1]]), ZMat([[2]])),
            ],
        )
        with pytest.raises(UnsupportedSpecError):
            britton_reduce(spec, parse_word("t"))

    def test_incremental_multiply_agrees(self, spec_b):
        rng = random.Random(13)
        letters = ["a", "b", "h", "p", "e"]
        identity = NormalForm((0, 0), ())
        for _ in range(150):
            w = random_word(rng, letters)
            assert nf_multiply(spec_b, identity, w) == britton_reduce(spec_b, w)

    def test_respelled_normal_form_is_equal_in_group(self, spec_a):
        # soundness of every rewriting step: the canonical form respelled as
        # a word is the same group element, checked both through the word
        # problem and through the holonomy image
        rng = random.Random(29)
        hd = compute_holonomy(spec_a)
        letters = ["a", "b", "h", "p"]
        for _ in range(80):
            w = random_word(rng, letters)
            nf = britton_reduce(spec_a, w)
            respelled = word_of_normal_form(spec_a, nf)
            assert is_identity(spec_a, w * respelled.inverse())
            assert word_image(hd, w) == word_image(hd, respelled)


class TestIsIdentity:
    def test_commutator_of_vertex_letters(self, spec_a):
        assert is_identity(spec_a, parse_word("a b a^-1 b^-1"))

    def test_stable_letters_do_not_commute(self, spec_a):
        w = parse_word("h p h^-1 p^-1")
        assert not is_identity(spec_a, w)
        # certified independently by the holonomy image
        hd = compute_holonomy(spec_a)
        assert word_image(hd, w) == QMat([[1, 3], [0, 1]])

    def test_relators_reduce_to_identity(self, spec_a, spec_b):
        for spec in (spec_a, spec_b):
            for relator in presentation(spec).relators:
                assert is_identity(spec, relator)

    def test_uu_inverse_random(self, spec_b):
        rng = random.Random(7)
        letters = ["a", "b", "h", "p", "e"]
        for _ in range(200):
            u = random_word(rng, letters)
            assert is_identity(spec_b, u * u.inverse())

    def test_canonical_form_separates_elements(self, spec_a):
        rng = random.Random(19)
        letters = ["a", "b", "h", "p"]
        for _ in range(150):
            w1 = random_word(rng, letters, max_len=6)
            w2 = random_word(rng, letters, max_len=6)
            same_form = britton_reduce(spec_a, w1) == britton_reduce(spec_a, w2)
            assert same_form == is_identity(spec_a, w1 * w2.inverse())

    def test_identity_implies_trivial_holonomy_image(self, spec_a):
        rng = random.Random(43)
        hd = compute_holonomy(spec_a)
        letters = ["a", "b", "h", "p"]
        for _ in range(100):
            u = random_word(rng, letters, max_len=5)
            w = u * u.inverse()
            assert is_identity(spec_a, w)
            assert word_image(hd, w) == QMat.identity(2)


class TestGeodesics:
    def test_empty_word(self, spec_a):
        assert geodesic_length(spec_a, Word(), 5) == 0

    def test_a_fourth(self, spec_a):
        # no spelling shorter than a a a a; the rewriting h^-1 a^2 h costs 5
        assert geodesic_length(spec_a, parse_word("a^4"), 8) == 4

    def test_a_sixteenth(self, spec_a):
        # h^-4 a h^4 gives 9; the true geodesic h^-2 a^4 h^2 has length 8
        d = geodesic_length(spec_a, parse_word("a^16"), 12)
        assert d <= 9
        assert d == 8

    def test_exceeds_radius(self, spec_a):
        assert geodesic_length(spec_a, parse_word("a^16"), 4) == "exceeds radius"

    @pytest.mark.parametrize(
        "fixture, letters, radius",
        [("spec_a", "abhp", 7), ("spec_b", "abhpe", 6), ("spec_bs12", "at", 10)],
        ids=["specA", "specB", "bs12"],
    )
    def test_matches_naive_bfs(self, request, fixture, letters, radius):
        # bidirectional meeting is exact: compare with a plain forward ball
        # grown by the same normal-form step
        spec = request.getfixturevalue(fixture)
        ops = _fast_ops(spec)
        naive = naive_ball(spec, radius)

        rng = random.Random(3)
        for _ in range(40):
            w = random_word(rng, list(letters), max_len=radius + 2, max_exp=1)
            target = britton_reduce(spec, w)
            oracle = GeodesicOracle(spec, forward_cap=3)
            assert oracle.distance(target, radius) == naive.get(ops.to_flat(target))

    def test_triangle_inequality(self, spec_a):
        rng = random.Random(59)
        letters = ["a", "b", "h", "p"]
        oracle = GeodesicOracle(spec_a, forward_cap=6)
        for _ in range(40):
            u = random_word(rng, letters, max_len=4, max_exp=1)
            v = random_word(rng, letters, max_len=4, max_exp=1)
            du = oracle.distance(britton_reduce(spec_a, u), 12)
            dv = oracle.distance(britton_reduce(spec_a, v), 12)
            duv = oracle.distance(britton_reduce(spec_a, u * v), 12)
            if None not in (du, dv, duv):
                assert duv <= du + dv


def assert_complete_levels(oracle, naive):
    """The oracle's ball is the naive ball cut at its depth, and its
    frontier is the sphere at that depth."""
    depth = oracle.depth
    assert oracle.dist == {s: d for s, d in naive.items() if d <= depth}
    assert sorted(oracle.frontier) == sorted(s for s, d in naive.items() if d == depth)


@lru_cache(maxsize=None)
def naive_spheres(name):
    """The states of a spec's naive ball, listed by distance."""
    spheres = [[] for _ in range(NAIVE_RADIUS[name] + 1)]
    for state, d in naive_ball(NAIVE_SPECS[name], NAIVE_RADIUS[name]).items():
        spheres[d].append(state)
    return spheres


@st.composite
def geodesic_queries(draw):
    """A spec, a forward cap and a short sequence of (word, radius) queries.

    A query is a random word at a random radius, or spells a state drawn
    from a sphere of the naive ball, so that every distance up to the
    ball's radius comes up, at a radius from one below its distance."""
    name = draw(st.sampled_from(sorted(NAIVE_RADIUS)))
    spec = NAIVE_SPECS[name]
    ops = _fast_ops(spec)
    spheres = naive_spheres(name)
    letters = list(vertex_letters(spec)[spec.vertices[0]]) + [e.name for e in spec.loop_edges()]
    top = NAIVE_RADIUS[name]
    letter = st.tuples(st.sampled_from(letters), st.sampled_from([1, -1]))

    def on_sphere(d):
        word = st.sampled_from(spheres[d]).map(lambda s: word_of_normal_form(spec, ops.from_flat(s)))
        return st.tuples(word, st.integers(max(d - 1, 0), top))

    query = st.one_of(
        st.tuples(st.lists(letter, max_size=top + 2).map(Word), st.integers(0, top)),
        st.integers(0, top).flatmap(on_sphere),
    )
    queries = draw(st.lists(query, min_size=1, max_size=4))
    return name, draw(st.sampled_from((1, 2, 3, 4, 8))), queries


class Interrupt(BaseException):
    pass


class InterruptingOps:
    """The spec's normal-form operations, raising ``Interrupt`` from the
    ``calls``-th ``apply`` on, as a time limit or ^C would."""

    def __init__(self, ops, calls):
        self.ops = ops
        self.calls = calls

    def __getattr__(self, name):
        return getattr(self.ops, name)

    def apply(self, *args):
        self.calls -= 1
        if self.calls <= 0:
            raise Interrupt
        return self.ops.apply(*args)


class TestGeodesicOracle:
    @given(geodesic_queries())
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_reused_oracle_in_any_query_order(self, case):
        # one oracle answers the drawn queries in order, as distortion_profile
        # reuses its oracle; its ball depth depends on the queries before
        name, cap, queries = case
        spec = NAIVE_SPECS[name]
        naive = naive_ball(spec, NAIVE_RADIUS[name])
        ops = _fast_ops(spec)
        oracle = GeodesicOracle(spec, forward_cap=cap)
        for word, radius in queries:
            target = britton_reduce(spec, word)
            d = naive.get(ops.to_flat(target))
            assert oracle.distance(target, radius) == (d if d is not None and d <= radius else None)
            assert_complete_levels(oracle, naive)

    @pytest.mark.parametrize("calls", [3, 40, 700, 4000])
    def test_interrupted_level_is_undone(self, spec_a, calls):
        # an exception in the middle of a level leaves the complete levels
        # only, and the same oracle still answers exactly afterwards
        naive = naive_ball(spec_a, 7)
        target = britton_reduce(spec_a, parse_word("a^16"))
        oracle = GeodesicOracle(spec_a)
        ops = oracle.ops
        oracle.ops = InterruptingOps(ops, calls)
        with pytest.raises(Interrupt):
            oracle.distance(target, 8)
        oracle.ops = ops
        assert_complete_levels(oracle, naive)
        assert oracle.depth < 5
        assert oracle.distance(target, 8) == 8
        assert_complete_levels(oracle, naive)

    @pytest.mark.parametrize("name", sorted(NAIVE_RADIUS))
    def test_every_distance_and_cap(self, name):
        # the boundary radii D - 1 and D for a state of each sphere, with
        # forward depths from 2 up, so backward searches of up to 8 levels
        spec = NAIVE_SPECS[name]
        ops = _fast_ops(spec)
        for cap in range(2, 9):
            for d, sphere in enumerate(naive_spheres(name)):
                target = ops.from_flat(sphere[-1])
                if d:
                    assert GeodesicOracle(spec, forward_cap=cap).distance(target, d - 1) is None
                assert GeodesicOracle(spec, forward_cap=cap).distance(target, d) == d

    def test_large_ball_stops_at_budget(self, spec_a):
        # ceil(8/2) = 4 levels, then one more while under the budget
        oracle = GeodesicOracle(spec_a)
        assert oracle.distance(britton_reduce(spec_a, parse_word("a^16")), 8) == 8
        assert (oracle.depth, len(oracle.dist)) == (5, 6539)
        assert len(oracle.dist) >= FORWARD_BALL_STATES
        assert_complete_levels(oracle, naive_ball(spec_a, 7))

    def test_small_ball_grows_to_cap(self, spec_bs12):
        oracle = GeodesicOracle(spec_bs12)
        assert oracle.distance(britton_reduce(spec_bs12, parse_word("a^16")), 10) == 8
        assert (oracle.depth, len(oracle.dist)) == (8, 1317)
        assert_complete_levels(oracle, naive_ball(spec_bs12, 10))


class TestDistortion:
    def test_upper_bound_for_powers_of_two(self, spec_a):
        # iterating the doubling relation gives |a^(2^k)| <= 2k + 1; the
        # greedy speller may do one step better (h^-9 a^2 h^9 has length 20)
        prof = distortion_profile(spec_a, parse_word("a"), [2 ** 10], bfs_cap=0)
        assert prof.entries[0].upper_bound <= 21
        assert prof.doubling_letter == "h"
        assert prof.doubling_factor == 2

    def test_power_one(self, spec_a):
        prof = distortion_profile(spec_a, parse_word("a"), [1])
        assert prof.entries[0].exact_length == 1

    def test_window_ratios_bounded(self, spec_a):
        prof = distortion_profile(spec_a, parse_word("a"), range(2, 65), bfs_cap=16)
        assert all(e.exact_length is not None for e in prof.entries)
        assert all(e.exact_length <= e.upper_bound for e in prof.entries)
        assert prof.max_ratio <= 6

    def test_no_doubler_means_trivial_spelling(self):
        spec = GoGSpec.make(
            2,
            ["X"],
            [Edge("e", "X", "X", ZMat.identity(2), ZMat([[0, 1], [-1, 0]]))],
        )
        prof = distortion_profile(spec, parse_word("a"), [8], bfs_cap=0)
        assert prof.doubling_letter is None
        assert prof.entries[0].upper_bound == 8

    def test_zero_element_rejected(self, spec_a):
        with pytest.raises(ValueError):
            distortion_profile(spec_a, Word(), [2])

    def test_analytic_lower_bound_formula(self, spec_a):
        import math

        prof = distortion_profile(spec_a, parse_word("a"), [4])
        assert prof.analytic_constant == 2.0
        assert prof.analytic_lower_bound(1024) == pytest.approx(math.log(1024) / math.log(2))

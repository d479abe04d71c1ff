import random
import sys
import threading
import tracemalloc
from functools import lru_cache
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbsn import britton
from gbsn.britton import (
    FORWARD_BALL_STATES,
    GeodesicOracle,
    NormalForm,
    UnsupportedSpecError,
    _FastOps,
    _fast_ops,
    britton_reduce,
    distortion_profile,
    geodesic_length,
    is_identity,
    nf_multiply,
)
from gbsn.gog import Edge, GoGSpec, presentation, vertex_letters
from gbsn.holonomy import compute_holonomy, word_image
from gbsn.linalg import QMat
from gbsn.words import Word, parse_word

from conftest import load_spec, naive_ball, time_budget, word_of_normal_form

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

    def test_lattice_part_moves_right(self, spec_a):
        # a lies in h's alpha-image and passes through h as t^-1 a t = a^2;
        # only the last vector is free
        assert britton_reduce(spec_a, parse_word("a h")) == NormalForm((0, 0), (("h", 1, (2, 0)),))

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

    @pytest.mark.parametrize("letters", [[("a", 5), ("z", 1)], [("h", 1), ("z", -2)]])
    def test_unknown_letter_after_a_run(self, spec_a, letters):
        with pytest.raises(KeyError):
            britton_reduce(spec_a, Word(letters))

    def test_empty_word(self, spec_a):
        identity = NormalForm((0, 0), ())
        assert britton_reduce(spec_a, Word()) == identity
        assert is_identity(spec_a, Word())
        nf = britton_reduce(spec_a, parse_word("h^-1 b h"))
        assert nf_multiply(spec_a, nf, Word()) == nf

    def test_multi_vertex_unsupported(self):
        spec = GoGSpec.make(
            1,
            ["X", "Y"],
            [
                Edge("f", "X", "Y", QMat([[2]]), QMat([[3]])),
                Edge("t", "X", "X", QMat([[1]]), QMat([[2]])),
            ],
        )
        with pytest.raises(UnsupportedSpecError):
            britton_reduce(spec, parse_word("t"))

    @pytest.mark.parametrize("nf", [
        NormalForm((1,), ()),
        NormalForm((0, 0), (("h", 1, (0,)),)),
        NormalForm((0, 0), (("z", 1, (0, 0)),)),
        NormalForm((0, 0), (("h", 2, (0, 0)),)),
    ])
    def test_malformed_form_refused(self, spec_a, nf):
        with pytest.raises(ValueError):
            nf_multiply(spec_a, nf, parse_word("a"))
        with pytest.raises(ValueError):
            GeodesicOracle(spec_a).distance(nf, 4)

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

    @pytest.mark.parametrize("n", [1, 10**5])
    def test_stable_run_between_long_vertex_runs(self, spec_bs12, n):
        # t^-3 a^n t^3 = a^(8n): a stable run of length 3 next to vertex runs
        assert is_identity(spec_bs12, parse_word(f"t^-3 a^{n} t^3 a^-{8 * n}"))
        assert not is_identity(spec_bs12, parse_word(f"t^-3 a^{n} t^3 a^-{8 * n - 1}"))
        assert not is_identity(spec_bs12, parse_word(f"t^-2 a^{n} t^3 a^-{8 * n}"))

    def test_long_vertex_runs_within_budget(self, spec_bs12):
        # t^-1 a t = a^2; the fold still walks every letter of a vertex run
        # (at C speed), so this guards a cost linear in N
        n = 10**6
        with time_budget(2):
            assert is_identity(spec_bs12, parse_word(f"t^-1 a^{n} t a^-{2 * n}"))
            assert is_identity(spec_bs12, parse_word(f"t a^{2 * n} t^-1 a^-{n}"))

    def test_long_vertex_runs_within_memory(self, spec_bs12):
        # the fold counts a run as it streams by; a fold that kept a run's
        # letters would need about 8 MB here
        n = 10**6
        w = parse_word(f"t^-1 a^{n} t a^-{2 * n}")
        is_identity(spec_bs12, parse_word("t"))  # builds the spec's tables
        tracemalloc.start()
        try:
            assert is_identity(spec_bs12, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

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
    def test_matches_naive_bfs(self, request, monkeypatch, fixture, letters, radius):
        # bidirectional meeting is exact: compare with a plain forward ball
        # grown by the same normal-form step
        monkeypatch.setattr(britton, "FORWARD_CAP", 3)
        spec = request.getfixturevalue(fixture)
        ops = _fast_ops(spec)
        naive = naive_ball(spec, radius)

        rng = random.Random(3)
        for _ in range(40):
            w = random_word(rng, list(letters), max_len=radius + 2, max_exp=1)
            target = britton_reduce(spec, w)
            oracle = GeodesicOracle(spec)
            assert oracle.distance(target, radius) == naive.get(ops.to_flat(target))

    def test_triangle_inequality(self, spec_a, monkeypatch):
        monkeypatch.setattr(britton, "FORWARD_CAP", 6)
        rng = random.Random(59)
        letters = ["a", "b", "h", "p"]
        oracle = GeodesicOracle(spec_a)
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


def assert_complete_levels_of_kept():
    for spec, oracle in britton._kept.items():
        name = next(n for n, s in NAIVE_SPECS.items() if s == spec)
        assert_complete_levels(oracle, naive_ball(spec, NAIVE_RADIUS[name]))


@lru_cache(maxsize=None)
def naive_spheres(name):
    """The states of a spec's naive ball, listed by distance."""
    spheres = [[] for _ in range(NAIVE_RADIUS[name] + 1)]
    for state, d in naive_ball(NAIVE_SPECS[name], NAIVE_RADIUS[name]).items():
        spheres[d].append(state)
    return spheres


def spec_queries(name):
    """(word, radius) queries on one spec.

    A query is a random word at a random radius, or spells a state drawn
    from a sphere of the naive ball, so that every distance up to the
    ball's radius comes up, at a radius from one below its distance."""
    spec = NAIVE_SPECS[name]
    ops = _fast_ops(spec)
    spheres = naive_spheres(name)
    letters = list(vertex_letters(spec)[spec.vertices[0]]) + [e.name for e in spec.loop_edges()]
    top = NAIVE_RADIUS[name]
    letter = st.tuples(st.sampled_from(letters), st.sampled_from([1, -1]))

    def on_sphere(d):
        word = st.sampled_from(spheres[d]).map(lambda s: word_of_normal_form(spec, ops.from_flat(s)))
        return st.tuples(word, st.integers(max(d - 1, 0), top))

    return st.one_of(
        st.tuples(st.lists(letter, max_size=top + 2).map(Word), st.integers(0, top)),
        st.integers(0, top).flatmap(on_sphere),
    )


@st.composite
def geodesic_queries(draw):
    """A spec, a forward cap and a short sequence of its queries."""
    name = draw(st.sampled_from(sorted(NAIVE_RADIUS)))
    queries = draw(st.lists(spec_queries(name), min_size=1, max_size=4))
    return name, draw(st.sampled_from((1, 2, 3, 4, 8))), queries


@st.composite
def store_sessions(draw):
    """A small store bound and queries that interleave the four specs."""
    bound = draw(st.sampled_from((300, 1500, 5000)))
    name = st.sampled_from(sorted(NAIVE_RADIUS))
    query = name.flatmap(lambda n: st.tuples(st.just(n), spec_queries(n)))
    return bound, draw(st.lists(query, min_size=1, max_size=6))


def expected_length(name, word, radius):
    """geodesic_length's answer, read off the naive ball."""
    spec = NAIVE_SPECS[name]
    state = _fast_ops(spec).to_flat(britton_reduce(spec, word))
    d = naive_ball(spec, NAIVE_RADIUS[name]).get(state)
    return d if d is not None and d <= radius else "exceeds radius"


def kept_states():
    return sum(len(oracle.dist) for oracle in britton._kept.values())


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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(britton, "FORWARD_CAP", cap)
            oracle = GeodesicOracle(spec)
            for word, radius in queries:
                target = britton_reduce(spec, word)
                d = naive.get(ops.to_flat(target))
                assert oracle.distance(target, radius) == (d if d is not None and d <= radius else None)
                assert_complete_levels(oracle, naive)

    @given(geodesic_queries())
    @example(("specB", 8, [(parse_word("a^8"), 6)]))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_fresh_ball_within_its_bound(self, case):
        # one query on a fresh oracle has no credit, so past the forced
        # depth min(ceil(r/2), cap) the ball stays within the budget
        name, cap, queries = case
        spec = NAIVE_SPECS[name]
        naive = naive_ball(spec, NAIVE_RADIUS[name])
        ops = _fast_ops(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(britton, "FORWARD_CAP", cap)
            for word, radius in queries:
                oracle = GeodesicOracle(spec)
                target = britton_reduce(spec, word)
                d = naive.get(ops.to_flat(target))
                assert oracle.distance(target, radius) == (d if d is not None and d <= radius else None)
                forced = sum(map(len, naive_spheres(name)[:min(-(-radius // 2), cap) + 1]))
                assert len(oracle.dist) <= max(forced, FORWARD_BALL_STATES)

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
    def test_every_distance_and_cap(self, name, monkeypatch):
        # the boundary radii D - 1 and D for a state of each sphere, with
        # forward depths from 2 up, so backward searches of up to 8 levels
        spec = NAIVE_SPECS[name]
        ops = _fast_ops(spec)
        for cap in range(2, 9):
            monkeypatch.setattr(britton, "FORWARD_CAP", cap)
            for d, sphere in enumerate(naive_spheres(name)):
                target = ops.from_flat(sphere[-1])
                if d:
                    assert GeodesicOracle(spec).distance(target, d - 1) is None
                assert GeodesicOracle(spec).distance(target, d) == d

    def test_target_at_the_last_backward_level(self, monkeypatch):
        # with a forward ball of depth 2, a radius-r query searches r - 2
        # backward levels; the last one only tests its children against
        # the ball, yet finds a target that meets the ball there, and one
        # level further is past the radius
        monkeypatch.setattr(britton, "FORWARD_CAP", 2)
        spec = NAIVE_SPECS["bs12"]
        target = _fast_ops(spec).from_flat(naive_spheres("bs12")[7][0])
        for radius, answer in ((7, 7), (6, None), (3, None)):
            oracle = GeodesicOracle(spec)
            assert oracle.distance(target, radius) == answer
            assert oracle.depth == 2
        # the one backward level of the radius-3 query is its last, and its
        # frontier, the target alone, still counts towards the next level
        assert oracle.spent == 1

    def test_large_ball_stops_at_budget(self):
        # ceil(r/2) levels; the next could take the ball past the budget,
        # with up to k - 1 new states per frontier state, so it is not built
        for name, word, radius, ball in (("specA", "a^16", 8, (4, 1433)),
                                         ("specB", "a^8", 6, (3, 579))):
            spec = NAIVE_SPECS[name]
            oracle = GeodesicOracle(spec)
            assert oracle.distance(britton_reduce(spec, parse_word(word)), radius) == radius
            assert (oracle.depth, len(oracle.dist)) == ball
            k = len(oracle.steps)
            assert len(oracle.dist) + (k - 1) * len(oracle.frontier) > FORWARD_BALL_STATES
            assert_complete_levels(oracle, naive_ball(spec, NAIVE_RADIUS[name]))

    @pytest.mark.parametrize("kept", [3000, 6539, 20000, 1 << 16])
    def test_backward_searches_pay_for_one_level(self, spec_a, monkeypatch, kept):
        # specA's fifth level (6,539 states, bounded by 1,433 + 7 * 1,132)
        # is past the budget, so the oracle builds it only once backward
        # searches have expanded 1,132 states, the size of its frontier, and
        # only if the store would keep it; the credit then starts again
        monkeypatch.setattr(britton, "KEPT_BALL_STATES", kept)
        naive = naive_ball(spec_a, 7)
        oracle = GeodesicOracle(spec_a)
        grown = 0
        for state in naive_spheres("specA")[7][:40]:
            depth, paid = oracle.depth, oracle.spent >= len(oracle.frontier)
            bound = len(oracle.dist) + 7 * len(oracle.frontier)
            assert oracle.distance(oracle.ops.from_flat(state), 7) == 7
            if depth < 4:
                assert oracle.depth == 4
            elif paid and bound <= kept:
                assert oracle.depth == depth + 1
                assert len(oracle.dist) <= kept
                grown += 1
            else:
                assert oracle.depth == depth
        assert (grown, oracle.depth) == ((1, 5) if kept >= 1433 + 7 * 1132 else (0, 4))
        assert oracle.spent >= 1132 or grown  # credit was there, unspent
        assert_complete_levels(oracle, naive)

    def test_small_ball_grows_to_cap(self, spec_bs12):
        oracle = GeodesicOracle(spec_bs12)
        assert oracle.distance(britton_reduce(spec_bs12, parse_word("a^16")), 10) == 8
        assert (oracle.depth, len(oracle.dist)) == (8, 1317)
        assert_complete_levels(oracle, naive_ball(spec_bs12, 10))

    def test_stops_at_the_targets_level(self, spec_bs12):
        # the first complete level that holds the target is its distance, so
        # a radius-8 query for a state at distance 3 builds three levels only
        target = _fast_ops(spec_bs12).from_flat(naive_spheres("bs12")[3][0])
        oracle = GeodesicOracle(spec_bs12)
        assert oracle.distance(target, 8) == 3
        assert oracle.depth == 3
        assert_complete_levels(oracle, naive_ball(spec_bs12, 10))


class TestOracleStore:
    @given(store_sessions())
    @settings(derandomize=True, deadline=None, max_examples=30)
    def test_interleaved_specs_within_a_small_bound(self, session):
        bound, queries = session
        britton._kept.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(britton, "KEPT_BALL_STATES", bound)
            for name, (word, radius) in queries:
                answer = geodesic_length(NAIVE_SPECS[name], word, radius)
                assert answer == expected_length(name, word, radius)
                assert kept_states() <= bound
                assert_complete_levels_of_kept()

    def test_least_recent_evicted_and_oversized_dropped(self, spec_bs12, spec_ascend2, spec_a,
                                                        monkeypatch):
        monkeypatch.setattr(britton, "KEPT_BALL_STATES", 3000)
        a16 = parse_word("a^16")
        assert geodesic_length(spec_bs12, a16, 10) == 8  # 1,317 states
        first = britton._kept[spec_bs12]
        near = word_of_normal_form(spec_ascend2, _fast_ops(spec_ascend2).from_flat(
            naive_spheres("ascend2")[3][0]))
        assert geodesic_length(spec_ascend2, near, 8) == 3  # 89 states
        assert geodesic_length(spec_bs12, a16, 10) == 8
        assert list(britton._kept) == [spec_ascend2, spec_bs12]
        assert britton._kept[spec_bs12] is first  # reused, not rebuilt
        far = word_of_normal_form(spec_ascend2, _fast_ops(spec_ascend2).from_flat(
            naive_spheres("ascend2")[7][0]))
        assert geodesic_length(spec_ascend2, far, 8) == 7  # 2,161 states: bs12 goes
        assert list(britton._kept) == [spec_ascend2]
        assert len(britton._kept[spec_ascend2].dist) == 2161
        assert geodesic_length(spec_a, a16, 10) == 8  # ceil(10/2): 6,539 states, not kept
        assert list(britton._kept) == [spec_ascend2]
        assert kept_states() == 2161

    @pytest.mark.parametrize("calls", [3, 40, 700, 4000])
    def test_interrupted_query_keeps_complete_levels(self, spec_a, monkeypatch, calls):
        naive = naive_ball(spec_a, 7)
        target = parse_word("a^16")
        real_apply = _FastOps.apply
        left = [calls]

        def apply(self, *args):
            left[0] -= 1
            if left[0] <= 0:
                raise Interrupt
            return real_apply(self, *args)

        monkeypatch.setattr(_FastOps, "apply", apply)
        with pytest.raises(Interrupt):
            geodesic_length(spec_a, target, 8)
        monkeypatch.undo()
        oracle = britton._kept[spec_a]
        assert_complete_levels(oracle, naive)
        assert oracle.depth < 5
        assert geodesic_length(spec_a, target, 8) == 8
        assert britton._kept[spec_a] is oracle
        assert_complete_levels(oracle, naive)

    def test_concurrent_queries(self, monkeypatch):
        # four threads, each in its own order, on two specs with frequent
        # thread switches and a bound that keeps evicting: the store's lock
        # serves one query at a time, so every answer is exact, the bound
        # holds and the kept balls hold complete levels
        monkeypatch.setattr(britton, "KEPT_BALL_STATES", 3000)
        queries = []
        for name in ("bs12", "ascend2"):
            ops = _fast_ops(NAIVE_SPECS[name])
            for d, sphere in enumerate(naive_spheres(name)[:9]):
                for state in sphere[:2]:
                    word = word_of_normal_form(NAIVE_SPECS[name], ops.from_flat(state))
                    queries += [(name, word, d), (name, word, max(d - 1, 0))]
        expected = [expected_length(*q) for q in queries]
        start = threading.Barrier(4, timeout=60)
        answers = {}

        def worker(k):
            # each thread its own order: forwards or backwards, from its own start
            order = list(range(len(queries)))[:: 1 if k % 2 else -1]
            order = order[17 * k:] + order[: 17 * k]
            start.wait()
            answers[k] = {i: geodesic_length(NAIVE_SPECS[queries[i][0]], *queries[i][1:])
                          for i in order}

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(4):
            assert [answers[k][i] for i in range(len(queries))] == expected
        assert kept_states() <= 3000
        assert_complete_levels_of_kept()


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
            [Edge("e", "X", "X", QMat.identity(2), QMat([[0, 1], [-1, 0]]))],
        )
        prof = distortion_profile(spec, parse_word("a"), [8], bfs_cap=0)
        assert prof.doubling_letter is None
        assert prof.entries[0].upper_bound == 8

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_spelled_bound_is_exact_on_bs1n(self, rank, n):
        # BS(1,n) and Z x BS(1,n): below the scaling factor n, m*v is also
        # spelled t^-1 v t ((m - n)*v), and with that spelling every bound
        # within the cap is the length itself
        omega = [[n]] if rank == 1 else [[1, 0], [0, n]]
        spec = GoGSpec.make(rank, ["X"], [Edge("t", "X", "X", QMat.identity(rank), QMat(omega))])
        element = parse_word("a" if rank == 1 else "b")
        prof = distortion_profile(spec, element, range(1, 65), bfs_cap=9)
        exact = [e for e in prof.entries if e.exact_length is not None]
        assert len(exact) >= 9
        assert all(e.exact_length == e.upper_bound for e in exact)

    def test_zero_element_rejected(self, spec_a):
        with pytest.raises(ValueError):
            distortion_profile(spec_a, Word(), [2])

    def test_analytic_lower_bound_formula(self, spec_a):
        import math

        prof = distortion_profile(spec_a, parse_word("a"), [4])
        assert prof.analytic_constant == 2.0
        assert prof.analytic_lower_bound(1024) == pytest.approx(math.log(1024) / math.log(2))

import gc
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

    @pytest.mark.parametrize("state", [
        (0,),  # too short
        (0, 0, 0),  # length not 2 modulo 4
        (0, 0, 2, 1, 0, 0),  # specA's loops are 0 and 1
        (0, 0, -1, 1, 0, 0),
        (0, 0, 0, 2, 0, 0),  # sign 2
        (0, 0, 0, 1, 0, 0, 1, 0, 0, 0),  # the second sign is 0
    ])
    def test_malformed_state_refused(self, spec_a, state):
        with pytest.raises(ValueError, match="not a state of a rank-2 spec with 2 loops"):
            GeodesicOracle(spec_a).distance(state, 4)

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

    def test_nonzero_abelian_image_answers_at_once(self, spec_bs12):
        # t maps to a nonzero loop count, so no letter of a^N is walked
        with time_budget(2):
            assert not is_identity(spec_bs12, parse_word("t a^1000000000"))
            assert not is_identity(spec_bs12, parse_word("a^1000000000 t^-1"))

    def test_abelian_test_reads_every_letter(self, spec_bs12):
        # a nonzero loop count before the unknown letter does not answer
        with pytest.raises(KeyError, match="unknown letter 'z'"):
            is_identity(spec_bs12, parse_word("t z"))

    def test_rank_deficient_abelianization(self):
        # s and u shear the first two coordinates: L = Z e1 + Z e2 has no
        # pivot in the third, so c^k answers at once and a (in L) is folded
        one = QMat.identity(3)
        s_shear = QMat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        u_shear = QMat([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
        spec = GoGSpec.make(
            3, ["X"], [Edge("s", "X", "X", one, s_shear), Edge("u", "X", "X", one, u_shear)]
        )
        assert _fast_ops(spec).abelian.num == ((1, 0, 0), (0, 1, 0), (0, 0, 0))
        for text, want in (("c^5", False), ("a", False), ("s^-1 b s b^-1 a^-1", True),
                           ("c s^-1 b s b^-1 a^-1 c^-1", True)):
            w = parse_word(text)
            assert is_identity(spec, w) is want
            assert britton_reduce(spec, w).is_trivial() is want

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
            target = ops.to_flat(britton_reduce(spec, w))
            oracle = GeodesicOracle(spec)
            assert oracle.distance(target, radius) == naive.get(target)

    def test_triangle_inequality(self, spec_a, monkeypatch):
        monkeypatch.setattr(britton, "FORWARD_CAP", 6)
        rng = random.Random(59)
        letters = ["a", "b", "h", "p"]
        oracle = GeodesicOracle(spec_a)
        to_flat = _fast_ops(spec_a).to_flat
        for _ in range(40):
            u = random_word(rng, letters, max_len=4, max_exp=1)
            v = random_word(rng, letters, max_len=4, max_exp=1)
            du = oracle.distance(to_flat(britton_reduce(spec_a, u)), 12)
            dv = oracle.distance(to_flat(britton_reduce(spec_a, v)), 12)
            duv = oracle.distance(to_flat(britton_reduce(spec_a, u * v)), 12)
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


class ChildCounter:
    """Counts the children a search builds, raising ``Interrupt`` from the
    ``calls``-th on, as a time limit or ^C would; ``made`` counts the
    children built. ``hook`` wraps an oracle's ``after`` entries so that
    iterating one counts each child."""

    def __init__(self, calls):
        self.calls = calls
        self.made = 0

    def hook(self, after):
        return [CountingSteps(steps, self) for steps in after]


class CountingSteps(tuple):
    """One ``after`` entry that counts on ``counter`` each step taken from it."""

    def __new__(cls, steps, counter):
        entry = super().__new__(cls, steps)
        entry.counter = counter
        return entry

    def __iter__(self):
        counter = self.counter
        for step in tuple.__iter__(self):
            counter.calls -= 1
            if counter.calls <= 0:
                raise Interrupt
            counter.made += 1
            yield step


@lru_cache(maxsize=None)
def a16_query_calls():
    """Children of the specA a^16 radius-8 query on a fresh oracle, counted
    on an uninterrupted query."""
    spec = NAIVE_SPECS["specA"]
    oracle = GeodesicOracle(spec)
    target = oracle.ops.to_flat(britton_reduce(spec, parse_word("a^16")))
    counting = ChildCounter(float("inf"))
    oracle.after = counting.hook(oracle.after)
    assert oracle.distance(target, 8) == 8
    return counting.made


def interrupt_point(calls):
    """The child an interrupt comes at: ``calls``, or for "last" the
    query's last child, in its last backward level, wherever that is."""
    return a16_query_calls() if calls == "last" else calls


# sixty random 12-letter words on specA at radius 7: a fresh oracle stops
# by depth 4 for each, and 52 of them search backward past it
_far = random.Random(7)
FAR_SPECA_QUERIES = [
    (Word((_far.choice("abhp"), _far.choice((1, -1))) for _ in range(12)), 7) for _ in range(60)
]


class TestGeodesicOracle:
    @given(geodesic_queries())
    @example(("specA", 8, FAR_SPECA_QUERIES))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_reused_oracle_in_any_query_order(self, case):
        # one oracle answers the drawn queries in order, as distortion_profile
        # reuses its oracle; a query grows the ball as it would grow a fresh
        # one, so its depth is the deepest a fresh oracle reaches for any
        # query so far, whatever their order
        name, cap, queries = case
        spec = NAIVE_SPECS[name]
        naive = naive_ball(spec, NAIVE_RADIUS[name])
        ops = _fast_ops(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(britton, "FORWARD_CAP", cap)
            oracle = GeodesicOracle(spec)
            deepest = 0
            for word, radius in queries:
                target = ops.to_flat(britton_reduce(spec, word))
                d = naive.get(target)
                assert oracle.distance(target, radius) == (d if d is not None and d <= radius else None)
                assert_complete_levels(oracle, naive)
                fresh = GeodesicOracle(spec)
                fresh.distance(target, radius)
                deepest = max(deepest, fresh.depth)
                assert oracle.depth == deepest

    @given(geodesic_queries())
    @example(("specB", 8, [(parse_word("a^8"), 6)]))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_fresh_ball_within_its_bound(self, case):
        # past the forced depth min(ceil(r/2), cap) a level joins only if
        # the most it can add keeps the ball within the budget
        name, cap, queries = case
        spec = NAIVE_SPECS[name]
        naive = naive_ball(spec, NAIVE_RADIUS[name])
        ops = _fast_ops(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(britton, "FORWARD_CAP", cap)
            for word, radius in queries:
                oracle = GeodesicOracle(spec)
                target = ops.to_flat(britton_reduce(spec, word))
                d = naive.get(target)
                assert oracle.distance(target, radius) == (d if d is not None and d <= radius else None)
                forced = sum(map(len, naive_spheres(name)[:min(-(-radius // 2), cap) + 1]))
                assert len(oracle.dist) <= max(forced, FORWARD_BALL_STATES)

    @pytest.mark.parametrize("calls", [3, 40, 700, "last"])
    def test_interrupted_level_is_undone(self, spec_a, calls):
        # an exception in the middle of a level leaves the complete levels
        # only, and the same oracle still answers exactly afterwards
        naive = naive_ball(spec_a, 7)
        target = _fast_ops(spec_a).to_flat(britton_reduce(spec_a, parse_word("a^16")))
        oracle = GeodesicOracle(spec_a)
        after = oracle.after
        oracle.after = ChildCounter(interrupt_point(calls)).hook(after)
        with pytest.raises(Interrupt):
            oracle.distance(target, 8)
        oracle.after = after
        assert_complete_levels(oracle, naive)
        assert oracle.depth < 5
        assert oracle.distance(target, 8) == 8
        assert_complete_levels(oracle, naive)

    def test_interrupt_at_any_instruction_of_a_level(self):
        # an exception raised before any one bytecode instruction that
        # _grow_forward or its level routine runs, as a signal handler may
        # raise it, leaves the complete levels only, and the same oracle
        # still answers exactly
        spec = NAIVE_SPECS["bs12"]
        naive = naive_ball(spec, 2)
        target = naive_spheres("bs12")[2][0]
        codes = {GeodesicOracle._grow_forward.__code__, GeodesicOracle._level.__code__}
        outer = sys.gettrace()

        def query(oracle, at):
            """Run one query on ``oracle``, raising ``Interrupt`` before the
            ``at``-th instruction of ``_grow_forward`` and ``_level`` together;
            the instructions run."""
            count = 0

            def local(frame, event, arg):
                nonlocal count
                if event == "opcode":
                    count += 1
                    if count == at:
                        raise Interrupt
                return local

            def tracer(frame, event, arg):
                if frame.f_code in codes:
                    frame.f_trace_opcodes = True
                    return local
                return None

            sys.settrace(tracer)
            try:
                assert oracle.distance(target, 2) == 2
            finally:
                sys.settrace(outer)
            return count

        total = query(GeodesicOracle(spec), 0)  # two levels, 1,364 on CPython 3.11
        for at in range(1, total + 1):
            oracle = GeodesicOracle(spec)
            with pytest.raises(Interrupt):
                query(oracle, at)
            assert_complete_levels(oracle, naive)
            assert oracle.distance(target, 2) == 2
            assert_complete_levels(oracle, naive)

    def test_replaced_snapshot_is_never_changed(self, spec_bs12):
        # a level joins by one store of a new snapshot and leaves the one it
        # replaces as it was, which is all an interrupted join can leave
        # behind; a query answered inside the ball stores no snapshot
        oracle = GeodesicOracle(spec_bs12)
        for d in (3, 5):
            before = oracle.ball
            states = dict(before[0])
            assert oracle.distance(naive_spheres("bs12")[d][0], 8) == d
            assert oracle.ball is not before
            assert before[0] == states
        before = oracle.ball
        assert oracle.distance(naive_spheres("bs12")[4][0], 8) == 4
        assert oracle.ball is before

    @pytest.mark.parametrize("name", sorted(NAIVE_RADIUS))
    def test_every_distance_and_cap(self, name, monkeypatch):
        # the boundary radii D - 1 and D for a state of each sphere, with
        # forward depths from 2 up, so backward searches of up to 8 levels
        spec = NAIVE_SPECS[name]
        for cap in range(2, 9):
            monkeypatch.setattr(britton, "FORWARD_CAP", cap)
            for d, sphere in enumerate(naive_spheres(name)):
                target = sphere[-1]
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
        target = naive_spheres("bs12")[7][0]
        for radius, answer in ((7, 7), (6, None), (3, None)):
            oracle = GeodesicOracle(spec)
            assert oracle.distance(target, radius) == answer
            assert oracle.depth == 2

    def test_large_ball_stops_at_budget(self):
        # ceil(r/2) levels; the next could take the ball past the budget,
        # with up to k - 1 new states per frontier state, so it is not built
        for name, word, radius, ball in (("specA", "a^16", 8, (4, 1433)),
                                         ("specB", "a^8", 6, (3, 579))):
            spec = NAIVE_SPECS[name]
            oracle = GeodesicOracle(spec)
            target = oracle.ops.to_flat(britton_reduce(spec, parse_word(word)))
            assert oracle.distance(target, radius) == radius
            assert (oracle.depth, len(oracle.dist)) == ball
            k = len(oracle.steps)
            assert len(oracle.dist) + (k - 1) * len(oracle.frontier) > FORWARD_BALL_STATES
            assert_complete_levels(oracle, naive_ball(spec, NAIVE_RADIUS[name]))

    @pytest.mark.parametrize("name, states, calls", [("ascend2", 4189, 6514), ("bs12", 1317, 2134)])
    def test_depth_8_ball_skips_commuting_steps(self, name, states, calls):
        # ascend2's t fixes a, so a state reached by t skips a and a^-1, and
        # one reached by b or b^-1 skips a and a^-1 too: 6,514 children
        # where skipping only the step back makes 10,806; rank-1 bs12 has
        # nothing to skip
        spec = NAIVE_SPECS[name]
        oracle = GeodesicOracle(spec)
        counting = ChildCounter(float("inf"))
        oracle.after = counting.hook(oracle.after)
        oracle._grow_forward(16, None)
        assert (oracle.depth, len(oracle.dist), counting.made) == (8, states, calls)

    @pytest.mark.parametrize("name, depth, states, steps", [
        ("specA", 6, 29269, 684), ("specB", 5, 23177, 462),
        ("ascend2", 8, 4189, 444), ("bs12", 8, 1317, 112),
    ])
    def test_growth_computes_each_stable_move_once(self, monkeypatch, name, depth, states, steps):
        # a stable move depends on the letter and the last vector alone, so
        # one growth takes one _stable_step per distinct (loop, sign,
        # vector): 684 for specA's depth-6 ball, where one per stable child
        # makes 22,012
        monkeypatch.setattr(britton, "FORWARD_CAP", depth)
        oracle = GeodesicOracle(NAIVE_SPECS[name])
        real_step = britton._stable_step
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return real_step(*args)

        monkeypatch.setattr(britton, "_stable_step", counting)
        oracle._grow_forward(2 * depth, None)
        assert (oracle.depth, len(oracle.dist), calls) == (depth, states, steps)

    def test_small_ball_grows_to_cap(self, spec_bs12):
        oracle = GeodesicOracle(spec_bs12)
        target = oracle.ops.to_flat(britton_reduce(spec_bs12, parse_word("a^16")))
        assert oracle.distance(target, 10) == 8
        assert (oracle.depth, len(oracle.dist)) == (8, 1317)
        assert_complete_levels(oracle, naive_ball(spec_bs12, 10))

    def test_stops_at_the_targets_level(self, spec_bs12):
        # the first complete level that holds the target is its distance, so
        # a radius-8 query for a state at distance 3 builds three levels only
        target = naive_spheres("bs12")[3][0]
        oracle = GeodesicOracle(spec_bs12)
        assert oracle.distance(target, 8) == 3
        assert oracle.depth == 3
        assert_complete_levels(oracle, naive_ball(spec_bs12, 10))

    def test_queries_convert_no_normal_form(self, spec_bs12, monkeypatch):
        # the ball is keyed by flat states: a query folds its word into one
        # and a distortion window writes its powers as one, so once the
        # ball is built neither converts a NormalForm either way
        a = parse_word("a")
        assert geodesic_length(spec_bs12, parse_word("a^16"), 10) == 8  # 1,317 states
        profile = distortion_profile(spec_bs12, a, range(1, 65), bfs_cap=12)

        def refuse(*args):
            raise AssertionError("a geodesic query converted a NormalForm")

        monkeypatch.setattr(_FastOps, "from_flat", refuse)
        monkeypatch.setattr(_FastOps, "to_flat", refuse)
        for text, radius, answer in (("a^16", 8, 8), ("t a^5 t^-1 a^3", 12, 8),
                                     ("a^64", 12, 12), ("a^64", 11, "exceeds radius"),
                                     ("a t a^-1 t^-1", 8, 3), ("t a^-2 t^-1 a", 8, 0)):
            assert geodesic_length(spec_bs12, parse_word(text), radius) == answer
        assert distortion_profile(spec_bs12, a, range(1, 65), bfs_cap=12) == profile


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

    @pytest.mark.parametrize("calls", [3, 40, 700, "last"])
    def test_interrupted_query_keeps_complete_levels(self, spec_a, monkeypatch, calls):
        naive = naive_ball(spec_a, 7)
        target = parse_word("a^16")
        counting = ChildCounter(interrupt_point(calls))
        steps_after = GeodesicOracle._steps_after
        monkeypatch.setattr(GeodesicOracle, "_steps_after",
                            lambda self: counting.hook(steps_after(self)))
        with pytest.raises(Interrupt):
            geodesic_length(spec_a, target, 8)
        monkeypatch.undo()
        counting.calls = float("inf")  # the kept oracle's steps count on, unarmed
        oracle = britton._kept[spec_a]
        assert_complete_levels(oracle, naive)
        assert oracle.depth < 5
        assert geodesic_length(spec_a, target, 8) == 8
        assert britton._kept[spec_a] is oracle
        assert_complete_levels(oracle, naive)

    def test_collector_paused_while_a_query_runs(self, spec_a, spec_bs12, monkeypatch):
        # a query allocates no reference cycles, so the store pauses the
        # cyclic collector while it runs and turns it on again afterwards,
        # also when the query is interrupted mid-level; a caller that had
        # disabled the collector finds it still disabled
        a16 = parse_word("a^16")
        assert gc.isenabled()
        assert britton._kept_query(spec_bs12, lambda oracle: gc.isenabled()) is False
        assert geodesic_length(spec_bs12, a16, 10) == 8
        assert gc.isenabled()
        britton._kept.pop(spec_a, None)
        counting = ChildCounter(700)
        steps_after = GeodesicOracle._steps_after
        monkeypatch.setattr(GeodesicOracle, "_steps_after",
                            lambda self: counting.hook(steps_after(self)))
        with pytest.raises(Interrupt):
            geodesic_length(spec_a, a16, 8)
        monkeypatch.undo()
        britton._kept.pop(spec_a)  # its steps would raise again
        assert gc.isenabled()
        gc.disable()
        try:
            assert geodesic_length(spec_bs12, a16, 10) == 8
            assert not gc.isenabled()
        finally:
            gc.enable()

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

    def test_decided_powers_settle_shorter_ones(self, spec_a, monkeypatch):
        # specA's b window at cap 12 on a fresh store: the longest spellings
        # are searched first, and the triangle inequality settles shorter
        # powers from their lengths, so the backward searches build 111
        # levels from 21,872 states (178 and 29,605 with a search per power)
        britton._kept.pop(spec_a, None)
        built = [0, 0]
        level = GeodesicOracle._level

        def counting(self, frontier, dist, moves=None, seen=None):
            if moves is None:
                built[0] += 1
                built[1] += len(frontier)
            return level(self, frontier, dist, moves, seen)

        monkeypatch.setattr(GeodesicOracle, "_level", counting)
        prof = distortion_profile(spec_a, parse_word("b"), range(1, 65), bfs_cap=12)
        assert built == [111, 21872]
        assert sum(e.exact_length is not None for e in prof.entries) == 51

    def test_non_positive_power_rejected(self, spec_a, spec_bs12):
        with pytest.raises(ValueError, match="powers must be positive"):
            distortion_profile(spec_a, parse_word("a"), [3, 0], bfs_cap=8)
        # a non-integral power is refused as Word refuses such an exponent,
        # not truncated
        a = parse_word("a")
        for powers in ([2.5, 3.9], [3, Q(1, 2)]):
            with pytest.raises(ValueError, match="is not an integer"):
                distortion_profile(spec_bs12, a, powers, bfs_cap=8)
        assert distortion_profile(spec_bs12, a, [2.0, Q(6, 2)], bfs_cap=8) == (
            distortion_profile(spec_bs12, a, [2, 3], bfs_cap=8)
        )

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
    @pytest.mark.parametrize("n", [*range(2, 11), *range(-10, -1)])
    def test_spelled_bound_is_exact_on_bs1n(self, rank, n):
        # BS(1,n) and Z x BS(1,n): below the scaling factor |n|, m*v is also
        # spelled t^-1 (+-v) t ((m - n)*v) or ((m + n)*v), and with that
        # spelling every bound within the cap is the length itself, for a
        # negative n too
        omega = [[n]] if rank == 1 else [[1, 0], [0, n]]
        spec = GoGSpec.make(rank, ["X"], [Edge("t", "X", "X", QMat.identity(rank), QMat(omega))])
        element = parse_word("a" if rank == 1 else "b")
        prof = distortion_profile(spec, element, range(1, 65), bfs_cap=9)
        exact = [e for e in prof.entries if e.exact_length is not None]
        assert len(exact) >= 9
        assert all(e.exact_length == e.upper_bound for e in exact)

    def test_long_window_within_budget(self):
        # the settle test reads every longer decided power, so it is
        # quadratic in the powers within the cap; BS(1,20) at cap 12 has
        # 814 of its first 20,000 powers there
        spec = GoGSpec.make(1, ["X"], [Edge("t", "X", "X", QMat.identity(1), QMat([[20]]))])
        with time_budget(5):
            prof = distortion_profile(spec, parse_word("a"), range(1, 20001), bfs_cap=12)
        exact = [e for e in prof.entries if e.exact_length is not None]
        assert len(exact) == 814
        assert all(e.exact_length <= e.upper_bound for e in exact)

    def test_zero_element_rejected(self, spec_a):
        with pytest.raises(ValueError):
            distortion_profile(spec_a, Word(), [2])

    def test_analytic_lower_bound_formula(self, spec_a):
        import math

        prof = distortion_profile(spec_a, parse_word("a"), [4])
        assert prof.analytic_constant == 2.0
        assert prof.analytic_lower_bound(1024) == pytest.approx(math.log(1024) / math.log(2))

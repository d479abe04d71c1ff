import random
from fractions import Fraction as Q

import pytest

from gbsn.britton import (
    GeodesicOracle,
    NormalForm,
    UnsupportedSpecError,
    britton_reduce,
    distortion_profile,
    geodesic_length,
    is_identity,
    nf_multiply,
)
from gbsn.gog import Edge, GoGSpec, presentation
from gbsn.holonomy import compute_holonomy, word_image
from gbsn.linalg import QMat, ZMat
from gbsn.words import Word, parse_word

from conftest import word_of_normal_form


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
        from gbsn.britton import _fast_ops

        spec = request.getfixturevalue(fixture)
        ops = _fast_ops(spec)
        naive = {ops.identity(): 0}
        frontier = [ops.identity()]
        for d in range(1, radius + 1):
            nxt = []
            for s in frontier:
                for kind, idx, step in ops.generator_steps():
                    c = list(s)
                    ops.apply(c, kind, idx, step)
                    c = tuple(c)
                    if c not in naive:
                        naive[c] = d
                        nxt.append(c)
            frontier = nxt

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

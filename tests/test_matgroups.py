import math
import random
from fractions import Fraction as Q

import pytest

from gbsn import linalg, matgroups
from gbsn.classify import coarse_density
from gbsn.gog import Edge, GoGSpec
from gbsn.linalg import ProjInterval, QMat, between, circle_key, rational_key_between
from gbsn.matgroups import (
    ClosureDescription,
    FreePairCertificate,
    InvariantLineCertificate,
    InvariantPairCertificate,
    ScalarCertificate,
    cartan_hausdorff_samples,
    closure_describe,
    evaluate_word,
    pingpong_certify,
    verify_certificate,
    verify_free_pair,
    virtually_solvable,
)
from gbsn.record import replace
from gbsn.words import Word
from conftest import anon, load_spec
from quadratic_reference import INF, QuadraticNumber, direction, point, slope

H = QMat([[2, 0], [0, Q(1, 2)]])
P = QMat([[1, 1], [0, 1]])
E = QMat([[0, 1], [-1, 0]])
HP = {"h": H, "p": P}
HPE = {"h": H, "p": P, "e": E}
I2 = [[1, 0], [0, 1]]


def arc(lo, hi) -> ProjInterval:
    """The arc between two slopes."""
    return ProjInterval(direction(lo), direction(hi))


class TestProjectiveCircle:
    def test_key_order_is_circle_order(self):
        slopes = [Q(0), Q(1), Q(5), INF, Q(-5), Q(-1), Q(-1, 2)]
        keys = [circle_key(direction(s)) for s in slopes]
        assert all(linalg._key_cmp(a, b) < 0 for a, b in zip(keys, keys[1:]))
        assert [Q(p, r) for p, _, r, _ in keys] == [0, Q(1, 2), Q(5, 6), 1, Q(7, 6), Q(3, 2), Q(5, 3)]

    def test_key_roundtrip(self):
        for s in (Q(0), Q(7, 3), Q(-2, 5), INF, Q(100)):
            p = direction(s)
            assert linalg._key_direction(circle_key(p)) == p
            assert linalg._key_direction(linalg._key_add(circle_key(p), 2, 1)) == p

    def test_between_wraps_past_the_end_of_the_chart(self):
        # from slope -1 counterclockwise to slope 1 runs through slope 0
        assert between(direction(Q(-1)), direction(Q(1))) == (1, 0)
        assert between(direction(Q(1)), direction(Q(-1))) == (0, 1)
        assert arc(Q(-1, 2), Q(1, 2)).contains(between(direction(Q(-1, 2)), direction(Q(1, 2))))

    def test_interval_membership_with_wraparound(self):
        big = arc(Q(2), Q(-2))  # |slope| >= 2, through INF
        assert big.contains(direction(INF))
        assert big.contains(direction(Q(3))) and big.contains(direction(Q(-3)))
        assert not big.contains(direction(Q(0))) and not big.contains(direction(Q(1)))

    def test_interval_containment(self):
        outer = arc(Q(-1), Q(1))
        assert outer.contains_interval(arc(Q(0), Q(1, 2)))
        assert outer.contains_interval(arc(Q(-1, 2), Q(1, 2)))
        assert not outer.contains_interval(arc(Q(1, 2), Q(-1, 2)))  # wraps via INF
        assert not outer.contains_interval(arc(Q(0), Q(2)))

    def test_disjointness(self):
        a = arc(Q(-1, 2), Q(1, 2))
        b = arc(Q(2), Q(-2))
        assert a.disjoint_from(b) and b.disjoint_from(a)
        c = arc(Q(0), Q(3))
        assert not a.disjoint_from(c)

    def test_image_orientation(self):
        # H has positive determinant: endpoints map in order
        iv = arc(Q(1), Q(2))
        img = iv.image(H.num)
        assert img == arc(Q(1, 4), Q(1, 2))
        flip = QMat([[1, 0], [0, -1]])  # determinant -1 reverses orientation
        assert iv.image(flip.num) == arc(Q(-2), Q(-1))

    def test_mobius_action(self):
        def image(m, s):  # the image of a slope, as a one-point arc
            return slope(arc(s, s).image(m.num).lo)

        assert image(P, Q(1)) == Q(1, 2)  # slope s -> s/(1+s)
        assert image(P, INF) == Q(1)
        assert image(P, Q(-1)) is INF
        assert image(E, Q(0)) is INF and image(E, INF) == Q(0)

    def test_rational_between_quadratic(self):
        below, above = circle_key((1, -1, 1, 2)), circle_key((1, 0, 1, 2))  # sqrt 2 - 1, sqrt 2
        r = rational_key_between(below, above)
        assert r[1] == 0 and linalg._key_cmp(below, r) < 0 < linalg._key_cmp(above, r)

    def test_close_keys_take_few_exact_comparisons(self, monkeypatch):
        # keys 1e-7 apart need separators of denominator 4 * 16^6; a sweep
        # over every multiple of 1/denom at each coarser resolution would
        # make about 10^8 exact comparisons
        compared = 0
        key_cmp = linalg._key_cmp

        def counted(a, b):
            nonlocal compared
            compared += 1
            assert compared <= 200, "unbounded scan for a separator"
            return key_cmp(a, b)

        monkeypatch.setattr(linalg, "_key_cmp", counted)
        # the keys of 1/2 (key 1/3), sqrt 2 and -sqrt 2
        for ka in (circle_key((2, 1)), circle_key((1, 0, 1, 2)), circle_key((-1, 0, 1, 2))):
            kb = linalg._key_add(ka, 1, 10**7)
            compared = 0
            r = rational_key_between(ka, kb)
            assert r[1] == 0 and key_cmp(ka, r) < 0 < key_cmp(kb, r)


class TestVirtuallySolvable:
    def test_triangular_pair(self):
        result = virtually_solvable(HP)
        assert result.virtually_solvable is True
        assert isinstance(result.certificate, InvariantLineCertificate)
        assert result.certificate.point == point(1, 0)
        assert verify_certificate(HP, result.certificate)

    def test_full_triple_is_not(self):
        result = virtually_solvable(HPE)
        assert result.virtually_solvable is False
        assert isinstance(result.certificate, FreePairCertificate)
        assert verify_free_pair(HPE, result.certificate)

    def test_quarter_turn_invariant_pair(self):
        result = virtually_solvable({"e": E})
        assert result.virtually_solvable is True
        cert = result.certificate
        assert isinstance(cert, InvariantPairCertificate)
        i = QuadraticNumber.make(0, 1, -1)
        assert set(cert.points) == {point(1, i), point(1, -i)}
        assert verify_certificate({"e": E}, cert)

    def test_swapping_pair_needs_product_candidates(self):
        # E swaps the axes and diag(2,3) fixes them; the invariant pair is
        # the eigendirection pair of a length-2 product, not of the pivot
        D = QMat([[2, 0], [0, 3]])
        result = virtually_solvable(anon(E, D))
        assert result.virtually_solvable is True
        assert isinstance(result.certificate, InvariantPairCertificate)
        assert verify_certificate(anon(E, D), result.certificate)

    def test_forged_line_and_pair_certificates_are_refused(self):
        def hand_built(x, a, b=0, d=0):
            """The point (x : a + b sqrt(d)) as given, not normalised."""
            return linalg.ProjPoint(
                linalg.QuadraticNumber(Q(x), Q(0), 0), linalg.QuadraticNumber(Q(a), Q(b), d)
            )

        # H fixes (0 : 1) and P moves it to (1 : 1)
        assert not verify_certificate(HP, InvariantLineCertificate(hand_built(0, 1)))
        # the loops of tests/specs/real_pair.gog: s swaps the eigenlines
        # (1 : -1/2 +- (1/2) sqrt 5) of m
        gens = anon(QMat([[2, 1], [1, 1]]), QMat([[1, -2], [1, -1]]))
        cert = virtually_solvable(gens).certificate
        p, q = cert.points
        assert p == hand_built(1, Q(-1, 2), Q(1, 2), 5)
        assert q == hand_built(1, Q(-1, 2), Q(-1, 2), 5)
        assert verify_certificate(gens, cert)
        over_three = (hand_built(1, Q(-1, 2), Q(1, 2), 3), hand_built(1, Q(-1, 2), Q(-1, 2), 3))
        assert not verify_certificate(gens, InvariantPairCertificate(over_three))
        not_conjugate = (p, hand_built(1, Q(1, 2), Q(-1, 2), 5))
        assert not verify_certificate(gens, InvariantPairCertificate(not_conjugate))
        # both generators fix (1 : 2); the point is given at scale (2 : 4)
        line = anon(QMat([[3, 1], [2, 4]]), QMat([[1, 1], [-2, 4]]))
        assert verify_certificate(line, InvariantLineCertificate(hand_built(2, 4)))
        assert not verify_certificate(line, InvariantLineCertificate(hand_built(1, 4)))

    def test_scalars(self):
        result = virtually_solvable(anon(QMat([[3, 0], [0, 3]])))
        assert result.virtually_solvable is True
        assert isinstance(result.certificate, ScalarCertificate)

    def test_higher_rank_undetermined(self):
        result = virtually_solvable(anon(QMat([[1, 1, 0], [0, 1, 0], [0, 0, 2]])))
        assert result.virtually_solvable is None
        assert "n = 2" in result.detail

    def test_conjugation_invariance(self):
        rng = random.Random(41)
        for gens in (HP, HPE, {"e": E}):
            expected = virtually_solvable(gens).virtually_solvable
            for _ in range(3):
                while True:
                    g = QMat(
                        [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)] for _ in range(2)]
                    )
                    if g.det() != 0:
                        break
                conj = {name: g * m * g.inverse() for name, m in gens.items()}
                assert virtually_solvable(conj).virtually_solvable == expected

    def test_singular_generator_rejected(self):
        with pytest.raises(ValueError):
            virtually_solvable(anon(QMat([[1, 0], [0, 0]])))


class TestPingpong:
    def test_solvable_groups_have_no_pair(self):
        assert pingpong_certify(HP) is None
        assert pingpong_certify({"h": H}) is None
        assert pingpong_certify({"e": E}) is None

    def test_verification_factors_no_discriminant(self, monkeypatch):
        # the certified powers t^16 and (s t s)^16 have discriminants of
        # about 116 bits; classifying them as players needs only the signs
        # of discriminant and trace, never the radicand, and neither the
        # search nor the re-verification factors anything
        gens = {
            "s": QMat([[Q(8, 3), Q(-2, 3)], [Q(4, 3), Q(5, 3)]]),
            "t": QMat([[Q(-2, 3), Q(1, 3)], [Q(1, 18), Q(7, 18)]]),
            "u": QMat([[-1, 1], [-1, 0]]),
        }
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(linalg, "squarefree_decompose", refuse)
        cert = pingpong_certify(gens)
        assert str(cert.word_x).startswith("t^16")
        assert verify_free_pair(gens, cert)

    def test_certificate_re_verifies_and_is_honest(self):
        cert = pingpong_certify(HPE)
        assert cert is not None
        assert verify_free_pair(HPE, cert)
        assert cert.domain_x.disjoint_from(cert.domain_y)
        # short words in the certified pair are all nontrivial
        x = evaluate_word(HPE, cert.word_x)
        y = evaluate_word(HPE, cert.word_y)
        identity = QMat.identity(2)
        count = 0
        frontier = [(identity, None)]
        for _ in range(4):
            nxt = []
            for m, last in frontier:
                for letter, mat in (("x", x), ("X", x.inverse()), ("y", y), ("Y", y.inverse())):
                    if last is not None and letter.swapcase() == last:
                        continue
                    prod = m * mat
                    assert prod != identity
                    nxt.append((prod, letter))
                    count += 1
            frontier = nxt
        assert count == 4 + 12 + 36 + 108

    def test_tampered_certificate_fails_verification(self):
        cert = pingpong_certify(HPE)
        bad = FreePairCertificate(
            cert.word_x,
            cert.word_y,
            cert.domain_y,  # swapped domains break the inclusions
            cert.domain_x,
            cert.traps_x,
            cert.traps_y,
        )
        assert not verify_free_pair(HPE, bad)

    @pytest.mark.parametrize(
        "gens",
        [
            HPE,
            anon(QMat([[1, 2], [0, 1]]), QMat([[1, 0], [2, 1]])),
            anon(QMat([[2, 1], [1, 1]]), QMat([[3, 2], [1, 1]])),
            anon(*(QMat([[x, x - 1], [1, 1]]) for x in (999, 1000, 1001))),
        ],
        ids=["specB", "sanov", "two-fields", "unimodular-triple"],
    )
    def test_lazy_scan_returns_the_eager_certificate(self, gens):
        # the scan the lazy one replaced: classify every state of the ball,
        # then try the pairs (i, j) in order
        ball = matgroups.WordBall(gens)
        players = [
            matgroups._Player(ball.word(state), ball.matrix(state).num, *found)
            for state in ball.grow(matgroups.PINGPONG_WORD_LEN)
            for found in [matgroups._player_slopes(*state[:4])]
            if found is not None
        ]
        eager = None
        for x in players:
            for y in players:
                if x is y or not matgroups._fixed_slopes_disjoint(x, y):
                    continue
                pts = matgroups._sorted_fixed_points(x, y)
                eager = None if pts is None else matgroups._try_pair(x, y, pts)
                if eager is not None:
                    break
            if eager is not None:
                break
        assert eager is not None
        assert pingpong_certify(gens) == eager

    def test_hand_built_ends_at_any_scale_verify(self):
        # a certificate may be built by hand: an end is any nonzero integer
        # pair on the line of its direction, and names the same arc
        cert = pingpong_certify(HPE)
        rng = random.Random(1403)

        def rescaled(c):
            def arc(iv):
                ends = [(k * p[0], k * p[1]) for p in (iv.lo, iv.hi)
                        for k in [rng.choice((-3, -1, 1, 2, 7))]]
                return ProjInterval(*ends)

            return replace(c, domain_x=arc(c.domain_x), domain_y=arc(c.domain_y),
                           traps_x=tuple(map(arc, c.traps_x)), traps_y=tuple(map(arc, c.traps_y)))

        def complement(iv):
            return ProjInterval(iv.hi, iv.lo)

        invalid = [
            replace(cert, domain_x=cert.domain_y, domain_y=cert.domain_x),
            replace(cert, domain_x=complement(cert.domain_x), domain_y=complement(cert.domain_y)),
            replace(cert, word_x=cert.word_y, word_y=cert.word_x),
            replace(cert, traps_x=cert.traps_x[::-1], traps_y=cert.traps_y[::-1]),
        ]
        for _ in range(32):
            copy = rescaled(cert)
            assert copy == cert and verify_free_pair(HPE, copy)
            assert not any(verify_free_pair(HPE, rescaled(bad)) for bad in invalid)

    @pytest.mark.parametrize(
        "end", [(0, 0), (1.0, 2), (Q(1, 2), 1), Q(1, 2), 2, (1, 2, 3)],
        ids=["zero", "float", "fraction-coordinate", "fraction", "int", "triple"],
    )
    def test_an_end_that_is_no_integer_direction_is_refused(self, end):
        with pytest.raises(ValueError):
            ProjInterval(end, (1, 0))
        with pytest.raises(ValueError):
            ProjInterval((1, 0), end)

    def test_sanov_pair(self):
        a = QMat([[1, 2], [0, 1]])
        b = QMat([[1, 0], [2, 1]])
        cert = pingpong_certify({"a": a, "b": b})
        assert cert is not None
        assert verify_free_pair({"a": a, "b": b}, cert)


class TestClosure:
    def test_scaling_and_shear(self):
        desc = closure_describe(HP, virtually_solvable(HP))
        assert desc.status == "triangular"
        assert desc.diag_kind == "cyclic" and desc.diag_generator == 2
        assert desc.unipotent_kind == "dense"

    def test_scaling_alone_is_discrete(self):
        desc = closure_describe({"h": H}, virtually_solvable({"h": H}))
        assert desc.diag_kind == "cyclic" and desc.diag_generator == 2
        assert desc.unipotent_kind == "trivial"

    def test_shear_alone(self):
        desc = closure_describe({"p": P}, virtually_solvable({"p": P}))
        assert desc.diag_kind == "trivial"
        assert desc.unipotent_kind == "discrete"

    def test_nonamenable(self):
        desc = closure_describe(HPE, virtually_solvable(HPE))
        assert desc.status == "nonamenable"

    def test_two_scalings_make_dense_diagonal(self):
        gens = {"h": H, "k": QMat([[3, 0], [0, Q(1, 3)]])}
        desc = closure_describe(gens, virtually_solvable(gens))
        assert desc.diag_kind == "dense"

    @pytest.mark.parametrize("gens, diag_kind, generator", [
        ({"t": QMat([[2]]), "s": QMat([[Q(3, 2)]])}, "dense", None),
        ({"t": QMat([[-4]]), "s": QMat([[Q(1, 8)]])}, "cyclic", 2),
        ({"t": QMat([[3, 0, 0], [0, 3, 0], [0, 0, 3]]),
          "s": QMat([[Q(-1, 9), 0, 0], [0, Q(-1, 9), 0], [0, 0, Q(-1, 9)]])}, "cyclic", 3),
    ], ids=["rank-1-dense", "rank-1-cyclic", "rank-3"])
    def test_scalars_at_any_rank(self, gens, diag_kind, generator):
        # lambda(g) is the scalar's diagonal entry; scalars add no unipotent part
        desc = closure_describe(gens, virtually_solvable(gens))
        assert desc == ClosureDescription("triangular", diag_kind, generator, "trivial")


def loops_spec(**loops) -> GoGSpec:
    """One vertex Z^2 with a loop ``name=(alpha, omega)`` for each keyword:
    the holonomy of the loop is omega alpha^-1."""
    return GoGSpec.make(2, ["X"], [Edge(name, "X", "X", QMat(alpha), QMat(omega))
                                   for name, (alpha, omega) in loops.items()])


def density(spec) -> tuple:
    report = coarse_density(spec)
    return report.verdict, report.method, report.detail


NOT_COCOMPACT = ("not-coarsely-dense", "exact-solvable-shape",
                 "solvable closure is not cocompact in SL_2(R)")


class TestCoarseDensity:
    """One spec per branch of ``coarse_density``, in the order it tries them."""

    def test_rank_one_undetermined(self):
        assert density(load_spec("bs12.gog")) == (
            "undetermined", "no-certificate", "rank 1: coarse density in SL_2(R) needs rank 2")

    def test_determinant_off_one_undetermined(self):
        spec = loops_spec(h=(I2, [[2, 0], [0, 1]]), p=(I2, [[1, 1], [0, 1]]))
        assert density(spec) == ("undetermined", "no-certificate",
                                 "|det| != 1 on h, outside the SL_2(R)-closure argument")

    def test_tits_undetermined(self):
        # two elliptic generators of det 1: no invariant line or pair, and
        # no free pair among words of length <= 3
        spec = loops_spec(s=([[2, 0], [0, 2]], [[1, 1], [-2, 2]]),
                          t=([[3, 0], [0, 3]], [[-4, 3], [-3, 0]]))
        assert density(spec) == ("undetermined", "no-certificate", "undetermined: no invariant "
                                 "line or pair, and no free pair within bounds")

    def test_full_triple_exact_from_certificates(self, spec_b):
        # <H, P, E> (specB's holonomy) has a free pair and the contraction
        # pair (h, p): its closure contains SL_2(R)
        assert density(spec_b) == (
            "coarsely-dense",
            "exact-sl2-closure",
            "free pair (h^4, e h p e h p e h p e h p e h p e h p e h p e h p) by ping-pong and "
            "contraction pair (h, p), both re-verified, with |det| = 1 on every generator: the "
            "closure of the image contains SL_2(R)",
        )

    def test_free_integral_image_undetermined(self):
        # the Sanov shears generate a free subgroup of SL_2(Z): discrete, so
        # a free pair alone proves no density
        spec = loops_spec(a=(I2, [[1, 2], [0, 1]]), b=(I2, [[1, 0], [2, 1]]))
        assert density(spec) == ("undetermined", "no-certificate", "not virtually solvable: "
                                 "density needs a non-discreteness certificate too")

    def test_triangular_dense_shape(self, spec_a):
        assert density(spec_a) == ("coarsely-dense", "exact-closure-shape",
                                   "closure is cocompact in the upper triangular subgroup of SL_2(R)")

    def test_trivial_group(self):
        assert density(loops_spec(t=(I2, I2))) == NOT_COCOMPACT

    def test_finite_group(self):
        # a finite group has a trivial diagonal value group: never cocompact
        assert density(loops_spec(e=(I2, E.rows))) == NOT_COCOMPACT

    def test_diagonal_alone_not_dense(self):
        assert density(loops_spec(h=([[1, 0], [0, 2]], [[2, 0], [0, 1]]))) == NOT_COCOMPACT

    def test_hausdorff_sampler_returns_small_distances_for_equal_groups(self):
        samples = cartan_hausdorff_samples(HP, HP, radii=(3, 4))
        assert [r for r, _ in samples] == [3, 4]
        assert all(d == 0 for _, d in samples)

    def test_cartan_values_are_half_log_singular_value_ratios(self):
        named = {"h": QMat([[4, 0], [0, Q(1, 2)]]), "p": P, "e": E}
        ball = matgroups.WordBall(named)
        for _ in ball.grow(3):
            pass
        want = []
        for state in ball.parent:
            (a, b), (c, d) = [[float(x) for x in row] for row in ball.matrix(state).rows]
            t, det = a * a + b * b + c * c + d * d, (a * d - b * c) ** 2
            root = math.sqrt(max(t * t - 4 * det, 0.0))  # s1^2 - s2^2
            want.append(0.25 * math.log((t + root) / (t - root)))
        got = matgroups._ball_mu_values(named, 3)
        assert len(got) == len(want)
        assert all(math.isclose(g, w, abs_tol=1e-9) for g, w in zip(got, sorted(want)))

    def test_hausdorff_sampler_matches_all_pairs_distance(self):
        samples = cartan_hausdorff_samples(HP, HPE, radii=(3, 4))
        for radius, dist in samples:
            va = matgroups._ball_mu_values(HP, radius)
            vb = matgroups._ball_mu_values(HPE, radius)

            def directed(xs, ys):
                return max(min(abs(x - y) for y in ys) for x in xs)

            assert dist == max(directed(va, vb), directed(vb, va)) > 0

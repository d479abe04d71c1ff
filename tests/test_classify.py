from fractions import Fraction as Q

import pytest

from gbsn.classify import (
    classify,
    compression_report,
    cv_properties,
    qi_compare,
    whyte_classify,
)
from gbsn.gog import Edge, GoGSpec
from gbsn.holonomy import compute_holonomy
from gbsn.linalg import ZMat
from gbsn.matgroups import verify_certificate


class TestWhyte:
    def test_two_loop_case_2c(self, spec_a):
        report = whyte_classify(spec_a)
        assert report.whyte_case == "2c"
        assert report.amenable is False
        assert report.ends == "infinitely-many-ends"
        assert any(ev.label == "non-discreteness-witness" for ev in report.evidence)

    def test_three_loop_case_2c(self, spec_b):
        assert whyte_classify(spec_b).whyte_case == "2c"

    def test_ascending_case_2b(self, spec_bs12, spec_ascend2):
        for spec in (spec_bs12, spec_ascend2):
            report = whyte_classify(spec)
            assert report.whyte_case == "2b"
            assert report.amenable is True

    def test_unimodular_case_2a(self):
        spec = GoGSpec.make(
            2,
            ["X"],
            [
                Edge("p", "X", "X", ZMat.identity(2), ZMat([[1, 1], [0, 1]])),
                Edge("q", "X", "X", ZMat.identity(2), ZMat([[1, 0], [2, 1]])),
            ],
        )
        report = whyte_classify(spec)
        assert report.whyte_case == "2a"
        assert report.amenable is False

    def test_unimodular_with_holonomy_relation_flagged(self):
        # two loops with the same integral matrix: holonomy kills p q^-1, so
        # the semidirect-product form over a free subgroup of GL_2(Z) is not
        # established and the subclass stays undetermined
        w = ZMat([[1, 1], [0, 1]])
        spec = GoGSpec.make(
            2,
            ["X"],
            [
                Edge("p", "X", "X", ZMat.identity(2), w),
                Edge("q", "X", "X", ZMat.identity(2), w),
            ],
        )
        report = whyte_classify(spec)
        assert report.whyte_case == "undetermined"
        assert report.amenable is False
        assert any("ambiguous" in ev.detail for ev in report.evidence)

    def test_two_ended_out_of_scope(self):
        spec = GoGSpec.make(
            1, ["X"], [Edge("t", "X", "X", ZMat([[1]]), ZMat([[1]]))]
        )
        report = whyte_classify(spec)
        assert report.whyte_case == "out-of-scope(ends)"
        assert report.amenable is None

    def test_non_ascending_single_loop_nonamenable(self):
        spec = GoGSpec.make(
            1, ["X"], [Edge("t", "X", "X", ZMat([[2]]), ZMat([[3]]))]
        )
        report = whyte_classify(spec)
        assert report.amenable is False

    def test_rank_zero_out_of_scope(self):
        spec = GoGSpec.make(
            1, ["X", "Y"], [Edge("f", "X", "Y", ZMat([[2]]), ZMat([[3]]))]
        )
        assert whyte_classify(spec).whyte_case == "out-of-scope(ends)"


class TestCornulierValette:
    def test_two_loop_positive(self, spec_a):
        report = cv_properties(spec_a)
        assert report.haagerup is True
        assert report.weakly_amenable is True
        assert report.cowling_haagerup == "1"

    def test_three_loop_negative(self, spec_b):
        report = cv_properties(spec_b)
        assert report.haagerup is False
        assert report.weakly_amenable is False
        assert report.cowling_haagerup == "not-weakly-amenable"

    def test_rank_one_scalar_holonomy(self, spec_bs12):
        report = cv_properties(spec_bs12)
        assert report.haagerup is True
        assert report.cowling_haagerup == "1"

    def test_free_pair_across_quadratic_fields(self):
        # the players' fixed points lie in Q(sqrt 2) and Q(sqrt 3); ordering
        # them on the circle compares numbers of different fields
        spec = GoGSpec.make(
            2,
            ["X"],
            [
                Edge("s", "X", "X", ZMat.identity(2), ZMat([[2, 1], [1, 1]])),
                Edge("u", "X", "X", ZMat.identity(2), ZMat([[3, 2], [1, 1]])),
            ],
        )
        report = cv_properties(spec)
        assert report.haagerup is False
        assert report.weakly_amenable is False
        hd = compute_holonomy(spec)
        gens = [hd.stable[n] for n in sorted(hd.stable)]
        (cert,) = [ev.payload for ev in report.evidence if ev.label.startswith("tits-certificate")]
        assert verify_certificate(gens, cert, sorted(hd.stable))

    def test_rank_three_undetermined(self):
        spec = GoGSpec.make(
            3,
            ["X"],
            [
                Edge(
                    "t",
                    "X",
                    "X",
                    ZMat.identity(3),
                    ZMat([[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
                )
            ],
        )
        report = cv_properties(spec)
        assert report.haagerup is None
        assert report.cowling_haagerup == "undetermined"


class TestReportInvariants:
    def test_haagerup_equals_weak_amenability(self, spec_a, spec_b, spec_bs12, spec_ascend2):
        for spec in (spec_a, spec_b, spec_bs12, spec_ascend2):
            report = classify(spec)
            assert report.haagerup == report.weakly_amenable
            assert (report.cowling_haagerup == "1") == (report.haagerup is True)

    def test_case_2b_iff_amenable(self, spec_a, spec_b, spec_bs12, spec_ascend2):
        for spec in (spec_a, spec_b, spec_bs12, spec_ascend2):
            report = classify(spec)
            if report.whyte_case != "undetermined":
                assert (report.whyte_case == "2b") == (report.amenable is True)

    def test_decided_verdicts_carry_evidence(self, spec_a, spec_b):
        for spec in (spec_a, spec_b):
            report = classify(spec)
            assert report.decided()
            assert any("certificate" in ev.label for ev in report.evidence)


class TestCompare:
    def test_headline_pair(self, spec_a, spec_b):
        verdict = qi_compare(spec_a, spec_b)
        assert verdict.verdict == "quasi-isometric"

    def test_reflexive_and_symmetric(self, spec_a, spec_b):
        assert qi_compare(spec_a, spec_a).verdict == "quasi-isometric"
        assert qi_compare(spec_b, spec_a).verdict == qi_compare(spec_a, spec_b).verdict

    def test_subclass_mismatch(self, spec_a, spec_ascend2):
        assert qi_compare(spec_ascend2, spec_a).verdict == "not-quasi-isometric"

    def test_dimension_mismatch_rejected(self, spec_a, spec_bs12):
        with pytest.raises(ValueError, match="dimension mismatch"):
            qi_compare(spec_a, spec_bs12)

    def test_two_ascending_specs_undetermined(self, spec_ascend2):
        other = GoGSpec.make(
            2,
            ["X"],
            [Edge("t", "X", "X", ZMat.identity(2), ZMat([[2, 0], [0, 2]]))],
        )
        assert qi_compare(spec_ascend2, other).verdict == "undetermined"


class TestCompression:
    def test_positive_exponents(self, spec_a):
        for p, expected in ((1, Q(1)), (Q(3, 2), Q(2, 3)), (2, Q(1, 2)), (3, Q(1, 2)), (4, Q(1, 2))):
            report = compression_report(spec_a, p)
            assert report.alpha_kind == "value"
            assert report.alpha == expected

    def test_vanishing_exponents(self, spec_b):
        for p in (1, 2):
            report = compression_report(spec_b, p)
            assert report.alpha_kind == "zero" and report.alpha == 0

    def test_above_two_undetermined_without_haagerup(self, spec_b):
        report = compression_report(spec_b, 3)
        assert report.alpha_kind == "undetermined"

    def test_checklist_recorded(self, spec_a):
        report = compression_report(spec_a, 2)
        keys = [k for k, _ in report.checklist]
        assert keys == [
            "amenable-closure",
            "cocompact-in-connected-subgroup",
            "exponential-distortion-witness",
        ]

    def test_p_below_one_rejected(self, spec_a):
        with pytest.raises(ValueError):
            compression_report(spec_a, Q(1, 2))

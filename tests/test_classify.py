import importlib
import json
from fractions import Fraction as Q

import pytest

from gbsn import gogfile, holonomy, linalg, matgroups
from gbsn.cli import run
from gbsn.classify import (
    classify,
    compression_report,
    cv_properties,
    qi_compare,
    whyte_classify,
)
from gbsn.gog import Edge, GoGSpec, InvalidSpecError
from gbsn.holonomy import compute_holonomy, non_discreteness_witness, verify_nondiscreteness
from gbsn.linalg import QMat
from gbsn.matgroups import TitsResult, verify_certificate
from gbsn.record import replace

from conftest import DATA, anon, time_budget

TURN = Edge("e", "X", "X", QMat.identity(2), QMat([[0, 1], [-1, 0]]))


def diag_loop(name, m):
    """A loop with holonomy diag(m, 1/m)."""
    return Edge(name, "X", "X", QMat([[1, 0], [0, m]]), QMat([[m, 0], [0, 1]]))


def shear_loop(name, k):
    return Edge(name, "X", "X", QMat.identity(2), QMat([[1, k], [0, 1]]))


def near_one(k):
    """Rank 1, holonomy (k+1)/k and k/(k-1): a dense image, case (2c)."""
    return GoGSpec.make(
        1,
        ["X"],
        [
            Edge("s", "X", "X", QMat([[k]]), QMat([[k + 1]])),
            Edge("u", "X", "X", QMat([[k - 1]]), QMat([[k]])),
        ],
    )


# specB with the loop h doubled on one side: holonomy diag(4, 1/2), det 2
DET_TWO = GoGSpec.make(
    2,
    ["X"],
    [
        Edge("h", "X", "X", QMat([[1, 0], [0, 2]]), QMat([[4, 0], [0, 1]])),
        shear_loop("p", 1),
        TURN,
    ],
)


# DET_TWO without the turn: a triangular image, Haagerup, determinants 2^k
DET_TWO_TRIANGULAR = GoGSpec.make(2, ["X"], list(DET_TWO.edges[:2]))


def certificate_of(report):
    (witness,) = [ev.payload for ev in report.evidence if ev.label == "non-discreteness-certificate"]
    return witness


CYCLIC = GoGSpec.make(
    2,
    ["X"],
    [
        Edge("s", "X", "X", QMat([[1001, 0], [0, 1002]]), QMat([[1002, 0], [0, 1001]])),
        Edge("u", "X", "X", QMat([[1001**2, 0], [0, 1002**2]]), QMat([[1002**2, 0], [0, 1001**2]])),
    ],
)


FREE_RANK_2 = "killing all vertex generators leaves a free group of rank 2 >= 2"
NOT_INFINITE = "not decided: the trichotomy applies to trees with infinitely many ends"


def one_vertex(rank, *loops):
    """A .gog text: vertex X and the loops (name, alpha, omega)."""
    edges = "".join(f"edge {n}: X -> X alpha {a} omega {o}\n" for n, a, o in loops)
    return f"rank {rank}\nvertex X\n" + edges


def rank_two_rule(degrees, case, *evidence):
    """The verdict and evidence of a nonamenable one-vertex spec with two loops."""
    return (
        (False, FREE_RANK_2, case),
        [
            ("bass-serre-degrees", f"X: {degrees}; ends: infinitely-many-ends"),
            ("underlying-rank", "#edges - #vertices + 1 = 2"),
            ("amenability", f"no: {FREE_RANK_2}"),
            *evidence,
        ],
    )


# one spec per rule of whyte_classify: its .gog text, its exact
# (amenable, amenable_reason, whyte_case) and its evidence (label, detail)
WHYTE_RULES = {
    "bounded": (
        "rank 1\nvertex X\n",
        (None, NOT_INFINITE, "out-of-scope(ends)"),
        [("bass-serre-degrees", "X: 0; ends: bounded")],
    ),
    "line": (
        one_vertex(1, ("t", "[[1]]", "[[1]]")),
        (None, NOT_INFINITE, "out-of-scope(ends)"),
        [("bass-serre-degrees", "X: 2; ends: two-ended (line)")],
    ),
    "amalgam": (
        "rank 1\nvertex X\nvertex Y\nedge e: X -> Y alpha [[2]] omega [[3]]\n",
        (
            None,
            "not decided: amalgams (no stable letters) are outside the decision scope",
            "out-of-scope(ends)",
        ),
        [
            ("bass-serre-degrees", "X: 2, Y: 3; ends: infinitely-many-ends"),
            ("underlying-rank", "#edges - #vertices + 1 = 0"),
        ],
    ),
    "2b": (
        one_vertex(1, ("t", "[[1]]", "[[2]]")),
        (True, "ascending HNN extension (edge indices 1 and 2)", "2b"),
        [
            ("bass-serre-degrees", "X: 3; ends: infinitely-many-ends"),
            ("underlying-rank", "#edges - #vertices + 1 = 1"),
            ("amenability", "yes: ascending HNN extension (edge indices 1 and 2)"),
            ("whyte-case", "2b: virtually ascending HNN extensions are the amenable ones"),
        ],
    ),
    "2a": (
        one_vertex(2, ("p", "[[1,0],[0,1]]", "[[1,1],[0,1]]"),
                   ("q", "[[1,0],[0,1]]", "[[1,0],[2,1]]")),
        *rank_two_rule(4, "2a", (
            "whyte-case",
            "2a: unimodular inclusions, holonomy in GL_n(Z) (discrete), "
            "no stable-letter relation up to length 6",
        )),
    ),
    "ambiguous-2a": (
        one_vertex(1, ("s", "[[1]]", "[[-1]]"), ("u", "[[1]]", "[[1]]")),
        *rank_two_rule(4, "undetermined", (
            "whyte-case", "ambiguous 2a form: holonomy kills the stable-letter word s^2",
        )),
    ),
    "2c-certificate": (
        (DATA / "specA.gog").read_text(),
        *rank_two_rule(
            6,
            "2c",
            (
                "non-discreteness-certificate",
                "the conjugates (h)^-k p (h)^k, k >= 1, are pairwise distinct and tend to I: "
                "every nonzero entry (i, j) of p - I in an eigenbasis of h has "
                "|lambda_j| < |lambda_i|; re-verified exactly",
            ),
            ("whyte-case", "2c: nonamenable with non-discrete holonomy image"),
        ),
    ),
    "2c-modular-image": (
        one_vertex(1, ("t", "[[2]]", "[[3]]")),
        (
            False,
            "HNN extension with both edge inclusions proper (indices 2, 3) contains a "
            "free subgroup",
            "2c",
        ),
        [
            ("bass-serre-degrees", "X: 5; ends: infinitely-many-ends"),
            ("underlying-rank", "#edges - #vertices + 1 = 1"),
            (
                "amenability",
                "no: HNN extension with both edge inclusions proper (indices 2, 3) contains "
                "a free subgroup",
            ),
            ("modular-image", "|hol(t)| = 3/2 != 1: not virtually F_m x Z"),
            (
                "whyte-case",
                "2c: nonamenable GBS_1 group, not virtually F_m x Z, hence "
                "quasi-isometric to BS(2,3) (Whyte 2001, Thm 0.1)",
            ),
        ],
    ),
    "integral-discrete": (
        one_vertex(1, ("s", "[[2]]", "[[-2]]"), ("u", "[[1]]", "[[1]]")),
        *rank_two_rule(6, "undetermined", (
            "whyte-case",
            "holonomy image is integral-discrete but inclusions are not unimodular; "
            "the 2a form is not established",
        )),
    ),
    "none-found": (
        one_vertex(2, ("s", "[[1001,0],[0,1002]]", "[[1002,0],[0,1001]]"),
                   ("u", "[[1002001,0],[0,1004004]]", "[[1004004,0],[0,1002001]]")),
        *rank_two_rule(2012028030012, "undetermined", (
            "whyte-case",
            "no non-discreteness certificate: no contraction pair among the stable "
            "letters and their inverses, and no dense rank-1 image",
        )),
    ),
    "amenability-unknown": (
        # BS(1,3) on two vertices: virtually ascending, but not in the single-loop form
        "rank 1\nvertex x\nvertex y\n"
        "edge e: x -> y alpha [[1]] omega [[2]]\nedge t: y -> y alpha [[1]] omega [[3]]\n",
        (
            None,
            "virtually-ascending detection beyond the single-loop form is not implemented",
            "undetermined",
        ),
        [
            ("bass-serre-degrees", "x: 1, y: 6; ends: infinitely-many-ends"),
            ("underlying-rank", "#edges - #vertices + 1 = 1"),
            (
                "amenability",
                "undetermined: virtually-ascending detection beyond the single-loop form "
                "is not implemented",
            ),
        ],
    ),
}


class TestWhyte:
    def test_two_loop_case_2c(self, spec_a):
        report = whyte_classify(spec_a)
        assert report.whyte_case == "2c"
        assert report.amenable is False
        assert report.ends == "infinitely-many-ends"
        assert any(ev.label == "non-discreteness-certificate" for ev in report.evidence)

    def test_three_loop_case_2c(self, spec_b):
        assert whyte_classify(spec_b).whyte_case == "2c"

    def test_three_loop_classify_within_budget(self, spec_b):
        with time_budget(1):
            report = classify(spec_b)
        assert (report.whyte_case, report.haagerup) == ("2c", False)

    def test_three_loop_classify_solves_few_eigenproblems(self, spec_b, monkeypatch):
        # the invariant-line scan, the invariant-pair candidates, the
        # ping-pong players and the spectral radius are read off integer
        # entries; eigendirections are computed only to state an invariant
        # line or pair that is returned, and specB ends in a free pair
        calls = []
        for module, name in (
            (matgroups, "eigen_directions"),
            (linalg, "eigen_directions"),
            (linalg, "squarefree_decompose"),
        ):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, fn=fn: calls.append(fn) or fn(*a))
        assert classify(spec_b).haagerup is False
        assert calls == []

    def test_prime_pivot_discriminant_within_budget(self):
        # the pivot h has the prime discriminant 10000025^2 + 4, so no
        # invariant line; the spectral radius and the line scan factored it
        # by trial division, which took 2.6 s
        spec = GoGSpec.make(
            2,
            ["X"],
            [
                Edge("h", "X", "X", QMat.identity(2), QMat([[10000025, 1], [1, 0]])),
                shear_loop("p", 1),
            ],
        )
        with time_budget(1):
            report = classify(spec)
        assert report.haagerup is False
        assert any(ev.label == "tits-certificate (free-pair)" for ev in report.evidence)

    def test_rank_one_value_group_near_1e14_within_budget(self):
        # holonomy (N + 67)/(N + 31) and (N + 97)/(N + 67) for N = 10^14: a
        # dense value group, decided by gcd splitting; factoring the values
        # by trial division took 6 s
        n = 10**14
        spec = GoGSpec.make(
            1,
            ["X"],
            [
                Edge("s", "X", "X", QMat([[n + 31]]), QMat([[n + 67]])),
                Edge("t", "X", "X", QMat([[n + 67]]), QMat([[n + 97]])),
            ],
        )
        with time_budget(1):
            report = classify(spec)
        assert (report.whyte_case, report.haagerup) == ("2c", True)

    @pytest.mark.parametrize(
        "edges",
        [
            [diag_loop("h", 3), shear_loop("p", 1), TURN],
            [diag_loop("h", 4), shear_loop("p", 10), TURN],
            [diag_loop("h", 16), shear_loop("p", 3)],
            [diag_loop("h", 100), shear_loop("p", 10)],
        ],
        ids=["shear-turn-3", "shear-turn-4", "diag-shear-16", "diag-shear-100"],
    )
    def test_case_2c_certificate_reverifies(self, edges):
        spec = GoGSpec.make(2, ["X"], edges)
        report = whyte_classify(spec)
        assert report.whyte_case == "2c"
        witness = certificate_of(report)
        assert witness.kind == "contraction"
        assert verify_nondiscreteness(compute_holonomy(spec), witness)

    def test_discrete_cyclic_image_undetermined(self):
        # holonomy diag(1002/1001, 1001/1002) and its square: a discrete
        # cyclic image, although its generator lies within 1/1000 of I
        report = classify(CYCLIC)
        assert report.whyte_case == "undetermined"
        assert not report.decided()
        assert not any("non-discreteness" in ev.label for ev in report.evidence)

    def test_certificate_failing_reverification_raises(self, spec_a, monkeypatch):
        # the package rebinds gbsn.classify to the function of that name
        module = importlib.import_module("gbsn.classify")
        found = non_discreteness_witness(compute_holonomy(spec_a))
        swapped = replace(found, contractor=found.word, word=found.contractor)
        monkeypatch.setattr(module, "non_discreteness_witness", lambda hd: swapped)
        with pytest.raises(AssertionError, match="re-verification"):
            whyte_classify(spec_a)

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
                Edge("p", "X", "X", QMat.identity(2), QMat([[1, 1], [0, 1]])),
                Edge("q", "X", "X", QMat.identity(2), QMat([[1, 0], [2, 1]])),
            ],
        )
        report = whyte_classify(spec)
        assert report.whyte_case == "2a"
        assert report.amenable is False

    def test_unimodular_with_holonomy_relation_flagged(self):
        # two loops with the same integral matrix: holonomy kills p q^-1, so
        # the semidirect-product form over a free subgroup of GL_2(Z) is not
        # established and the subclass stays undetermined
        w = QMat([[1, 1], [0, 1]])
        spec = GoGSpec.make(
            2,
            ["X"],
            [
                Edge("p", "X", "X", QMat.identity(2), w),
                Edge("q", "X", "X", QMat.identity(2), w),
            ],
        )
        report = whyte_classify(spec)
        assert report.whyte_case == "undetermined"
        assert report.amenable is False
        (relation,) = [ev.payload for ev in report.evidence if "ambiguous" in ev.detail]
        assert str(relation) == "p q^-1"

    def test_two_ended_out_of_scope(self):
        spec = GoGSpec.make(
            1, ["X"], [Edge("t", "X", "X", QMat([[1]]), QMat([[1]]))]
        )
        report = whyte_classify(spec)
        assert report.whyte_case == "out-of-scope(ends)"
        assert report.amenable is None

    def test_non_ascending_single_loop_nonamenable(self):
        spec = GoGSpec.make(
            1, ["X"], [Edge("t", "X", "X", QMat([[2]]), QMat([[3]]))]
        )
        report = whyte_classify(spec)
        assert report.amenable is False

    def test_rank_zero_out_of_scope(self):
        spec = GoGSpec.make(
            1, ["X", "Y"], [Edge("f", "X", "Y", QMat([[2]]), QMat([[3]]))]
        )
        assert whyte_classify(spec).whyte_case == "out-of-scope(ends)"

    @pytest.mark.parametrize("name", WHYTE_RULES)
    def test_each_rule_gives_its_case_and_evidence(self, name):
        text, verdict, evidence = WHYTE_RULES[name]
        report = whyte_classify(gogfile.parse(text).to_spec())
        assert (report.amenable, report.amenable_reason, report.whyte_case) == verdict
        assert [(ev.label, ev.detail) for ev in report.evidence] == evidence


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
                Edge("s", "X", "X", QMat.identity(2), QMat([[2, 1], [1, 1]])),
                Edge("u", "X", "X", QMat.identity(2), QMat([[3, 2], [1, 1]])),
            ],
        )
        report = cv_properties(spec)
        assert report.haagerup is False
        assert report.weakly_amenable is False
        hd = compute_holonomy(spec)
        (cert,) = [ev.payload for ev in report.evidence if ev.label.startswith("tits-certificate")]
        assert verify_certificate(hd.stable, cert)

    def test_adversarial_three_loops_within_budget(self):
        # diag(1000, 1/1000), a shear and a quarter turn: the ping-pong
        # domains need separators between fixed points about 1e-6 apart
        spec = GoGSpec.make(
            2,
            ["X"],
            [
                Edge("h", "X", "X", QMat([[1, 0], [0, 1000]]), QMat([[1000, 0], [0, 1]])),
                Edge("p", "X", "X", QMat.identity(2), QMat([[1, 1], [0, 1]])),
                Edge("e", "X", "X", QMat.identity(2), QMat([[0, 1], [-1, 0]])),
            ],
        )
        with time_budget(10):
            report = classify(spec)
        assert report.whyte_case == "2c"
        assert report.haagerup is False
        hd = compute_holonomy(spec)
        assert verify_nondiscreteness(hd, certificate_of(report))
        (cert,) = [ev.payload for ev in report.evidence if ev.label.startswith("tits-certificate")]
        assert verify_certificate(hd.stable, cert)

    def test_unimodular_triple_factors_few_discriminants(self, monkeypatch):
        # the ping-pong players keep their raw discriminants, so what is
        # factored is only the eigendirection work outside the ping-pong
        calls = []
        factor = linalg.squarefree_decompose
        monkeypatch.setattr(
            linalg, "squarefree_decompose", lambda n: calls.append(n) or factor(n)
        )
        spec = GoGSpec.make(
            2,
            ["X"],
            [
                Edge(name, "X", "X", QMat.identity(2), QMat([[x, x - 1], [1, 1]]))
                for name, x in zip("stu", (999, 1000, 1001))
            ],
        )
        assert classify(spec).haagerup is False
        assert len(calls) <= 10

    def test_player_with_large_discriminant_within_budget(self):
        # disc = 10^14 + 124 = 4 (25 * 10^12 + 31): factoring it by trial
        # division took 0.28 s
        with time_budget(0.05):
            kind, (attracting, repelling) = matgroups._player_slopes(10**7, 1, 31, 0)
        assert kind == "hyperbolic" and attracting[3] == repelling[3] == 10**14 + 124

    def test_pingpong_with_large_discriminant_within_budget(self):
        # the fixed slopes (-10^7 +- sqrt(10^14 + 124)) / 2 are about 3e-6
        # and -10^7, so their separators need fine denominators
        gens = anon(QMat([[10**7, 1], [31, 0]]), QMat([[2, 1], [1, 1]]))
        with time_budget(0.05):
            cert = matgroups.pingpong_certify(gens)
        assert cert is not None and verify_certificate(gens, cert)

    def test_amenable_rank_three_decided_by_amenability(self):
        spec = GoGSpec.make(
            3,
            ["X"],
            [Edge("t", "X", "X", QMat.identity(3), QMat([[1, 1, 0], [0, 1, 0], [0, 0, 2]]))],
        )
        assert cv_properties(spec).haagerup is None  # no holonomy decision in rank 3
        report = classify(spec)
        assert (report.whyte_case, report.amenable) == ("2b", True)
        assert (report.haagerup, report.weakly_amenable, report.cowling_haagerup) == (True, True, "1")
        assert report.decided()
        assert any(
            ev.label == "amenability" and "Haagerup" in ev.detail for ev in report.evidence
        )

    def test_tits_certificate_failing_reverification_raises(self, spec_b, monkeypatch):
        module = importlib.import_module("gbsn.classify")
        forged = TitsResult(True, matgroups.ScalarCertificate(), "specB's image is not scalar")
        monkeypatch.setattr(module, "virtually_solvable", lambda named: forged)
        for verdict in (classify, cv_properties, lambda spec: compression_report(spec, 2)):
            with pytest.raises(AssertionError, match="re-verification"):
                verdict(spec_b)

    def test_amenable_without_haagerup_raises(self, spec_bs12, monkeypatch):
        module = importlib.import_module("gbsn.classify")
        wrong = TitsResult(False, None, "a Tits decision that contradicts amenability")
        monkeypatch.setattr(module, "virtually_solvable", lambda named: wrong)
        with pytest.raises(AssertionError, match="amenable"):
            classify(spec_bs12)

    def test_rank_three_undetermined(self):
        spec = GoGSpec.make(
            3,
            ["X"],
            [
                Edge(
                    "t",
                    "X",
                    "X",
                    QMat.identity(3),
                    QMat([[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
                )
            ],
        )
        report = cv_properties(spec)
        assert report.haagerup is None
        assert report.cowling_haagerup == "undetermined"


def rank_one_loop(alpha, omega):
    return GoGSpec.make(1, ["X"], [Edge("t", "X", "X", QMat([[alpha]]), QMat([[omega]]))])


def bs_file(tmp_path, omega):
    """BS(2, omega) as a .gog file."""
    path = tmp_path / f"bs2_{omega}.gog"
    path.write_text(f"rank 1\nvertex X\nedge t: X -> X alpha [[2]] omega [[{omega}]]\n")
    return str(path)


class TestRankOneWhyte:
    """Whyte 2001, Thm 0.1: a nonamenable GBS_1 group whose tree has
    infinitely many ends and whose holonomy is not in {+-1} is
    quasi-isometric to BS(2,3)."""

    @pytest.mark.parametrize("omega", [3, 4, -3])
    def test_baumslag_solitar_case_2c(self, omega, tmp_path, capsys):
        report = classify(rank_one_loop(2, omega))
        assert (report.whyte_case, report.amenable, report.haagerup) == ("2c", False, True)
        (entry,) = [ev for ev in report.evidence if ev.label == "modular-image"]
        assert entry.payload == ("t", Q(omega, 2))
        assert f"|hol(t)| = {Q(abs(omega), 2)} != 1" in entry.detail
        assert run(["classify", bs_file(tmp_path, omega), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["whyte_case"] == "2c"

    def test_any_two_are_quasi_isometric(self, tmp_path, capsys):
        verdict = qi_compare(rank_one_loop(2, 3), rank_one_loop(2, 4))
        assert verdict.verdict == "quasi-isometric"
        assert "Whyte" in verdict.reasons[-1]
        assert [ev.label for ev in verdict.evidence] == ["modular-image", "modular-image"]
        mixed = qi_compare(rank_one_loop(2, 3), near_one(40))
        assert mixed.verdict == "quasi-isometric"
        assert [ev.label for ev in mixed.evidence] == [
            "modular-image",
            "non-discreteness-certificate",
        ]
        files = [bs_file(tmp_path, omega) for omega in (3, 4)]
        assert run(["compare", *files, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "quasi-isometric"

    def test_rule_is_for_rank_one_only(self):
        # rank 2, holonomy 2I on both loops: |det| = 4 but no certificate
        two = QMat([[2, 0], [0, 2]])
        spec = GoGSpec.make(
            2, ["X"], [Edge(n, "X", "X", QMat.identity(2), two) for n in ("s", "u")]
        )
        report = classify(spec)
        assert (report.whyte_case, report.amenable) == ("undetermined", False)

    @pytest.mark.parametrize("omega", [2, -2])
    def test_unimodular_holonomy_stays_undetermined(self, omega):
        # BS(2,+-2): hol(t) = +-1, virtually F_m x Z, not quasi-isometric to BS(2,3)
        report = classify(rank_one_loop(2, omega))
        assert (report.whyte_case, report.amenable) == ("undetermined", False)
        assert not any(ev.label == "modular-image" for ev in report.evidence)
        verdict = qi_compare(rank_one_loop(2, omega), rank_one_loop(2, 3))
        assert verdict.verdict == "undetermined"


class TestOneAnalysisPerSpec:
    """Each command computes the holonomy, the Tits decision and the closure
    of a spec once, whichever module's name a stage is reached through."""

    @pytest.fixture
    def counts(self, monkeypatch):
        module = importlib.import_module("gbsn.classify")
        counts = {"holonomy": 0, "tits": 0}
        for owner, attr, key in (
            (module, "compute_holonomy", "holonomy"),
            (holonomy, "compute_holonomy", "holonomy"),
            (module, "virtually_solvable", "tits"),
            (matgroups, "virtually_solvable", "tits"),
        ):
            def counted(*args, _stage=getattr(owner, attr), _key=key):
                counts[_key] += 1
                return _stage(*args)

            monkeypatch.setattr(owner, attr, counted)
        return counts

    def test_classify_once(self, spec_b, counts):
        assert classify(spec_b).decided()
        assert counts == {"holonomy": 1, "tits": 1}

    def test_compare_once_per_spec(self, spec_a, spec_b, counts):
        assert qi_compare(spec_a, spec_b).verdict == "quasi-isometric"
        assert counts == {"holonomy": 2, "tits": 2}

    def test_compression_once(self, spec_a, counts):
        assert compression_report(spec_a, 2).alpha_kind == "value"
        assert counts == {"holonomy": 1, "tits": 1}

    def test_once_per_spec_across_commands(self, spec_a, spec_b, counts):
        # the analyses are kept for the process, not for one command
        for spec in (spec_a, spec_b):
            assert classify(spec).decided()
            compression_report(spec, 3)
        assert qi_compare(spec_a, spec_b).verdict == "quasi-isometric"
        assert qi_compare(spec_b, spec_a).verdict == "quasi-isometric"
        assert whyte_classify(spec_a).whyte_case == "2c"
        assert cv_properties(spec_b).haagerup is False
        assert counts == {"holonomy": 2, "tits": 2}

    def test_closure_once(self, spec_a, monkeypatch):
        # a classification, a self-compare and four compressions of one spec
        module, calls = importlib.import_module("gbsn.classify"), []
        for owner in (module, matgroups):
            monkeypatch.setattr(owner, "closure_describe",
                                lambda *a, _f=owner.closure_describe: calls.append(a) or _f(*a))
        assert classify(spec_a).decided()
        assert qi_compare(spec_a, spec_a).verdict == "quasi-isometric"
        for p in (1, Q(3, 2), 2, 3):
            assert compression_report(spec_a, p).alpha_kind == "value"
        assert len(calls) == 1


class TestOneFunctionPerVerdict:
    """Each verdict has one function, and the combined verdicts reach it
    through the module's global name."""

    @pytest.fixture
    def calls(self, monkeypatch):
        module = importlib.import_module("gbsn.classify")
        calls = {"whyte_classify": 0, "cv_properties": 0, "classify": 0}
        for name in calls:
            def counted(*args, _verdict=getattr(module, name), _name=name):
                calls[_name] += 1
                return _verdict(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_classify_reads_both_verdicts(self, spec_b, calls):
        importlib.import_module("gbsn.classify").classify(spec_b)
        assert calls == {"whyte_classify": 1, "cv_properties": 1, "classify": 1}

    def test_compare_reads_two_classifications(self, spec_a, spec_b, calls):
        assert qi_compare(spec_a, spec_b).verdict == "quasi-isometric"
        assert calls == {"whyte_classify": 2, "cv_properties": 2, "classify": 2}

    def test_compare_reads_coarse_density(self, spec_a, spec_b, monkeypatch):
        module, specs = importlib.import_module("gbsn.classify"), []
        monkeypatch.setattr(module, "coarse_density",
                            lambda spec, _f=module.coarse_density: specs.append(spec) or _f(spec))
        assert qi_compare(spec_a, spec_b).verdict == "quasi-isometric"
        assert specs == [spec_a, spec_b]


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
        # ranks 2 and 1: amenability alone separates them
        assert qi_compare(spec_a, spec_bs12).verdict == "not-quasi-isometric"

    def test_cross_rank_pairs_compared_by_amenability(self):
        specs = []
        for path in sorted([*DATA.glob("*.gog"), *(DATA.parent / "tests" / "specs").glob("*.gog")]):
            try:
                specs.append(gogfile.parse(path.read_text()).to_spec())
            except InvalidSpecError:
                pass
        pairs = [(a, b) for a in specs for b in specs if a.rank != b.rank]
        assert pairs
        for a, b in pairs:
            verdict = qi_compare(a, b).verdict
            assert verdict == qi_compare(b, a).verdict
            amenable = {classify(a).amenable, classify(b).amenable}
            differ = None not in amenable and len(amenable) == 2
            assert verdict == ("not-quasi-isometric" if differ else "undetermined")

    def test_two_ascending_specs_undetermined(self, spec_ascend2):
        other = GoGSpec.make(
            2,
            ["X"],
            [Edge("t", "X", "X", QMat.identity(2), QMat([[2, 0], [0, 2]]))],
        )
        assert qi_compare(spec_ascend2, other).verdict == "undetermined"


class TestPaperTheorem:
    """specA and specB are quasi-isometric; specA has the Haagerup property
    and is weakly amenable with Lambda_cb = 1, specB has neither property.
    Every step rests on a certificate that re-verifies, none on sampling."""

    def test_quasi_isometric_with_and_without_haagerup(self, spec_a, spec_b, capsys):
        code = run(["compare", str(DATA / "specA.gog"), str(DATA / "specB.gog"), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert (code, report["verdict"], report["sampled"]) == (0, "quasi-isometric", False)
        assert [ev["method"] for ev in report["evidence"]] == [
            "exact-closure-shape",
            "exact-sl2-closure",
        ]
        ra, rb = classify(spec_a), classify(spec_b)
        assert (ra.haagerup, ra.weakly_amenable, ra.cowling_haagerup) == (True, True, "1")
        assert (rb.haagerup, rb.weakly_amenable, rb.cowling_haagerup) == (
            False,
            False,
            "not-weakly-amenable",
        )
        for spec, rep in ((spec_a, ra), (spec_b, rb)):
            assert rep.whyte_case == "2c"
            hd = compute_holonomy(spec)
            (tits,) = [ev.payload for ev in rep.evidence if ev.label.startswith("tits-certificate")]
            assert verify_certificate(hd.stable, tits)
            assert verify_nondiscreteness(hd, certificate_of(rep))

    def test_decided_without_sampling(self, spec_a, spec_b, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a comparison sampled Cartan values")

        monkeypatch.setattr(matgroups, "_ball_mu_values", refuse)
        assert qi_compare(spec_a, spec_b).verdict == "quasi-isometric"
        rank_one = qi_compare(near_one(40), near_one(70))
        assert rank_one.verdict == "quasi-isometric"
        assert "Whyte" in rank_one.reasons[-1]
        assert [ev.payload.kind for ev in rank_one.evidence] == ["dense", "dense"]

    def test_sl2_closure_needs_unimodular_holonomy(self, spec_b):
        report = classify(DET_TWO)
        assert (report.whyte_case, report.haagerup) == ("2c", False)
        verdict = qi_compare(spec_b, DET_TWO)
        assert verdict.verdict == "undetermined"
        first, second = verdict.evidence[:2]
        assert (first.verdict, first.method) == ("coarsely-dense", "exact-sl2-closure")
        assert (second.verdict, second.method) == ("undetermined", "no-certificate")
        assert "|det| != 1 on h" in second.detail

    def test_closure_shape_needs_unimodular_holonomy(self, spec_a, spec_b, tmp_path, capsys):
        # the triangular closure shape holds, but determinants 2^k keep the
        # image at infinite Hausdorff distance from SL_2(R)
        report = classify(DET_TWO_TRIANGULAR)
        assert (report.whyte_case, report.haagerup) == ("2c", True)
        for other in (spec_a, spec_b):
            verdict = qi_compare(DET_TWO_TRIANGULAR, other)
            assert verdict.verdict == "undetermined"
            first = verdict.evidence[0]
            assert (first.verdict, first.method) == ("undetermined", "no-certificate")
            assert "|det| != 1 on h" in first.detail
        path = tmp_path / "det2.gog"
        path.write_text(
            "rank 2\nvertex X\n"
            "edge h: X -> X alpha [[1,0],[0,2]] omega [[4,0],[0,1]]\n"
            "edge p: X -> X alpha [[1,0],[0,1]] omega [[1,1],[0,1]]\n"
        )
        for other in ("specA", "specB"):
            code = run(["compare", str(path), str(DATA / f"{other}.gog"), "--format", "json"])
            assert (code, json.loads(capsys.readouterr().out)["verdict"]) == (2, "undetermined")


CHECKLIST_A = (
    ("amenable-closure", "yes"),
    (
        "cocompact-in-connected-subgroup",
        "yes (diagonal value group is infinite cyclic; closure cocompact in the upper "
        "triangular subgroup)",
    ),
    ("exponential-distortion-witness", "yes (a holonomy generator has spectral radius > 1)"),
)

# one case per rule of compression_report: its .gog text, p, and its exact
# (alpha_kind, alpha, checklist, detail)
COMPRESSION_RULES = {
    "rank 1": (
        (DATA.parent / "tests" / "specs" / "rank1_dense.gog").read_text(),
        2,
        ("undetermined", None, (), "compression decision implemented for rank 2"),
    ),
    "zero": (
        (DATA / "specB.gog").read_text(),
        Q(3, 2),
        ("zero", 0, (("haagerup", "no"),), "no Haagerup property: a positive exponent would "
         "give a proper affine isometric action on L^p with 1 <= p <= 2"),
    ),
    "vanishing for p <= 2 only": (
        (DATA / "specB.gog").read_text(),
        3,
        ("undetermined", None, (("haagerup", "no"),),
         "the vanishing argument applies to 1 <= p <= 2 only"),
    ),
    "holonomy undetermined": (
        one_vertex(2, ("s", "[[2,0],[0,2]]", "[[1,1],[-2,2]]"),
                   ("t", "[[3,0],[0,3]]", "[[-4,3],[-3,0]]")),
        2,
        ("undetermined", None, (), "holonomy decision undetermined"),
    ),
    "value 1/p": ((DATA / "specA.gog").read_text(), Q(3, 2),
                  ("value", Q(2, 3), CHECKLIST_A, "")),
    "value 1/2": ((DATA / "specA.gog").read_text(), 3, ("value", Q(1, 2), CHECKLIST_A, "")),
    "conditions not established": (
        one_vertex(2, ("t", "[[1,0],[0,2]]", "[[1,0],[0,1]]")),
        2,
        (
            "undetermined",
            None,
            (
                ("amenable-closure", "yes"),
                ("cocompact-in-connected-subgroup", "not established"),
                ("exponential-distortion-witness", "not established"),
            ),
            "positive-exponent conditions not established",
        ),
    ),
}


class TestCompression:
    @pytest.mark.parametrize("name", COMPRESSION_RULES)
    def test_each_rule_gives_its_exponent_and_checklist(self, name):
        text, p, expected = COMPRESSION_RULES[name]
        report = compression_report(gogfile.parse(text).to_spec(), p)
        assert (report.alpha_kind, report.alpha, report.checklist, report.detail) == expected

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

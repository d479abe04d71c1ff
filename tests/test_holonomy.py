import random
from fractions import Fraction as Q

import pytest

from gbsn.gog import Edge, GoGSpec, presentation
from gbsn.holonomy import (
    HolonomyData,
    WitnessResult,
    compute_holonomy,
    non_discreteness_witness,
    verify_nondiscreteness,
    word_image,
)
from gbsn.linalg import QMat
from gbsn.record import replace
from gbsn.words import Word, parse_word

H = QMat([[2, 0], [0, Q(1, 2)]])
P = QMat([[1, 1], [0, 1]])
E = QMat([[0, 1], [-1, 0]])


class TestComputeHolonomy:
    def test_two_loop_matrices(self, spec_a):
        hd = compute_holonomy(spec_a)
        assert hd.stable == {"h": H, "p": P}

    def test_three_loop_matrices(self, spec_b):
        hd = compute_holonomy(spec_b)
        assert hd.stable == {"h": H, "p": P, "e": E}

    def test_vertex_letters_to_identity(self, spec_a):
        hd = compute_holonomy(spec_a)
        assert word_image(hd, parse_word("a")) == QMat.identity(2)
        assert word_image(hd, parse_word("a^3 b^-2")) == QMat.identity(2)

    def test_flipping_an_edge_inverts_its_matrix(self, spec_a):
        flipped = GoGSpec.make(
            spec_a.rank,
            spec_a.vertices,
            [spec_a.edges[0].flipped(), spec_a.edges[1]],
            spec_a.spanning_tree,
        )
        hd = compute_holonomy(flipped)
        assert hd.stable["h"] == H.inverse()

    def test_tree_transport(self):
        # two vertices: the tree edge identifies Y-coordinates with doubled
        # X-coordinates, so the loop at Y transports to a conjugated matrix
        spec = GoGSpec.make(
            1,
            ["X", "Y"],
            [
                Edge("f", "X", "Y", QMat([[2]]), QMat([[1]])),
                Edge("t", "Y", "Y", QMat([[1]]), QMat([[3]])),
            ],
        )
        hd = compute_holonomy(spec)
        # rank 1 is commutative, so transport cannot change the value
        assert hd.stable["t"] == QMat([[3]])
        assert hd.base_vertex == "X"


class TestWordImage:
    def test_conjugated_shear_powers(self, spec_a):
        hd = compute_holonomy(spec_a)
        for k in range(-5, 6):
            w = parse_word(f"h^{k} p h^{-k}")
            assert word_image(hd, w) == QMat([[1, Q(4) ** k], [0, 1]])

    def test_empty_word(self, spec_a):
        assert word_image(compute_holonomy(spec_a), Word()) == QMat.identity(2)

    def test_homomorphism_random(self, spec_b):
        hd = compute_holonomy(spec_b)
        rng = random.Random(9)
        letters = ["a", "b", "h", "p", "e"]
        for _ in range(60):
            u = Word((rng.choice(letters), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(0, 6)))
            v = Word((rng.choice(letters), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(0, 6)))
            assert word_image(hd, u * v) == word_image(hd, u) * word_image(hd, v)

    def test_relators_map_to_identity(self, spec_a, spec_b):
        for spec in (spec_a, spec_b):
            hd = compute_holonomy(spec)
            for relator in presentation(spec).relators:
                assert word_image(hd, relator) == QMat.identity(2)

    def test_unknown_letter(self, spec_a):
        with pytest.raises(KeyError):
            word_image(compute_holonomy(spec_a), Word([("z", 1)]))


def _hd(rank, **stable):
    return HolonomyData("X", {name: QMat(rows) for name, rows in stable.items()}, frozenset(), rank)


class TestNonDiscretenessWitness:
    def test_two_loop_contraction(self, spec_a):
        hd = compute_holonomy(spec_a)
        res = non_discreteness_witness(hd)
        assert res.kind == "contraction"
        assert (res.contractor, res.word) == (parse_word("h"), parse_word("p"))
        assert res.basis == QMat.identity(2)
        assert res.searched_length == 1
        assert verify_nondiscreteness(hd, res)
        # the walk's old witness is the fifth term of the certified sequence
        assert word_image(hd, parse_word("h^-5 p h^5")) == QMat([[1, Q(1, 1024)], [0, 1]])

    def test_three_loop_contraction_skips_the_turn(self, spec_b):
        hd = compute_holonomy(spec_b)
        res = non_discreteness_witness(hd)
        assert (res.kind, res.contractor, res.word) == (
            "contraction", parse_word("h"), parse_word("p")
        )
        assert verify_nondiscreteness(hd, res)

    def test_non_diagonal_contractor(self):
        # h = C diag(3, 1/3) C^-1 and g = C [[1, 2], [0, 1]] C^-1 with
        # C = [[2, 1], [1, 1]]: the eigenlines are off the coordinate axes
        c = QMat([[2, 1], [1, 1]])
        h = c * QMat([[3, 0], [0, Q(1, 3)]]) * c.inverse()
        g = c * QMat([[1, 2], [0, 1]]) * c.inverse()
        hd = HolonomyData("X", {"h": h, "p": g}, frozenset(), 2)
        res = non_discreteness_witness(hd)
        assert res.kind == "contraction"
        assert res.basis != QMat.identity(2)
        assert verify_nondiscreteness(hd, res)
        lam = res.basis.inverse() * word_image(hd, res.contractor) * res.basis
        assert {lam.rows[0][0], lam.rows[1][1]} == {3, Q(1, 3)}

    def test_lower_triangular_contractor(self):
        # h = [[2, 0], [1, 1/2]] moves the line of e1; the certificate is
        # (h^-1, p) with p the lower shear
        hd = _hd(2, h=[[2, 0], [1, Q(1, 2)]], p=[[1, 0], [1, 1]])
        res = non_discreteness_witness(hd)
        assert (res.kind, res.contractor, res.word) == (
            "contraction", parse_word("h^-1"), parse_word("p")
        )
        assert verify_nondiscreteness(hd, res)

    def test_irrational_eigenvalues_give_no_contractor(self):
        # [[2, 1], [1, 1]] has eigenvalues (3 +- sqrt 5) / 2
        hd = _hd(2, h=[[2, 1], [1, 1]], p=[[1, Q(1, 2)], [0, 1]])
        assert non_discreteness_witness(hd).kind == "none found"
        # discriminant 9/2: a square numerator over a non-square
        # denominator; p is a shear along the eigenlines of the rational
        # matrix with the eigenvalues (1 +- 3) / 2 that a root of 3 would give
        hd = _hd(2, h=[[1, 1], [Q(7, 8), 0]], p=[[Q(4, 3), Q(-1, 3)], [Q(1, 3), Q(2, 3)]])
        assert non_discreteness_witness(hd).kind == "none found"

    def test_rank_three_diagonal_contractor(self):
        hd = _hd(3, h=[[2, 0, 0], [0, 1, 0], [0, 0, Q(1, 2)]], p=[[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        res = non_discreteness_witness(hd)
        assert (res.kind, res.contractor, res.word) == (
            "contraction", parse_word("h"), parse_word("p")
        )
        assert verify_nondiscreteness(hd, res)

    def test_cyclic_image_finds_nothing(self):
        # diag(1002/1001, 1001/1002) and its square generate a discrete
        # cyclic group, though the generator lies within 1/1000 of I
        r = Q(1002, 1001)
        hd = _hd(2, s=[[r, 0], [0, 1 / r]], u=[[r * r, 0], [0, 1 / (r * r)]])
        res = non_discreteness_witness(hd)
        assert res.kind == "none found"
        assert not verify_nondiscreteness(hd, res)

    def test_rank_one_dense(self):
        hd = _hd(1, s=[[Q(3, 2)]], u=[[Q(2, 1)]])
        res = non_discreteness_witness(hd)
        assert (res.kind, res.word, res.searched_length) == ("dense", None, 0)
        assert verify_nondiscreteness(hd, res)

    def test_rank_one_cyclic_finds_nothing(self):
        hd = _hd(1, s=[[2]], u=[[Q(-1, 4)]])
        assert non_discreteness_witness(hd).kind == "none found"

    def test_integral_shortcut(self):
        spec = GoGSpec.make(
            2,
            ["X"],
            [
                Edge("p", "X", "X", QMat.identity(2), QMat([[1, 1], [0, 1]])),
                Edge("e", "X", "X", QMat.identity(2), QMat([[0, 1], [-1, 0]])),
            ],
        )
        res = non_discreteness_witness(compute_holonomy(spec))
        assert res.kind == "discrete (integral)"

    def test_diagonal_alone_finds_nothing(self):
        spec = GoGSpec.make(
            2,
            ["X"],
            [Edge("h", "X", "X", QMat([[1, 0], [0, 2]]), QMat([[2, 0], [0, 1]]))],
        )
        res = non_discreteness_witness(compute_holonomy(spec))
        assert res.kind == "none found"
        assert res.searched_length == 1


class TestVerifyNondiscreteness:
    def test_swapped_pair_rejected(self, spec_a):
        hd = compute_holonomy(spec_a)
        res = non_discreteness_witness(hd)
        swapped = replace(res, contractor=res.word, word=res.contractor)
        assert not verify_nondiscreteness(hd, swapped)

    def test_diagonal_entry_rejected(self, spec_b):
        # the quarter turn e: P^-1 (e - I) P has -1 on its diagonal
        hd = compute_holonomy(spec_b)
        res = non_discreteness_witness(hd)
        assert not verify_nondiscreteness(hd, replace(res, word=parse_word("e")))

    def test_equal_modulus_contractor_rejected(self):
        hd = _hd(2, h=[[2, 0], [0, -2]], p=[[1, 1], [0, 1]])
        res = WitnessResult("contraction", parse_word("p"), parse_word("h"), QMat.identity(2), 1)
        assert not verify_nondiscreteness(hd, res)
        assert non_discreteness_witness(hd).kind == "none found"

    def test_identity_rejected(self):
        hd = _hd(2, h=[[2, 0], [0, Q(1, 2)]], p=[[1, 0], [0, 1]])
        res = WitnessResult("contraction", parse_word("p"), parse_word("h"), QMat.identity(2), 1)
        assert not verify_nondiscreteness(hd, res)

    def test_wrong_basis_rejected(self, spec_a):
        hd = compute_holonomy(spec_a)
        res = replace(non_discreteness_witness(hd), basis=QMat([[1, 1], [0, 1]]))
        assert not verify_nondiscreteness(hd, res)
        assert not verify_nondiscreteness(hd, replace(res, basis=QMat([[1, 1], [1, 1]])))

    def test_dense_claim_on_cyclic_rejected(self):
        hd = _hd(1, s=[[2]], u=[[4]])
        assert not verify_nondiscreteness(hd, WitnessResult("dense"))

    def test_other_kinds_prove_nothing(self, spec_a):
        hd = compute_holonomy(spec_a)
        for kind in ("none found", "discrete (integral)"):
            assert not verify_nondiscreteness(hd, WitnessResult(kind))

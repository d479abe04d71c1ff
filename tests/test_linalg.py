import math
import random
from fractions import Fraction as Q

import mpmath
import pytest
import sympy

from gbsn.linalg import (
    ProjPoint,
    QMat,
    QuadraticNumber,
    SingularMatrixError,
    ZMat,
    cartan_projection,
    eigen_directions,
    hermite_normal_form,
    lattice_residue,
    lattice_solve,
    spectral_radius_gt_one,
    squarefree_decompose,
    sublattice_index,
)

H = QMat([[2, 0], [0, Q(1, 2)]])
P = QMat([[1, 1], [0, 1]])
E = QMat([[0, 1], [-1, 0]])


def coset_count(m: ZMat) -> int:
    """Independent oracle: integer points in the half-open fundamental
    parallelepiped m * [0,1)^n, one per coset of the column lattice."""
    inv = m.to_qmat().inverse()
    bound = sum(abs(x) for row in m.rows for x in row) + 1
    count = 0
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if all(0 <= t < 1 for t in inv.apply((x, y))):
                count += 1
    return count


class TestSublatticeIndex:
    def test_identity(self):
        assert sublattice_index(ZMat.identity(2)) == 1

    def test_index_two_subgroup(self):
        assert sublattice_index(ZMat([[1, 0], [0, 2]])) == 2

    def test_sheared_lattice_against_coset_enumeration(self):
        m = ZMat([[2, 1], [0, 3]])
        assert coset_count(m) == 6
        assert sublattice_index(m) == 6

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError, match="not injective"):
            sublattice_index(ZMat([[1, 0], [0, 0]]))

    def test_exhaustive_small_matrices(self):
        entries = range(-2, 3)
        for a in entries:
            for b in entries:
                for c in entries:
                    for d in entries:
                        if a * d - b * c == 0:
                            continue
                        m = ZMat([[a, b], [c, d]])
                        assert sublattice_index(m) == coset_count(m)

    def test_random_entries_up_to_five(self):
        rng = random.Random(5)
        done = 0
        while done < 120:
            rows = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
            m = ZMat(rows)
            if m.det() == 0:
                continue
            assert sublattice_index(m) == coset_count(m)
            done += 1


class TestLatticeSolve:
    def test_member(self):
        assert lattice_solve(ZMat([[1, 0], [0, 2]]), (3, 4)) == (3, 2)

    def test_not_member(self):
        assert lattice_solve(ZMat([[1, 0], [0, 2]]), (3, 3)) is None

    def test_sheared(self):
        m = ZMat([[2, 1], [0, 3]])
        y = lattice_solve(m, (5, 3))
        assert y == (2, 1)
        assert m.apply(y) == (5, 3)

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(200):
            m = ZMat([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
            if m.det() == 0:
                continue
            y = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert lattice_solve(m, m.apply(y)) == y


class TestHermite:
    def test_same_lattice_and_triangular(self):
        rng = random.Random(3)
        for _ in range(100):
            m = ZMat([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
            if m.det() == 0:
                continue
            h = hermite_normal_form(m)
            assert h.rows[0][1] == 0 or h.n != 2  # lower triangular
            assert abs(h.det()) == abs(m.det())
            # membership agrees with the direct solver on a grid
            for x in range(-4, 5):
                for y in range(-4, 5):
                    residue, lat = lattice_residue(h, (x, y))
                    in_lattice = lattice_solve(m, (x, y)) is not None
                    assert (not any(residue)) == in_lattice
                    assert tuple(a + b for a, b in zip(residue, lat)) == (x, y)

    def test_residues_canonical(self):
        h = hermite_normal_form(ZMat([[1, 0], [0, 2]]))
        residues = {lattice_residue(h, (x, y))[0] for x in range(-3, 4) for y in range(-3, 4)}
        assert residues == {(0, 0), (0, 1)}


class TestEigenDirections:
    def test_diagonal(self):
        eig = eigen_directions(H)
        assert not eig.scalar
        assert set(eig.points) == {ProjPoint.make(1, 0), ProjPoint.make(0, 1)}

    def test_parabolic_single_direction(self):
        eig = eigen_directions(P)
        assert eig.points == (ProjPoint.make(1, 0),)

    def test_quarter_turn_complex_pair(self):
        eig = eigen_directions(E)
        assert eig.radicand == -1
        i = QuadraticNumber.make(0, 1, -1)
        assert set(eig.points) == {
            ProjPoint.make(QuadraticNumber.of(1), i),
            ProjPoint.make(QuadraticNumber.of(1), -i),
        }

    def test_quarter_turn_against_sympy(self):
        sym = sympy.Matrix([[0, 1], [-1, 0]])
        expected_slopes = set()
        for value, _, vects in sym.eigenvects():
            for v in vects:
                expected_slopes.add(sympy.simplify(v[1] / v[0]))
        ours = set()
        for p in eigen_directions(E).points:
            y = p.y
            ours.add(sympy.nsimplify(sympy.Rational(y.a) + sympy.Rational(y.b) * sympy.sqrt(y.d)))
        assert {sympy.simplify(s) for s in ours} == expected_slopes

    def test_scalar_marker(self):
        eig = eigen_directions(QMat([[3, 0], [0, 3]]))
        assert eig.scalar and eig.points == ()

    def test_fixed_point_property_random(self):
        rng = random.Random(17)
        done = 0
        while done < 150:
            m = QMat([[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)])
            if m.det() == 0 or m.is_scalar():
                continue
            for p in eigen_directions(m).points:
                assert p.apply(m) == p
            done += 1


class TestCartan:
    def test_identity(self):
        c = cartan_projection(QMat.identity(2))
        assert c.log_sigma1 == 0 and c.log_sigma2 == 0
        assert c.error_bound <= 1e-12

    def test_diagonal(self):
        c = cartan_projection(H)
        assert abs(c.log_sigma1 - math.log(2)) <= 1e-12
        assert abs(c.log_sigma2 + math.log(2)) <= 1e-12

    def test_parabolic_golden_ratio(self):
        # singular values of [[1,1],[0,1]] are phi and 1/phi
        with mpmath.workdps(40):
            expected = float(mpmath.log((1 + mpmath.sqrt(5)) / 2))
        c = cartan_projection(P)
        assert abs(c.log_sigma1 - expected) <= 2e-12
        assert abs(c.log_sigma2 + expected) <= 2e-12

    def test_inverse_antisymmetry_random(self):
        rng = random.Random(23)
        done = 0
        while done < 40:
            m = QMat([[Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)])
            if m.det() == 0:
                continue
            c = cartan_projection(m)
            ci = cartan_projection(m.inverse())
            assert abs(ci.log_sigma1 + c.log_sigma2) <= 4e-12
            assert abs(ci.log_sigma2 + c.log_sigma1) <= 4e-12
            done += 1


class TestQMat:
    def test_det_multiplicative_random(self):
        rng = random.Random(31)
        for _ in range(100):
            a = QMat([[Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)])
            b = QMat([[Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)])
            assert (a * b).det() == a.det() * b.det()

    def test_inverse_random(self):
        rng = random.Random(37)
        done = 0
        while done < 60:
            a = QMat([[Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)])
            if a.det() == 0:
                continue
            assert a * a.inverse() == QMat.identity(3)
            done += 1

    def test_pow(self):
        assert H ** 3 == QMat([[8, 0], [0, Q(1, 8)]])
        assert H ** -1 == QMat([[Q(1, 2), 0], [0, 2]])
        assert P ** 0 == QMat.identity(2)

    def test_eigen_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="n = 2"):
            eigen_directions(QMat.identity(3))


class TestQuadraticNumber:
    def test_squarefree(self):
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(-4) == (2, -1)
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(0) == (0, 0)

    def test_normalizes_square_radicand(self):
        x = QuadraticNumber.make(1, 1, 9)
        assert x.is_rational() and x.a == 4

    def test_field_arithmetic(self):
        x = QuadraticNumber.make(1, 1, 5)
        y = QuadraticNumber.make(0, 2, 5)
        assert (x * y).a == 10 and (x * y).b == 2
        assert (x / x).a == 1 and (x / x).is_rational()
        assert (x - x).is_zero()

    def test_field_arithmetic_does_not_factor(self, monkeypatch):
        # the operands' radicand is already squarefree, so results are built
        # without factoring it again, and still equal make()'s normal form
        import gbsn.linalg as linalg

        rng = random.Random(37)
        cases = []
        for _ in range(200):
            d = rng.choice([2, 3, 6, -1, -3, 1155])
            x, y = (
                QuadraticNumber.make(Q(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-2, 2), d)
                for _ in range(2)
            )
            cases.append((x, y, d))
        cases.append((QuadraticNumber.make(1, 2, 3), QuadraticNumber.make(0, -2, 3), 3))
        expected = []
        for x, y, d in cases:
            norm = x.a * x.a - x.b * x.b * d
            expected.append((
                QuadraticNumber.make(x.a + y.a, x.b + y.b, d),
                QuadraticNumber.make(x.a - y.a, x.b - y.b, d),
                QuadraticNumber.make(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d),
                QuadraticNumber.make(x.a / norm, -x.b / norm, d) if norm else None,
            ))

        def refuse(n):
            raise AssertionError("squarefree_decompose called")

        monkeypatch.setattr(linalg, "squarefree_decompose", refuse)
        for (x, y, _), (total, diff, product, inverse) in zip(cases, expected):
            assert x + y == total and x - y == diff and x * y == product
            if inverse is not None:
                assert x.inverse() == inverse
        assert (cases[-1][0] + cases[-1][1]).d == 0

    def test_exact_ordering(self):
        sqrt2 = QuadraticNumber.make(0, 1, 2)
        assert Q(141, 100) < sqrt2 < Q(142, 100)
        assert abs(-sqrt2) == sqrt2

    def test_ordering_across_radicands(self):
        def num(a, b, d):
            return QuadraticNumber.make(a, b, d)

        def real(x):
            return float(x.a) + float(x.b) * math.sqrt(x.d)

        assert num(0, 1, 2) < num(0, 1, 3)
        assert num(1, 1, 2) > num(0, 1, 5)
        assert num(3, -1, 2) < num(0, 1, 3)
        assert num(0, -1, 7) <= num(Q(-1, 2), -1, 3)
        rng = random.Random(31)
        for _ in range(300):
            x = num(Q(rng.randint(-20, 20), rng.randint(1, 4)), rng.randint(-6, 6), rng.choice([2, 3, 5, 6, 7]))
            y = num(Q(rng.randint(-20, 20), rng.randint(1, 4)), rng.randint(-6, 6), rng.choice([10, 11, 13, 15]))
            assert (x < y) == (real(x) < real(y))
            assert (x > y) == (real(x) > real(y))

    def test_arithmetic_across_radicands_still_raises(self):
        with pytest.raises(ValueError):
            QuadraticNumber.make(0, 1, 2) + QuadraticNumber.make(0, 1, 3)

    def test_sign_undefined_for_complex(self):
        i = QuadraticNumber.make(0, 1, -1)
        with pytest.raises(ValueError):
            i.sign()


def test_spectral_radius():
    assert spectral_radius_gt_one(H)
    assert not spectral_radius_gt_one(P)
    assert not spectral_radius_gt_one(E)
    assert spectral_radius_gt_one(QMat([[1, 1], [1, 2]]))

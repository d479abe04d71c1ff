import decimal
import itertools
import math
import random
from fractions import Fraction as Q

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadratic_reference as ref
from gbsn import linalg
from gbsn.linalg import (
    QMat,
    SingularMatrixError,
    eigen_directions,
    hermite_normal_form,
    lattice_hnf,
    lattice_residue,
    spectral_radius_gt_one,
    squarefree_decompose,
    sublattice_index,
)
from quadratic_reference import QuadraticNumber, lattice_solve, point, qmat_apply, qmat_trace

H = QMat([[2, 0], [0, Q(1, 2)]])
P = QMat([[1, 1], [0, 1]])
E = QMat([[0, 1], [-1, 0]])


def coset_count(m: QMat) -> int:
    """Independent oracle: integer points in the half-open fundamental
    parallelepiped m * [0,1)^n, one per coset of the column lattice."""
    inv = m.inverse()
    bound = sum(abs(x) for row in m.num for x in row) + 1
    count = 0
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if all(0 <= t < 1 for t in qmat_apply(inv, (x, y))):
                count += 1
    return count


class TestSublatticeIndex:
    def test_identity(self):
        assert sublattice_index(QMat.identity(2)) == 1

    def test_index_two_subgroup(self):
        assert sublattice_index(QMat([[1, 0], [0, 2]])) == 2

    def test_sheared_lattice_against_coset_enumeration(self):
        m = QMat([[2, 1], [0, 3]])
        assert coset_count(m) == 6
        assert sublattice_index(m) == 6

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError, match="not injective"):
            sublattice_index(QMat([[1, 0], [0, 0]]))

    def test_exhaustive_small_matrices(self):
        entries = range(-2, 3)
        for a in entries:
            for b in entries:
                for c in entries:
                    for d in entries:
                        if a * d - b * c == 0:
                            continue
                        m = QMat([[a, b], [c, d]])
                        assert sublattice_index(m) == coset_count(m)

    def test_random_entries_up_to_five(self):
        rng = random.Random(5)
        done = 0
        while done < 120:
            rows = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
            m = QMat(rows)
            if m.det() == 0:
                continue
            assert sublattice_index(m) == coset_count(m)
            done += 1


class TestLatticeSolve:
    def test_member(self):
        assert lattice_solve(QMat([[1, 0], [0, 2]]), (3, 4)) == (3, 2)

    def test_not_member(self):
        assert lattice_solve(QMat([[1, 0], [0, 2]]), (3, 3)) is None

    def test_sheared(self):
        m = QMat([[2, 1], [0, 3]])
        y = lattice_solve(m, (5, 3))
        assert y == (2, 1)
        assert qmat_apply(m, y) == (5, 3)

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(200):
            m = QMat([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
            if m.det() == 0:
                continue
            y = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert lattice_solve(m, qmat_apply(m, y)) == y


class TestHermite:
    def test_same_lattice_and_triangular(self):
        rng = random.Random(3)
        for _ in range(100):
            m = QMat([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
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
        h = hermite_normal_form(QMat([[1, 0], [0, 2]]))
        residues = {lattice_residue(h, (x, y))[0] for x in range(-3, 4) for y in range(-3, 4)}
        assert residues == {(0, 0), (0, 1)}

    def test_singular_matrix_refused(self):
        with pytest.raises(SingularMatrixError, match="full-rank"):
            hermite_normal_form(QMat([[1, 2], [2, 4]]))

    def test_rank_deficient_keeps_a_zero_column(self):
        # (0, 1, 2) and (0, 2, 4) span a rank-1 lattice with its pivot in
        # row 1; rows 0 and 2 have none
        h = lattice_hnf(3, [(0, 1, 2), (0, 2, 4), (0, 0, 0)])
        assert h.num == ((0, 0, 0), (0, 1, 0), (0, 2, 0))
        assert lattice_residue(h, (5, 3, 7)) == ((5, 0, 1), (0, 3, 6))
        assert lattice_hnf(2, []).num == ((0, 0), (0, 0))


def sympy_membership(n, generators):
    """Independent oracle: a test whether a vector is an integer combination
    of the generators. sympy's Hermite basis B of their lattice has full
    column rank, so a vector v is in the lattice exactly when the rational
    solution c of B c = v on r independent rows is integral and B c = v."""
    if not any(any(g) for g in generators):
        return lambda vec: not any(vec)
    basis = sympy_hnf(sympy.Matrix(n, len(generators), lambda i, j: generators[j][i]))
    _, rows = basis.T.rref()  # the pivot columns of B^T: independent rows of B
    solve = basis.extract(list(rows), list(range(basis.cols))).inv()
    solve = [[Q(int(x.p), int(x.q)) for x in solve.row(i)] for i in range(solve.rows)]
    ints = [[int(x) for x in basis.row(i)] for i in range(n)]

    def member(vec):
        coords = [sum(a * vec[r] for a, r in zip(row, rows)) for row in solve]
        return all(c.denominator == 1 for c in coords) and all(
            sum(a * c for a, c in zip(row, coords)) == v for row, v in zip(ints, vec)
        )

    return member


@st.composite
def generating_sets(draw):
    """Rank 1-3, 0-4 generators with entries |x| <= 4; a generator is often
    a combination of the others, so most sets are rank deficient."""
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple)
    gens = draw(st.lists(vector, max_size=4))
    if gens and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        first, last = gens[0], gens[-1]
        gens.append(tuple(a * x + b * y for x, y in zip(first, last)))
    return n, gens


@settings(derandomize=True, deadline=None, max_examples=150)
@given(generating_sets())
@example((3, [(1, 0, 0), (0, 1, 0)]))
@example((2, [(2, 4), (3, 6)]))
def test_lattice_hnf_of_any_rank(case):
    n, gens = case
    h = lattice_hnf(n, gens)
    cols = list(zip(*h.num))
    for i, col in enumerate(cols):
        assert not any(col[:i])  # lower triangular
        if col[i]:
            assert col[i] > 0
            assert all(0 <= cols[k][i] < col[i] for k in range(i))
        else:
            assert not any(col)  # no pivot: a zero column
    assert lattice_hnf(n, reversed(gens)) == h  # canonical
    if len(gens) == n and QMat(list(zip(*gens))).det() != 0:
        assert hermite_normal_form(QMat(list(zip(*gens)))) == h
    for g in gens:
        assert not any(lattice_residue(h, g)[0])
    member = sympy_membership(n, gens)
    for vec in itertools.product(range(-3, 4), repeat=n):
        residue, lat = lattice_residue(h, vec)
        assert tuple(a + b for a, b in zip(residue, lat)) == vec
        assert (not any(residue)) == member(vec)


class TestEigenDirections:
    def test_diagonal(self):
        eig = eigen_directions(H)
        assert not eig.scalar
        assert set(eig.points) == {point(1, 0), point(0, 1)}

    def test_parabolic_single_direction(self):
        eig = eigen_directions(P)
        assert eig.points == (point(1, 0),)

    def test_quarter_turn_complex_pair(self):
        eig = eigen_directions(E)
        assert eig.radicand == -1
        i = QuadraticNumber.make(0, 1, -1)
        assert set(eig.points) == {point(1, i), point(1, -i)}

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
                p = ref.ProjPoint.make(*(QuadraticNumber(c.a, c.b, c.d) for c in (p.x, p.y)))
                assert p.apply(m) == p
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

        monkeypatch.setattr(ref, "squarefree_decompose", refuse)
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


# --------------------------------------------------------------------------
# the integer kernel against plain Fraction arithmetic


def ref_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def ref_identity(n):
    return tuple(tuple(Q(int(i == j)) for j in range(n)) for i in range(n))


def ref_det(a):
    """Gaussian elimination over Fraction."""
    a, n, det = [list(row) for row in a], len(a), Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            a[col], a[pivot], det = a[pivot], a[col], -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def ref_inverse(a):
    """Gauss-Jordan over Fraction, or None for a singular matrix."""
    n = len(a)
    aug = [list(row) + list(e) for row, e in zip(a, ref_identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def ref_pow(a, k):
    if k < 0:
        a, k = ref_inverse(a), -k
    out = ref_identity(len(a))
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def assert_canonical(m: QMat):
    assert m.den > 0 and math.gcd(m.den, *(x for row in m.num for x in row)) == 1
    assert m.rows == tuple(tuple(Q(x, m.den) for x in row) for row in m.num)


BIG = [0, 1, -1, 2, -3, 7, 10**14 - 1, -(10**14) - 3, 2**64 + 13, -(2**65) + 1]
integers = st.one_of(st.integers(-6, 6), st.sampled_from(BIG), st.integers(-(2**70), 2**70))
denominators = st.one_of(st.integers(1, 6), st.sampled_from([10**14 + 7, 2**64 + 1]))
rationals = st.builds(Q, integers, denominators)


@st.composite
def square_pairs(draw, entries=rationals):
    """((a, b), vec): two n x n matrices as rows and an n-vector, n = 1..3."""
    n = draw(st.integers(1, 3))
    vector = st.lists(entries, min_size=n, max_size=n)
    square = st.lists(vector, min_size=n, max_size=n)
    return [tuple(map(tuple, draw(square))) for _ in range(2)], draw(vector)


KERNEL = settings(derandomize=True, deadline=None, max_examples=100)


def _case(a, b, vec):
    return tuple(tuple(tuple(map(Q, row)) for row in m) for m in (a, b)), tuple(map(Q, vec))


@KERNEL
@given(square_pairs())
# zero pivots: a row swap at the first step, and one at the second
@example(_case([[0, 1], [1, 0]], [[0, 2], [3, 0]], [1, 2]))
@example(_case([[1, 2, 3], [2, 4, 5], [0, 1, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [1, 0, 2]))
def test_kernel_matches_fraction_reference(case):
    (ra, rb), vec = case
    a, b = QMat(ra), QMat(rb)
    inv = ref_inverse(ra)
    results = [a * b, a**0, a**1, a**2, a**3]
    assert [m.rows for m in results] == [ref_mul(ra, rb)] + [ref_pow(ra, k) for k in range(4)]
    assert a.det() == ref_det(ra) and qmat_trace(a) == sum(ra[i][i] for i in range(len(ra)))
    assert qmat_apply(a, vec) == tuple(sum(x * v for x, v in zip(row, vec)) for row in ra)
    if inv is None:
        for op in (a.inverse, lambda: a**-1):
            with pytest.raises(SingularMatrixError):
                op()
    else:
        results += [a.inverse(), a**-1, a**-2, a**-3]
        assert [m.rows for m in results[5:]] == [inv] + [ref_pow(ra, -k) for k in (1, 2, 3)]
        assert a * a.inverse() == QMat.identity(a.n)
        assert hash(a * a.inverse()) == hash(QMat.identity(a.n))
    for m in results:
        assert_canonical(m)


@KERNEL
@given(square_pairs(integers))
def test_integer_det_matches_fraction_reference(case):
    (ra, _), _ = case
    assert QMat(ra).det() == ref_det(tuple(tuple(map(Q, row)) for row in ra))


def test_equal_matrices_by_different_routes_are_equal():
    routes = [
        QMat([[Q(2, 4), 3], [0, -1]]),
        QMat([[Q(1, 2), 3], [0, -1]]),
        QMat([["1/2", "3"], ["0", "-1"]]),
        QMat([[1, 6], [0, -2]]) * QMat([[Q(1, 2), 0], [0, Q(1, 2)]]),
        QMat([[2, 12], [0, -4]]).inverse().inverse() * QMat([[Q(1, 4), 0], [0, Q(1, 4)]]),
    ]
    for m in routes:
        assert m == routes[0] and hash(m) == hash(routes[0])
        assert (m.num, m.den) == (((1, 6), (0, -2)), 2)
        assert_canonical(m)


@st.composite
def root_sums(draw):
    """(a, b, d, c, e) for a + b sqrt(d) + c sqrt(e): radicands with a
    common squarefree part f, so the roots often cancel exactly."""
    f = draw(st.integers(1, 30))
    d, e = (f * draw(st.integers(0, 6)) ** 2 for _ in range(2))
    small = st.integers(-50, 50)
    a, b, c = draw(st.integers(-(10**6), 10**6) | small), draw(small), draw(small)
    return a, b, d, c, e


@settings(derandomize=True, deadline=None, max_examples=300)
@given(root_sums())
@example((0, 1, 8, -2, 2))  # sqrt 8 - 2 sqrt 2 = 0
@example((-1, 3, 2, 1, 3))
def test_root_sign_matches_high_precision(case):
    a, b, d, c, e = case
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        value = decimal.Decimal(a) + b * decimal.Decimal(d).sqrt() + c * decimal.Decimal(e).sqrt()
    expected = 0 if abs(value) < decimal.Decimal(10) ** -40 else (1 if value > 0 else -1)
    assert linalg._root_sign(a, b, d, c, e) == expected
    assert linalg._root_sign(Q(a, 7), Q(b, 7), d, Q(c, 7), e) == expected

"""Exact rational and integer linear algebra for small square matrices.

Everything in this module is exact. A rational matrix is an integer matrix
over one positive denominator, in lowest terms (the gcd of the denominator
and all entries is 1), so products, powers, determinants (Bareiss) and
inverses (fraction-free Gauss-Jordan) are integer work and equal matrices
have equal representations; its ``Fraction`` rows are a view built on first
read. A lattice map Z^n -> Z^n is a ``QMat`` with ``den == 1``.

Matrices act on column vectors; the columns of an integer matrix generate the
sublattice it defines.

Every spectral question about a 2x2 matrix goes to one integer kernel,
``eigenlines``: the discriminant D = (a - d)^2 + 4bc of the numerator and
the eigendirections, over the unfactored D when it is not a square. The
Tits scans (``common_eigenline``, ``commutes``, ``maps_to``), the spectral
radius, the ping-pong players and the contraction eigenbases read it.
``eigen_directions`` has no algorithm of its own: it states the lines of
``eigenlines`` as the points a report prints, over Q(sqrt(d)) with d the
squarefree part of D. No code here does arithmetic in a quadratic field. A
group of positive rationals is classified over a coprime base of their
numerators and denominators, so nothing there is factored either.

The real projective line is also a circle of directions. A rational point
is an integer direction (x, y) in lowest terms with y > 0, or y = 0 < x; an
irrational one is (x, y, q, D) for (x, y + q sqrt(D)), turned the same way,
with D unfactored. Circle order is the sign of a cross product, and a
matrix acts through its integer numerator. The ping-pong of ``matgroups``
works on arcs with rational ends (``ProjInterval``), whose ends it picks
with ``between`` and ``ProjInterval.isolate``; the chart of keys in [0, 2)
that those two read stays inside this module. A slope y/x is only printed
(``slope_text``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .record import Record

Q = Fraction


class SingularMatrixError(ValueError):
    """Raised when an operation needs an invertible matrix."""


def _bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: every division is exact, so all work stays in Z."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        p, row_k = a[k][k], a[k]
        for row in a[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * row_k[j]) // prev
        prev = p
    return sign * a[-1][-1]


class QMat:
    """Immutable n x n matrix over the rationals: the integer matrix ``num``
    over the positive denominator ``den``, in lowest terms (the gcd of den
    and all entries is 1), so equal matrices have equal (num, den).

    ``rows``, the entries as ``Fraction`` rows, is a view built on first
    read and kept.
    """

    __slots__ = ("num", "den", "n", "_rows")

    def __init__(self, rows: Iterable[Iterable]):
        fracs = tuple(tuple(Q(x) for x in row) for row in rows)
        n = len(fracs)
        if n == 0 or any(len(row) != n for row in fracs):
            raise ValueError("matrix must be square and nonempty")
        # the lcm of lowest-terms denominators leaves no common factor
        den = lcm(*(x.denominator for row in fracs for x in row))
        num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in fracs)
        for name, value in (("num", num), ("den", den), ("n", n), ("_rows", fracs)):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_ints(num: tuple, den: int) -> "QMat":
        """The matrix num / den in lowest terms, for square integer rows num
        (a tuple of tuples) and den != 0."""
        g = gcd(den, *(x for row in num for x in row))
        if den < 0:
            g = -g
        if g != 1:
            num = tuple(tuple(x // g for x in row) for row in num)
            den //= g
        m = object.__new__(QMat)
        for name, value in (("num", num), ("den", den), ("n", len(num)), ("_rows", None)):
            object.__setattr__(m, name, value)
        return m

    def __setattr__(self, *a):
        raise AttributeError("QMat is immutable")

    @property
    def rows(self) -> tuple[tuple[Q, ...], ...]:
        if self._rows is None:
            rows = tuple(tuple(Q(x, self.den) for x in row) for row in self.num)
            object.__setattr__(self, "_rows", rows)
        return self._rows

    @staticmethod
    def identity(n: int) -> "QMat":
        return QMat.from_ints(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    def __eq__(self, other):
        return isinstance(other, QMat) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)
        return f"QMat([{body}])"

    def __mul__(self, other: "QMat") -> "QMat":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.num))
        num = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.num)
        return QMat.from_ints(num, self.den * other.den)

    def __pow__(self, k: int) -> "QMat":
        if k < 0:
            return self.inverse() ** (-k)
        result = QMat.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def det(self) -> Q:
        return Q(_bareiss(self.num), self.den**self.n)

    def inverse(self) -> "QMat":
        """Fraction-free Gauss-Jordan on [num | I]: each step divides exactly
        by the previous pivot, and the last pivot is +-det(num)."""
        n = self.n
        a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.num)]
        prev = 1
        for k in range(n):
            pivot = next((r for r in range(k, n) if a[r][k]), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            a[k], a[pivot] = a[pivot], a[k]
            p, row_k = a[k][k], a[k]
            for i in range(n):
                if i != k:
                    f = a[i][k]
                    a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], row_k)]
            prev = p
        # a = [prev * I | prev * num^-1], and (num / den)^-1 = den * num^-1
        return QMat.from_ints(tuple(tuple(self.den * x for x in row[n:]) for row in a), prev)

    def is_scalar(self) -> bool:
        d = self.num[0][0]
        return all(x == d * (i == j) for i, row in enumerate(self.num) for j, x in enumerate(row))

    def is_integral(self) -> bool:
        return self.den == 1


def sublattice_index(m: QMat) -> int:
    """Index of the sublattice m(Z^n) in Z^n, i.e. |det m|, for an integer
    matrix m.

    Raises SingularMatrixError for singular m (the inclusion would not be
    injective).
    """
    d = _bareiss(m.num)
    if d == 0:
        raise SingularMatrixError("edge inclusion not injective")
    return abs(d)


def hermite_normal_form(m: QMat) -> QMat:
    """Column-style Hermite normal form H of a nonsingular integer matrix m
    (same column lattice): ``lattice_hnf`` of its columns.

    Raises SingularMatrixError for singular m.
    """
    if m.det() == 0:
        raise SingularMatrixError("lattice has no full-rank basis")
    return lattice_hnf(m.n, zip(*m.num))


def lattice_hnf(n: int, generators: Iterable[Sequence[int]]) -> QMat:
    """Column-style Hermite normal form of the lattice that the integer
    vectors ``generators`` span in Z^n, whatever its rank.

    Column i of the n x n result is zero where no lattice vector has its
    first nonzero entry in row i; otherwise it is the lattice's pivot
    column there, whose diagonal entry is positive and which reduces the
    entries of row i left of it into [0, pivot). The result is lower
    triangular, its nonzero columns are a basis of the lattice, and it is
    obtained from the generators by unimodular column operations, so every
    generating set of one lattice gives the same matrix.
    """
    cols = [list(g) for g in generators]  # not yet placed
    basis = []
    for i in range(n):
        # gcd sweep on row i across the columns not yet placed; all of them
        # are zero above row i
        while True:
            nonzero = [k for k in range(len(cols)) if cols[k][i] != 0]
            if len(nonzero) < 2:
                break
            k1, k2 = nonzero[0], nonzero[1]
            if abs(cols[k1][i]) > abs(cols[k2][i]):
                k1, k2 = k2, k1
            q = cols[k2][i] // cols[k1][i]
            cols[k2] = [a - q * b for a, b in zip(cols[k2], cols[k1])]
        if not nonzero:
            basis.append([0] * n)
            continue
        pivot = cols.pop(nonzero[0])
        if pivot[i] < 0:
            pivot = [-a for a in pivot]
        # reduce row i in earlier columns into [0, pivot)
        for k, col in enumerate(basis):
            q = col[i] // pivot[i]
            if q:
                basis[k] = [a - q * b for a, b in zip(col, pivot)]
        basis.append(pivot)
    return QMat.from_ints(tuple(zip(*basis)), 1)


def lattice_residue(hnf: QMat, vec: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split vec = residue + lattice part w.r.t. a column-HNF basis.

    The residue is the canonical representative of vec modulo the column
    lattice of ``hnf``: working top-down, coordinate i is reduced into
    [0, hnf[i][i]) where column i is a pivot and left as it is where it is
    zero. Returns (residue, lattice_part); vec is in the lattice iff the
    residue is zero.
    """
    n, rows = hnf.n, hnf.num
    v = list(vec)
    lattice = [0] * n
    for i in range(n):
        d = rows[i][i]
        q = v[i] // d if d else 0
        if q:
            for r in range(n):
                v[r] -= q * rows[r][i]
                lattice[r] += q * rows[r][i]
    return tuple(v), tuple(lattice)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s^2 * d with d squarefree (d keeps the sign of n)."""
    if n == 0:
        return 0, 0
    sign = 1 if n > 0 else -1
    n = abs(n)
    s, d = 1, 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    d *= n
    return s, sign * d


def _coprime_base(nums: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 over which every number of ``nums``
    (each >= 1) is a product of powers, by gcd splitting (Bach, Driscoll and
    Shallit, J. Algorithms 1993): two numbers with a common factor g > 1 give
    way to g and their quotients by g. The product of all the numbers held
    drops at each split, so the splitting ends."""
    base, todo = [], [n for n in nums if n > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                todo += [t for t in (g, b // g, x // g) if t > 1]
                break
        else:
            base.append(x)
    return base


def _valuation(n: int, b: int) -> int:
    """The exponent of b in n, for b > 1."""
    e = 0
    while n % b == 0:
        n, e = n // b, e + 1
    return e


def _multiplicative_group_shape(values: list[Q]) -> tuple[str, Q | None]:
    """Classify the subgroup of the positive reals generated by positive
    rationals: trivial, infinite cyclic (with its generator > 1), or dense.

    A finitely generated subgroup of (R+, *) is discrete iff cyclic. Over a
    coprime base of the numerators and denominators every value has one
    exponent vector, and the group is cyclic iff each vector is an integer
    multiple m of the first divided by its content; the base to that
    primitive vector, raised to the gcd of the m, generates it.
    """
    values = [v for v in values if v != 1]
    if not values:
        return "trivial", None
    base = _coprime_base(n for v in values for n in (v.numerator, v.denominator))
    vectors = [
        [_valuation(v.numerator, b) - _valuation(v.denominator, b) for b in base] for v in values
    ]
    content = gcd(*vectors[0])
    primitive = [e // content for e in vectors[0]]
    lead = next(i for i, e in enumerate(primitive) if e)
    step = 0
    for vec in vectors:
        m = vec[lead] // primitive[lead]
        if any(e != m * p for e, p in zip(vec, primitive)):
            return "dense", None
        step = gcd(step, m)
    generator = prod(Q(b) ** (p * step) for b, p in zip(base, primitive))
    return "cyclic", max(generator, 1 / generator)


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _root_sign(a, b, d: int, c=0, e: int = 0) -> int:
    """Sign of a + b*sqrt(d) + c*sqrt(e) for rational or integer a, b, c and
    d, e >= 0, which need not be squarefree or distinct."""
    if c == 0 or e == 0:
        if b == 0 or d == 0:
            return _sgn(a)
        if a == 0 or (a > 0) == (b > 0):
            return _sgn(b)
        # opposite signs: compare a^2 with b^2 d
        return _sgn(a) * _sgn(a * a - b * b * d)
    # u = b sqrt(d) + c sqrt(e); for opposite signs of a and u compare
    # a^2 with u^2 = b^2 d + c^2 e + 2bc sqrt(de)
    u = _sgn(c) if (b > 0) == (c > 0) else _sgn(c) * _sgn(c * c * e - b * b * d)
    if u == 0 or a == 0 or (a > 0) == (u > 0):
        return u or _sgn(a)
    return _sgn(a) * _root_sign(a * a - b * b * d - c * c * e, -2 * b * c, d * e)


class QuadraticNumber(Record):
    """The number a + b*sqrt(d), as a certificate states it.

    Stated form: a and b are rational, and either b == d == 0 (a rational
    number) or b != 0 and d is squarefree and not 1 (negative for a complex
    number). Equal numbers therefore have equal fields. The record does no
    arithmetic; ``maps_to`` tests points on their integer parts.
    """

    a: Q
    b: Q
    d: int

    def is_rational(self) -> bool:
        return self.b == 0

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"({self.a} + {self.b}*sqrt({self.d}))"


class ProjPoint(Record):
    """The point (x : y) of the projective line over Q(sqrt(d)), as a
    certificate states it.

    Stated form: (0 : 1), or (1 : y) with y in stated form, so that equal
    points have equal fields. ``maps_to`` also accepts any other scale
    (x : y) with x != 0 or y != 0 over one radicand.
    """

    x: QuadraticNumber
    y: QuadraticNumber

    def is_rational(self) -> bool:
        return self.x.is_rational() and self.y.is_rational()

    def __repr__(self):
        return f"({self.x} : {self.y})"


class EigenData(Record):
    """Fixed points of a 2x2 rational matrix on the projective line.

    ``scalar`` marks scalar matrices (every point is fixed, ``points`` empty).
    Otherwise ``points`` holds the 1 or 2 eigendirections in stated form, over
    Q(sqrt(radicand)) with the radicand the squarefree part of the
    characteristic discriminant, or 0 when the points are rational.
    """

    scalar: bool
    points: tuple[ProjPoint, ...]
    radicand: int


def _rational(a) -> QuadraticNumber:
    return QuadraticNumber(Q(a), Q(0), 0)


def _stated(line: tuple) -> ProjPoint:
    """The point of an ``eigenlines`` line in stated form: (0 : 1) for
    x = 0, (1 : y/x) for a rational line (x, y), and (1 : y/x + (q s / x)
    sqrt(d)) for an irrational line (x, y, q, D), the point
    (x : y + q sqrt(D)), where D = s^2 d with d squarefree."""
    x, y = line[:2]
    if x == 0:
        return ProjPoint(_rational(0), _rational(1))
    if len(line) == 2:
        return ProjPoint(_rational(1), _rational(Q(y, x)))
    s, d = squarefree_decompose(line[3])
    return ProjPoint(_rational(1), QuadraticNumber(Q(y, x), Q(line[2] * s, x), d))


def eigen_directions(m: QMat) -> EigenData:
    """All fixed points of an invertible 2x2 rational matrix on P^1: the
    lines of ``eigenlines``, in its order, in stated form."""
    if m.n != 2:
        raise ValueError("eigendirections implemented for n = 2 only")
    if m.det() == 0:
        raise SingularMatrixError("matrix is singular")
    lines = eigenlines(m.num)[1]
    if not lines:
        return EigenData(True, (), 0)
    points = tuple(map(_stated, lines))
    return EigenData(False, points, points[0].y.d)


def spectral_radius_gt_one(m: QMat) -> bool:
    """Exact test: does some eigenvalue of the 2x2 matrix m have |lambda| > 1?

    On the numerator N = [[a, b], [c, d]] with T = a + d and
    D = (a - d)^2 + 4bc, the eigenvalues are (T +- sqrt(D)) / (2 den). A
    complex pair (D < 0) has |lambda|^2 = det N / den^2; a real pair, a
    scalar matrix (D = 0) among them, has the larger modulus
    (|T| + sqrt(D)) / (2 den), which exceeds 1 iff sqrt(D) > 2 den - |T|.
    """
    if m.n != 2:
        raise ValueError("implemented for n = 2 only")
    (a, b), (c, d) = m.num
    disc, gap = eigenlines(m.num)[0], 2 * m.den - abs(a + d)
    if disc < 0:
        return a * d - b * c > m.den**2
    return gap < 0 or disc > gap * gap


# --------------------------------------------------------------------------
# fixed points tested on integer numerators


def commutes(m: QMat, g: QMat) -> bool:
    """Does g m = m g, for 2x2 m and g? With m = [[a, b], [c, d]] and
    g = [[p, q], [r, s]] the commutator vanishes iff br = cq,
    b (p - s) = q (a - d) and c (p - s) = r (a - d); each test is
    homogeneous in m and in g, so it runs on the numerators."""
    (a, b), (c, d) = m.num
    (p, q), (r, s) = g.num
    return b * r == c * q and b * (p - s) == q * (a - d) and c * (p - s) == r * (a - d)


def eigenlines(num: tuple) -> tuple[int, tuple]:
    """(D, lines) for the integer 2x2 matrix num = [[a, b], [c, d]]: its
    discriminant D = (a - d)^2 + 4bc and its eigendirections, the one for the
    eigenvalue (a + d + sqrt(D)) / 2 first, with nothing factored.

    For k = a + d +- sqrt(D), twice an eigenvalue, the kernel of 2 num - k
    holds (2b, k - 2a) and (k - 2d, 2c); the line is the second when b = 0
    and it is nonzero, else the first. A square D (by ``math.isqrt``) gives
    integer lines (x, y); any other D, negative ones included, gives
    (2b, d - a, +-1, D) for (2b, d - a +- sqrt(D)), and then b != 0. A
    repeated eigenvalue (D = 0) has one line, and a scalar matrix none.
    """
    (a, b), (c, d) = num
    disc = (a - d) * (a - d) + 4 * b * c
    if b == c == 0 and a == d:
        return disc, ()
    if disc < 0 or (s := isqrt(disc)) * s != disc:
        return disc, ((2 * b, d - a, 1, disc), (2 * b, d - a, -1, disc))
    return disc, tuple(
        (k - 2 * d, 2 * c) if b == 0 and (c or k != 2 * d) else (2 * b, k - 2 * a)
        for k in ((a + d + s, a + d - s) if s else (a + d,))
    )


def common_eigenline(pivot: QMat, mats: Sequence[QMat]) -> ProjPoint | None:
    """The first real eigendirection of the non-scalar 2x2 ``pivot``, in the
    order of ``eigenlines``, that every matrix of ``mats`` fixes; None when
    there is none. Nothing is factored:

    - D < 0: both eigendirections are complex.
    - D a square: g fixes the integer line v iff g.num v x v = 0.
    - D not a square: a rational g fixes an irrational eigendirection iff it
      fixes its Galois conjugate, the other one, iff g commutes with the
      pivot; ``eigen_directions`` then states the first point.
    """
    disc, lines = eigenlines(pivot.num)
    if disc < 0:
        return None
    if len(lines[0]) == 4:
        return eigen_directions(pivot).points[0] if all(commutes(pivot, g) for g in mats) else None
    nums = [g.num for g in mats]
    for x, y in lines:
        if all((g0 * x + g1 * y) * y == (g2 * x + g3 * y) * x for (g0, g1), (g2, g3) in nums):
            return _stated((x, y))
    return None


def _point_ints(p: ProjPoint) -> tuple:
    """(x, a, b, d) with integers x, a, b and p = (x : a + b sqrt(d)), for a
    point at any scale: (x : y) is (x x' : y x') for the conjugate x' of x,
    and x x' is rational. Coordinates over two radicands raise ValueError."""
    x, y = p.x, p.y
    if x.a == x.b == 0:
        return 0, 1, 0, 0
    if x.b and y.b and x.d != y.d:
        raise ValueError("incompatible quadratic extensions")
    d = x.d if x.b else y.d
    parts = (x.a * x.a - x.b * x.b * d, x.a * y.a - x.b * y.b * d, x.a * y.b - x.b * y.a)
    k = lcm(*(t.denominator for t in parts))
    return (*(int(t * k) for t in parts), d)


def maps_to(g: QMat, p: ProjPoint, q: ProjPoint) -> bool:
    """Does the 2x2 matrix g map the point p to q (for q = p: does g fix p)?

    With p = (x1 : a1 + b1 sqrt(d)) and q = (x2 : a2 + b2 sqrt(d)) in
    integers, g.num p = (u + v sqrt(d) : w + z sqrt(d)), and its cross
    product with q is (u a2 + v b2 d - w x2) + (u b2 + v a2 - z x2) sqrt(d).
    Since d is not a square, it vanishes iff both parts do; d matters only
    when both points are irrational. Irrational points over two radicands
    lie in two different quadratic fields, so they never agree.
    """
    (g0, g1), (g2, g3) = g.num
    x1, a1, b1, d = _point_ints(p)
    x2, a2, b2, e = _point_ints(q)
    if b1 and b2 and d != e:
        return False
    u, v, w, z = g0 * x1 + g1 * a1, g1 * b1, g2 * x1 + g3 * a1, g3 * b1
    return u * a2 + v * b2 * d == w * x2 and u * b2 + v * a2 == z * x2


# --------------------------------------------------------------------------
# the projective line as a circle of integer directions


def _normal(x: int, y: int, q: int = 0, d: int = 0) -> tuple:
    """The direction (x, y + q sqrt(d)), for d not a square, turned to
    y + q sqrt(d) > 0, or to y = 0 < x."""
    if q == 0:
        return (x, y) if y > 0 or (y == 0 and x > 0) else (-x, -y)
    return (x, y, q, d) if _root_sign(y, q, d) > 0 else (-x, -y, -q, d)


def _cross(p: tuple, r: tuple) -> int:
    """Sign of the cross product p x r of two directions: 1 when p comes
    before r in circle order, 0 when they are the same point. Exact across
    radicands: y1 + q1 sqrt(d1) and y2 + q2 sqrt(d2) agree in rational parts
    and roots."""
    if len(p) == 2 == len(r):
        return _sgn(p[0] * r[1] - p[1] * r[0])
    x1, y1, q1, d1 = p if len(p) == 4 else (*p, 0, 0)
    x2, y2, q2, d2 = r if len(r) == 4 else (*r, 0, 0)
    return _root_sign(x1 * y2 - y1 * x2, x1 * q2, d2, -x2 * q1, d1)


def slope_text(p: tuple) -> str:
    """The slope y/x of a rational direction (x, y) in lowest terms as a
    report prints it: "inf" for (0, 1), else the fraction with its sign on
    the numerator, and a bare integer when |x| = 1."""
    x, y = p
    if x < 0:
        x, y = -x, -y
    return "inf" if x == 0 else str(y) if x == 1 else f"{y}/{x}"


def adjugate(m: tuple) -> tuple:
    """adj(m) = det(m) m^-1 acts on directions as m^-1, with its orientation."""
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def circle_key(v: tuple) -> tuple:
    """Order-preserving chart of the projective circle onto [0, 2): (x, y) has
    the key 1 - x / (|x| + y), so slopes s >= 0 go to s / (1 + s), (0, 1) to 1
    and negative slopes to (1, 2). A key (p, q, r, d) is (p + q sqrt(d)) / r
    with r > 0 and d not a square; q = d = 0 for a rational direction."""
    x, y, q, d = v if len(v) == 4 else (*v, 0, 0)
    e = abs(x) + y
    n = e * e - q * q * d  # (e + q sqrt(d)) (e - q sqrt(d)), not 0
    return (n - x * e, x * q, n, d) if n > 0 else (x * e - n, -x * q, -n, d)


def _key_direction(k: tuple) -> tuple:
    """The rational direction at a rational key, taken mod 2 (inverse of
    circle_key), in lowest terms."""
    n, r = k[0] % (2 * k[2]), k[2]
    x, y = (r - n, n) if n <= r else (r - n, 2 * r - n)
    g = gcd(x, y)
    return x // g, y // g


def _key_add(k: tuple, n: int, r: int) -> tuple:
    """The key k + n/r."""
    p, q, s, d = k
    return (p * r + n * s, q * r, s * r, d)


def _key_sum_sign(ka: tuple, kb: tuple, n: int, r: int) -> int:
    """Sign of ka + kb - n/r, exact across two radicands."""
    pa, qa, ra, da = ka
    pb, qb, rb, db = kb
    return _root_sign((pa * rb + pb * ra) * r - n * ra * rb, qa * rb * r, da, qb * ra * r, db)


def _key_cmp(ka: tuple, kb: tuple) -> int:
    """Sign of ka - kb."""
    return _key_sum_sign(ka, (-kb[0], -kb[1], kb[2], kb[3]), 0, 1)


def _key_floor(k: tuple, n: int) -> int:
    """floor(k * n) for n > 0; q n sqrt(d) is 0 or irrational, so its floor will do."""
    p, q, r, d = k
    t = q * n
    root = isqrt(t * t * d)
    return (p * n + (root if t >= 0 else -root - 1)) // r


def rational_key_between(ka: tuple, kb: tuple) -> tuple:
    """A rational key strictly between the keys ka < kb: for denom = 4, 64,
    1024, ... the multiple of 1/denom nearest their midpoint (ties to even),
    else the least multiple above ka, if it lies strictly between them."""
    if _key_cmp(ka, kb) >= 0:
        raise ValueError("empty key gap")
    denom = 4
    while True:
        # (ka + kb) denom is in [f, f + 2) for the sum f of the floors
        j = (_key_floor(ka, denom) + _key_floor(kb, denom)) // 2
        while (s := _key_sum_sign(ka, kb, 2 * j + 1, denom)) > 0 or (s == 0 and j % 2):
            j += 1
        for cand in ((j, 0, denom, 0), (_key_floor(ka, denom) + 1, 0, denom, 0)):
            if _key_cmp(ka, cand) < 0 and _key_cmp(cand, kb) < 0:
                return cand
        denom *= 16


def between(p: tuple, r: tuple) -> tuple:
    """A rational direction strictly inside the counterclockwise arc from the
    direction p to the direction r != p: ``rational_key_between`` on their
    keys, r's raised by 2 when it does not come after p's."""
    kp, kr = circle_key(p), circle_key(r)
    if _key_cmp(kp, kr) >= 0:
        kr = _key_add(kr, 2, 1)
    return _key_direction(rational_key_between(kp, kr))


class ProjInterval(Record):
    """Closed arc [lo, hi] of the projective circle, counterclockwise.

    The ends are rational directions (x, y): integers in lowest terms with
    y > 0, or y = 0 < x. Construction puts any nonzero integer pair in that
    form, so (-2, -4) is the end (1, 2), and raises ValueError for (0, 0) or
    a coordinate that is not an int. Counterclockwise is increasing
    ``circle_key`` with wraparound, (1, 0) -> (1, 1) -> (0, 1) -> (-1, 1) ->
    (1, 0); it is the order of the slopes 0 -> 1 -> inf -> -1 -> 0 that
    ``__str__`` and the reports print.
    """

    lo: tuple
    hi: tuple

    def __post_init__(self):
        for name in ("lo", "hi"):
            p = getattr(self, name)
            if not (isinstance(p, tuple) and len(p) == 2 and all(isinstance(t, int) for t in p)
                    and any(p)):
                raise ValueError(f"interval end {p!r} is not a nonzero integer direction (x, y)")
            g = gcd(*p)
            object.__setattr__(self, name, _normal(p[0] // g, p[1] // g))

    def contains(self, p: tuple) -> bool:
        """Does the arc contain the direction p, rational (x, y) or
        irrational (x, y, q, d), in the form ``_normal`` gives?"""
        lo, hi = self.lo, self.hi
        if _cross(lo, hi) >= 0:
            return _cross(lo, p) >= 0 and _cross(p, hi) >= 0
        return _cross(lo, p) >= 0 or _cross(p, hi) >= 0

    def contains_interval(self, other: "ProjInterval") -> bool:
        """From lo come other's lo, other's hi and hi, in order: p is no
        later than r if only r wraps past lo, or if both or neither do and
        p x r >= 0."""
        (lx, ly), (hx, hy) = self.lo, self.hi
        (ax, ay), (bx, by) = other.lo, other.hi
        wa, wb, wh = lx * ay < ly * ax, lx * by < ly * bx, lx * hy < ly * hx
        return (ax * by >= ay * bx if wa == wb else wb) and (bx * hy >= by * hx if wb == wh else wh)

    def disjoint_from(self, other: "ProjInterval") -> bool:
        return not any(
            a.contains(p) for a, b in ((self, other), (other, self)) for p in (b.lo, b.hi)
        )

    def image(self, num: tuple) -> "ProjInterval":
        """Image under the integer 2x2 matrix num, which acts on directions
        as num / den does; a negative determinant reverses the orientation."""
        (a, b), (c, d) = num
        (x1, y1), (x2, y2) = self.lo, self.hi
        p, r = (a * x1 + b * y1, c * x1 + d * y1), (a * x2 + b * y2, c * x2 + d * y2)
        return ProjInterval(p, r) if a * d > b * c else ProjInterval(r, p)

    def isolate(self, target: tuple, avoid: tuple) -> "ProjInterval | None":
        """Sub-arc with rational ends whose interior contains the direction
        ``target`` and which excludes the direction ``avoid``, or None.
        Offsets are keys counted from the key of lo."""
        if not self.contains(target):
            return None
        base_n, _, base_r, _ = circle_key(self.lo)

        def offset(p):
            k = _key_add(circle_key(p), -base_n, base_r)
            return k if _key_cmp(k, (0, 0, 1, 0)) >= 0 else _key_add(k, 2, 1)

        of = offset(target)
        lo_off, hi_off = (0, 0, 1, 0), offset(self.hi)
        if self.contains(avoid):  # then 0 <= offset(avoid) <= hi_off
            oa = offset(avoid)
            lo_off, hi_off = (oa, hi_off) if _key_cmp(oa, of) < 0 else (lo_off, oa)
        if not (_key_cmp(lo_off, of) < 0 and _key_cmp(of, hi_off) < 0):
            return None
        lo_key = _key_add(rational_key_between(lo_off, of), base_n, base_r)
        hi_key = _key_add(rational_key_between(of, hi_off), base_n, base_r)
        return ProjInterval(_key_direction(lo_key), _key_direction(hi_key))

    def __str__(self):
        return f"[{slope_text(self.lo)}, {slope_text(self.hi)}]"

"""The quadratic-field arithmetic and the eigendirection algorithm that
``gbsn.linalg`` used before it stated certificates from ``eigenlines``, kept
as the tests' references. Not a test module.

``QuadraticNumber`` here is the full number type: normalizing constructor,
field arithmetic, and an exact order across radicands. ``ProjPoint`` has
``make`` (the canonical representative) and ``apply`` (the Moebius action
by field arithmetic). ``eigen_directions`` is the trace-and-determinant
algorithm, with its eigenvalues. ``lattice_solve``, ``qmat_apply`` and
``qmat_trace`` are the solver and the ``QMat`` methods that only tests
called. ``INF``, ``direction`` and ``slope`` are the slope chart that the
ends of ``linalg.ProjInterval`` were once written in: the tests draw
intervals by their slopes and hand ``ProjInterval`` the directions.

Dataclass equality never holds across classes, so a reference value is
turned into the records of ``gbsn.linalg`` by ``stated`` before it is
compared with one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from gbsn import linalg
from gbsn.linalg import QMat, SingularMatrixError, _root_sign, squarefree_decompose

Q = Fraction


class Infinity:
    """The slope of the vertical direction (0, 1)."""

    def __repr__(self):
        return "inf"


INF = Infinity()


def direction(s) -> tuple:
    """The integer direction of a slope (a Fraction, an int or INF): (x, y)
    for the slope y/x in lowest terms, turned to y > 0, or y = 0 < x."""
    if s is INF:
        return (0, 1)
    s = Q(s)
    n, m = s.numerator, s.denominator
    return (m, n) if n >= 0 else (-m, -n)


def slope(p: tuple):
    """The slope of a rational direction at any scale: a Fraction, or INF."""
    return INF if p[0] == 0 else Q(p[1], p[0])


def qmat_apply(m: QMat, vec: Sequence) -> tuple[Q, ...]:
    """Matrix times column vector."""
    if len(vec) != m.n:
        raise ValueError("dimension mismatch")
    vec = [Q(v) for v in vec]
    scale = lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (scale // v.denominator) for v in vec]
    return tuple(Q(sum(map(mul, row, ints)), m.den * scale) for row in m.num)


def qmat_trace(m: QMat) -> Q:
    return Q(sum(m.num[i][i] for i in range(m.n)), m.den)


def lattice_solve(m: QMat, x: Sequence[int]) -> tuple[int, ...] | None:
    """Solve m*y = x over Z for an integer matrix m. Returns y, or None when
    x is not in m(Z^n)."""
    y = qmat_apply(m.inverse(), x)
    if all(c.denominator == 1 for c in y):
        return tuple(int(c) for c in y)
    return None


@dataclass(frozen=True)
class QuadraticNumber:
    """Exact element a + b*sqrt(d) of a quadratic extension of Q.

    d is squarefree (possibly negative); b == 0 forces d == 0 so that equal
    values have equal representations. Arithmetic mixes freely with rationals
    but two irrational operands must share the same radicand.

    ``make`` normalizes any radicand it is given, which factors it; the
    arithmetic builds its results with ``_in_field`` instead, since the
    operands' radicand is already squarefree.
    """

    a: Q
    b: Q
    d: int

    @staticmethod
    def make(a, b=0, d=0) -> "QuadraticNumber":
        a, b = Q(a), Q(b)
        if b == 0 or d == 0:
            return QuadraticNumber(a, Q(0), 0)
        s, d0 = squarefree_decompose(d)
        if d0 == 1:
            return QuadraticNumber(a + b * s, Q(0), 0)
        return QuadraticNumber(a, b * s, d0)

    @staticmethod
    def _in_field(a: Q, b: Q, d: int) -> "QuadraticNumber":
        """a + b*sqrt(d) for a radicand d that is already squarefree (or 0)."""
        if b == 0 or d == 0:
            return QuadraticNumber(a, Q(0), 0)
        return QuadraticNumber(a, b, d)

    @staticmethod
    def of(x) -> "QuadraticNumber":
        if isinstance(x, QuadraticNumber):
            return x
        return QuadraticNumber.make(Q(x))

    def is_rational(self) -> bool:
        return self.b == 0

    def _common_d(self, other: "QuadraticNumber") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise ValueError("incompatible quadratic extensions")
        return self.d

    def __add__(self, other):
        other = QuadraticNumber.of(other)
        d = self._common_d(other)
        return QuadraticNumber._in_field(self.a + other.a, self.b + other.b, d)

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-QuadraticNumber.of(other))

    def __mul__(self, other):
        other = QuadraticNumber.of(other)
        d = self._common_d(other)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return QuadraticNumber._in_field(a, b, d)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return QuadraticNumber.of(other) - self

    def inverse(self) -> "QuadraticNumber":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("zero quadratic number")
        return QuadraticNumber._in_field(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        return self * QuadraticNumber.of(other).inverse()

    def __rtruediv__(self, other):
        return QuadraticNumber.of(other) * self.inverse()

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Sign of the real value (requires d >= 0)."""
        if self.d < 0:
            raise ValueError("sign undefined for complex quadratic numbers")
        return _root_sign(self.a, self.b, self.d)

    def _compare(self, other) -> int:
        """Sign of self - other, exact also across radicands d1 != d2.

        Only the order crosses fields; arithmetic across them still raises.
        """
        other = QuadraticNumber.of(other)
        if min(self.d, other.d) < 0 and (self.b, self.d) != (other.b, other.d):
            raise ValueError("sign undefined for complex quadratic numbers")
        return _root_sign(self.a - other.a, self.b, self.d, -other.b, other.d)

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __gt__(self, other):
        return self._compare(other) > 0

    def __ge__(self, other):
        return self._compare(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"({self.a} + {self.b}*sqrt({self.d}))"


@dataclass(frozen=True)
class ProjPoint:
    """Point (x : y) of the projective line over a quadratic extension.

    Canonical representative: the leading nonzero coordinate is 1, so
    structural equality is projective equality.
    """

    x: QuadraticNumber
    y: QuadraticNumber

    @staticmethod
    def make(x, y) -> "ProjPoint":
        x, y = QuadraticNumber.of(x), QuadraticNumber.of(y)
        if x.is_zero() and y.is_zero():
            raise ValueError("(0 : 0) is not a projective point")
        if not x.is_zero():
            return ProjPoint(QuadraticNumber.of(1), y / x)
        return ProjPoint(QuadraticNumber.of(0), QuadraticNumber.of(1))

    def apply(self, m: QMat) -> "ProjPoint":
        if m.n != 2:
            raise ValueError("projective action implemented for n = 2 only")
        (a, b), (c, d) = m.rows
        return ProjPoint.make(self.x * a + self.y * b, self.x * c + self.y * d)

    def is_rational(self) -> bool:
        return self.x.is_rational() and self.y.is_rational()

    def __repr__(self):
        return f"({self.x} : {self.y})"


@dataclass(frozen=True)
class EigenData:
    """Fixed points of a 2x2 rational matrix on the projective line.

    ``scalar`` marks scalar matrices (every point is fixed, ``points`` empty).
    Otherwise ``points`` holds the 1 or 2 eigendirections over Q(sqrt(d)),
    where d is the squarefree part of the characteristic discriminant, and
    ``eigenvalues`` the matching eigenvalues.
    """

    scalar: bool
    points: tuple[ProjPoint, ...]
    eigenvalues: tuple[QuadraticNumber, ...]
    radicand: int


def eigen_directions(m: QMat) -> EigenData:
    """All fixed points of an invertible 2x2 rational matrix on P^1."""
    if m.n != 2:
        raise ValueError("eigendirections implemented for n = 2 only")
    if m.det() == 0:
        raise SingularMatrixError("matrix is singular")
    if m.is_scalar():
        return EigenData(True, (), (), 0)
    t, d = qmat_trace(m), m.det()
    disc = t * t - 4 * d
    # lambda = (t +- sqrt(disc)) / 2, exact over Q(sqrt(radicand))
    num, den = disc.numerator, disc.denominator
    s, rad = squarefree_decompose(num * den)
    scale = Q(s, den)  # sqrt(disc) = scale * sqrt(rad)
    if rad in (0, 1):
        root = QuadraticNumber.make(scale * (1 if rad == 1 else 0))
        rad = 0
    else:
        root = QuadraticNumber._in_field(Q(0), scale, rad)  # rad is squarefree already
    eigs = [(QuadraticNumber.of(t) + root) / 2]
    if not root.is_zero():
        eigs.append((QuadraticNumber.of(t) - root) / 2)
    (a, b), (c, dd) = m.rows
    points, values = [], []
    for lam in eigs:
        # eigenvector of [[a,b],[c,dd]] for eigenvalue lam
        if not (QuadraticNumber.of(b).is_zero() and (lam - a).is_zero()):
            p = ProjPoint.make(QuadraticNumber.of(b), lam - a)
        elif not (QuadraticNumber.of(c).is_zero() and (lam - dd).is_zero()):
            p = ProjPoint.make(lam - dd, QuadraticNumber.of(c))
        else:  # both rows degenerate: matrix is lam * I, excluded above
            raise AssertionError("unreachable: scalar matrix")
        if p not in points:
            points.append(p)
            values.append(lam)
    return EigenData(False, tuple(points), tuple(values), rad)


def stated(p: ProjPoint) -> linalg.ProjPoint:
    """The reference point p as the record of ``gbsn.linalg``."""
    return linalg.ProjPoint(*(linalg.QuadraticNumber(c.a, c.b, c.d) for c in (p.x, p.y)))


def point(x, y) -> linalg.ProjPoint:
    """The point (x : y) in stated form, for rationals or reference numbers."""
    return stated(ProjPoint.make(x, y))

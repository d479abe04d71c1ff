"""Exact rational and integer linear algebra for small square matrices.

Everything in this module is exact: matrix entries are ``fractions.Fraction``
(or plain ``int`` for lattice maps), eigendirections of 2x2 matrices live in a
quadratic extension Q(sqrt(d)), and the only approximate quantity -- the
Cartan projection (log-singular values) -- carries a certified error bound
obtained from interval arithmetic.

Matrices act on column vectors; the columns of an integer matrix generate the
sublattice it defines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

Q = Fraction


class SingularMatrixError(ValueError):
    """Raised when an operation needs an invertible matrix."""


def _as_fraction_rows(rows) -> tuple[tuple[Q, ...], ...]:
    out = tuple(tuple(Q(x) for x in row) for row in rows)
    n = len(out)
    if n == 0 or any(len(row) != n for row in out):
        raise ValueError("matrix must be square and nonempty")
    return out


class QMat:
    """Immutable n x n matrix over the rationals."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Iterable[Iterable]):
        object.__setattr__(self, "rows", _as_fraction_rows(rows))
        object.__setattr__(self, "n", len(self.rows))

    def __setattr__(self, *a):
        raise AttributeError("QMat is immutable")

    @staticmethod
    def identity(n: int) -> "QMat":
        return QMat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, QMat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)
        return f"QMat([{body}])"

    def __mul__(self, other: "QMat") -> "QMat":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        ot = other.rows
        return QMat(
            [
                [sum(self.rows[i][k] * ot[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        )

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

    def apply(self, vec: Sequence) -> tuple[Q, ...]:
        """Matrix times column vector."""
        if len(vec) != self.n:
            raise ValueError("dimension mismatch")
        return tuple(sum(row[j] * Q(vec[j]) for j in range(self.n)) for row in self.rows)

    def transpose(self) -> "QMat":
        return QMat([[self.rows[j][i] for j in range(self.n)] for i in range(self.n)])

    def det(self) -> Q:
        """Exact determinant by fraction-free Gaussian elimination."""
        n = self.n
        a = [list(row) for row in self.rows]
        det = Q(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                return Q(0)
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                factor = a[r][col] * inv
                if factor:
                    for c in range(col, n):
                        a[r][c] -= factor * a[col][c]
        return det

    def trace(self) -> Q:
        return sum(self.rows[i][i] for i in range(self.n))

    def inverse(self) -> "QMat":
        n = self.n
        a = [list(row) + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            a[col], a[pivot] = a[pivot], a[col]
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    factor = a[r][col]
                    a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
        return QMat([row[n:] for row in a])

    def is_scalar(self) -> bool:
        d = self.rows[0][0]
        return all(
            self.rows[i][j] == (d if i == j else 0)
            for i in range(self.n)
            for j in range(self.n)
        )

    def is_identity(self) -> bool:
        return self == QMat.identity(self.n)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def max_abs_entry(self) -> Q:
        return max(abs(x) for row in self.rows for x in row)


class ZMat:
    """Immutable n x n integer matrix (a lattice map Z^n -> Z^n)."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Iterable[Iterable[int]]):
        out = tuple(tuple(int(x) for x in row) for row in rows)
        if len(out) == 0 or any(len(row) != len(out) for row in out):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", out)
        object.__setattr__(self, "n", len(out))

    def __setattr__(self, *a):
        raise AttributeError("ZMat is immutable")

    @staticmethod
    def identity(n: int) -> "ZMat":
        return ZMat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, ZMat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)
        return f"ZMat([{body}])"

    def __mul__(self, other: "ZMat") -> "ZMat":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        return ZMat(
            [
                [sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        )

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.n:
            raise ValueError("dimension mismatch")
        return tuple(sum(row[j] * vec[j] for j in range(self.n)) for row in self.rows)

    def to_qmat(self) -> QMat:
        return QMat(self.rows)

    def det(self) -> int:
        d = self.to_qmat().det()
        return int(d)


def sublattice_index(m: ZMat) -> int:
    """Index of the sublattice m(Z^n) in Z^n, i.e. |det m|.

    Raises SingularMatrixError for singular m (the inclusion would not be
    injective).
    """
    d = m.det()
    if d == 0:
        raise SingularMatrixError("edge inclusion not injective")
    return abs(d)


def lattice_solve(m: ZMat, x: Sequence[int]) -> tuple[int, ...] | None:
    """Solve m*y = x over Z. Returns y, or None when x is not in m(Z^n)."""
    y = m.to_qmat().inverse().apply(x)
    if all(c.denominator == 1 for c in y):
        return tuple(int(c) for c in y)
    return None


def hermite_normal_form(m: ZMat) -> ZMat:
    """Column-style Hermite normal form H of m (same column lattice).

    H is lower triangular with positive diagonal, and entries left of each
    diagonal pivot reduced into [0, pivot). Obtained from m by unimodular
    column operations, so H(Z^n) = m(Z^n).
    """
    if m.det() == 0:
        raise SingularMatrixError("lattice has no full-rank basis")
    n = m.n
    cols = [list(col) for col in zip(*m.rows)]  # work column-wise

    for i in range(n):
        # gcd sweep on row i across columns i..n-1
        j = i
        while True:
            nonzero = [k for k in range(i, n) if cols[k][i] != 0]
            if len(nonzero) == 1:
                break
            k1, k2 = nonzero[0], nonzero[1]
            if abs(cols[k1][i]) > abs(cols[k2][i]):
                k1, k2 = k2, k1
            q = cols[k2][i] // cols[k1][i]
            cols[k2] = [a - q * b for a, b in zip(cols[k2], cols[k1])]
        pivot_col = next(k for k in range(i, n) if cols[k][i] != 0)
        cols[i], cols[pivot_col] = cols[pivot_col], cols[i]
        if cols[i][i] < 0:
            cols[i] = [-a for a in cols[i]]
        # reduce row i in earlier columns into [0, pivot)
        for k in range(i):
            q = cols[k][i] // cols[i][i]
            if q:
                cols[k] = [a - q * b for a, b in zip(cols[k], cols[i])]
    return ZMat(list(zip(*cols)))


def lattice_residue(hnf: ZMat, vec: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split vec = residue + lattice part w.r.t. a column-HNF basis.

    The residue is the canonical representative of vec modulo the column
    lattice of ``hnf``: coordinate i is reduced into [0, hnf[i][i]) working
    top-down. Returns (residue, lattice_part); vec is in the lattice iff the
    residue is zero.
    """
    n = hnf.n
    v = list(vec)
    lattice = [0] * n
    for i in range(n):
        q = v[i] // hnf.rows[i][i]
        if q:
            for r in range(n):
                v[r] -= q * hnf.rows[r][i]
                lattice[r] += q * hnf.rows[r][i]
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


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _root_sign(a: Q, b: Q, d: int) -> int:
    """Sign of a + b*sqrt(d) for d >= 0, which need not be squarefree."""
    if b == 0:
        return _sgn(a)
    if a == 0 or (a > 0) == (b > 0):
        return _sgn(b)
    # opposite signs: compare a^2 with b^2 d
    return _sgn(a) * _sgn(a * a - b * b * d)


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

    def conjugate(self) -> "QuadraticNumber":
        return QuadraticNumber(self.a, -self.b, self.d)

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
        if self.b == 0 or other.b == 0 or self.d == other.d:
            # one field: the radicand is already squarefree, so no make()
            b, d = self.b - other.b, self.d or other.d
            if b and d < 0:
                raise ValueError("sign undefined for complex quadratic numbers")
            return _root_sign(self.a - other.a, b, d)
        if self.d < 0 or other.d < 0:
            raise ValueError("sign undefined for complex quadratic numbers")
        # x + u with u = y sqrt(d1) + z sqrt(d2); distinct squarefree radicands
        # make u and x + u irrational, so neither sign is 0
        x, y, z, d1, d2 = self.a - other.a, self.b, -other.b, self.d, other.d
        u = _sgn(y) if (y > 0) == (z > 0) else _sgn(y) * _sgn(y * y * d1 - z * z * d2)
        if x == 0 or (x > 0) == (u > 0):
            return u if x == 0 else _sgn(x)
        # opposite signs: the larger square wins; x^2 - u^2 lies in Q(sqrt(d1 d2))
        return _sgn(x) * _root_sign(x * x - y * y * d1 - z * z * d2, -2 * y * z, d1 * d2)

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
    t, d = m.trace(), m.det()
    disc = t * t - 4 * d
    # lambda = (t +- sqrt(disc)) / 2, exact over Q(sqrt(radicand))
    num, den = disc.numerator, disc.denominator
    s, rad = squarefree_decompose(num * den)
    scale = Q(s, den)  # sqrt(disc) = scale * sqrt(rad)
    if rad in (0, 1):
        root = QuadraticNumber.make(scale * (1 if rad == 1 else 0))
        rad = 0
    else:
        root = QuadraticNumber.make(0, scale, rad)
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


@dataclass(frozen=True)
class CartanProjection:
    """Log-singular values (log s1 >= log s2) with a certified error bound."""

    log_sigma1: float
    log_sigma2: float
    error_bound: float


def cartan_projection(m: QMat, tol: float = 1e-12) -> CartanProjection:
    """Certified log-singular values of an invertible 2x2 rational matrix.

    The squared singular values are the exact roots of the characteristic
    polynomial of m^T m; their logarithms are enclosed by interval arithmetic
    at increasing precision until the enclosure is narrower than ``tol``.
    """
    if m.n != 2:
        raise ValueError("cartan projection implemented for n = 2 only")
    mtm = m.transpose() * m
    t, d = mtm.trace(), mtm.det()
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    disc = t * t - 4 * d  # >= 0: m^T m is symmetric
    prec = 80
    while True:
        iv = mpmath.iv
        old = iv.prec
        try:
            iv.prec = prec
            tv = iv.mpf(t.numerator) / iv.mpf(t.denominator)
            dv = iv.mpf(d.numerator) / iv.mpf(d.denominator)
            discv = iv.mpf(disc.numerator) / iv.mpf(disc.denominator)
            root = iv.sqrt(discv)
            s1sq = (tv + root) / 2
            log1 = iv.log(s1sq) / 2
            # log s2 = (log det - log s1^2) / ... use s1 s2 = |det m| to avoid
            # cancellation in t - sqrt(disc)
            log2 = iv.log(dv) / 2 - log1
            width = max(float(log1.delta), float(log2.delta))
            if width <= tol:
                return CartanProjection(
                    float(log1.mid), float(log2.mid), max(width, 0.0)
                )
        finally:
            iv.prec = old
        prec *= 2
        if prec > 100000:
            raise RuntimeError("interval refinement failed to converge")


def spectral_radius_gt_one(m: QMat) -> bool:
    """Exact test: does some eigenvalue of the 2x2 matrix m have |lambda| > 1?"""
    if m.n != 2:
        raise ValueError("implemented for n = 2 only")
    if m.is_scalar():
        return abs(m.rows[0][0]) > 1
    t, d = m.trace(), m.det()
    if t * t - 4 * d < 0:
        # complex pair: |lambda|^2 = det
        return abs(d) > 1
    one = QuadraticNumber.of(1)
    return any(abs(lam) > one for lam in eigen_directions(m).eigenvalues)

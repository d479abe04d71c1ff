"""The factor-free kernels of ``linalg`` agree with the code they replaced,
checked on generated inputs.

``reference_group_shape`` is the value-group classification by trial
division and Gaussian elimination on prime exponent vectors that
``linalg._multiplicative_group_shape`` replaced. ``reference_eigenbasis`` is
the eigenbasis from the ``Fraction`` trace and determinant, with columns
(b, lambda - a), or (lambda - d, c) when b = 0, that ``holonomy.
_rational_eigenbasis`` replaced. The eigendirection algorithm of
``quadratic_reference``, by trace, determinant and quadratic-field
arithmetic, is the reference for the integer lines of ``linalg.eigenlines``
and for the points that ``linalg.eigen_directions`` states from them.
"""

from fractions import Fraction as Q
from math import gcd, isqrt

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import quadratic_reference as ref
from gbsn.holonomy import _rational_eigenbasis
from gbsn.linalg import (
    QMat, _coprime_base, _multiplicative_group_shape, eigen_directions, eigenlines,
)
from quadratic_reference import ProjPoint, QuadraticNumber, qmat_trace

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


def _prime_exponents(x: Q) -> dict:
    out = {}
    for value, sign in ((abs(x.numerator), 1), (x.denominator, -1)):
        p = 2
        while p * p <= value:
            while value % p == 0:
                out[p] = out.get(p, 0) + sign
                value //= p
            p += 1 if p == 2 else 2
        if value > 1:
            out[value] = out.get(value, 0) + sign
    return {p: e for p, e in out.items() if e}


def reference_group_shape(values):
    """Rank of the prime exponent vectors by elimination; in rank 1 the
    generator is the primitive vector to the gcd of the multiples."""
    vectors, primes = [], set()
    for v in values:
        if v == 1:
            continue
        exp = _prime_exponents(v)
        primes.update(exp)
        vectors.append(exp)
    if not vectors:
        return "trivial", None
    primes = sorted(primes)
    rows = [[vec.get(p, 0) for p in primes] for vec in vectors]
    work = [row[:] for row in rows]
    rank = 0
    for c in range(len(primes)):
        pivot = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c] != 0:
                a, b = work[i][c], work[rank][c]
                g = gcd(a, b)
                work[i] = [u * (b // g) - v * (a // g) for u, v in zip(work[i], work[rank])]
        rank += 1
    if rank >= 2:
        return "dense", None
    primitive, mults = None, []
    for row in rows:
        content = 0
        for xv in row:
            content = gcd(content, abs(xv))
        base = [xv // content for xv in row]
        lead = next(i for i, xv in enumerate(base) if xv)
        if base[lead] < 0:
            base = [-xv for xv in base]
        if primitive is None:
            primitive = base
        mults.append(row[lead] // primitive[lead])
    g = 0
    for mval in mults:
        g = gcd(g, abs(mval))
    generator = Q(1)
    for p, e in zip(primes, primitive):
        generator *= Q(p) ** (e * g)
    if generator < 1:
        generator = 1 / generator
    return "cyclic", generator


def reference_eigenbasis(h: QMat):
    """(P, eigenvalues) of a non-diagonal 2x2 h with two distinct rational
    eigenvalues, else None."""
    t, det = qmat_trace(h), h.det()
    disc = t * t - 4 * det
    if disc <= 0:
        return None
    num, den = isqrt(disc.numerator), isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return None
    root = Q(num, den)
    lams = ((t + root) / 2, (t - root) / 2)
    (a, b), (c, d) = h.rows
    vecs = [(b, lam - a) if b else (lam - d, c) for lam in lams]
    return QMat([[vecs[0][0], vecs[1][0]], [vecs[0][1], vecs[1][1]]]), lams


small_rationals = st.fractions(min_value=Q(1, 60), max_value=60, max_denominator=60).filter(
    lambda v: v > 0
)


@st.composite
def value_lists(draw):
    """Positive rationals: free draws (mostly dense), or powers of one or
    two bases, with ones mixed in (cyclic and trivial groups)."""
    kind = draw(st.sampled_from(["free", "powers", "two-bases"]))
    if kind == "free":
        return draw(st.lists(small_rationals, min_size=1, max_size=4))
    bases = draw(st.lists(small_rationals, min_size=1, max_size=2 if kind == "two-bases" else 1))
    exps = st.integers(-4, 4)
    return [
        b ** draw(exps) * (bases[-1] ** draw(exps) if kind == "two-bases" else 1)
        for b in draw(st.lists(st.sampled_from(bases), min_size=1, max_size=4))
    ]


@PROPERTY
@given(value_lists())
def test_group_shape_matches_prime_exponents(values):
    assert _multiplicative_group_shape(values) == reference_group_shape(values)


@PROPERTY
@given(st.lists(st.integers(1, 10**6), max_size=6))
def test_coprime_base_factors_every_number(nums):
    base = _coprime_base(nums)
    assert all(b > 1 for b in base)
    assert all(gcd(x, y) == 1 for i, x in enumerate(base) for y in base[i + 1 :])
    for n in nums:
        for b in base:
            while n % b == 0:
                n //= b
        assert n == 1


entries = st.integers(-12, 12)


@st.composite
def rational_matrices(draw):
    """2x2 rational matrices; half of them P diag(l1, l2) P^-1 with
    rational eigenvalues, some lower triangular (b = 0)."""
    fr = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    if draw(st.booleans()):
        rows = [[draw(fr), draw(fr)], [draw(fr), draw(fr)]]
        if draw(st.booleans()):
            rows[0][1] = 0
        return QMat(rows)
    p = QMat([[draw(entries), draw(entries)], [draw(entries), draw(entries)]])
    if p.det() == 0:
        p = QMat.identity(2)
    return p * QMat([[draw(fr), 0], [0, draw(fr)]]) * p.inverse()


@PROPERTY
@given(rational_matrices())
def test_eigenbasis_matches_fraction_formula(h):
    if h.rows[0][1] == h.rows[1][0] == 0:
        return  # diagonal h takes the identity basis before either formula
    assert _rational_eigenbasis(h) == reference_eigenbasis(h)


def _point(line) -> ProjPoint:
    if len(line) == 2:
        return ProjPoint.make(*line)
    x, y, q, d = line
    return ProjPoint.make(x, QuadraticNumber.make(y, q, d))


@PROPERTY
@given(st.tuples(entries, entries, entries, entries))
def test_eigenlines_are_the_eigen_directions(entries4):
    a, b, c, d = entries4
    m = QMat([[a, b], [c, d]])
    if m.det() == 0:
        return
    disc, lines = eigenlines(m.num)
    assert disc == (a + d) ** 2 - 4 * (a * d - b * c)
    expected = ref.eigen_directions(m)
    if expected.scalar:
        assert lines == ()
        return
    assert [_point(line) for line in lines] == list(expected.points)
    for line in lines:
        assert _point(line).apply(m) == _point(line)


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def stated_matrices(draw):
    """Invertible 2x2 rational matrices [[a, b], [c, d]], den > 1 among
    them, each discriminant shape forced in turn: free draws, scalars, a
    zero discriminant, a negative one, and k^2 r with a square factor
    k^2 > 1 (r = 1 gives rational lines, r = -1 complex ones)."""
    kind = draw(st.sampled_from(["any", "scalar", "zero", "negative", "square factor"]))
    a, b, c, d = (draw(fractions) for _ in range(4))
    if kind == "scalar":
        b, c, d = 0, 0, a
    elif kind != "any":
        b = b or 1
        radicands = st.sampled_from([1, 2, 3, 6, 7, -1, -2, -3])
        disc = {
            "zero": 0,
            "negative": -Q(draw(st.integers(1, 60)), draw(st.integers(1, 6))),
            "square factor": draw(st.integers(2, 6)) ** 2 * draw(radicands),
        }[kind]
        c = (disc - (a - d) ** 2) / (4 * b)
    assume(a * d != b * c)
    return QMat([[a, b], [c, d]])


@PROPERTY
@given(stated_matrices())
@example(QMat([[2, 1], [Q(1, 2), 2]]))  # D = 8 over den 2: (1 : +-(1/2) sqrt 2)
@example(QMat([[3, 2], [1, 1]]))  # D = 12: (1 : -1/2 +- (1/2) sqrt 3)
def test_eigen_directions_state_the_reference(m):
    got, expected = eigen_directions(m), ref.eigen_directions(m)
    assert (got.scalar, got.radicand) == (expected.scalar, expected.radicand)
    assert got.points == tuple(map(ref.stated, expected.points))

"""The integer Tits scans agree with the eigenvector computations they
replace, checked on generated matrices.

``reference_player`` is the eigen-based ping-pong player classification
that ``matgroups._player_slopes`` replaced: kind and fixed slopes from
``eigen_directions``, attracting before repelling. ``reference_preserves``
is the eigenpoint fix-or-swap test that the commutation criterion of
``matgroups._preserves_eigenpair`` replaced.
"""

from fractions import Fraction as Q
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn import matgroups
from gbsn.linalg import INF, QMat, QuadraticNumber, eigen_directions

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


def _slope(p):
    if p.x.is_zero():
        return INF
    s = p.y / p.x
    return s.a if s.is_rational() else s


def reference_player(m: QMat):
    """(kind, fixed slopes) of m as a ping-pong player, or None."""
    if m.is_scalar() or m.det() == 0:
        return None
    t, d = m.trace(), m.det()
    disc = t * t - 4 * d
    if disc < 0:
        return None
    eig = eigen_directions(m)
    if disc == 0:
        return "parabolic", (_slope(eig.points[0]),)
    lam1, lam2 = eig.eigenvalues
    diff = lam1 * lam1 - lam2 * lam2
    if diff.is_zero():
        return None
    first, second = (0, 1) if diff.sign() > 0 else (1, 0)
    return "hyperbolic", (_slope(eig.points[first]), _slope(eig.points[second]))


def reference_preserves(m: QMat, gens) -> bool:
    eig = eigen_directions(m)
    if len(eig.points) != 2:
        return False
    p, q = eig.points
    return all(
        (p.apply(g) == p and q.apply(g) == q) or (p.apply(g) == q and q.apply(g) == p)
        for g in gens
    )


small = st.integers(-9, 9)
rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def integer_matrices(draw):
    """Random integer matrices, with each degenerate family forced in turn."""
    family = draw(st.sampled_from(
        ["any", "b=0", "c=0", "a=d", "trace0", "disc0", "square", "elliptic", "negdet"]
    ))
    a, b, c, d = (draw(small) for _ in range(4))
    if family == "b=0":
        b = 0
    elif family == "c=0":
        c = 0
    elif family == "a=d":
        d = a
    elif family == "trace0":
        d = -a
    elif family == "disc0":
        # [[a, b], [c, d]] with (a - d)^2 + 4bc = 0: b = u^2 k, c = -v^2 k,
        # a - d = 2uvk
        u, v, k = draw(small), draw(small), draw(st.integers(-3, 3))
        b, c, d = u * u * k, -v * v * k, a - 2 * u * v * k
    elif family == "square":
        # eigenvalues x and y on the rational eigenvectors (1, s) and (1, r)
        x, y, s, r = (draw(small) for _ in range(4))
        if s != r:
            # P diag(x, y) P^-1 scaled by det P = r - s
            a, b = x * r - y * s, y - x
            c, d = (x - y) * r * s, y * r - x * s
    elif family == "elliptic":
        b, c = abs(b) + 1, -(abs(c) + 1)
        d = a + draw(st.integers(-1, 1))
    elif family == "negdet" and a * d - b * c > 0:
        a, b, c, d = c, d, a, b  # swapping the rows negates the determinant
    return QMat([[a, b], [c, d]])


@st.composite
def rational_matrices(draw):
    return QMat([[draw(rationals), draw(rationals)], [draw(rationals), draw(rationals)]])


def _value(p):
    """The exact slope of a kernel direction: INF, a Fraction, or a
    QuadraticNumber over the squarefree part of the raw discriminant."""
    if len(p) == 2:
        return INF if p[0] == 0 else Q(p[1], p[0])
    x, y, q, d = p
    return QuadraticNumber.make(Q(y, x), Q(q, x), d)


def _same_slope(s, t) -> bool:
    return _value(s) == t


def kernel_player(m: QMat):
    """``matgroups._player_slopes`` on the entries of m with their
    denominators cleared (a positive rescaling); None for a singular m."""
    if m.det() == 0:
        return None
    scale = lcm(*(x.denominator for row in m.rows for x in row))
    return matgroups._player_slopes(*(int(x * scale) for row in m.rows for x in row))


def _check_player(m: QMat):
    expected = reference_player(m)
    got = kernel_player(m)
    if expected is None:
        assert got is None
        return
    assert got is not None and got[0] == expected[0]
    assert len(got[1]) == len(expected[1])
    assert all(_same_slope(s, t) for s, t in zip(got[1], expected[1]))


@PROPERTY
@given(integer_matrices())
def test_player_kernel_matches_eigenvectors_on_integer_matrices(m):
    _check_player(m)


@PROPERTY
@given(rational_matrices())
def test_player_kernel_matches_eigenvectors_on_rational_matrices(m):
    _check_player(m)


def test_player_kernel_on_named_cases():
    cases = [
        QMat([[3, 0], [5, 1]]),  # b = 0, hyperbolic, slopes 5/2 and INF
        QMat([[1, 0], [5, 3]]),  # b = 0 with the larger eigenvalue on INF
        QMat([[1, 0], [5, 1]]),  # b = 0, parabolic on INF
        QMat([[2, 1], [1, 1]]),  # irrational slopes in Q(sqrt 5)
        QMat([[-2, 1], [1, -1]]),  # negative trace: the '-' eigenvalue attracts
        QMat([[1, 2], [3, -1]]),  # trace 0: equal modulus
        QMat([[2, -1], [1, 2]]),  # elliptic of infinite order
        QMat([[1, 4], [1, -2]]),  # negative determinant, square discriminant
        QMat([[3, 1], [-1, 1]]),  # discriminant 0, b != 0
        QMat([[Q(1, 2), Q(1, 3)], [Q(3, 4), 2]]),
    ]
    for m in cases:
        _check_player(m)
    assert _value(kernel_player(QMat([[2, 1], [1, 1]]))[1][0]) == (
        QuadraticNumber(Q(-1, 2), Q(1, 2), 5)
    )


@st.composite
def eigenpair_groups(draw):
    """(m, gens): m has distinct eigenvalues, and each generator commutes with
    m, swaps its eigendirections, or is drawn at random."""
    p = QMat([[draw(small), draw(small)], [draw(small), draw(small)]])
    if p.det() == 0:
        p = QMat.identity(2)
    p_inv = p.inverse()
    rational = draw(st.booleans())
    r = draw(st.sampled_from([2, 3, 5, -1, -2, -3]))
    if rational:  # eigenvectors along the axes before conjugation
        x, y = draw(small), draw(small.filter(bool))

        def commuting(u, v):
            return QMat([[u, 0], [0, v]])

        def swapping(u, v):
            return QMat([[0, u], [v, 0]])

        core = QMat([[x, 0], [0, x + y]])
    else:  # eigenvalues x +- y sqrt(r), real or complex

        def commuting(u, v):
            return QMat([[u, r * v], [v, u]])

        def swapping(u, v):
            return QMat([[u, -r * v], [v, -u]])

        x, y = draw(small), draw(small.filter(bool))
        core = commuting(x, y)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["commute", "swap", "random"]))
        u, v = draw(small), draw(small)
        g = {
            "commute": lambda: commuting(u, v),
            "swap": lambda: swapping(u, v),
            "random": lambda: QMat([[u, v], [draw(small), draw(small)]]),
        }[kind]()
        if g.det() != 0:
            gens.append(p * g * p_inv)
    return p * core * p_inv, gens


@PROPERTY
@given(eigenpair_groups())
def test_commutation_matches_eigenpoint_fix_or_swap(case):
    m, gens = case
    if m.det() == 0 or m.is_scalar():
        return
    assert matgroups._preserves_eigenpair(m, gens) == reference_preserves(m, gens)


@PROPERTY
@given(rational_matrices(), st.lists(rational_matrices(), min_size=1, max_size=3))
def test_commutation_matches_eigenpoint_fix_or_swap_at_random(m, gens):
    if m.det() == 0 or m.is_scalar():
        return
    gens = [g for g in gens if g.det() != 0]
    assert matgroups._preserves_eigenpair(m, gens) == reference_preserves(m, gens)


def test_commutation_on_named_cases():
    # a shear commutes with itself but has one eigendirection, not a pair
    shear = QMat([[1, 1], [0, 1]])
    assert not matgroups._preserves_eigenpair(shear, [shear])
    assert not reference_preserves(shear, [shear])
    diag, flip = QMat([[1, 0], [0, 2]]), QMat([[0, 1], [3, 0]])
    cases = [
        # the quarter turn fixes its directions (1 : +-i), diag(1, -1) swaps them
        (QMat([[0, 1], [-1, 0]]), [QMat([[0, 1], [-1, 0]]), QMat([[1, 0], [0, -1]])], True),
        (diag, [QMat([[5, 0], [0, 7]]), flip], True),
        (diag, [QMat([[1, 0], [1, 1]])], False),  # fixes (0 : 1), moves (1 : 0)
        (diag, [QMat([[1, 1], [0, 1]])], False),  # fixes (1 : 0), moves (0 : 1)
        (diag, [QMat([[0, 1], [3, 1]])], False),
    ]
    for m, gens, expected in cases:
        assert reference_preserves(m, gens) is expected
        assert matgroups._preserves_eigenpair(m, gens) is expected

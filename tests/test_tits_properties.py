"""The integer Tits scans agree with the eigenvector computations they
replace, checked on generated matrices.

Every reference computes with the eigendirection algorithm and the
quadratic-field arithmetic of ``quadratic_reference``.
``reference_player`` is the eigen-based ping-pong player classification
that ``matgroups._player_slopes`` replaced: kind and fixed slopes from
``eigen_directions``, attracting before repelling. ``reference_preserves``
is the eigenpoint fix-or-swap test that the commutation criterion of
``matgroups._preserves_eigenpair`` replaced. ``reference_line``,
``ProjPoint.apply`` equality and ``reference_spectral`` are the
eigen-based invariant-line scan, point test and spectral radius that the
integer ``linalg.common_eigenline``, ``linalg.maps_to`` and
``linalg.spectral_radius_gt_one`` replaced.
"""

from fractions import Fraction as Q
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn import matgroups
from gbsn import linalg
from gbsn.linalg import QMat, common_eigenline, maps_to, spectral_radius_gt_one
from quadratic_reference import (
    INF, ProjPoint, QuadraticNumber, eigen_directions, point, qmat_trace, stated,
)

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
    t, d = qmat_trace(m), m.det()
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


# --------------------------------------------------------------------------
# the invariant-line scan, the point test and the spectral radius


def reference_line(pivot: QMat, gens):
    """The first real eigendirection of the pivot that every generator
    fixes, by ``ProjPoint.apply`` equality, in stated form, or None."""
    for p in eigen_directions(pivot).points:
        if p.x.d >= 0 and p.y.d >= 0 and all(p.apply(g) == p for g in gens):
            return stated(p)
    return None


def reference_spectral(m: QMat) -> bool:
    if m.is_scalar():
        return abs(m.rows[0][0]) > 1
    t, d = qmat_trace(m), m.det()
    if t * t - 4 * d < 0:
        return abs(d) > 1
    one = QuadraticNumber.of(1)
    return any(abs(lam) > one for lam in eigen_directions(m).eigenvalues)


@st.composite
def invertible_rational(draw):
    m = draw(rational_matrices())
    return m if m.det() != 0 else QMat.identity(2)


def _scaled(m: QMat, k) -> QMat:
    return QMat([[k * x for x in row] for row in m.rows])


@st.composite
def line_groups(draw):
    """(pivot, gens) conjugated by one random rational matrix, each matrix
    scaled by a random rational. The pivot is upper or lower triangular (a
    rational eigenline on an axis, first or second in the point order) or
    an integer matrix of any family (D < 0, D = 0, a square or a non-square
    D); each further generator is a polynomial in the pivot, upper or lower
    triangular, or random."""
    shape = draw(st.sampled_from(["upper", "lower", "family"]))
    x, y, z = draw(small), draw(small), draw(small)
    if shape == "family":
        core = draw(integer_matrices())
    else:
        core = QMat([[x, y], [0, z]] if shape == "upper" else [[x, 0], [y, z]])
    (a, b), (c, d) = core.rows
    gens = [core]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["poly", "upper", "lower", "random"]))
        u, v, w = draw(small), draw(small), draw(small)
        gens.append(QMat({
            "poly": [[u + v * a, v * b], [v * c, u + v * d]],
            "upper": [[u, v], [0, w]],
            "lower": [[u, 0], [v, w]],
            "random": [[u, v], [w, draw(small)]],
        }[kind]))
    p = draw(invertible_rational())
    p_inv = p.inverse()
    gens = [_scaled(p * g * p_inv, draw(rationals.filter(bool))) for g in gens]
    return gens[0], [g for g in gens if g.det() != 0]


@PROPERTY
@given(line_groups())
def test_line_scan_matches_eigenpoint_reference(case):
    pivot, gens = case
    if pivot.det() == 0 or pivot.is_scalar():
        return
    assert common_eigenline(pivot, gens) == reference_line(pivot, gens)


def test_line_scan_on_named_cases(monkeypatch):
    shear, turn = QMat([[1, 1], [0, 1]]), QMat([[0, 1], [-1, 0]])
    golden = QMat([[2, 1], [1, 1]])  # D = 5
    cases = [
        (QMat([[2, 0], [0, 1]]), [shear]),  # (1 : 0) is the first point
        (QMat([[1, 0], [0, 2]]), [shear]),  # (1 : 0) is the second point
        (QMat([[1, 0], [0, 2]]), [QMat([[1, 0], [1, 1]])]),  # (0 : 1) first
        (shear, [QMat([[3, 5], [0, 2]])]),  # D = 0: one point
        (QMat([[1, 0], [3, 1]]), [QMat([[2, 0], [7, 5]])]),  # b = 0, D = 0
        (turn, [turn]),  # D < 0
        (golden, [golden, QMat([[3, 2], [2, 1]])]),  # commutes: the first point
        (golden, [golden, shear]),
        (QMat([[Q(1, 2), Q(1, 3)], [0, Q(5, 4)]]), [shear]),
    ]
    for pivot, gens in cases:
        assert common_eigenline(pivot, gens) == reference_line(pivot, gens)
    # a rational line and a refused irrational one factor nothing: the
    # prime D = 10000025^2 + 4 took seconds of trial division
    monkeypatch.setattr(linalg, "squarefree_decompose", None)
    monkeypatch.setattr(linalg, "eigen_directions", None)
    big = QMat([[10000025, 1], [1, 0]])
    assert common_eigenline(big, [big, shear]) is None
    assert common_eigenline(QMat([[2, 0], [0, 1]]), [shear]) == point(1, 0)


@st.composite
def point_pairs(draw):
    """(g, p, q): points of one or two matrices' eigendirections (rational,
    over Q(sqrt d) or complex) or rational points; g fixes or swaps the
    eigendirections of the first matrix, or is random."""
    m, gens = draw(eigenpair_groups())
    own = list(eigen_directions(m).points) if m.det() != 0 and not m.is_scalar() else []
    other = draw(integer_matrices())
    pts = own + [ProjPoint.make(draw(rationals), draw(rationals.filter(bool))), ProjPoint.make(0, 1)]
    if other.det() != 0 and not other.is_scalar():
        pts += eigen_directions(other).points
    g = draw(st.sampled_from(gens)) if gens else draw(invertible_rational())
    p, q = (draw(st.sampled_from(own if own and draw(st.booleans()) else pts)) for _ in range(2))
    return g, p, q, draw(rationals), draw(rationals.filter(bool))


@PROPERTY
@given(point_pairs())
def test_maps_to_matches_projective_action(case):
    g, p, q, a, b = case
    assert maps_to(g, stated(p), stated(q)) == (p.apply(g) == q)
    assert maps_to(g, stated(p), stated(p)) == (p.apply(g) == p)
    # the same point with both coordinates times a + b sqrt(d) != 0 of its field
    k = QuadraticNumber(Q(a), Q(b), p.y.d) if p.y.d else QuadraticNumber.of(b)
    assert maps_to(g, stated(ProjPoint(p.x * k, p.y * k)), stated(q)) == (p.apply(g) == q)


matrices = st.one_of(
    integer_matrices(),
    st.builds(_scaled, integer_matrices(), st.builds(Q, st.integers(1, 3), st.integers(1, 12))),
    rational_matrices(),
)


@PROPERTY
@given(matrices)
def test_spectral_radius_matches_eigenvalues(m):
    if m.det() == 0:
        return
    assert spectral_radius_gt_one(m) == reference_spectral(m)


def test_spectral_radius_on_named_cases():
    cases = [
        QMat([[1, 1], [0, 1]]),  # D = 0, eigenvalue 1
        QMat([[-1, 0], [0, -1]]),  # scalar -1
        QMat([[Q(3, 2), 0], [0, Q(3, 2)]]),  # scalar 3/2
        QMat([[0, 1], [-1, 0]]),  # complex, modulus 1
        QMat([[Q(1, 2), 1], [-1, Q(1, 2)]]),  # complex, modulus^2 = 5/4
        QMat([[2, 0], [0, Q(1, 2)]]),
        QMat([[-2, 1], [1, -1]]),  # negative trace
        QMat([[1, 2], [3, -1]]),  # trace 0, D = 28
        QMat([[Q(1, 2), 0], [0, -1]]),  # largest modulus exactly 1
    ]
    for m in cases:
        assert spectral_radius_gt_one(m) == reference_spectral(m)

"""The integer circle order of the ping-pong agrees with the exact chart it
replaced, checked on generated slopes and matrices.

``ref_key`` is that chart: the circle key over ``Fraction`` and the
``QuadraticNumber`` of ``quadratic_reference`` (nonnegative slopes s to
s / (1 + s), INF to 1, negative slopes to 1 + 1 / (1 - s)), ordered by
exact comparisons.
``ref_contains``, ``ref_contains_interval`` and ``ref_image`` are the arc
tests and the Moebius action written on it. Intervals are drawn by the
slopes of their ends and built from the directions of those slopes.
"""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn import linalg, matgroups
from gbsn.linalg import ProjInterval, QMat, between, circle_key, rational_key_between, slope_text
from quadratic_reference import INF, QuadraticNumber, direction, slope

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


def ref_value(p):
    """The slope of a direction: INF, a Fraction, or a QuadraticNumber over
    the raw radicand (its arithmetic and order need no squarefree d)."""
    if len(p) == 2:
        return INF if p[0] == 0 else Q(p[1], p[0])
    x, y, q, d = p
    return QuadraticNumber(Q(y, x), Q(q, x), d)


def ref_key(s):
    if s is INF:
        return QuadraticNumber.of(1)
    s = QuadraticNumber.of(s)
    if s.sign() >= 0:
        return s / (1 + s)
    return 1 + 1 / (1 - s)


def ref_contains(lo, hi, s) -> bool:
    ka, kx, kb = ref_key(lo), ref_key(s), ref_key(hi)
    if ka <= kb:
        return ka <= kx <= kb
    return ka <= kx or kx <= kb


def ref_contains_interval(outer, inner) -> bool:
    base = ref_key(outer[0])

    def offset(s):
        k = ref_key(s) - base
        return k + 2 if k < 0 else k

    return offset(inner[0]) <= offset(inner[1]) <= offset(outer[1])


def ref_apply(m: QMat, s):
    (a, b), (c, d) = m.rows
    num, den = (d, b) if s is INF else (c + d * s, a + b * s)
    return INF if den == 0 else Q(num, den)


def ref_image(m: QMat, lo, hi) -> tuple:
    a, b = ref_apply(m, lo), ref_apply(m, hi)
    return (a, b) if m.det() > 0 else (b, a)


rational_slopes = st.one_of(
    st.sampled_from([Q(0), INF, Q(10**14), Q(-(10**14)), Q(10**14 + 1, 10**14)]),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 4)),
)


@st.composite
def quadratic_slopes(draw):
    """An irrational fixed point of a random integer matrix, as the kernel
    finds it (raw discriminant)."""
    big = st.sampled_from([10**7, -(10**7)])
    entries = [draw(st.one_of(st.integers(-9, 9), big)) for _ in range(4)]
    found = matgroups._player_slopes(*entries)
    points = [p for p in (found[1] if found else ()) if len(p) == 4]
    return draw(st.sampled_from(points)) if points else (1, 0, 1, 2)


points = st.one_of(rational_slopes.map(direction), quadratic_slopes())


invertible = (
    st.lists(st.one_of(st.integers(-9, 9), st.sampled_from([10**14, -(10**14)])), min_size=4, max_size=4)
    .filter(lambda e: e[0] * e[3] != e[1] * e[2])
    .map(lambda e: QMat([e[:2], e[2:]]))
)


def ref_order(p, r) -> int:
    """1 when p comes before r on the circle, 0 when they are equal."""
    kp, kr = ref_key(ref_value(p)), ref_key(ref_value(r))
    return (kp < kr) - (kp > kr)


@PROPERTY
@given(points, points)
def test_order_and_keys_match_the_chart(p, r):
    expected = ref_order(p, r)
    assert linalg._cross(p, r) == expected
    assert linalg._key_cmp(circle_key(r), circle_key(p)) == expected


@PROPERTY
@given(points, points)
def test_separator_lies_strictly_between(p, r):
    if ref_order(p, r) == 0:
        return
    if ref_order(p, r) < 0:
        p, r = r, p
    n, q, den, _ = rational_key_between(circle_key(p), circle_key(r))
    assert q == 0
    assert ref_key(ref_value(p)) < Q(n, den) < ref_key(ref_value(r))


@PROPERTY
@given(points, points)
def test_between_lies_inside_the_counterclockwise_arc(p, r):
    if ref_order(p, r) == 0:
        return
    kp, kb, kr = (ref_key(ref_value(t)) for t in (p, between(p, r), r))
    assert kp < kb < kr if kp < kr else (kb > kp or kb < kr)


@PROPERTY
@given(points, st.integers(-7, 7), st.sampled_from([1, 4, 1024, 4 * 16**6]))
def test_key_floor_matches_the_chart(p, shift, n):
    key = linalg._key_add(circle_key(p), shift, 3)
    value = (ref_key(ref_value(p)) + Q(shift, 3)) * n
    floor = linalg._key_floor(key, n)
    assert floor <= value < floor + 1


@PROPERTY
@given(rational_slopes, rational_slopes, points)
def test_contains_slope_matches_the_chart(lo, hi, p):
    assert ProjInterval(direction(lo), direction(hi)).contains(p) == ref_contains(lo, hi, ref_value(p))


@PROPERTY
@given(rational_slopes, rational_slopes, rational_slopes, rational_slopes)
def test_containment_and_disjointness_match_the_chart(a, b, c, d):
    outer = ProjInterval(direction(a), direction(b))
    inner = ProjInterval(direction(c), direction(d))
    assert outer.contains_interval(inner) == ref_contains_interval((a, b), (c, d))
    disjoint = not (
        ref_contains(a, b, c) or ref_contains(a, b, d) or ref_contains(c, d, a) or ref_contains(c, d, b)
    )
    assert outer.disjoint_from(inner) == disjoint


@PROPERTY
@given(rational_slopes, rational_slopes, invertible)
def test_image_matches_the_moebius_action(lo, hi, m):
    image = ProjInterval(direction(lo), direction(hi)).image(m.num)
    assert (slope(image.lo), slope(image.hi)) == ref_image(m, lo, hi)


coordinates = st.integers(-12, 12) | st.integers(-(10**20), 10**20)


@PROPERTY
@given(coordinates, coordinates)
def test_slope_text_prints_the_fraction(x, y):
    # ProjInterval puts a nonzero pair in lowest terms with y > 0 or
    # y = 0 < x, so x may be negative: its sign moves to the numerator
    end = ProjInterval((x, y), (x, y)).lo if x or y else (0, 1)
    assert slope_text(end) == ("inf" if end == (0, 1) else str(Q(end[1], end[0])))


def test_raw_discriminants_name_one_point():
    root8, twice_root2 = (1, 0, 1, 8), (1, 0, 2, 2)  # sqrt 8 and 2 sqrt 2
    assert linalg._cross(root8, twice_root2) == 0
    assert linalg._key_cmp(circle_key(root8), circle_key(twice_root2)) == 0
    assert linalg._cross(root8, (1, 0, 3, 2)) != 0
    assert linalg._cross(root8, (-1, 0, 1, 8)) != 0  # -sqrt 8, turned to y > 0
    arc = ProjInterval(direction(Q(2)), direction(Q(3)))
    assert arc.contains(root8) and arc.contains(twice_root2)
    assert not ProjInterval(direction(Q(3)), direction(INF)).contains(root8)

"""The invariant-pair scan over the word ball and the closure shape read off
the generators agree with the hand-built word pools they replaced, checked
on generated groups.

``reference_pool`` is the list that the invariant-pair scan of
``matgroups.virtually_solvable`` walked before it read the radius-2
``WordBall``: generators, then inverses, then ordered products of two, the
scalar ones and repeats dropped. ``reference_closure`` is the
``closure_describe`` that conjugated the generators to upper triangular form
and read the unipotent part off a pool of products and commutators.
"""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn.linalg import QMat, _multiplicative_group_shape, eigen_directions
from gbsn.matgroups import (
    ClosureDescription, InvariantLineCertificate, InvariantPairCertificate, ScalarCertificate,
    _preserves_eigenpair, closure_describe, virtually_solvable,
)

from conftest import anon

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


def reference_pool(mats):
    singles = list(mats) + [m.inverse() for m in mats]
    pool, seen = [], set()
    for m in singles + [a * b for a in singles for b in singles]:
        if m.is_scalar() or m in seen:
            continue
        seen.add(m)
        pool.append(m)
    return pool


def reference_pair(mats):
    """The invariant pair of the pool scan, or None; ``virtually_solvable``
    runs the scan only when there is no invariant line."""
    for m in reference_pool(mats):
        if _preserves_eigenpair(m, mats):
            return InvariantPairCertificate(eigen_directions(m).points)
    return None


def reference_closure(gens, result) -> ClosureDescription:
    mats = list(gens)
    if result.virtually_solvable is False:
        return ClosureDescription(status="nonamenable")
    if result.virtually_solvable is None:
        return ClosureDescription(status="not available")
    cert = result.certificate
    if isinstance(cert, ScalarCertificate):
        tri = mats
    elif isinstance(cert, InvariantLineCertificate) and cert.point.is_rational():
        px, py = cert.point.x.a, cert.point.y.a
        conj = QMat([[px, 0], [py, 1]]) if px != 0 else QMat([[0, 1], [1, 0]])
        conj_inv = conj.inverse()
        tri = [conj_inv * g * conj for g in mats]
    else:
        return ClosureDescription(status="not available")
    assert all(t.rows[1][0] == 0 for t in tri)
    diag_kind, diag_gen = _multiplicative_group_shape([abs(t.rows[0][0]) for t in tri])
    pool = list(tri)
    pool += [a * b for a in tri for b in tri]
    pool += [a * b * a.inverse() * b.inverse() for a in tri for b in tri]
    if not any(t.rows[0][0] == t.rows[1][1] and t.rows[0][1] != 0 for t in pool):
        unip_kind = "trivial"
    elif any(abs(t.rows[0][0]) != abs(t.rows[1][1]) for t in tri):
        unip_kind = "dense"
    else:
        unip_kind = "discrete"
    return ClosureDescription("triangular", diag_kind, diag_gen, unip_kind)


small = st.integers(-6, 6)
nonzero = st.integers(-6, 6).filter(bool)
rationals = st.builds(Q, nonzero, st.integers(1, 4))


@st.composite
def conjugators(draw):
    p = QMat([[draw(small), draw(small)], [draw(small), draw(small)]])
    return p if p.det() != 0 else QMat([[1, draw(small)], [0, 1]])


def _conjugated(draw, core):
    """The matrices of ``core`` conjugated by one random rational matrix and
    each scaled by a random rational."""
    p = draw(conjugators())
    p_inv = p.inverse()
    out = []
    for g in core:
        k = draw(rationals)
        out.append(QMat([[k * x for x in row] for row in (p * g * p_inv).rows]))
    return out


@st.composite
def pair_groups(draw):
    """Groups whose generators fix or swap one pair of points: the axes, the
    real pair (x : x sqrt r) for r > 1 squarefree, or a complex pair (r < 0);
    fixing only, swapping only, or both."""
    r = draw(st.sampled_from([0, 2, 3, 5, -1, -2, -3]))
    if r == 0:

        def fixing(u, v):
            return QMat([[u, 0], [0, v]])

        def swapping(u, v):
            return QMat([[0, u], [v, 0]])

    else:

        def fixing(u, v):
            return QMat([[u, r * v], [v, u]])

        def swapping(u, v):
            return QMat([[u, -r * v], [v, -u]])

    kinds = {"fix": [fixing], "swap": [swapping], "both": [fixing, swapping]}[
        draw(st.sampled_from(["fix", "swap", "both"]))
    ]
    core = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.sampled_from(kinds))(draw(small), draw(small))
        if g.det() != 0:
            core.append(g)
    return _conjugated(draw, core or [swapping(1, 1)])


@PROPERTY
@given(pair_groups())
def test_pair_scan_matches_pool_reference(gens):
    result = virtually_solvable(anon(*gens))
    assert result.virtually_solvable is True
    if isinstance(result.certificate, InvariantPairCertificate):
        assert result.certificate == reference_pair(gens)


def test_pair_scan_on_named_cases():
    s, u = QMat([[0, 1], [1, 0]]), QMat([[0, 2], [1, 0]])
    # neither swap's own eigenpair is invariant: s u = diag(1, 2) is found
    expected = InvariantPairCertificate(eigen_directions(s * u).points)
    assert reference_pair([s, u]) == expected
    assert virtually_solvable({"s": s, "u": u}).certificate == expected
    # the quarter turn's complex pair, from the generator itself
    turn, flip = QMat([[0, 1], [-1, 0]]), QMat([[1, 0], [0, -1]])
    assert virtually_solvable(anon(turn, flip)).certificate == reference_pair([turn, flip])


@st.composite
def triangular_groups(draw):
    """Groups fixing the line (1 : 0) before conjugation: commuting ones,
    polynomials u I + v B in one upper triangular B (a unipotent B or a
    scalar u I among them), or upper triangular matrices of several kinds:
    random, diagonal, scalar times unipotent, and |det| = 1."""
    if draw(st.booleans()):
        b = QMat([[draw(small), draw(small)], [0, draw(small)]])
        if draw(st.booleans()):
            b = QMat([[1, draw(nonzero)], [0, 1]])
        (x, y), (_, z) = b.rows
        core = []
        for _ in range(draw(st.integers(1, 3))):
            u, v = draw(small), draw(small)
            core.append(QMat([[u + v * x, v * y], [0, u + v * z]]))
    else:
        core = []
        for _ in range(draw(st.integers(1, 3))):
            u, v, w = draw(nonzero), draw(small), draw(nonzero)
            core.append(QMat(draw(st.sampled_from([
                [[u, v], [0, w]],  # random
                [[u, 0], [0, w]],  # diagonal
                [[u, v], [0, u]],  # scalar times unipotent
                [[u, 0], [0, u]],  # scalar
                [[1, v], [0, -1]],  # |det| = 1, non-unipotent
                [[u, v], [0, Q(1, u)]],  # det = 1
            ]))))
    core = [g for g in core if g.det() != 0] or [QMat([[1, 1], [0, 1]])]
    return _conjugated(draw, core)


@PROPERTY
@given(triangular_groups())
def test_closure_matches_conjugation_reference(gens):
    result = virtually_solvable(anon(*gens))
    assert isinstance(result.certificate, (ScalarCertificate, InvariantLineCertificate))
    assert closure_describe(anon(*gens), result) == reference_closure(gens, result)


def test_closure_on_named_cases():
    cases = [
        # no generator is unipotent, but they do not commute: the commutator is
        (QMat([[1, 1], [0, -1]]), QMat([[-1, 0], [0, 1]]), "discrete"),
        (QMat([[2, 0], [0, 1]]), QMat([[1, 1], [0, 3]]), "dense"),
        # commuting, with a unipotent one
        (QMat([[1, 1], [0, 1]]), QMat([[2, 0], [0, 2]]), "discrete"),
        (QMat([[1, 1], [0, 1]]), QMat([[1, 3], [0, 1]]), "discrete"),
        # commuting and diagonal
        (QMat([[2, 0], [0, 1]]), QMat([[1, 0], [0, 3]]), "trivial"),
    ]
    for a, b, kind in cases:
        result = virtually_solvable(anon(a, b))
        desc = closure_describe(anon(a, b), result)
        assert desc == reference_closure([a, b], result)
        assert (desc.status, desc.unipotent_kind) == ("triangular", kind)

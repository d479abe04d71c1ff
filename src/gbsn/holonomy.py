"""The holonomy homomorphism into GL_n(Q), its evaluation on words, and an
exact test that its image is not discrete.

Every vertex letter maps to the identity; the stable letter of an edge with
inclusions (alpha, omega) maps to omega * alpha^-1 (``Edge.comparison``),
transported to the base vertex through the spanning-tree identifications,
which ``gog.walk`` visits outward from the base. Word images are plain
matrix products, so relators map to the identity by construction.

Non-discreteness is shown by a certificate that re-verifies from the
matrices alone, never by a bounded search: in rank >= 2 a pair (h, g) of
states of the radius-1 ``matgroups.WordBall`` (stable letters and their
inverses) whose conjugates h^-k g h^k tend to I through pairwise distinct
elements, read off from h's rational eigenbasis (``linalg.eigenlines``); in
rank 1 a dense group of absolute values.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .gog import GoGSpec, vertex_letters, walk
from .linalg import QMat, _multiplicative_group_shape, eigenlines
from .matgroups import WordBall
from .record import Record
from .words import Word


class HolonomyData(Record):
    base_vertex: str
    stable: dict  # stable letter name -> QMat, in name order
    vertex_letter_names: frozenset
    rank: int


def compute_holonomy(spec: GoGSpec) -> HolonomyData:
    """Holonomy matrices of the stable letters in name order, based at the
    least vertex."""
    base = spec.base_vertex()
    # transport[v]: v-coordinates -> base-coordinates along the spanning tree
    transport: dict[str, QMat] = {base: QMat.identity(spec.rank)}
    for e, old, new in walk(base, spec.tree_edges()):
        m = e.comparison()
        transport[new] = transport[old] * (m.inverse() if new == e.dst else m)
    stable = {
        e.name: transport[e.dst] * e.comparison() * transport[e.src].inverse()
        for e in sorted(spec.loop_edges(), key=lambda e: e.name)
    }
    names = frozenset(n for group in vertex_letters(spec).values() for n in group)
    return HolonomyData(base, stable, names, spec.rank)


def word_image(hd: HolonomyData, w: Word) -> QMat:
    """Product of the per-letter matrices; vertex letters contribute identity,
    and any other letter raises KeyError."""
    result = QMat.identity(hd.rank)
    for name, exp in w:
        if name in hd.stable:
            result = result * hd.stable[name] ** exp
        elif name not in hd.vertex_letter_names:
            raise KeyError(f"unknown letter {name!r}")
    return result


class WitnessResult(Record):
    """Outcome of the exact search for a proof that the holonomy image is
    not discrete.

    kind is one of:

    * 'contraction': the stable-letter words ``contractor`` (h) and ``word``
      (g) of length one satisfy the contraction check. ``basis`` holds
      eigenvectors of h's image as columns, so P^-1 h P is diagonal; every
      nonzero entry (i, j) of P^-1 (g - I) P has |lambda_j| < |lambda_i|.
      Then h^-k g h^k tends to I through pairwise distinct elements.
    * 'dense': rank 1, and the absolute values of the holonomy generate a
      dense subgroup of the positive reals.
    * 'discrete (integral)': every image generator lies in GL_n(Z), so the
      image is discrete.
    * 'none found': neither certificate exists. This proves nothing either
      way.

    ``searched_length`` is the length of the candidate words h and g (one),
    or 0 when no pair was searched.
    """

    kind: str
    word: Word | None = None
    contractor: Word | None = None
    basis: QMat | None = None
    searched_length: int = 0


def _diagonal(m: QMat) -> tuple | None:
    """The diagonal entries of m when m is diagonal, else None."""
    n, rows = m.n, m.rows
    if any(rows[i][j] for i in range(n) for j in range(n) if i != j):
        return None
    return tuple(rows[i][i] for i in range(n))


def _rational_eigenbasis(h: QMat) -> tuple[QMat, tuple] | None:
    """(P, eigenvalues) with P^-1 h P = diag(eigenvalues), or None.

    Any diagonal h qualifies; in rank 2 so does any h with two distinct
    rational eigenvalues, which holds exactly when the discriminant D of its
    numerator is a nonzero square. Its eigenvalues are then
    (a + d +- sqrt(D)) / (2 den), and the columns of P are the integer
    ``eigenlines`` over 2 den. Larger ranks take diagonal h only.
    """
    lams = _diagonal(h)
    if lams is not None:
        return QMat.identity(h.n), lams
    if h.n != 2:
        return None
    disc, lines = eigenlines(h.num)
    if len(lines) != 2 or len(lines[0]) != 2:
        return None  # irrational, or a repeated eigenvalue of a non-diagonal h
    (a, _), (_, d) = h.num
    root, scale = isqrt(disc), 2 * h.den
    (x1, y1), (x2, y2) = lines
    lams = (Fraction(a + d + root, scale), Fraction(a + d - root, scale))
    return QMat.from_ints(((x1, x2), (y1, y2)), scale), lams


def _contracts(basis: QMat, lams: tuple, g: QMat) -> bool:
    """Is g != I with every nonzero entry (i, j) of basis^-1 (g - I) basis
    at |lams[j]| < |lams[i]|?

    Conjugating by h^k, h = basis diag(lams) basis^-1, multiplies that entry
    by (lams[j] / lams[i])^k, so h^-k g h^k -> I, and no two terms agree.
    """
    m = basis.inverse() * g * basis
    n, num, den = m.n, m.num, m.den
    moved = [(i, j) for i in range(n) for j in range(n) if num[i][j] != (den if i == j else 0)]
    return bool(moved) and all(abs(lams[j]) < abs(lams[i]) for i, j in moved)


def _dense_absolute_values(hd: HolonomyData) -> bool:
    """Is the rank 1 and do the absolute values of the holonomy generate a
    dense subgroup of the positive reals?"""
    if hd.rank != 1:
        return False
    values = [abs(m.rows[0][0]) for m in hd.stable.values()]
    return _multiplicative_group_shape(values)[0] == "dense"


def non_discreteness_witness(hd: HolonomyData) -> WitnessResult:
    """An exact certificate that the holonomy image is not discrete.

    In rank 1 the certificate is a dense group of absolute values. In rank
    >= 2 it is a contraction pair (h, g) among the states of the radius-1
    word ball of the stable letters, tried in the ball's order (names
    ascending, exponent +1 before -1, h in the outer loop), so the result is
    deterministic. The ball holds each image once and not I: a repeated
    image passes only where its first spelling passed before it, and I
    neither contracts nor has eigenvalues of distinct moduli.
    """
    if all(m.is_integral() and abs(m.det()) == 1 for m in hd.stable.values()):
        return WitnessResult("discrete (integral)")
    if hd.rank == 1:
        return WitnessResult("dense" if _dense_absolute_values(hd) else "none found")
    ball = WordBall(hd.stable)
    letters = [(ball.word(state), ball.matrix(state)) for state in ball.grow(1)]
    for h_word, h in letters:
        eigen = _rational_eigenbasis(h)
        if eigen is None:
            continue
        basis, lams = eigen
        for g_word, g in letters:
            if _contracts(basis, lams, g):
                return WitnessResult("contraction", g_word, h_word, basis, 1)
    return WitnessResult("none found", searched_length=1)


def verify_nondiscreteness(hd: HolonomyData, result: WitnessResult) -> bool:
    """Does ``result`` prove that the holonomy image is not discrete?

    Recomputes the certificate's check from the holonomy matrices: for a
    contraction, that ``basis`` diagonalizes the contractor's image and
    that the contraction check holds for the image of ``word``; for
    'dense', the rank-1 shape of the absolute values. Any other kind
    proves nothing, and gives False.
    """
    if result.kind == "dense":
        return _dense_absolute_values(hd)
    if result.kind != "contraction":
        return False
    basis = result.basis
    if basis is None or basis.det() == 0:
        return False
    lams = _diagonal(basis.inverse() * word_image(hd, result.contractor) * basis)
    return lams is not None and _contracts(basis, lams, word_image(hd, result.word))

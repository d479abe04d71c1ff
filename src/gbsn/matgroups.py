"""Decision procedures for finitely generated subgroups of GL_2(Q).

<named> is the group generated by ``named``, a dict from generator name to
matrix (a holonomy's ``stable``, say); scans spell words in its names, in order.

Virtual solvability is decided constructively: a subgroup of GL_2(Q) is
virtually solvable exactly when it fixes a point of the projective line over
a quadratic extension or permutes a two-point set (for rational 2x2 matrices
the exceptional finite projective groups A4, S4, A5 cannot occur, since -1 is
not a sum of two rational squares). Candidate points are the eigenlines of a
generator, then the eigendirections of the radius-2 word ball; certificates
re-verify by exact arithmetic. The negative answer is a ping-pong free pair
acting on the projective line, whose points are the integer directions of
``linalg``.

The scans themselves solve no eigenproblem: the invariant-line scan tests the
pivot's integer eigenlines (``linalg.common_eigenline``), an invariant-pair
candidate m is tested by commutation (g m = m g, or g m = adj(m) g), and a
ping-pong player's kind and fixed points are the ``linalg.eigenlines`` of
the integer entries of a word-ball state; every short-word scan reads a
``WordBall``. ``eigen_directions`` runs only to state a returned irrational
invariant line or invariant pair, and it only states the lines of
``linalg.eigenlines`` in the printed form; certificates re-verify with
``linalg.maps_to``. The closure shape (``closure_describe``) is read off
the generators; ``classify.coarse_density`` reads it as a spec's stage.

The ping-pong is integer work on the circle of directions of ``linalg``:
fixed points are sorted by the sign of a cross product, irrational ones keep
their raw discriminants, domains are cut at the rational directions of
``linalg.between``, traps come from ``ProjInterval.isolate``, and every
inclusion is ``ProjInterval.contains_interval`` of an image under an integer
numerator. No slope is formed until a report prints one. The closure's
value group is classified over a coprime base, at any rank for a scalar
group. Floating point appears only in ``cartan_hausdorff_samples``, for the
diagnostics of an undetermined comparison.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Sequence

from .linalg import (
    ProjInterval, ProjPoint, QMat, _cross, _multiplicative_group_shape, _normal, adjugate,
    between, common_eigenline, commutes, eigen_directions, eigenlines, maps_to,
)
from .record import Record
from .words import Word

Q = Fraction


# --------------------------------------------------------------------------
# certificates


class ScalarCertificate(Record):
    """Every generator is a scalar matrix (the group is central, abelian)."""

    kind = "scalar"


class InvariantLineCertificate(Record):
    point: ProjPoint

    kind = "invariant-line"


class InvariantPairCertificate(Record):
    points: tuple[ProjPoint, ProjPoint]

    kind = "invariant-pair"


class FreePairCertificate(Record):
    """Ping-pong witness that <x, y> is free of rank 2.

    The four headline inclusions x^{+-1}(domain_y) <= domain_x and
    y^{+-1}(domain_x) <= domain_y re-verify by integer arithmetic on the
    ends, which are rational directions (``linalg.ProjInterval``).
    The trap intervals prove the inclusions for *all* nonzero powers: each
    trap T satisfies g(T) <= T and g(opposite domain) <= T, with T inside the
    player's own domain, so g^k(opposite domain) <= T by induction on k.
    """

    word_x: Word
    word_y: Word
    domain_x: ProjInterval
    domain_y: ProjInterval
    traps_x: tuple[ProjInterval, ProjInterval]  # forward trap, backward trap
    traps_y: tuple[ProjInterval, ProjInterval]

    kind = "free-pair"


class TitsResult(Record):
    """Tri-state outcome: True/False with certificate, or None (undetermined)."""

    virtually_solvable: Optional[bool]
    certificate: object
    detail: str = ""


def evaluate_word(named_gens: dict, w: Word) -> QMat:
    mats = list(named_gens.values())
    n = mats[0].n if mats else 2
    out = QMat.identity(n)
    for name, exp in w:
        out = out * (named_gens[name] ** exp)
    return out


def _preserves_eigenpair(m: QMat, mats: Sequence[QMat]) -> bool:
    """Does every g in ``mats`` fix or swap the two eigendirections of m?
    False for every m with D = 0, scalars too, so the scan needs no filter.

    For m with distinct eigenvalues (tr^2 != 4 det), real or complex, g fixes
    both eigendirections exactly when g m = m g, and swaps them exactly when
    g m = (tr(m) I - m) g. On entries, with m = [[a, b], [c, d]] and
    g = [[p, q], [r, s]]: g m = m g iff (q, r, p - s) is parallel to the
    nonzero (b, c, a - d), and g m = (tr(m) I - m) g iff tr g = 0 and
    tr(g m) = p (a - d) + q c + r b = 0.
    """
    (a, b), (c, d) = m.num  # every test is homogeneous in m and in g
    if eigenlines(m.num)[0] == 0:
        return False
    for g in mats:
        (p, q), (r, s) = g.num
        swaps = p + s == 0 and p * (a - d) + q * c + r * b == 0
        if not (swaps or commutes(m, g)):
            return False
    return True


def virtually_solvable(named: dict) -> TitsResult:
    """Decide virtual solvability of <named> inside GL_n(Q) (full power at n=2).

    True answers carry a Scalar / InvariantLine / InvariantPair certificate,
    False answers a FreePair certificate; None is returned only when neither
    certificate kind is found within the search bounds.
    """
    mats = list(named.values())
    if any(m.det() == 0 for m in mats):
        raise ValueError("generators must be invertible")
    if all(m.is_scalar() for m in mats):
        return TitsResult(True, ScalarCertificate(), "all generators scalar")
    if mats[0].n != 2:
        return TitsResult(None, None, "undetermined (decision limited to n = 2)")

    # complex eigendirections are fixed only together with their Galois
    # conjugates; the invariant-pair scan below reports those
    line = common_eigenline(next(m for m in mats if not m.is_scalar()), mats)
    if line is not None:
        return TitsResult(True, InvariantLineCertificate(line), "common eigendirection")

    # The radius-2 ball holds each element of length <= 2 once (w w^-1 = I
    # aside): a passing one if the group preserves a pair {p, q}. The
    # subgroup H fixing p and q has index <= 2, and its non-scalar elements
    # have eigendirections {p, q}. For a generator s swapping them, H is
    # generated by the generators g fixing them, the s g s^-1, and the s t and
    # t s^-1 for swapping generators t. If all g, s t, t s^-1 are scalar, so
    # is H, and s (trace 0) passes.
    ball = WordBall(named)
    for m in map(ball.matrix, ball.grow(2)):
        if _preserves_eigenpair(m, mats):
            return TitsResult(
                True,
                InvariantPairCertificate(eigen_directions(m).points),
                "invariant two-point set",
            )

    cert = pingpong_certify(named)
    if cert is not None:
        return TitsResult(False, cert, "free subgroup by ping-pong")
    return TitsResult(
        None,
        None,
        "undetermined: no invariant line or pair, and no free pair within bounds",
    )


# --------------------------------------------------------------------------
# word balls


def _flat(m: QMat) -> tuple:
    return (*(x for row in m.num for x in row), m.den)


def _scaled_mul(a: tuple, b: tuple, n: int) -> tuple:
    if n == 2:
        a0, a1, a2, a3, ad = a
        b0, b1, b2, b3, bd = b
        o0 = a0 * b0 + a1 * b2
        o1 = a0 * b1 + a1 * b3
        o2 = a2 * b0 + a3 * b2
        o3 = a2 * b1 + a3 * b3
        den = ad * bd
        if den > 1 and (g := gcd(den, o0, o1, o2, o3)) > 1:
            return (o0 // g, o1 // g, o2 // g, o3 // g, den // g)
        return (o0, o1, o2, o3, den)
    out = [sum(a[i * n + k] * b[k * n + j] for k in range(n)) for i in range(n) for j in range(n)]
    den = a[-1] * b[-1]
    if den > 1 and (g := gcd(den, *out)) > 1:
        return (*(x // g for x in out), den // g)
    return (*out, den)


class WordBall:
    """The ball of a matrix group in its word metric, grown breadth-first.

    A state is a group element in ``QMat``'s form, flattened: the entries
    of its integer numerator row by row, then its denominator, in lowest
    terms, so equal matrices give equal states. Each element is stored
    once, with the (parent state, letter) that first reached it, and
    nothing else: words and matrices are rebuilt on demand. Letters are
    tried in the order of ``named``, exponent +1 before -1. Shortlex-least
    spellings are prefix-closed (Epstein et al., Word Processing in Groups,
    1992), so elements are found in the shortlex order of their least
    spellings and ``word`` returns that spelling.

    Read by the invariant-pair scan (radius 2), the ping-pong players, the
    Cartan samples, the stable-letter relation of ``classify`` (case 2a)
    and the non-discreteness witness of ``holonomy`` (radius 1).
    """

    def __init__(self, named: dict):
        self.n = next(iter(named.values())).n
        self.steps = [
            ((name, sign), _flat(m if sign == 1 else m.inverse()))
            for name, m in named.items()
            for sign in (1, -1)
        ]
        self.identity = _flat(QMat.identity(self.n))
        self.parent: dict[tuple, tuple] = {self.identity: ()}
        # first (state, letter, child) whose child was already stored
        self._collision: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self.parent)

    def grow(self, radius: int) -> Iterator[tuple]:
        """Yield each new state in discovery order, level by level, out to
        word length ``radius``. A ball is grown by one call; a caller that
        stops resuming it stores no further state. A state reached by step
        g skips the step back, g ^ 1 in ``steps``, so every stored child that
        a step reaches is a collision."""
        n, parent, steps = self.n, self.parent, self.steps
        frontier = [(self.identity, -1)]  # (state, its step back)
        for _ in range(radius):
            nxt = []
            for state, back in frontier:
                for g, (letter, mat) in enumerate(steps):
                    if g == back:
                        continue
                    child = _scaled_mul(state, mat, n)
                    if child in parent:
                        if self._collision is None:
                            self._collision = (state, letter, child)
                        continue
                    parent[child] = (state, letter)
                    nxt.append((child, g ^ 1))
                    yield child
            frontier = nxt

    def word(self, state: tuple) -> Word:
        letters = []
        while self.parent[state]:
            state, letter = self.parent[state]
            letters.append(letter)
        return Word(reversed(letters))

    def matrix(self, state: tuple) -> QMat:
        n = self.n
        return QMat.from_ints(tuple(state[i : i + n] for i in range(0, n * n, n)), state[-1])

    def relation(self) -> Optional[Word]:
        """A nontrivial freely reduced word with image I, of length at most
        twice the grown radius, or None.

        Two distinct reduced words of length <= r with one image exist
        exactly when some step of the radius-r ball reaches a stored
        element. For the first such step the word is the element's stored
        spelling followed by the inverse of the new one; the two end in
        different letters, so nothing cancels.
        """
        if self._collision is None:
            return None
        state, letter, child = self._collision
        return self.word(child) * Word([(letter[0], -letter[1])]) * self.word(state).inverse()


# --------------------------------------------------------------------------
# ping-pong search


PINGPONG_POWER_CAP = 4096  # largest power tried for a player's traps
PINGPONG_WORD_LEN = 3  # players are the elements of the word ball of this radius


class _Player(Record):
    word: Word
    num: tuple  # ((a, b), (c, d)): the element's integer numerator
    kind: str  # 'hyperbolic' | 'parabolic'
    fixed: tuple  # directions; hyperbolic: (attracting, repelling), parabolic: (f,)


def _player_slopes(a: int, b: int, c: int, d: int) -> Optional[tuple]:
    """Kind and fixed points of the integer matrix [[a, b], [c, d]] as a
    ping-pong player, or None when it is scalar (no eigenlines), elliptic
    (disc < 0) or has eigenvalues of equal modulus (disc > 0 = trace); a
    positive rescaling changes nothing.

    With disc and the eigenlines of ``linalg.eigenlines`` and t = a + d,
    the eigenvalues are (t +- sqrt(disc)) / 2, and the '+' one has the
    larger modulus exactly when t > 0 (their squares differ by
    t sqrt(disc)). The fixed points are the eigenlines as directions, with
    an irrational one's disc unfactored."""
    disc, lines = eigenlines(((a, b), (c, d)))
    if not lines or disc < 0 or (disc > 0 and a + d == 0):
        return None
    if disc == 0:
        return "parabolic", (_normal(*lines[0]),)
    plus, minus = (_normal(*line) for line in lines)
    return "hyperbolic", ((plus, minus) if a + d > 0 else (minus, plus))


def _fixed_slopes_disjoint(a: _Player, b: _Player) -> bool:
    return not any(_cross(s, t) == 0 for s in a.fixed for t in b.fixed)


def _sorted_fixed_points(x: _Player, y: _Player) -> list:
    """Fixed points of both players as (direction, owner) in circle order."""
    # points never tie: the players' fixed points are disjoint
    return sorted(
        ((p, owner) for owner, pl in enumerate((x, y)) for p in pl.fixed),
        key=functools.cmp_to_key(lambda a, b: -_cross(a[0], b[0])),
    )


def _block_cuts(pts: list) -> Optional[list]:
    """(separator, next point, its owner) at each owner change of the circle,
    the separator strictly between a point and the next one; None unless
    there are two (else the blocks interleave, and no two disjoint arcs
    contain them)."""
    ring = zip(pts, pts[1:] + pts[:1])
    cuts = [(between(p, r), r, b) for (p, a), (r, b) in ring if a != b]
    return cuts if len(cuts) == 2 else None


def _traps_hold(trap_fwd, trap_bwd, opposite, m: tuple) -> bool:
    """g(T+) <= T+, g(opposite) <= T+, g^-1(T-) <= T- and g^-1(opposite) <= T-
    for the element g that acts as the integer matrix m."""
    pairs = ((trap_fwd, m), (trap_bwd, adjugate(m)))
    return all(t.contains_interval(arc.image(g)) for t, g in pairs for arc in (t, opposite))


def _trap_pair(
    player: _Player, domain: ProjInterval, opposite: ProjInterval
) -> Optional[tuple[int, ProjInterval, ProjInterval]]:
    """Find a power N and traps proving player^(kN)(opposite) <= domain, k != 0.

    The forward trap T+ satisfies g^N(T+) <= T+ and g^N(opposite) <= T+, the
    backward trap symmetrically for g^-N; both traps sit inside the domain,
    so the inclusion for every power follows by induction. The powers
    N = 1, 2, 4, ... are squares of the one before, as integer matrices.
    """
    if player.kind == "hyperbolic":
        att, rep = player.fixed
        candidates = [(domain.isolate(att, rep), domain.isolate(rep, att))]
    else:
        # parabolic: one-sided intervals at the (rational) fixed point; the
        # direction of motion decides which side traps which sign
        (f,) = player.fixed
        if not domain.contains(f):
            return None
        sides = (ProjInterval(f, domain.hi), ProjInterval(domain.lo, f))
        candidates = [sides, sides[::-1]]
    candidates = [pair for pair in candidates if None not in pair]
    power, m = 1, player.num
    while candidates:
        for trap_fwd, trap_bwd in candidates:
            if _traps_hold(trap_fwd, trap_bwd, opposite, m):
                return power, trap_fwd, trap_bwd
        if 2 * power > PINGPONG_POWER_CAP:
            break
        (a, b), (c, d) = m
        power, m = 2 * power, ((a * a + b * c, b * (a + d)), (c * (a + d), d * d + b * c))
    return None


def _try_pair(x: _Player, y: _Player, pts: list):
    cuts = _block_cuts(pts)
    if cuts is None:
        return None
    (c1, next1, owner_a), (c2, next2, _) = cuts
    # block A runs from next1 to the point before c2; block B is the rest
    # (cyclically contiguous). Each cut is shaved into two nearby rationals
    # so the domains are disjoint closed intervals with the blocks strictly
    # inside.
    dom_a = ProjInterval(between(c1, next1), c2)
    dom_b = ProjInterval(between(c2, next2), c1)
    domain_x, domain_y = (dom_a, dom_b) if owner_a == 0 else (dom_b, dom_a)
    if not domain_x.disjoint_from(domain_y):
        return None
    fx = _trap_pair(x, domain_x, domain_y)
    fy = None if fx is None else _trap_pair(y, domain_y, domain_x)
    if fy is None:
        return None
    nx, tx_f, tx_b = fx
    ny, ty_f, ty_b = fy
    return FreePairCertificate(
        x.word ** nx, y.word ** ny, domain_x, domain_y, (tx_f, tx_b), (ty_f, ty_b)
    )


def pingpong_certify(named: dict) -> Optional[FreePairCertificate]:
    """Search short words for a certified free pair; None when none found.

    Players are short words with real fixed points and infinite order whose
    fixed-point sets are disjoint and unlinked on the circle; powers are
    escalated until the exact trap inclusions hold. The search order is
    deterministic, so the returned certificate is reproducible. A ball
    state (a, b, c, d, den) is the matrix [[a, b], [c, d]] / den, so the
    players are read off its integer numerator, and only as far as the pair
    loop reaches: the first pair that passes ends the scan of the ball.
    """
    if not named or next(iter(named.values())).n != 2:
        return None
    ball = WordBall(named)
    pending = (
        _Player(ball.word(state), (state[:2], state[2:4]), *slopes)
        for state in ball.grow(PINGPONG_WORD_LEN)
        for slopes in [_player_slopes(*state[:4])]
        if slopes is not None
    )
    players = []

    def reach(k: int) -> bool:
        """Is there a player k? Classifies ball states only up to it."""
        players.extend(itertools.islice(pending, max(0, k + 1 - len(players))))
        return k < len(players)

    i = 0
    while reach(i):
        j = 0
        while reach(j):
            x, y = players[i], players[j]
            if i != j and _fixed_slopes_disjoint(x, y):
                cert = _try_pair(x, y, _sorted_fixed_points(x, y))
                if cert is not None:
                    return cert
            j += 1
        i += 1
    return None


def verify_free_pair(named: dict, cert: FreePairCertificate) -> bool:
    """Re-verify a free-pair certificate on <named> from scratch, exactly.

    Checks the four headline inclusions, disjointness, the trap conditions
    that extend the inclusions to all nonzero powers, and that both players
    are hyperbolic or parabolic.
    """
    x1, x2 = cert.domain_x, cert.domain_y
    if not x1.disjoint_from(x2):
        return False
    for word, (tf, tb), dom, opp in (
        (cert.word_x, cert.traps_x, x1, x2),
        (cert.word_y, cert.traps_y, x2, x1),
    ):
        m = evaluate_word(named, word).num  # acts as the matrix does
        if not all(dom.contains_interval(opp.image(g)) for g in (m, adjugate(m))):
            return False
        if not (dom.contains_interval(tf) and dom.contains_interval(tb)):
            return False
        if not _traps_hold(tf, tb, opp, m):
            return False
        if _player_slopes(*m[0], *m[1]) is None:
            # conservative: this refuses every element without a real fixed
            # point or with eigenvalues of equal modulus, though such an
            # element need not have finite order ([[2, -1], [1, 2]] is
            # elliptic of infinite order)
            return False
    return True


def verify_certificate(named: dict, cert) -> bool:
    """Exact re-verification for any Tits certificate on <named>."""
    mats = list(named.values())
    if isinstance(cert, ScalarCertificate):
        return all(m.is_scalar() for m in mats)
    if isinstance(cert, InvariantLineCertificate):
        return all(maps_to(g, cert.point, cert.point) for g in mats)
    if isinstance(cert, InvariantPairCertificate):
        p, q = cert.points
        return all(
            (maps_to(g, p, p) and maps_to(g, q, q)) or (maps_to(g, p, q) and maps_to(g, q, p))
            for g in mats
        )
    if isinstance(cert, FreePairCertificate):
        return verify_free_pair(named, cert)
    return False


# --------------------------------------------------------------------------
# closure description


class ClosureDescription(Record):
    """Shape of the closure of a triangularizable-over-Q matrix group.

    status: 'triangular', 'not available', or 'nonamenable'. In the
    triangular case every generator g fixes a rational line, on which it
    acts by its eigenvalue lambda(g): in rank 2 the line of an invariant-line
    certificate, and at any rank, under a scalar certificate, every line,
    with lambda(g) the scalar's diagonal entry. ``diag_kind`` flags the
    multiplicative group generated by the |lambda(g)| as trivial / cyclic
    (with generator) / dense, and ``unipotent_kind`` flags the additive
    closure of the unipotent part as trivial / discrete / dense (trivial for
    scalars).
    """

    status: str
    diag_kind: str = ""
    diag_generator: Optional[Q] = None
    unipotent_kind: str = ""


def closure_describe(named: dict, result: TitsResult) -> ClosureDescription:
    """Describe the closure of <named> when it is triangularizable, given
    the Tits decision ``result`` on <named>: a scalar group at any rank, or
    a subgroup of GL_2(R) with a rational invariant line.

    Under a scalar certificate every g is lambda(g) times I. Otherwise,
    over a basis whose first vector spans the rational invariant line
    (x : y), g is upper triangular with diagonal (lambda(g),
    det g / lambda(g)), lambda(g) its eigenvalue on the line. The unipotent
    part is trivial iff all generators commute and none is non-scalar with
    D = 0: a commutator of triangular matrices is unipotent, and not I iff
    the two do not commute; in an abelian group, an element commuting with
    a non-scalar unipotent (times a scalar) has equal eigenvalues, so
    products add nothing. Otherwise the orbit of the off-diagonal values
    under the diagonal parts has unbounded denominators (dense) iff some
    lambda(g)^2 != |det g|.
    """
    mats = list(named.values())
    if result.virtually_solvable is False:
        return ClosureDescription(status="nonamenable")
    if result.virtually_solvable is None:
        return ClosureDescription(status="not available")
    cert = result.certificate
    if isinstance(cert, ScalarCertificate):
        lams = [Q(g.num[0][0], g.den) for g in mats]
    elif isinstance(cert, InvariantLineCertificate) and cert.point.is_rational():
        x, y = cert.point.x.a, cert.point.y.a
        i, coord = (0, x) if x else (1, y)  # g (x, y) = lambda(g) (x, y)
        lams = [(g.num[i][0] * x + g.num[i][1] * y) / (g.den * coord) for g in mats]
    else:
        return ClosureDescription(status="not available")  # not triangularizable over Q
    diag_kind, diag_gen = _multiplicative_group_shape([abs(lam) for lam in lams])
    moving = [g for g in mats if not g.is_scalar()]  # scalars pass both tests, at any n
    if all(commutes(a, b) for a, b in itertools.combinations(moving, 2)) and not any(
        eigenlines(g.num)[0] == 0 for g in moving
    ):
        unip_kind = "trivial"
    elif any(lam * lam != abs(g.det()) for lam, g in zip(lams, mats)):
        unip_kind = "dense"
    else:
        unip_kind = "discrete"
    return ClosureDescription("triangular", diag_kind, diag_gen, unip_kind)


# --------------------------------------------------------------------------
# Cartan samples


def _mu(state: tuple) -> float:
    """Normalized Cartan coordinate of the 2x2 ball state (a, b, c, d, den),
    the matrix m = [[a, b], [c, d]] / den: half the log ratio of its
    singular values, from the trace and determinant of m^T m (each a
    correctly rounded quotient of integers)."""
    a, b, c, d, den = state
    scale = den * den
    t = (a * a + b * b + c * c + d * d) / scale
    det = (a * d - b * c) ** 2 / (scale * scale)
    disc = max(t * t - 4 * det, 0.0)
    s1sq = (t + math.sqrt(disc)) / 2
    return 0.5 * (math.log(s1sq) - 0.5 * math.log(det))


def _ball_mu_values(named: dict, radius: int, cap: int = 200000) -> list[float]:
    ball = WordBall(named)
    for _ in ball.grow(radius):
        if len(ball) > cap:
            raise RuntimeError("sampling ball too large")
    return sorted(map(_mu, ball.parent))


def cartan_hausdorff_samples(
    named_a: dict, named_b: dict, radii=(4, 6, 8)
) -> list[tuple[int, float]]:
    """Sampled symmetric Hausdorff distances between normalized Cartan value
    sets of word balls in GL_2: diagnostics attached to an undetermined comparison,
    never the ground of a verdict."""
    out = []
    for r in radii:
        try:
            va = _ball_mu_values(named_a, r)
            vb = _ball_mu_values(named_b, r)
        except RuntimeError:
            break

        def directed(xs, ys):
            # ys is sorted, so the nearest y to x is a neighbour of its slot
            worst = 0.0
            for x in xs:
                k = bisect.bisect_left(ys, x)
                worst = max(worst, min(abs(x - ys[i]) for i in (k - 1, k) if 0 <= i < len(ys)))
            return worst

        out.append((r, max(directed(va, vb), directed(vb, va))))
    return out

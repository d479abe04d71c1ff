"""Britton normal forms, the word problem, geodesics and distortion.

Supported specs have a single vertex (any number of loops, any rank): the
fundamental group is then an HNN extension of Z^n with one stable letter per
loop, and the classical normal form theorem applies verbatim. An element is
written

    g0 t1^e1 g1 t2^e2 g2 ... tk^ek gk

with integer vectors g_i and stable letters t_i. The canonical form is
Britton-reduced (no pinchable subword t^-1 x t with x in the alpha-image, or
t x t^-1 with x in the omega-image), and each vector g_(i-1) before a letter
t_i^e is the canonical Hermite residue modulo the lattice that passes right
through t_i^e: the alpha-image for e = +1 and the omega-image for e = -1.
Excess lattice parts are pushed right through the letter, and the last
vector gk is free. Two words represent the same group element exactly when
their canonical forms are equal.

All stable-letter arithmetic is one function, ``_stable_step``: it
right-multiplies a canonical form, a flat integer list with its free last
vector apart, by t^{+-1} along the letter's pivot plan. ``_FastOps.fold``
takes it per stable letter of a word (``britton_reduce``, ``nf_multiply``)
and ``GeodesicOracle._level`` per stable move of the geodesic search; the
forward growth applies its pinch rule to tuples.

``is_identity`` first maps the word to the abelianization, Z^n/L + Z^k for
k loops, where L is spanned by alpha_j c - omega_j c over every loop j and
every vector c. That takes one step per run of ``Word.letters``, whatever
the exponents, and a nonzero image answers "no" exactly, since the map is
a homomorphism. Only a word with a zero image is folded.

Geodesic lengths come from a meet-in-the-middle breadth-first search
(``GeodesicOracle``): a forward ball around the identity, grown in complete
levels, and a backward search from the target for the rest. A query grows
the ball only until a complete level holds its target, which is then at
exactly that level's distance, and otherwise to depth ceil(r/2) for a query
of radius r. Past that depth it builds a level only if the level cannot
take the ball past ``FORWARD_BALL_STATES`` states. The last backward level
only tests its states against the ball. Both searches build each level with
one routine, ``GeodesicOracle._level``, and reach each state first along
its shortlex-least geodesic, so a state reached by step g skips the step
back and every earlier step that commutes with g. A stable
move depends on the letter and the state's last vector alone. One forward
growth repeats most of its moves (84% of its stable steps over a pass of
the benchmark's geodesics jobs), so it computes each once and keeps it in a
table for the growth; a backward search repeats about one in six, too few
to pay for a table, and computes each directly.
``distortion_profile`` searches each power only below its spelled upper
bound, which the spelling itself attains, and not at all once the
triangle inequality |m*v| >= |k*v| - cost(|m - k|) (the vertex group is
abelian) reaches that bound for a power k it has decided; it decides the
powers longest spelling first, so the long powers, searched anyway, settle
shorter ones. The oracle speaks flat states,
the tuples that key its ball: ``geodesic_length`` folds its word straight
into one and ``distortion_profile`` writes each power as one, so no query
builds a ``NormalForm``.

``geodesic_length`` and ``distortion_profile`` take their oracle from one
process-wide store keyed by spec, so a query pays only for the levels no
earlier query on that spec has built. The store keeps at most
``KEPT_BALL_STATES`` ball states in all, evicts the least recently used
ball first, and keeps no ball that alone exceeds the bound. One lock covers
lookup, query and eviction, so concurrent callers are served one at a time.
A query allocates no reference cycles, so the cyclic garbage collector is
paused while it runs.
Keeping balls between calls is safe for two reasons. Their memory is
bounded by ``KEPT_BALL_STATES`` however many specs are queried. And a kept
ball is never left half-grown: it is one snapshot, and a level joins by
one attribute store of a new snapshot, so an exception (a time limit, ^C)
lands before or after that store, and the ball holds complete levels only
and answers the next query exactly.
"""

from __future__ import annotations

import gc
import math
import threading
from collections import OrderedDict
from functools import lru_cache
from itertools import groupby
from operator import add, countOf, mul
from typing import Optional

from .gog import GoGSpec, vertex_letters
from .linalg import hermite_normal_form, lattice_hnf, lattice_residue
from .record import Record
from .words import Word


class UnsupportedSpecError(ValueError):
    pass


class NormalForm(Record):
    """Canonical alternating form; structural equality decides the word problem.

    The last vector is free; every other one is a Hermite residue modulo
    the alpha-image (before t) or the omega-image (before t^-1)."""

    head: tuple  # vector g0
    tail: tuple  # ((edge_name, sign, vector), ...)

    def is_trivial(self) -> bool:
        return not self.tail and all(c == 0 for c in self.head)

    def __str__(self):
        parts = []
        if any(self.head) or not self.tail:
            parts.append("(" + ",".join(str(c) for c in self.head) + ")")
        for name, sign, vec in self.tail:
            parts.append(name if sign > 0 else f"{name}^-1")
            if any(vec):
                parts.append("(" + ",".join(str(c) for c in vec) + ")")
        return " ".join(parts) if parts else "(0)"


def _stable_step(s: list, v: list, plan: tuple) -> list:
    """Right-multiply the canonical form ``s`` + ``v`` by one stable letter:
    ``s``, the flat form without its free last vector ``v``, changes in
    place, and the new last vector is returned. Along the letter's plan
    ``(index, sign, pivots)``, ``v`` becomes its residue and the lattice part
    H q moves right through the letter as moves·q. The letter pinches when
    the residue is zero and ``s`` ends with t_index^-sign; otherwise ``v``
    and the letter join ``s``. The pushed part joins the new last vector."""
    index, sign, pivots = plan
    n = len(v)
    pushed = [0] * n
    for i, pivot, below, move in pivots:
        q = v[i] // pivot
        if q:
            v[i] -= q * pivot
            for r, c in below:
                v[r] -= q * c
            for j in range(n):
                pushed[j] += q * move[j]
    if s and s[-1] == -sign and s[-2] == index and not any(v):
        v = s[-n - 2 : -2]
        del s[-n - 2 :]
        return list(map(add, v, pushed))
    s += v
    s += (index, sign)
    return pushed


class _FastOps:
    """Per-spec tables and the normal-form steps (single-vertex specs).

    State layout: a canonical form g0 t1^e1 g1 ... tk^ek gk is the flat
    integer sequence (g0[0..n-1], then per entry: loop_index, sign,
    vec[0..n-1]), a list while it is being changed and a tuple as a
    dictionary key. The last vector is free; every other one is a residue
    modulo the lattice of the letter after it. ``fold`` right-multiplies
    such a list in place by a word.

    ``plans[(loop_index, sign)]`` is the pivot plan ``(loop_index, sign,
    pivots)`` of t^sign. H, the integer HNF of the lattice that passes right
    through t^sign (alpha-image for sign +1, omega-image for -1), is lower
    triangular with positive pivots; ``pivots`` holds, per column i,
    ``(i, H[i][i], the nonzero (r, H[r][i]) below it, move)``, with ``move``
    column i of push·H, the push map in the lattice's own coordinates. It
    is integral (for sign +1, H = alpha U with U unimodular and push·H =
    omega U; for sign -1 it is alpha U), so the lattice part H q moves
    through the letter as moves·q, with no division.
    ``growth``, the analytic constant, is the largest |entry| of any push
    map, and at least 2.0.

    ``abelian`` is the column HNF of the lattice L above, with a zero column
    wherever L has no pivot; ``abelian_image_is_zero`` reads a word's image.
    """

    def __init__(self, spec: GoGSpec):
        if len(spec.vertices) != 1:
            raise UnsupportedSpecError(
                "normal forms are implemented for one-vertex graphs of groups"
            )
        self.n = spec.rank
        self.vletters = {name: i for i, name in enumerate(vertex_letters(spec)[spec.vertices[0]])}
        edges = {e.name: e for e in spec.loop_edges()}
        self.loop_names = sorted(edges)
        self.loop_index = {name: i for i, name in enumerate(self.loop_names)}
        self.plans = {}
        self.growth = 2.0
        for idx, name in enumerate(self.loop_names):
            e = edges[name]
            mat = e.comparison()  # x -> t^-1 x t
            for sign, image, push in ((1, e.alpha, mat), (-1, e.omega, mat.inverse())):
                hnf = hermite_normal_form(image)
                pivots = []
                for i, col in enumerate(zip(*hnf.num)):
                    move = [divmod(sum(map(mul, row, col)), push.den) for row in push.num]
                    assert not any(rem for _, rem in move), "push map not integral on its lattice"
                    below = tuple((r, c) for r, c in enumerate(col) if r > i and c)
                    pivots.append((i, col[i], below, tuple(entry for entry, _ in move)))
                top = max(abs(x) for row in push.num for x in row)
                self.growth = max(self.growth, top / push.den)
                self.plans[(idx, sign)] = (idx, sign, tuple(pivots))
        self.abelian = lattice_hnf(
            self.n,
            (
                [a - o for a, o in zip(a_col, o_col)]
                for e in edges.values()
                for a_col, o_col in zip(zip(*e.alpha.num), zip(*e.omega.num))
            ),
        )

    def to_flat(self, nf: NormalForm) -> tuple:
        """The flat state of ``nf``; ValueError when its shape does not fit."""
        n = self.n
        if len(nf.head) != n or any(
            name not in self.loop_index or sign not in (1, -1) or len(vec) != n
            for name, sign, vec in nf.tail
        ):
            raise ValueError(f"{nf!r} does not fit a rank-{n} spec with loops {self.loop_names}")
        flat = list(nf.head)
        for name, sign, vec in nf.tail:
            flat += (self.loop_index[name], sign, *vec)
        return tuple(flat)

    def from_flat(self, state) -> NormalForm:
        n = self.n
        tail = tuple(
            (self.loop_names[state[pos]], state[pos + 1], tuple(state[pos + 2 : pos + 2 + n]))
            for pos in range(n, len(state), n + 2)
        )
        return NormalForm(tuple(state[:n]), tail)

    def identity(self) -> tuple:
        return (0,) * self.n

    def generator_steps(self):
        """(kind, index, step) triples in the canonical expansion order, each
        next to its inverse: step ``g ^ 1`` undoes step ``g``."""
        steps = []
        for i in range(len(self.vletters)):
            steps.append((0, i, 1))
            steps.append((0, i, -1))
        for i in range(len(self.loop_names)):
            steps.append((1, i, 1))
            steps.append((1, i, -1))
        return steps

    def fold(self, s: list, w: Word) -> None:
        """Right-multiply the canonical form ``s`` in place by the word ``w``.

        The free last vector ``v`` is held apart for the whole word and put
        back at the end, also when an unknown letter stops the fold. The
        C-level stream of ``Word.single_letters`` is grouped into maximal
        runs of one single letter. Vertex letters commute and only ever
        change ``v``, so a vertex run is counted and added to it as one step;
        a stable run looks up its letter's plan once and takes one
        ``_stable_step`` per letter. The Python work is per run and per
        stable letter, and the C work per letter, so the cost is still
        linear in each exponent. Reading each run as one integer step from
        ``w.letters`` (ROADMAP item 14) waits on the benchmark tracer: it
        counts letters by wrapping ``Word.single_letters``, and
        ``test_tracer_restores_gbsn`` in ``perfbench/tests`` pins that count
        above zero.
        """
        n = self.n
        plans, vletters, loop_index = self.plans, self.vletters, self.loop_index
        v = s[-n:]
        del s[-n:]
        try:
            for letter, run in groupby(w.single_letters()):
                name, step = letter
                i = vletters.get(name)
                if i is not None:
                    v[i] += step * countOf(run, letter)
                    continue
                idx = loop_index.get(name)
                if idx is None:
                    raise KeyError(f"unknown letter {name!r}")
                plan = plans[idx, step]
                for _ in run:
                    v = _stable_step(s, v, plan)
        finally:
            s += v

    def abelian_image_is_zero(self, w: Word) -> bool:
        """Whether ``w`` maps to zero in the abelianization Z^n/L + Z^k.

        A vertex run adds its exponent to one coordinate and a stable run
        adds its exponent to its loop's count, so the cost grows with the
        number of runs in ``w.letters``, not with the exponents. Every run
        is read before the answer, so an unknown letter raises KeyError.
        """
        vec = [0] * self.n
        loops = [0] * len(self.loop_names)
        vletters, loop_index = self.vletters, self.loop_index
        for name, exp in w.letters:
            i = vletters.get(name)
            if i is not None:
                vec[i] += exp
                continue
            idx = loop_index.get(name)
            if idx is None:
                raise KeyError(f"unknown letter {name!r}")
            loops[idx] += exp
        return not any(loops) and not any(lattice_residue(self.abelian, vec)[0])


@lru_cache(maxsize=None)
def _fast_ops(spec: GoGSpec) -> _FastOps:
    return _FastOps(spec)


def britton_reduce(spec: GoGSpec, w: Word) -> NormalForm:
    """Canonical normal form of the group element spelled by ``w``."""
    ops = _fast_ops(spec)
    s = list(ops.identity())
    ops.fold(s, w)
    return ops.from_flat(s)


def is_identity(spec: GoGSpec, w: Word) -> bool:
    """Word problem: does ``w`` represent the identity?

    The abelian test runs before the fold: a word whose image in the
    abelianization is nonzero is not the identity, and the answer comes
    from one pass over its runs. Only the other words are folded into their
    normal form.
    """
    if not _fast_ops(spec).abelian_image_is_zero(w):
        return False
    return britton_reduce(spec, w).is_trivial()


def nf_multiply(spec: GoGSpec, nf: NormalForm, w: Word) -> NormalForm:
    """Right-multiply a canonical form by a word, staying canonical.

    ``nf`` must come from ``britton_reduce`` or ``nf_multiply`` on ``spec``;
    a form whose shape does not fit the spec raises ValueError.
    """
    ops = _fast_ops(spec)
    s = list(ops.to_flat(nf))
    ops.fold(s, w)
    return ops.from_flat(s)


# Bound on the forward ball past depth ceil(r/2), checked against the most
# the next level can add. Not a tuned value: bs12's ball reaches depth 8
# (1,317 states) within it, which the benchmark's tracer test asserts, and
# specB's stops at depth 3 (579 states) for a radius-6 query.
FORWARD_BALL_STATES = 4096

# Deepest level the forward ball grows to, whatever the radius; read when a
# query grows the ball.
FORWARD_CAP = 8

_SIGNS = frozenset((1, -1))  # the exponents of a state's stable letters


class GeodesicOracle:
    """Exact word-metric distances by breadth-first search on canonical forms.

    The generating set is every vertex letter and every stable letter with
    exponent +-1. A state is a flat canonical form in ``_FastOps``' layout,
    a tuple, and ``distance`` takes its target as one. The forward ball
    around the identity is one snapshot, ``ball = (dist, frontier, depth)``,
    each also a property: ``dist`` maps each state to its distance, the ball
    holds complete levels only, up to ``depth``, and ``frontier`` is the
    sphere at that depth, a dict from each of its states to the index (in
    ``steps``) of the step back to its BFS parent, -1 for the identity. It
    is grown lazily and kept for later queries; a level joins by one store
    of a new snapshot, and no stored snapshot is ever changed.

    Both searches build each level with ``_level`` and expand a state
    reached by step g by ``after[g ^ 1]``: every step h but g ^ 1, the way
    back, and those before g in ``steps`` that commute with g. Each level
    is scanned in insertion order and each state's steps in order, so a
    state is first reached along its shortlex-least geodesic (Epstein et
    al., *Word Processing in Groups*).
    Such a word never has a step h right after a later step g that
    commutes with it, since swapping the two spells the same element by a
    smaller word of the same length; and it never steps straight back. So
    every skipped child is reached first along another word, and no
    distance, level or frontier order changes. Two vertex steps always
    commute; two stable steps only if they are inverse (t u t^-1 u^-1 is
    Britton-reduced otherwise); and t commutes with the vertex letter x
    exactly when t^-1 x t = x, read off one ``_stable_step`` per loop and
    coordinate.

    A query of radius r grows the ball one complete level at a time and
    stops as soon as a level holds the target: every state of a complete
    level k is at distance exactly k, and the target is in no earlier level,
    so k is its distance. Otherwise the ball grows to depth ceil(r/2), then
    on towards min(r, ``FORWARD_CAP``) by each level that cannot take the
    ball past ``FORWARD_BALL_STATES``. A small ball (bs12 has 1,317 states
    at depth 8) then answers most queries alone; a large one (specB has 579
    states at depth 3 and 23,177 at depth 5) stops early and leaves the rest
    to backward searches from the targets, which only go as deep as the
    answers need. ``FORWARD_CAP`` bounds the ball whatever the radius.
    These conditions read only the radius, the target and the depth
    reached, and ``ball`` is the oracle's only state, so a query grows the
    ball as it would grow a fresh one. Once a condition stops a growth it
    stops any deeper one too, while the level bound does not fall as the
    depth grows (as on a spec whose spheres do not shrink), so a kept ball
    is as deep as the deepest that any of its queries would reach alone.

    One growth keeps a table of the stable moves it computes, keyed by
    (loop, sign, last vector), and drops it when it returns: its levels
    repeat most moves (22,012 stable steps, 684 distinct, in specA's
    depth-6 ball). A backward search repeats about one move in six, too
    few to pay for a table, and keeps none.

    The backward search is exact. Let F be the forward depth and D > F the
    true distance of the target, which is not in the ball. A state at
    level L of the backward search is at distance exactly L from the
    target, so one that is also in the ball, at distance d <= F from the
    identity, gives D <= d + L <= F + L. No state meets before level
    D - F, then. At level D - F one does: the point of a geodesic at
    distance F from the identity. And any state met there has
    D <= d + (D - F), so d = F and the path through it has length exactly
    D. The search therefore returns F + L at the first state met, which is
    the stop rule "best <= F + L after level L" applied without finishing
    the level; if nothing meets by level r - F, then D > r. The argument
    holds for any forward depth F, so a ball that stopped early for an
    earlier target, or grew deeper for one, serves every later query.
    No level reads the children of the last level, r - F, so that level
    only tests them against the ball and keeps none.
    """

    def __init__(self, spec: GoGSpec):
        self.ops = _fast_ops(spec)
        self.steps = self.ops.generator_steps()
        self.after = self._steps_after()
        self.loops = frozenset(range(len(self.ops.loop_names)))  # loop indices of a state
        identity = self.ops.identity()
        self.ball: tuple[dict, dict, int] = ({identity: 0}, {identity: -1}, 0)

    dist = property(lambda self: self.ball[0])
    frontier = property(lambda self: self.ball[1])
    depth = property(lambda self: self.ball[2])

    def _steps_after(self) -> list:
        """``after[back]``: the steps a state whose step back is ``back``
        expands, as ``(h ^ 1, kind, index, step)`` with h's own step back
        first; ``after[-1]``, the identity's, holds every step."""
        ops, steps = self.ops, self.steps
        n = ops.n
        fixed = set()  # (loop, coordinate i) with t^-1 e_i t = e_i
        for index in range(len(ops.loop_names)):
            for i in range(n):
                s, e = [], [0] * n
                e[i] = 1
                if _stable_step(s, e[:], ops.plans[index, 1]) == e and not any(s[:n]):
                    fixed.add((index, i))

        def skips(g, h):  # after step g; vertex steps come first in steps
            if h == g ^ 1:
                return True
            if h >= g:
                return False
            (kind_g, loop, _), (kind_h, i, _) = steps[g], steps[h]
            return kind_g == 0 or (kind_h == 0 and (loop, i) in fixed)

        after = [
            tuple((h ^ 1, *step) for h, step in enumerate(steps) if not skips(back ^ 1, h))
            for back in range(len(steps))
        ]
        after.append(tuple((h ^ 1, *step) for h, step in enumerate(steps)))
        return after

    def _grow_forward(self, radius: int, target: tuple):
        """Add complete levels until one holds ``target``; failing that, to
        depth ceil(radius/2), then on towards min(radius, FORWARD_CAP) while
        the next level cannot pass ``FORWARD_BALL_STATES``. The call's
        levels share one table of stable moves, dropped when it returns. A
        level joins by one store of a new snapshot, so an exception lands
        before or after it."""
        half = min(-(-radius // 2), FORWARD_CAP)
        top = min(radius, FORWARD_CAP)
        k = len(self.steps)
        dist, frontier, depth = self.ball
        moves: dict = {}
        # at depth >= 1 the next level expands each frontier state by at
        # most the k - 1 steps that do not lead back to its BFS parent, so
        # the bound is at least the ball the level makes
        while target not in dist and frontier and depth < top and (
            depth < half or len(dist) + (k - 1) * len(frontier) <= FORWARD_BALL_STATES
        ):
            frontier = self._level(frontier, dist, moves)
            depth += 1
            dist = dist | dict.fromkeys(frontier, depth)
            self.ball = (dist, frontier, depth)

    def _level(self, frontier: dict, dist: dict, moves: Optional[dict] = None,
               seen: Optional[set] = None) -> Optional[dict]:
        """The next level of either search: each new child of ``frontier``
        mapped to the index of its step back, or None when a backward search
        meets ``dist``.

        States are taken in insertion order and each state's steps in
        ``after[back]`` order, and the first reach wins. Forward growth
        passes ``moves``, its table of stable moves, and keeps each child
        not in ``dist``. A backward search passes no table: it returns None
        at the first child in ``dist`` and keeps each child outside
        ``seen``, adding it there; its last level passes no ``seen`` and
        keeps none.

        A child is the state's ``head``, all but its free last vector ``v``,
        plus what the step makes of ``v``. A vertex step changes one
        coordinate. A stable step t_index^step turns ``v`` into a residue,
        the letter and a pushed part, which depend on the letter and ``v``
        alone: forward growth takes them from one ``_stable_step`` on an
        empty form and a copy of ``v``, once per ``(index, step, v)``, and a
        backward search, which seldom repeats a move, takes one
        ``_stable_step`` on a copy of ``head`` itself.
        """
        n = self.ops.n
        plans = self.ops.plans
        after = self.after
        forward = moves is not None
        nxt: dict = {}
        for state, back in frontier.items():
            head, v = state[:-n], state[-n:]
            for child_back, kind, index, step in after[back]:
                if kind == 0:
                    c = list(v)
                    c[index] += step
                    child = head + tuple(c)
                elif forward:
                    key = (index, step, v)
                    move = moves.get(key)
                    if move is None:
                        s = []
                        pushed = tuple(_stable_step(s, list(v), plans[index, step]))
                        move = moves[key] = (tuple(s), pushed, not any(s[:n]))
                    letter, pushed, zero = move
                    # _stable_step's pinch rule, applied to a tuple: a zero
                    # residue cancels against a last letter t_index^-step
                    if zero and head and head[-1] == -step and head[-2] == index:
                        child = head[: -n - 2] + tuple(map(add, head[-n - 2 : -2], pushed))
                    else:
                        child = head + letter + pushed
                else:
                    s = list(head)
                    s += _stable_step(s, list(v), plans[index, step])
                    child = tuple(s)
                if child in dist:
                    if not forward:
                        return None
                elif forward:
                    nxt.setdefault(child, child_back)
                elif seen is not None and child not in seen:
                    seen.add(child)
                    nxt[child] = child_back
        return nxt

    def distance(self, target: tuple, max_radius: int) -> Optional[int]:
        """Exact distance of ``target``, or None past max_radius.

        ``target`` is a flat canonical state, the tuple that keys ``dist``:
        ``_FastOps.fold`` of a word, or ``_FastOps.to_flat`` of a form. One
        whose shape does not fit the spec raises ValueError: its length must
        be n modulo n + 2, each loop index in range and each sign +-1.
        """
        n = self.ops.n
        if (
            len(target) % (n + 2) != n
            or not self.loops.issuperset(target[n :: n + 2])
            or not _SIGNS.issuperset(target[n + 1 :: n + 2])
        ):
            raise ValueError(
                f"{target!r} is not a state of a rank-{n} spec with {len(self.loops)} loops"
            )
        self._grow_forward(max_radius, target)
        dist, _, forward = self.ball
        d = dist.get(target)
        if d is not None:
            return d if d <= max_radius else None
        last = max_radius - forward
        # backward search; a state at level l is at distance l from the target
        seen = {target}
        frontier: Optional[dict] = {target: -1}
        for level in range(1, last + 1):
            # no level reads the last level's children
            frontier = self._level(frontier, dist, seen=seen if level < last else None)
            if frontier is None:
                return forward + level
        return None


# Bound on the forward-ball states the oracle store keeps, summed over specs:
# room for all six balls of the perfbench geodesics workload (9,964 states,
# at most 2,929 in one), not for specA's depth-8 ball (570,069).
KEPT_BALL_STATES = 1 << 16

_kept: OrderedDict = OrderedDict()  # spec -> GeodesicOracle, least recent first
_kept_lock = threading.Lock()


def _kept_query(spec: GoGSpec, query):
    """``query(oracle)`` on the stored oracle of ``spec``, or a new one,
    under the store's lock.

    Afterwards, normal or not, the oracle goes back as the most recently
    used, unless its ball alone exceeds ``KEPT_BALL_STATES``. If its ball is
    new or grew, a snapshot other than the one the query began with, the
    least recently used balls are then evicted until the kept states are
    within the bound; an unchanged ball leaves them as they were.

    The cyclic garbage collector is off, for the whole process, while the
    query runs under the lock: a query allocates acyclic tuples, lists and
    dicts only, so the collector's passes over a growing ball would free
    nothing. It is turned back on afterwards, normal or not, unless it was
    already off when the query began.
    """
    with _kept_lock:
        kept = _kept.pop(spec, None)
        before = kept.ball if kept else None
        oracle = kept or GeodesicOracle(spec)
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            return query(oracle)
        finally:
            if paused:
                gc.enable()
            if len(oracle.dist) <= KEPT_BALL_STATES:
                _kept[spec] = oracle
                if oracle.ball is not before:
                    while sum(len(o.dist) for o in _kept.values()) > KEPT_BALL_STATES:
                        _kept.popitem(last=False)


def geodesic_length(spec: GoGSpec, w: Word, max_radius: int):
    """Exact geodesic length of ``w``, or the string 'exceeds radius'.

    Never an approximation: the answer is the true distance in the word
    metric for the standard generating set, or an explicit refusal. The
    query goes to the spec's oracle in the process-wide store, so it builds
    only the forward levels that no earlier query on the spec has built,
    and none past the first level that holds ``w``. The forward ball stays
    within 8 levels and passes depth ceil(r/2) only by levels that keep it
    within ``FORWARD_BALL_STATES`` states; the store keeps it for later
    queries while all kept balls together stay within ``KEPT_BALL_STATES``
    states. The word is folded straight into its flat state, the oracle's
    key, so the query builds no ``NormalForm``.
    """
    ops = _fast_ops(spec)
    s = list(ops.identity())
    ops.fold(s, w)
    target = tuple(s)
    if target == ops.identity():
        return 0
    d = _kept_query(spec, lambda oracle: oracle.distance(target, max_radius))
    return d if d is not None else "exceeds radius"


class ProfileEntry(Record):
    power: int
    upper_bound: int
    exact_length: Optional[int]
    ratio_to_log: Optional[float]


class DistortionProfile(Record, uncompared=("note",)):
    element: Word
    entries: tuple[ProfileEntry, ...]
    max_ratio: Optional[float]
    doubling_letter: Optional[str]
    doubling_factor: Optional[int]
    doubling_multiple: Optional[int]
    analytic_constant: float
    note: str = ""

    def analytic_lower_bound(self, m: int) -> float:
        """Length lower bound log(m)/log(C); C bounds entry growth per letter."""
        if m < 2:
            return 0.0
        return math.log(m) / math.log(self.analytic_constant)


def _vertex_vector(ops: _FastOps, element: Word) -> tuple:
    vec = [0] * ops.n
    for name, exp in element:
        if name not in ops.vletters:
            raise ValueError(f"{name!r} is not a vertex letter")
        vec[ops.vletters[name]] += exp
    return tuple(vec)


def _least_multiple(vec: tuple, pivots: tuple) -> int:
    """The least k >= 1 with k*vec in the lattice of a letter's pivot plan:
    column by column, k takes the least factor that makes the pivot divide
    what the earlier columns left of that coordinate."""
    v, k = list(vec), 1
    for i, pivot, below, _ in pivots:
        g = pivot // math.gcd(v[i], pivot)
        if g > 1:
            k *= g
            v = [g * c for c in v]
        q = v[i] // pivot
        for r, c in below:
            v[r] -= q * c
    return k


def _find_doubler(ops: _FastOps, vec: tuple):
    """Stable letter t^sign whose conjugation scales k*vec, the least
    multiple of ``vec`` in its lattice, by an integer lambda with
    |lambda| >= 2, as (name, sign, lambda, k): the largest |lambda|, then
    lambda > 0, then the least k.

    When that letter has k > 1, the letter of cheapest spelling wins. Each
    base-lambda digit divides the power by |lambda| and costs 2 letters and
    at most k|lambda|/2 copies of ``vec``, so the least (2 + |vec|_1 *
    k|lambda|/2) / log|lambda| bounds the spelling's length best, and ties
    go by the order above. A window whose first letter has k = 1 keeps it.

    k comes from the letter's pivot plan (``_least_multiple``), and one
    ``_stable_step`` of k*vec on an empty form returns t^-sign k*vec t^sign."""
    found = []
    first = next(i for i, c in enumerate(vec) if c)
    for idx, name in enumerate(ops.loop_names):
        for sign in (1, -1):
            plan = ops.plans[idx, sign]
            k = _least_multiple(vec, plan[2])
            kvec = [k * c for c in vec]
            image = _stable_step([], kvec[:], plan)
            lam = image[first] // kvec[first]
            if abs(lam) >= 2 and all(y == lam * c for y, c in zip(image, kvec)):
                found.append((name, sign, lam, k))
    if not found:
        return None
    best = max(found, key=lambda d: (abs(d[2]), d[2], -d[3]))
    if best[3] > 1:
        weight = sum(map(abs, vec))

        def spelling_cost(d):
            _, _, lam, k = d
            return (2 + weight * k * abs(lam) / 2) / math.log(abs(lam)), -abs(lam), -lam, k

        best = min(found, key=spelling_cost)
    return best


def distortion_profile(
    spec: GoGSpec,
    element: Word,
    powers,
    bfs_cap: int = 15,
) -> DistortionProfile:
    """Word-length growth of powers m*v of a vertex-group element.

    Upper bounds are the lengths of the greedy base-lambda spelling through
    a stable letter that scales k*v, the least multiple of v in its lattice,
    by an integer lambda, |lambda| >= 2 (cost 2 per digit), or of the direct
    spelling when there is none; they are counted, and no word is built. A
    power whose upper bound ub is within ``bfs_cap`` gets an exact length:
    the oracle searches only to radius ub - 1, and if the power is not
    within it, the counted spelling, a word of length ub for m*v, certifies
    that its length is exactly ub. The window decides its powers longest
    spelling first, ties by power, and a power that the ball cannot answer
    by a lookup is first tested against the longer powers k decided
    before it: |m*v| >= |k*v| - cost(|m - k|), since the distance from k*v
    to m*v is |(m - k)*v|, and when that reaches ub the spelling is
    geodesic and no search runs. Entries follow ``powers``, one per given
    power, repeats included; a power that is not a positive integer is
    refused with ValueError. Ratios use the exact
    length when available, else the upper bound; the reported max ratio
    over the window estimates the limsup of |mv| / log m. The analytic
    lower bound is attached via ``analytic_lower_bound`` and is not
    BFS-verified; its constant is ``_FastOps.growth``.

    All exact lengths come from the spec's oracle in the store that
    ``geodesic_length`` uses, held for the whole window, so each power's
    search starts from the ball the earlier powers (and earlier calls) grew.
    A ball grown past ``KEPT_BALL_STATES`` states serves the whole window
    and is then dropped rather than kept.
    """
    ops = _fast_ops(spec)
    vec = _vertex_vector(ops, element)
    if not any(vec):
        raise ValueError("element must be a nonzero vertex-group element")
    doubler = _find_doubler(ops, vec)
    weight = sum(map(abs, vec))
    memo: dict[int, int] = {}

    # cost(m), m >= 0, is the length of the cheapest known spelling of m*v:
    # direct, or t^-s (spelling of q*k*v) t^s (r*v) through the scaling
    # letter t^s, which scales k*v by lambda, m = q*k*lambda + r, for q the
    # floor or the ceiling of m / (k*lambda), wherever |q*k| < m; for k = 1
    # that holds for every m >= 2. A spelling of q*v for q < 0 is the
    # inverse of one of -q*v, so cost(q) = cost(|q|). Below |k*lambda| only
    # the branch with |q| = 1, t^-s (+-k*v) t^s (r*v), can win.
    # Spellings and their inverses start with t^-s or a vertex letter and
    # end with t^s or one, so the pieces never cancel and their lengths add.
    def cost(m: int) -> int:
        if m in memo:
            return memo[m]
        best = m * weight
        if doubler is not None and m >= 2:
            _, _, lam, k = doubler
            for q in {m // (k * lam), -(-m // (k * lam))}:
                if abs(q * k) < m:
                    best = min(best, 2 + cost(abs(q * k)) + abs(m - q * k * lam) * weight)
        memo[m] = best
        return best

    def window(oracle) -> list:
        given = []
        for value in powers:
            m = int(value)
            if m != value:
                raise ValueError(f"power {value!r} is not an integer")
            given.append(m)
        if any(m < 1 for m in given):
            raise ValueError("powers must be positive")
        bound = {m: cost(m) for m in given}
        exact: dict[int, int] = {}
        # longest spelling first, ties by power: the long powers are searched
        # anyway, and their lengths settle shorter ones; a power the ball
        # answers by a lookup is not tested
        for m in sorted((m for m in bound if bound[m] <= bfs_cap), key=lambda m: (-bound[m], m)):
            ub = bound[m]
            # |m*v| >= |k*v| - |(m - k)*v| >= exact(k) - cost(|m - k|) for a
            # decided k; every longer one is tested, since no workload's
            # window is long enough for a filter on k to pay
            if ub - 1 > oracle.depth and any(
                d > ub and d - cost(abs(m - k)) >= ub for k, d in exact.items()
            ):
                d = ub
            else:
                d = oracle.distance(tuple(m * c for c in vec), ub - 1)
                if d is None:
                    d = ub
            exact[m] = d
        entries = []
        for m in given:
            ub, d = bound[m], exact.get(m)
            length = d if d is not None else ub
            entries.append(ProfileEntry(m, ub, d, length / math.log(m) if m >= 2 else None))
        return entries

    entries = _kept_query(spec, window)
    note = (
        "upper bounds by greedy base-%s rewriting through %s%s"
        % (
            doubler[2] if doubler[2] > 0 else f"({doubler[2]})",
            doubler[0],
            f" of {doubler[3]} times the element" if doubler[3] > 1 else "",
        )
        if doubler
        else "no scaling letter found; trivial spellings only"
    )
    return DistortionProfile(
        element,
        tuple(entries),
        max((e.ratio_to_log for e in entries if e.ratio_to_log is not None), default=None),
        doubler[0] if doubler else None,
        doubler[2] if doubler else None,
        doubler[3] if doubler else None,
        ops.growth,
        note,
    )

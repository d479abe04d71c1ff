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
and ``_FastOps.apply`` per stable step of the geodesic search.

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
take the ball past ``FORWARD_BALL_STATES`` states, or if backward searches
have already spent as much as the level costs (ski rental). The last
backward level only tests its states against the ball. Both searches expand
a state by every generator step but the one back to its BFS parent.
``distortion_profile`` searches each power only below its spelled upper
bound, which the spelling itself attains.

``geodesic_length`` and ``distortion_profile`` take their oracle from one
process-wide store keyed by spec, so a query pays only for the levels no
earlier query on that spec has built. The store keeps at most
``KEPT_BALL_STATES`` ball states in all, evicts the least recently used
ball first, and keeps no ball that alone exceeds the bound. One lock covers
lookup, query and eviction, so concurrent callers are served one at a time.
Keeping balls between calls is safe for two reasons. Their memory is
bounded by ``KEPT_BALL_STATES`` however many specs are queried. And a kept
ball is never left half-grown: a level that an exception (a time limit,
^C) interrupts is taken out again before the oracle goes back into the
store, so it holds complete levels only and answers the next query exactly.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from contextlib import contextmanager
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
    modulo the lattice of the letter after it. ``apply`` right-multiplies
    such a list in place by one generator step and ``fold`` by a word.

    ``plans[(loop_index, sign)]`` is the pivot plan ``(loop_index, sign,
    pivots)`` of t^sign. H, the integer HNF of the lattice that passes right
    through t^sign (alpha-image for sign +1, omega-image for -1), is lower
    triangular with positive pivots; ``pivots`` holds, per column i,
    ``(i, H[i][i], the nonzero (r, H[r][i]) below it, move)``, with ``move``
    column i of push·H, the push map in the lattice's own coordinates. It
    is integral (for sign +1, H = alpha U with U unimodular and push·H =
    omega U; for sign -1 it is alpha U), so the lattice part H q moves
    through the letter as moves·q, with no division.
    ``tables[(loop_index, sign)]`` is ``(push_num, den, hnf)``: the push
    map x -> t^-sign x t^sign as integer rows over ``den`` > 0, and H.

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
        self.tables, self.plans = {}, {}
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
                self.tables[(idx, sign)] = (push.num, push.den, hnf)
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
        """(kind, index, step) triples in the canonical expansion order."""
        steps = []
        for i in range(len(self.vletters)):
            steps.append((0, i, 1))
            steps.append((0, i, -1))
        for i in range(len(self.loop_names)):
            steps.append((1, i, 1))
            steps.append((1, i, -1))
        return steps

    def apply(self, s: list, kind: int, index: int, step: int) -> None:
        """Right-multiply the canonical form ``s`` in place by one step:
        kind 0 adds ``step`` to coordinate ``index`` of the free last vector,
        kind 1 splits that vector off for one ``_stable_step`` by
        t_index^step (step is +-1) and puts back the vector it returns."""
        n = self.n
        if kind == 0:
            s[index - n] += step
            return
        v = s[-n:]
        del s[-n:]
        s += _stable_step(s, v, self.plans[index, step])

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
# specB's stops at depth 3 (579 states) for a radius-6 query. A level that
# backward searches have paid for may pass it, up to ``KEPT_BALL_STATES``.
FORWARD_BALL_STATES = 4096

# Deepest level the forward ball grows to, whatever the radius; read when a
# query grows the ball.
FORWARD_CAP = 8


class GeodesicOracle:
    """Exact word-metric distances by breadth-first search on canonical forms.

    The generating set is every vertex letter and every stable letter with
    exponent +-1. ``dist`` maps each state of the forward ball around the
    identity to its distance; the ball only ever holds complete levels, up to
    ``depth``, and ``frontier`` is the sphere at that depth, a dict from each
    of its states to the index (in ``steps``) of the step that leads back to
    its BFS parent, -1 for the identity. It is grown lazily and kept for
    later queries to the same oracle; a level that an exception interrupts
    is taken out again.

    Both searches expand a state by every step but that one: its child
    there is the parent, which is already in the ball (forward) or in the
    states seen (backward), so skipping it changes no level.

    A query of radius r grows the ball one complete level at a time and
    stops as soon as a level holds the target: every state of a complete
    level k is at distance exactly k, and the target is in no earlier level,
    so k is its distance. Otherwise the ball grows to depth ceil(r/2), then
    on towards min(r, ``FORWARD_CAP``) by each level that pays
    (``_next_level_pays``): one that cannot take the ball past
    ``FORWARD_BALL_STATES``, or one that the backward searches since the
    last level have paid for, having expanded (``spent``) as many states as
    the level's frontier holds, and that the store would keep. A small ball
    (bs12 has 1,317 states at depth 8) then answers most queries alone; a
    large one (specB has 579 states at depth 3 and 23,177 at depth 5) stops
    early and leaves the rest to backward searches from the targets, which
    only go as deep as the answers need. ``FORWARD_CAP`` bounds the ball
    whatever the radius.

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
    only tests them against the ball and keeps none; its frontier still
    counts in ``spent``.
    """

    def __init__(self, spec: GoGSpec):
        self.ops = _fast_ops(spec)
        self.steps = self.ops.generator_steps()
        # back[g]: index of the step that undoes step g
        self.back = [
            self.steps.index((kind, index, -step)) for kind, index, step in self.steps
        ]
        identity = self.ops.identity()
        self.dist: dict[tuple, int] = {identity: 0}
        self.frontier: dict[tuple, int] = {identity: -1}
        self.depth = 0
        self.spent = 0  # states expanded by backward searches since the last level

    def _next_level_pays(self) -> bool:
        """Whether to build the next level past ceil(r/2): it cannot pass
        ``FORWARD_BALL_STATES``, or backward searches have paid for it and
        it cannot pass ``KEPT_BALL_STATES``."""
        # at depth >= 1 building the next level expands each frontier state
        # by the k - 1 steps that do not lead back to its BFS parent, so
        # the bound adds exactly the expansions the level makes
        bound = len(self.dist) + (len(self.steps) - 1) * len(self.frontier)
        return bound <= FORWARD_BALL_STATES or (
            self.spent >= len(self.frontier) and bound <= KEPT_BALL_STATES
        )

    def _grow_forward(self, radius: int, target: tuple):
        """Add complete levels until one holds ``target``; failing that, to
        depth ceil(radius/2), then on towards min(radius, FORWARD_CAP) while
        ``_next_level_pays``."""
        half = min(-(-radius // 2), FORWARD_CAP)
        top = min(radius, FORWARD_CAP)
        apply = self.ops.apply
        steps = list(enumerate(self.steps))
        back = self.back
        dist = self.dist
        while target not in dist and self.frontier and self.depth < top and (
            self.depth < half or self._next_level_pays()
        ):
            nxt = {}
            d = self.depth + 1
            try:
                for state, skip in self.frontier.items():
                    for g, (kind, index, step) in steps:
                        if g == skip:
                            continue
                        c = list(state)
                        apply(c, kind, index, step)
                        child = tuple(c)
                        if child not in dist:
                            dist[child] = d
                            nxt[child] = back[g]
            except BaseException:
                for child in [s for s, k in dist.items() if k == d]:
                    del dist[child]
                raise
            self.frontier = nxt
            self.depth = d
            self.spent = 0

    def distance(self, target: NormalForm, max_radius: int) -> Optional[int]:
        """Exact distance of the canonical ``target``, or None past max_radius."""
        flat_target = self.ops.to_flat(target)
        self._grow_forward(max_radius, flat_target)
        dist = self.dist
        d = dist.get(flat_target)
        if d is not None:
            return d if d <= max_radius else None
        forward = self.depth
        last = max_radius - forward
        # backward search; a state at level l is at distance l from the target
        apply = self.ops.apply
        steps = list(enumerate(self.steps))
        back = self.back
        seen = {flat_target}
        frontier = {flat_target: -1}
        for level in range(1, last + 1):
            self.spent += len(frontier)
            nxt = {}
            for state, skip in frontier.items():
                for g, (kind, index, step) in steps:
                    if g == skip:
                        continue
                    c = list(state)
                    apply(c, kind, index, step)
                    child = tuple(c)
                    if child in dist:
                        return forward + level
                    # no level reads the last level's children
                    if level < last and child not in seen:
                        seen.add(child)
                        nxt[child] = back[g]
            frontier = nxt
        return None


# Bound on the forward-ball states the oracle store keeps, summed over specs,
# and on a ball that backward searches pay for: room for all six balls of
# the perfbench geodesics workload (13,976 states, 4,189 of them ascend2's),
# not for specA's depth-8 ball (570,069).
KEPT_BALL_STATES = 1 << 16

_kept: OrderedDict = OrderedDict()  # spec -> GeodesicOracle, least recent first
_kept_lock = threading.Lock()


@contextmanager
def _kept_oracle(spec: GoGSpec):
    """The stored oracle of ``spec``, or a new one, held under the store's lock.

    On exit, normal or not, the oracle goes back as the most recently used,
    unless its ball alone exceeds ``KEPT_BALL_STATES``; the least recently
    used balls are then evicted until the kept states are within the bound.
    """
    with _kept_lock:
        oracle = _kept.pop(spec, None) or GeodesicOracle(spec)
        try:
            yield oracle
        finally:
            if len(oracle.dist) <= KEPT_BALL_STATES:
                _kept[spec] = oracle
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
    within ``FORWARD_BALL_STATES`` states, or that earlier backward searches
    on the spec have paid for; the store keeps it for later queries while
    all kept balls together stay within ``KEPT_BALL_STATES`` states.
    """
    target = britton_reduce(spec, w)
    if target.is_trivial():
        return 0
    with _kept_oracle(spec) as oracle:
        d = oracle.distance(target, max_radius)
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


def _find_doubler(ops: _FastOps, vec: tuple):
    """Stable letter whose conjugation scales ``vec`` by an integer lambda
    with |lambda| >= 2: the largest |lambda|, and lambda > 0 on a tie."""
    best = None
    first = next(i for i, c in enumerate(vec) if c)
    for idx, name in enumerate(ops.loop_names):
        for sign in (1, -1):
            # t^-sign vec t^sign is the push map through t^sign, and it
            # needs vec in that letter's lattice
            push, den, hnf = ops.tables[(idx, sign)]
            image = [sum(map(mul, row, vec)) for row in push]
            lam, rem = divmod(image[first], den * vec[first])
            if rem or abs(lam) < 2 or any(y != lam * den * c for y, c in zip(image, vec)):
                continue
            residue, _ = lattice_residue(hnf, vec)
            if any(residue):
                continue
            if best is None or (abs(lam), lam) > (abs(best[2]), best[2]):
                best = (name, sign, lam)
    return best


def distortion_profile(
    spec: GoGSpec,
    element: Word,
    powers,
    bfs_cap: int = 15,
) -> DistortionProfile:
    """Word-length growth of powers m*v of a vertex-group element.

    Upper bounds are the lengths of the greedy base-lambda spelling through
    a stable letter that scales v by an integer lambda, |lambda| >= 2 (cost
    2 per digit), or of the direct spelling when there is none; they are
    counted, and no word is built. A power whose upper bound ub is within
    ``bfs_cap`` gets an exact length: the oracle searches only to radius
    ub - 1, and if the power is not within it, the counted spelling, a word
    of length ub for m*v, certifies that its length is exactly ub. Ratios use the exact
    length when available, else the upper bound; the reported max ratio
    over the window estimates the limsup of |mv| / log m. The analytic
    lower bound is attached via ``analytic_lower_bound`` and is not
    BFS-verified.

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
    # direct, or t^-s (spelling of q*v) t^s (r*v) through the scaling letter
    # t^s, m = q*lambda + r, for q the floor or the ceiling of m / lambda,
    # so |q| < m for m >= 2. A spelling of q*v for q < 0 is the inverse of
    # one of -q*v, so cost(q) = cost(|q|). Below |lambda| only the branch
    # with |q| = 1, t^-s (+-v) t^s (r*v), can win.
    # Spellings and their inverses start with t^-s or a vertex letter and
    # end with t^s or one, so the pieces never cancel and their lengths add.
    def cost(m: int) -> int:
        if m in memo:
            return memo[m]
        best = m * weight
        if doubler is not None and m >= 2:
            lam = doubler[2]
            for q in {m // lam, -(-m // lam)}:
                best = min(best, 2 + cost(abs(q)) + abs(m - q * lam) * weight)
        memo[m] = best
        return best

    growth = 2.0
    for push, den, _ in ops.tables.values():
        growth = max(growth, max(abs(x) for row in push for x in row) / den)

    entries = []
    with _kept_oracle(spec) as oracle:
        for m in powers:
            m = int(m)
            if m < 1:
                raise ValueError("powers must be positive")
            ub = cost(m)
            exact = None
            if ub <= bfs_cap:
                target = NormalForm(tuple(m * c for c in vec), ())
                exact = oracle.distance(target, ub - 1)
                if exact is None:
                    exact = ub
            length = exact if exact is not None else ub
            entries.append(ProfileEntry(m, ub, exact, length / math.log(m) if m >= 2 else None))
    note = (
        "upper bounds by greedy base-%s rewriting through %s"
        % (doubler[2] if doubler[2] > 0 else f"({doubler[2]})", doubler[0])
        if doubler
        else "no scaling letter found; trivial spellings only"
    )
    return DistortionProfile(
        element,
        tuple(entries),
        max((e.ratio_to_log for e in entries if e.ratio_to_log is not None), default=None),
        doubler[0] if doubler else None,
        doubler[2] if doubler else None,
        growth,
        note,
    )

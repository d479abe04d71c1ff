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

All normal-form arithmetic goes through one step, ``_FastOps.apply``, which
right-multiplies a canonical form, held as a flat integer list, by one
generator step and leaves it canonical. ``britton_reduce`` folds a word into
the identity with it, ``nf_multiply`` folds a word into a given form, and the
geodesic search expands every state with it.

Geodesic lengths come from a meet-in-the-middle breadth-first search
(``GeodesicOracle``): a forward ball around the identity, grown in complete
levels, and a backward search from the target for the rest. A query grows
the ball only until a complete level holds its target, which is then at
exactly that level's distance, and otherwise to depth ceil(r/2) for a query
of radius r. Past that depth it builds a level only if the level cannot
take the ball past ``FORWARD_BALL_STATES`` states, or if backward searches
have already spent as much as the level costs (ski rental). The last
backward level only tests its states against the ball. ``distortion_profile``
searches each power only below its spelled upper bound, which the spelling
itself attains.

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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from operator import countOf, mul
from typing import Optional

from .gog import GoGSpec, ensure_valid, vertex_letters
from .linalg import hermite_normal_form, lattice_residue
from .words import Word


class UnsupportedSpecError(ValueError):
    pass


@dataclass(frozen=True)
class NormalForm:
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


class _FastOps:
    """Per-spec tables and the normal-form step (single-vertex specs).

    State layout: a canonical form g0 t1^e1 g1 ... tk^ek gk is the flat
    integer sequence (g0[0..n-1], then per entry: loop_index, sign,
    vec[0..n-1]), a list while it is being changed and a tuple as a
    dictionary key. The last vector is free; every other one is a residue
    modulo the lattice of the letter after it. ``apply`` is the one
    normal-form step: it right-multiplies such a list in place by a vertex
    step (kind 0: any integer added to one coordinate of the last vector) or
    a stable step (kind 1: t^{+-1}), and leaves it canonical. ``fold``
    right-multiplies by a whole word, one ``apply`` per stable letter.

    ``tables[(loop_index, sign)]`` is ``(cols, push_num, den, hnf)`` for the
    letter t^sign: ``hnf`` is the integer HNF of the lattice that passes right
    through it (alpha-image for sign +1, omega-image for sign -1), ``cols``
    its columns, and the integer rows ``push_num`` over ``den`` > 0 are the
    push map x -> t^-sign x t^sign on that lattice, so a step is integer work.
    """

    def __init__(self, spec: GoGSpec):
        ensure_valid(spec)
        if len(spec.vertices) != 1:
            raise UnsupportedSpecError(
                "normal forms are implemented for one-vertex graphs of groups"
            )
        self.n = spec.rank
        self.vletters = {name: i for i, name in enumerate(vertex_letters(spec)[spec.vertices[0]])}
        edges = {e.name: e for e in spec.loop_edges()}
        self.loop_names = sorted(edges)
        self.loop_index = {name: i for i, name in enumerate(self.loop_names)}
        self.tables = {}
        for idx, name in enumerate(self.loop_names):
            e = edges[name]
            mat = e.comparison()  # x -> t^-1 x t
            for sign, image, push in ((1, e.alpha, mat), (-1, e.omega, mat.inverse())):
                hnf = hermite_normal_form(image)
                cols = tuple(zip(*hnf.num))
                self.tables[(idx, sign)] = (cols, push.num, push.den, hnf)

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
        """Right-multiply the canonical form ``s`` in place by one step.

        Kind 0 adds ``step`` to coordinate ``index`` of the last vector,
        which is free. Kind 1 multiplies by t_index^step (step is +-1): the
        last vector becomes its residue modulo the lattice of t^step, and
        the lattice part x moves right through the letter as
        t^-step x t^step. The letter pinches instead when the residue is
        zero and the last entry is t_index^-step; the pushed part then joins
        the vector before them, which becomes the free last one.
        """
        n = self.n
        last = len(s) - n
        if kind == 0:
            s[last + index] += step
            return
        cols, push, den, _ = self.tables[(index, step)]
        lat = [0] * n
        moved = False
        for i in range(n):
            col = cols[i]
            q = s[last + i] // col[i]
            if q:
                moved = True
                for r in range(i, n):
                    delta = q * col[r]
                    s[last + r] -= delta
                    lat[r] += delta
        pos = last - 2
        if pos >= n and s[pos] == index and s[pos + 1] == -step and not any(s[last:]):
            del s[pos:]
        else:
            s += (index, step)
            s += (0,) * n
        if moved:
            last = len(s) - n
            for j in range(n):
                acc = 0
                row = push[j]
                for k in range(n):
                    acc += row[k] * lat[k]
                s[last + j] += acc // den

    def fold(self, s: list, w: Word) -> None:
        """Right-multiply the canonical form ``s`` in place by the word ``w``.

        The C-level stream of ``Word.single_letters`` is grouped into
        maximal runs of one single letter. Vertex letters commute and only
        ever change the free last vector, so a vertex run is counted and
        added to it as one step; a stable run takes one ``apply`` per letter.
        The Python work is per run and the C work per letter, so the cost is
        still linear in each exponent. Reading each run as one integer step
        from ``w.letters`` (ROADMAP item 12) waits on the benchmark tracer:
        it counts letters by wrapping ``Word.single_letters``, and
        ``test_tracer_restores_gbsn`` in ``perfbench/tests`` pins that count
        above zero.
        """
        n = self.n
        apply = self.apply
        vletters, loop_index = self.vletters, self.loop_index
        for letter, run in groupby(w.single_letters()):
            name, step = letter
            i = vletters.get(name)
            if i is not None:
                s[i - n] += step * countOf(run, letter)
                continue
            idx = loop_index.get(name)
            if idx is None:
                raise KeyError(f"unknown letter {name!r}")
            for _ in run:
                apply(s, 1, idx, step)


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
    """Word problem: does ``w`` represent the identity?"""
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
    ``depth``, and ``frontier`` is the sphere at that depth. It is grown
    lazily and kept for later queries to the same oracle; a level that an
    exception interrupts is taken out again.

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
        identity = self.ops.identity()
        self.dist: dict[tuple, int] = {identity: 0}
        self.frontier = [identity]
        self.depth = 0
        self.spent = 0  # states expanded by backward searches since the last level

    def _next_level_pays(self) -> bool:
        """Whether to build the next level past ceil(r/2): it cannot pass
        ``FORWARD_BALL_STATES``, or backward searches have paid for it and
        it cannot pass ``KEPT_BALL_STATES``."""
        # at depth >= 1 each frontier state reaches its BFS parent by one of
        # the k steps, so the next level adds at most k - 1 states per
        # frontier state; building it expands each frontier state once
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
        dist = self.dist
        while target not in dist and self.frontier and self.depth < top and (
            self.depth < half or self._next_level_pays()
        ):
            nxt = []
            d = self.depth + 1
            try:
                for state in self.frontier:
                    for kind, index, step in self.steps:
                        c = list(state)
                        apply(c, kind, index, step)
                        child = tuple(c)
                        if child not in dist:
                            dist[child] = d
                            nxt.append(child)
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
        seen = {flat_target}
        frontier = [flat_target]
        for level in range(1, last + 1):
            self.spent += len(frontier)
            nxt = []
            for state in frontier:
                for kind, index, step in self.steps:
                    c = list(state)
                    apply(c, kind, index, step)
                    child = tuple(c)
                    if child in dist:
                        return forward + level
                    # no level reads the last level's children
                    if level < last and child not in seen:
                        seen.add(child)
                        nxt.append(child)
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


@dataclass(frozen=True)
class ProfileEntry:
    power: int
    upper_bound: int
    exact_length: Optional[int]
    ratio_to_log: Optional[float]


@dataclass(frozen=True)
class DistortionProfile:
    element: Word
    entries: tuple[ProfileEntry, ...]
    max_ratio: Optional[float]
    doubling_letter: Optional[str]
    doubling_factor: Optional[int]
    analytic_constant: float
    note: str = field(default="", compare=False)

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
    """Stable letter whose conjugation scales ``vec`` by an integer >= 2."""
    best = None
    first = next(i for i, c in enumerate(vec) if c)
    for idx, name in enumerate(ops.loop_names):
        for sign in (1, -1):
            # t^-sign vec t^sign is the push map through t^sign, and it
            # needs vec in that letter's lattice
            _, push, den, hnf = ops.tables[(idx, sign)]
            image = [sum(map(mul, row, vec)) for row in push]
            lam, rem = divmod(image[first], den * vec[first])
            if rem or lam < 2 or any(y != lam * den * c for y, c in zip(image, vec)):
                continue
            residue, _ = lattice_residue(hnf, vec)
            if any(residue):
                continue
            if best is None or lam > best[2]:
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
    a stable letter that scales v by an integer lambda >= 2 (cost 2 per
    digit), or of the direct spelling when there is none; they are counted,
    and no word is built. A power whose upper bound ub is within ``bfs_cap``
    gets an exact length: the oracle searches only to radius ub - 1, and if
    the power is not within it, the counted spelling, a word of length ub
    for m*v, certifies that its length is exactly ub. Ratios use the exact
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

    # cost(m), m >= 1, is the length of the cheapest known spelling of m*v:
    # direct, or t^-s (spelling of q*v) t^s (r*v) through the scaling letter
    # t^s, for (q, r) = divmod(m, lambda) or the balanced (q + 1, r - lambda).
    # Below lambda only the balanced t^-s v t^s ((m - lambda)*v) can win.
    # Spellings start with t^-s or a vertex letter and end with t^s or one,
    # so the pieces never cancel and their lengths add.
    def cost(m: int) -> int:
        if m in memo:
            return memo[m]
        best = m * weight
        if doubler is not None and m >= 2:
            lam = doubler[2]
            q, r = divmod(m, lam)
            best = min(best, 2 + cost(q) + r * weight)
            if r > 0 and q + 1 < m:
                best = min(best, 2 + cost(q + 1) + (lam - r) * weight)
        memo[m] = best
        return best

    growth = 2.0
    for _, push, den, _ in ops.tables.values():
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
        "upper bounds by greedy base-%d rewriting through %s"
        % (doubler[2], doubler[0])
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

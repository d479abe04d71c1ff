"""The holonomy homomorphism into GL_n(Q) and its evaluation on words.

Every vertex letter maps to the identity; the stable letter of an edge with
inclusions (alpha, omega) maps to omega * alpha^-1, transported to the base
vertex through the spanning-tree identifications. Word images are plain
matrix products, so relators map to the identity by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gog import GoGSpec, ensure_valid, vertex_letters
from .linalg import QMat
from .matgroups import WordBall
from .words import Word


@dataclass(frozen=True)
class HolonomyData:
    base_vertex: str
    stable: dict  # stable letter name -> QMat
    vertex_letter_names: frozenset
    rank: int

    def image_generators(self) -> tuple[QMat, ...]:
        return tuple(self.stable[name] for name in sorted(self.stable))

    def letter_image(self, name: str, exp: int = 1) -> QMat:
        if name in self.stable:
            return self.stable[name] ** exp
        if name in self.vertex_letter_names:
            return QMat.identity(self.rank)
        raise KeyError(f"unknown letter {name!r}")


def compute_holonomy(spec: GoGSpec) -> HolonomyData:
    """Holonomy matrices of the stable letters, based at the least vertex."""
    ensure_valid(spec)
    base = spec.base_vertex()
    # transport[v]: v-coordinates -> base-coordinates along the spanning tree
    transport: dict[str, QMat] = {base: QMat.identity(spec.rank)}
    tree = list(spec.tree_edges())
    while len(transport) < len(spec.vertices):
        progressed = False
        for e in tree:
            comparison = e.omega.to_qmat() * e.alpha.to_qmat().inverse()
            if e.src in transport and e.dst not in transport:
                transport[e.dst] = transport[e.src] * comparison.inverse()
                progressed = True
            elif e.dst in transport and e.src not in transport:
                transport[e.src] = transport[e.dst] * comparison
                progressed = True
        if not progressed:
            raise AssertionError("spanning tree does not reach every vertex")
    stable = {}
    for e in spec.loop_edges():
        m = e.omega.to_qmat() * e.alpha.to_qmat().inverse()
        stable[e.name] = transport[e.dst] * m * transport[e.src].inverse()
    names = frozenset(n for group in vertex_letters(spec).values() for n in group)
    return HolonomyData(base, stable, names, spec.rank)


def word_image(hd: HolonomyData, w: Word) -> QMat:
    """Product of the per-letter matrices; vertex letters contribute identity."""
    result = QMat.identity(hd.rank)
    for name, exp in w:
        result = result * hd.letter_image(name, exp)
    return result


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of the bounded search for elements near (but not at) identity.

    kind is 'witness' (word + image attached), 'discrete (integral)' when all
    image generators lie in GL_n(Z) so the image is discrete, or 'none found'
    after exhausting the bounded search. 'none found' is not a discreteness
    proof; it only reports the searched bound.
    """

    kind: str
    word: Word | None = None
    image: QMat | None = None
    searched_length: int = 0


def non_discreteness_witness(
    hd: HolonomyData, epsilon, max_word_length: int = 12
) -> WitnessResult:
    """Search stable-letter words for a nontrivial image within epsilon of I.

    Walks the word ball of the image group, letters in a fixed order (names
    ascending, positive exponent before negative), and stops at the first
    element within epsilon of I, so the returned witness is a shortest one
    and deterministic. The entrywise max-norm comparison against epsilon is
    exact rational arithmetic.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if all(m.is_integral() and abs(m.det()) == 1 for m in hd.stable.values()):
        return WitnessResult("discrete (integral)")
    ball = WordBall({name: hd.stable[name] for name in sorted(hd.stable)})
    for state in ball.grow(max_word_length):
        if ball.near_identity(state, eps):
            word = ball.word(state)
            return WitnessResult("witness", word, word_image(hd, word), max_word_length)
    return WitnessResult("none found", searched_length=max_word_length)

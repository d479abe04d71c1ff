"""Reference geodesic lengths from a faithful affine model, without gbsn.

BS(1,n) = <a, t | t^-1 a t = a^n> acts faithfully on Z[1/n] by
a: x -> x + 1 and t: x -> x / n, and Z x BS(1,n) (a central, b the
rescaled letter) adds a translation coordinate for a. A breadth-first
search over these exact maps gives word-metric distances for the generating
set {vertex letters, stable letter}^+-1 that gbsn uses.

A group element is the map x -> p x + q, stored as integers
(z, P, Q) = (a-coordinate, p * n^R, q * n^R) with R the search radius, so
that every map within distance R has integral coordinates.
"""

from __future__ import annotations

from fractions import Fraction


class AffineModel:
    """Ball of radius ``radius`` in BS(1,n) (rank 1) or Z x BS(1,n) (rank 2)."""

    def __init__(self, n: int, rank: int, radius: int):
        if rank not in (1, 2):
            raise ValueError("the affine model covers rank 1 and rank 2 only")
        self.n, self.rank, self.radius = n, rank, radius
        self.scale = n ** radius
        start = (0, self.scale, 0)
        self.dist = {start: 0}
        frontier = [start]
        for d in range(1, radius + 1):
            nxt = []
            for state in frontier:
                for child in self._neighbours(state):
                    if child not in self.dist:
                        self.dist[child] = d
                        nxt.append(child)
            frontier = nxt

    def _neighbours(self, state):
        z, p, q = state
        out = [(z, p, q + p), (z, p, q - p), (z, p * self.n, q)]
        if p % self.n == 0:
            out.append((z, p // self.n, q))
        if self.rank == 2:
            out += [(z + 1, p, q), (z - 1, p, q)]
        return out

    def state(self, word) -> tuple | None:
        """Image of a word ((letter, exp), ...); None if it is not integral at
        this scale (then it lies outside the ball)."""
        z, p, q = affine_image(word, self.n, self.rank)
        p, q = p * self.scale, q * self.scale
        if p.denominator != 1 or q.denominator != 1:
            return None
        return (z, int(p), int(q))

    def length(self, word, radius: int):
        """Exact length if at most ``radius`` (<= self.radius), else the
        string gbsn returns for targets beyond the radius."""
        if radius > self.radius:
            raise ValueError("query radius beyond the reference ball")
        d = self.dist.get(self.state(word))
        return d if d is not None and d <= radius else "exceeds radius"


def affine_image(word, n: int, rank: int) -> tuple:
    """(z, p, q): the word ((letter, exp), ...) acts by x -> p x + q and moves
    the a-coordinate by z. The identity is (0, 1, 0)."""
    letters = ("a", "t") if rank == 1 else ("b", "t")
    z, p, q = 0, Fraction(1), Fraction(0)
    for name, exp in word:
        if name == letters[0]:
            q += exp * p
        elif name == letters[1]:
            p /= Fraction(n) ** exp
        elif rank == 2 and name == "a":
            z += exp
        else:
            raise KeyError(f"unknown letter {name!r}")
    return z, p, q


def parse_letters(text: str) -> tuple:
    """'h^-1 a^3 h' -> (('h', -1), ('a', 3), ('h', 1))."""
    out = []
    for token in text.split():
        name, _, exp = token.partition("^")
        out.append((name, int(exp) if exp else 1))
    return tuple(out)

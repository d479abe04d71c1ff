"""Words over a group presentation alphabet.

A word is a sequence of letters, each a generator name with a nonzero integer
exponent. Construction always free-reduces: adjacent letters with the same
name are merged and zero exponents dropped, so ``Word`` equality is equality
of freely reduced spellings (not equality in any quotient group).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

Letter = tuple[str, int]


class Word:
    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        merged: list[list] = []
        for name, exp in letters:
            exp = int(exp)
            if exp == 0:
                continue
            if merged and merged[-1][0] == name:
                merged[-1][1] += exp
                if merged[-1][1] == 0:
                    merged.pop()
            else:
                merged.append([name, exp])
        object.__setattr__(self, "letters", tuple((n, e) for n, e in merged))

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __len__(self):
        """Letter count with multiplicity (the word-metric length of the spelling)."""
        return sum(abs(e) for _, e in self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.letters * k)

    def inverse(self) -> "Word":
        return Word((n, -e) for n, e in reversed(self.letters))

    def single_letters(self) -> Iterator[Letter]:
        """Yield the word letter by letter with exponents +-1."""
        for name, exp in self.letters:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield name, step

    def __repr__(self):
        return f"Word({str(self)!r})"

    def __str__(self):
        if not self.letters:
            return "1"
        parts = []
        for name, exp in self.letters:
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(parts)


_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?")


def parse_word(text: str) -> Word:
    """Parse 'h^-1 a h' / 'a^2 b' style strings; '1' is the empty word."""
    text = text.strip()
    if text in ("", "1"):
        return Word()
    letters = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace() or text[pos] == "*":
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad word syntax at position {pos}: {text!r}")
        name, exp = m.group(1), m.group(2)
        letters.append((name, 1 if exp is None else int(exp)))
        pos = m.end()
    return Word(letters)

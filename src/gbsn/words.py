"""Words over a group presentation alphabet.

A word is a sequence of letters, each a generator name with a nonzero integer
exponent; an exponent that is not integral is refused with ValueError.
Construction always free-reduces: adjacent letters with the same name are
merged and zero exponents dropped, so ``Word`` equality is equality of freely
reduced spellings (not equality in any quotient group).
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from typing import Iterable, Iterator

Letter = tuple[str, int]


class Word:
    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        merged: list[Letter] = []
        last = None  # name of merged[-1], None when merged is empty
        for name, exp in letters:
            if type(exp) is not int:
                value, exp = exp, int(exp)
                if exp != value:
                    raise ValueError(f"exponent {value!r} of {name!r} is not an integer")
            if exp == 0:
                continue
            if name == last:
                exp += merged[-1][1]
                if exp:
                    merged[-1] = (name, exp)
                else:
                    merged.pop()
                    last = merged[-1][0] if merged else None
            else:
                merged.append((name, exp))
                last = name
        object.__setattr__(self, "letters", tuple(merged))

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
        if len(self.letters) == 1:  # one letter: its exponent times k
            ((name, exp),) = self.letters
            return Word([(name, exp * k)])
        return Word(self.letters * k)

    def inverse(self) -> "Word":
        return Word((n, -e) for n, e in reversed(self.letters))

    def single_letters(self) -> Iterator[Letter]:
        """A lazy iterator over the word letter by letter, with exponents +-1.

        It is a chain of ``itertools.repeat`` runs, one per letter of the
        spelling, so the letters come at C speed and a huge exponent costs
        nothing until it is read. Its consumer, ``britton._FastOps.fold``,
        groups the stream back into runs and counts each run in C.
        """
        return chain.from_iterable(
            [repeat((name, 1 if exp > 0 else -1), abs(exp)) for name, exp in self.letters]
        )

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
# letters, each after any run of spaces and '*'; a text that ``match``es
# only up to some position has bad syntax there
_WORD = re.compile(r"(?:[\s*]*[A-Za-z_][A-Za-z_0-9]*(?:\^-?\d+)?)*[\s*]*")


def parse_word(text: str) -> Word:
    """Parse 'h^-1 a h' / 'a^2 b' style strings; '1' is the empty word.

    A letter is a name with an optional integer exponent; spaces and '*'
    between letters are skipped. One regex pass checks the syntax, and
    ``_TOKEN.findall`` reads the letters."""
    text = text.strip()
    if text in ("", "1"):
        return Word()
    pos = _WORD.match(text).end()
    if pos != len(text):
        raise ValueError(f"bad word syntax at position {pos}: {text!r}")
    return Word([(name, int(exp) if exp else 1) for name, exp in _TOKEN.findall(text)])

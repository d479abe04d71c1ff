import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gbsn.words import Word, parse_word

from conftest import time_budget


def reference_single_letters(w):
    """The letter stream as a Python generator, one resume per letter: the
    form ``Word.single_letters`` had before it chained ``itertools.repeat``."""
    for name, exp in w.letters:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            yield name, step


def reference_merge(letters):
    """``Word.letters`` as construction built it with a list of [name,
    exponent] lists, re-tupled at the end."""
    merged = []
    for name, value in letters:
        exp = int(value)
        if exp != value:
            raise ValueError(f"exponent {value!r} of {name!r} is not an integer")
        if exp == 0:
            continue
        if merged and merged[-1][0] == name:
            merged[-1][1] += exp
            if merged[-1][1] == 0:
                merged.pop()
        else:
            merged.append([name, exp])
    return tuple((n, e) for n, e in merged)


_REFERENCE_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?")


def reference_parse_word(text):
    """``parse_word`` as a loop over the text that skips spaces and '*' and
    matches one letter at a time: the form it had before one regex pass
    checked the whole text."""
    text = text.strip()
    if text in ("", "1"):
        return Word()
    letters = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace() or text[pos] == "*":
            pos += 1
            continue
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad word syntax at position {pos}: {text!r}")
        name, exp = m.group(1), m.group(2)
        letters.append((name, 1 if exp is None else int(exp)))
        pos = m.end()
    return Word(letters)


EXPONENTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([Fraction(3, 2), 0.5, -2.0, Fraction(4, 2)]),
)


@given(st.lists(st.tuples(st.sampled_from("ab"), EXPONENTS), max_size=12))
@example([("a", 1), ("b", 1), ("b", -1), ("a", -1)])
@example([("a", 2), ("b", 0), ("a", -2), ("b", 3)])
@example([("a", 1), ("a", Fraction(1, 2))])
def test_merge_matches_the_reference(letters):
    # cascading cancellation, zero exponents and refused exponents, over
    # two names so that merges and cancellations are frequent
    try:
        want = reference_merge(letters)
    except ValueError as err:
        with pytest.raises(ValueError, match="not an integer") as got:
            Word(letters)
        assert str(got.value) == str(err)
        return
    assert Word(letters).letters == want


def test_free_reduction_merges_adjacent_letters():
    # the b-pair cancels and the two a-blocks merge across it
    w = Word([("a", 1), ("a", 2), ("b", -1), ("b", 1), ("a", 3)])
    assert w.letters == (("a", 6),)


def test_zero_exponents_dropped():
    assert Word([("a", 0)]) == Word()
    assert not Word([("a", 1), ("a", -1)])


def test_inverse_and_product():
    w = parse_word("h^-1 a h")
    assert str(w.inverse()) == "h^-1 a^-1 h"
    assert not (w * w.inverse())


def test_length_counts_letters_with_multiplicity():
    assert len(parse_word("h^-5 p h^5")) == 11
    assert len(Word()) == 0


def test_power():
    w = parse_word("a b")
    assert str(w ** 2) == "a b a b"
    assert (w ** -1) == w.inverse()
    assert w ** 0 == Word()


def test_power_of_one_letter_is_one_letter():
    with time_budget(0.05):
        assert (Word([("a", 1)]) ** 10**9).letters == (("a", 10**9),)
        assert (Word([("a", -3)]) ** -(10**9)).letters == (("a", 3 * 10**9),)


@given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(-3, 3)), max_size=6), st.integers(-5, 5))
@example([("a", 2)], 3)
@example([("a", 2)], -2)
def test_power_matches_repeated_letters(letters, k):
    # a negative power repeats the inverse's letters
    w = Word(letters)
    base = w if k >= 0 else w.inverse()
    assert w ** k == Word(base.letters * abs(k))


def test_single_letters_stream():
    w = parse_word("a^2 b^-1")
    assert list(w.single_letters()) == [("a", 1), ("a", 1), ("b", -1)]


@given(st.lists(st.tuples(st.sampled_from("abt"), st.integers(-6, 6)), max_size=8))
@example([])
def test_single_letters_matches_the_generator(letters):
    w = Word(letters)
    stream = list(w.single_letters())
    assert stream == list(reference_single_letters(w))
    assert len(stream) == len(w)


def test_single_letters_is_lazy():
    with time_budget(0.05):
        assert next(Word([("a", -10**18)]).single_letters()) == ("a", -1)


@pytest.mark.parametrize("exp", [1.5, Fraction(3, 2), -0.5])
def test_non_integral_exponent_refused(exp):
    with pytest.raises(ValueError, match="not an integer"):
        Word([("a", exp)])


def test_integral_exponent_of_any_type_accepted():
    assert Word([("a", Fraction(2)), ("b", -3.0)]) == parse_word("a^2 b^-3")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("a + b")


@given(st.text(st.sampled_from("abZ_019^-* \t"), max_size=16))
@example("h^-1 a h")
@example("a^2b*c^-12")
@example("a^-")
@example("a^5^2")
@example(" 1 ")
@example("a 1")
@example("2a")
def test_parse_matches_the_reference(text):
    # letters, digits, '^', '-', '*' and spaces: both parsers give the same
    # word, or the same error at the same position
    try:
        want = reference_parse_word(text)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            parse_word(text)
        assert str(got.value) == str(err)
        return
    assert parse_word(text) == want


def test_parse_empty_and_one():
    assert parse_word("") == Word()
    assert parse_word("1") == Word()


def test_str_roundtrip():
    for text in ("a", "a^2 b^-1 h", "h^-5 p h^5", "1"):
        assert str(parse_word(str(parse_word(text)))) == str(parse_word(text))

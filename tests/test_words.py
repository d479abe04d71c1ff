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


def test_parse_empty_and_one():
    assert parse_word("") == Word()
    assert parse_word("1") == Word()


def test_str_roundtrip():
    for text in ("a", "a^2 b^-1 h", "h^-5 p h^5", "1"):
        assert str(parse_word(str(parse_word(text)))) == str(parse_word(text))

"""WordBall against the plain reduced-word search ``conftest.reduced_words``."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn import matgroups
from gbsn.holonomy import compute_holonomy
from gbsn.linalg import QMat
from gbsn.matgroups import WordBall, _ball_mu_values, evaluate_word

from conftest import load_spec, reduced_words

H = QMat([[2, 0], [0, Q(1, 2)]])
P = QMat([[1, 1], [0, 1]])
E = QMat([[0, 1], [-1, 0]])  # order 4
F = QMat([[1, 0], [0, -1]])  # order 2
R3 = QMat([[0, -1], [1, -1]])  # order 3
R6 = QMat([[0, -1], [1, 1]])  # order 6
POOL = (
    H, P, E, F, R3, R6,
    QMat([[1, 0], [2, 1]]),
    QMat([[2, 1], [1, 1]]),
    QMat([[1, Q(1, 2)], [0, 1]]),
    QMat([[3, 0], [0, 1]]),
    QMat([[-1, 0], [0, -1]]),
    QMat([[2, 0], [0, 2]]),
)
SETS = (
    (P, P),  # p = q: the relation p q^-1
    tuple(QMat([[x, x - 1], [1, 1]]) for x in (999, 1000, 1001)),
    (E,),
    (E, F),  # dihedral of order 8
    (R6, QMat([[0, 1], [1, 0]])),  # dihedral of order 12
    (QMat([[2]]), QMat([[Q(1, 3)]])),
    (QMat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), QMat([[2, 0, 0], [0, 1, 0], [0, 0, 1]])),
    (QMat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), QMat([[Q(1, 2), 0, 0], [0, 1, 0], [0, 0, 2]])),
    (
        QMat([[1, Q(1, 2), 0], [0, 1, 0], [0, 0, 1]]),
        QMat([[1, 0, 0], [Q(1, 3), 1, 0], [0, 0, 3]]),
    ),
)
generator_sets = st.one_of(
    st.sampled_from(SETS), st.lists(st.sampled_from(POOL), min_size=1, max_size=2)
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(generator_sets)
def test_matches_reduced_word_search(mats):
    named = {f"g{i}": m for i, m in enumerate(mats)}
    identity = QMat.identity(mats[0].n)
    ball = WordBall(named)
    states = [ball.identity, *ball.grow(3)]
    # the first spelling of each element, in shortlex order
    first = {}
    for w, m in reduced_words(named, 3):
        first.setdefault(m, w)
    assert [(ball.word(s), ball.matrix(s)) for s in states] == [(w, m) for m, w in first.items()]
    # a state is the matrix in QMat's lowest terms, flattened
    for s in states:
        m = ball.matrix(s)
        assert s == (*(x for row in m.num for x in row), m.den)
    relation = ball.relation()
    assert (relation is not None) == any(w and m == identity for w, m in reduced_words(named, 6))
    if relation is not None:
        assert 0 < len(relation) <= 6
        assert evaluate_word(named, relation) == identity


def test_cap_stops_growth():
    named = {"h": H, "p": P}
    with pytest.raises(RuntimeError, match="sampling ball too large"):
        _ball_mu_values(named, 10, cap=50)
    # a ball that is no longer resumed stores nothing past its last state
    ball = WordBall(named)
    grown = list(itertools.islice(ball.grow(10), 50))
    assert len(ball) == 51 and len(grown) == 50


@pytest.mark.parametrize(
    "name, products, states, relation",
    [
        # 4 letters: 4 products from I, then 3 from each of the 16 states
        # of lengths 1 and 2
        ("specA.gog", 4 + 3 * 16, 52, None),
        # 6 letters: 6 products from I, then 5 from each of the 31 states
        # of lengths 1 and 2 (e^2 = e^-2 is found once)
        ("specB.gog", 6 + 5 * 31, 123, "e^4"),
    ],
)
def test_no_step_back(name, products, states, relation, monkeypatch):
    """A state is never multiplied by the inverse of the letter that reached it."""
    calls = []

    def counted(a, b, n):
        calls.append(None)
        return scaled_mul(a, b, n)

    scaled_mul = matgroups._scaled_mul
    ball = WordBall(compute_holonomy(load_spec(name)).stable)
    monkeypatch.setattr(matgroups, "_scaled_mul", counted)
    assert sum(1 for _ in ball.grow(3)) == states
    assert len(calls) == products
    found = ball.relation()
    assert (found if found is None else str(found)) == relation

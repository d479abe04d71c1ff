import signal
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import strategies as st

from gbsn import britton, cli, gogfile
from gbsn.britton import _fast_ops, _stable_step
from gbsn.classify import analysis
from gbsn.gog import Edge, GoGSpec, vertex_letters
from gbsn.linalg import QMat
from gbsn.words import Word

DATA = Path(__file__).resolve().parent.parent / "data"


def load_spec(name):
    doc = gogfile.parse((DATA / name).read_text())
    return doc.to_spec()


@st.composite
def one_vertex_specs(draw, max_rank, bound):
    """One vertex of rank 1..max_rank, 1-3 loops, nonsingular inclusions
    with entries |x| <= bound."""
    n = draw(st.integers(1, max_rank))
    matrices = st.lists(
        st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=n, max_size=n
    ).filter(lambda rows: QMat(rows).det() != 0)
    loops = draw(st.integers(1, 3))
    edges = [
        Edge(name, "X", "X", QMat(draw(matrices)), QMat(draw(matrices)))
        for name in "stu"[:loops]
    ]
    return GoGSpec.make(n, ["X"], edges)


def word_of_normal_form(spec, nf):
    """Re-spell a normal form as a word (head and entry vectors in letters)."""
    names = vertex_letters(spec)[spec.vertices[0]]

    def vec_word(vec):
        return Word((names[i], c) for i, c in enumerate(vec))

    w = vec_word(nf.head)
    for name, sign, vec in nf.tail:
        w = w * Word([(name, sign)]) * vec_word(vec)
    return w


def apply_step(ops, s, kind, index, step):
    """Right-multiply the flat canonical form ``s`` in place by one generator
    step, the tests' reference step: kind 0 adds ``step`` to coordinate
    ``index`` of the free last vector, kind 1 splits that vector off for one
    ``_stable_step`` by t_index^step (step is +-1) and puts back the vector
    it returns. The search builds its children apart from this."""
    n = ops.n
    if kind == 0:
        s[index - n] += step
        return
    v = s[-n:]
    del s[-n:]
    s += _stable_step(s, v, ops.plans[index, step])


@lru_cache(maxsize=None)
def naive_ball(spec, radius):
    """Plain forward BFS ball {flat state: distance} of ``radius``, grown by
    the reference step; built once per (spec, radius) in a test run."""
    ops = _fast_ops(spec)
    ball = {ops.identity(): 0}
    frontier = [ops.identity()]
    for d in range(1, radius + 1):
        nxt = []
        for s in frontier:
            for kind, idx, step in ops.generator_steps():
                c = list(s)
                apply_step(ops, c, kind, idx, step)
                c = tuple(c)
                if c not in ball:
                    ball[c] = d
                    nxt.append(c)
        frontier = nxt
    return ball


def anon(*mats) -> dict:
    """The generators ``mats`` named g0, g1, ... in the order given."""
    return {f"g{i}": m for i, m in enumerate(mats)}


def reduced_words(named, radius):
    """Every freely reduced word of length <= radius with its matrix, in
    shortlex order (letters in the order of ``named``, +1 before -1): a
    plain breadth-first search over words, with no deduplication."""
    letters = [(Word([(name, sign)]), m if sign == 1 else m.inverse())
               for name, m in named.items() for sign in (1, -1)]
    level = [(Word(), QMat.identity(next(iter(named.values())).n))]
    yield from level
    for _ in range(radius):
        nxt = []
        for w, m in level:
            for lw, lm in letters:
                w2 = w * lw
                if len(w2) == len(w) + 1:  # no cancellation
                    nxt.append((w2, m * lm))
                    yield nxt[-1]
        level = nxt


@contextmanager
def time_budget(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def empty_oracle_store():
    """Each test starts and ends with no kept geodesic balls, so no answer or
    timing depends on the order the tests run in."""
    britton._kept.clear()
    yield
    britton._kept.clear()


@pytest.fixture(autouse=True)
def fresh_analyses():
    """Each test starts with no kept analyses or parsed spec texts, so a test
    that replaces a stage sees it run, and no count depends on the tests
    before it."""
    analysis.cache_clear()
    cli._spec_of.cache_clear()


@pytest.fixture(scope="session")
def spec_a():
    return load_spec("specA.gog")


@pytest.fixture(scope="session")
def spec_b():
    return load_spec("specB.gog")


@pytest.fixture(scope="session")
def spec_bs12():
    return load_spec("bs12.gog")


@pytest.fixture(scope="session")
def spec_ascend2():
    return load_spec("ascend2.gog")

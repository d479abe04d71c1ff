from functools import lru_cache
from pathlib import Path

import pytest

from gbsn import gogfile
from gbsn.britton import _fast_ops
from gbsn.gog import vertex_letters
from gbsn.words import Word

DATA = Path(__file__).resolve().parent.parent / "data"


def load_spec(name):
    doc = gogfile.parse((DATA / name).read_text())
    return doc.to_spec()


def word_of_normal_form(spec, nf):
    """Re-spell a normal form as a word (head and entry vectors in letters)."""
    names = vertex_letters(spec)[spec.vertices[0]]

    def vec_word(vec):
        return Word((names[i], c) for i, c in enumerate(vec))

    w = vec_word(nf.head)
    for name, sign, vec in nf.tail:
        w = w * Word([(name, sign)]) * vec_word(vec)
    return w


@lru_cache(maxsize=None)
def naive_ball(spec, radius):
    """Plain forward BFS ball {flat state: distance} of ``radius``, grown by
    the normal-form step; built once per (spec, radius) in a test run."""
    ops = _fast_ops(spec)
    ball = {ops.identity(): 0}
    frontier = [ops.identity()]
    for d in range(1, radius + 1):
        nxt = []
        for s in frontier:
            for kind, idx, step in ops.generator_steps():
                c = list(s)
                ops.apply(c, kind, idx, step)
                c = tuple(c)
                if c not in ball:
                    ball[c] = d
                    nxt.append(c)
        frontier = nxt
    return ball


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

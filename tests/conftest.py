from pathlib import Path

import pytest

from gbsn import gogfile
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

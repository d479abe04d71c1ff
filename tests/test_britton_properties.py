"""Properties of the one normal-form step, checked on generated words.

The checks of canonicity use ``linalg`` directly (Hermite bases and
residues), not the kernel's own tables.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn.britton import britton_reduce, nf_multiply
from gbsn.gog import Edge, GoGSpec, vertex_letters
from gbsn.holonomy import compute_holonomy, word_image
from gbsn.linalg import QMat, ZMat, hermite_normal_form, lattice_residue
from gbsn.words import Word

from conftest import load_spec, word_of_normal_form

RANK3 = GoGSpec.make(
    3,
    ["X"],
    [
        Edge("t", "X", "X", ZMat([[2, 0, 0], [0, 1, 0], [0, 0, 1]]), ZMat([[1, 0, 0], [1, 3, 0], [0, 0, 1]])),
        Edge("u", "X", "X", ZMat.identity(3), ZMat([[1, 1, 0], [0, 1, 1], [0, 0, 2]])),
    ],
)
SPECS = {name: load_spec(f"{name}.gog") for name in ("specA", "specB", "bs12", "ascend2")}
SPECS["rank3"] = RANK3

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def spec_and_words(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    spec = SPECS[name]
    vertex = vertex_letters(spec)[spec.vertices[0]]
    stable = [e.name for e in spec.loop_edges()]
    letter = st.one_of(
        st.tuples(st.sampled_from(vertex), st.integers(-(10**5), 10**5)),
        st.tuples(st.sampled_from(stable), st.integers(-2, 2)),
    )
    word = st.lists(letter, max_size=8).map(Word)
    return spec, draw(word), draw(word)


def affine_image(spec, w):
    """Image of ``w`` in the affine group of Q^n: a vertex letter translates,
    t acts by M^-1 where t^-1 x t = M x. A homomorphism on every spec, so
    unlike ``word_image`` it also sees the vertex vectors; faithful for one
    ascending loop (bs12, ascend2)."""
    n = spec.rank
    letters = vertex_letters(spec)[spec.vertices[0]]
    linear = {}
    for e in spec.loop_edges():
        m = (e.omega.to_qmat() * e.alpha.to_qmat().inverse()).inverse()
        linear[e.name] = QMat([list(row) + [0] for row in m.rows] + [[0] * n + [1]])
    image = QMat.identity(n + 1)
    for name, exp in w:
        if name in linear:
            image = image * linear[name] ** exp
        else:
            shift = [list(row) for row in QMat.identity(n + 1).rows]
            shift[letters.index(name)][n] = exp
            image = image * QMat(shift)
    return image


def canonical_violations(spec, nf):
    lattices = {}
    for e in spec.loop_edges():
        lattices[(e.name, -1)] = hermite_normal_form(e.alpha)
        lattices[(e.name, 1)] = hermite_normal_form(e.omega)
    bad = []
    for i, (name, sign, vec) in enumerate(nf.tail):
        if lattice_residue(lattices[(name, sign)], vec)[0] != vec:
            bad.append(f"entry {i}: {vec} is not a residue")
        if i + 1 < len(nf.tail) and not any(vec):
            next_name, next_sign, _ = nf.tail[i + 1]
            if next_name == name and next_sign == -sign:
                bad.append(f"entries {i}, {i + 1}: pinchable")
    return bad


@PROPERTY
@given(spec_and_words())
def test_incremental_multiply_matches_whole_word(case):
    spec, u, v = case
    assert nf_multiply(spec, britton_reduce(spec, u), v) == britton_reduce(spec, u * v)


@PROPERTY
@given(spec_and_words())
def test_normal_form_is_canonical_and_spells_the_word(case):
    spec, u, v = case
    w = u * v
    nf = britton_reduce(spec, w)
    assert canonical_violations(spec, nf) == []
    hd = compute_holonomy(spec)
    respelled = word_of_normal_form(spec, nf)
    assert word_image(hd, respelled) == word_image(hd, w)
    assert affine_image(spec, respelled) == affine_image(spec, w)

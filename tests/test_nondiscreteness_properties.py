"""Every decided case 2c carries a non-discreteness certificate that
re-verifies, checked on generated specs.

The consequence the certificate claims (conjugates h^-k g h^k that are
pairwise distinct and tend to I) is checked on the matrices directly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn.classify import whyte_classify
from gbsn.gog import Edge, GoGSpec
from gbsn.holonomy import compute_holonomy, verify_nondiscreteness, word_image
from gbsn.linalg import QMat

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def _mul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


@st.composite
def diag_shear_specs(draw):
    """diag(m, 1/m) and a shear k, both conjugated by C in SL_2(Z) whose
    columns lie off the coordinate axes: alpha = C diag(1, m), omega =
    C diag(m, 1), and a shear loop C [[1, k], [0, 1]] C^-1."""
    m = draw(st.integers(2, 60))
    k = draw(st.integers(-6, 6).filter(bool))
    a = draw(st.integers(-4, 4).filter(bool))
    b = draw(st.integers(-4, 4).filter(lambda b: b != 0 and 1 + a * b != 0))
    c, c_inv = [[1 + a * b, a], [b, 1]], [[1, -a], [-b, 1 + a * b]]
    edges = [
        Edge("h", "X", "X", QMat(_mul(c, [[1, 0], [0, m]])), QMat(_mul(c, [[m, 0], [0, 1]]))),
        Edge("p", "X", "X", QMat.identity(2), QMat(_mul(_mul(c, [[1, k], [0, 1]]), c_inv))),
    ]
    return GoGSpec.make(2, ["X"], edges)


def rank_one_pair(k):
    """Loops with holonomy (k + 1) / k and k / (k - 1)."""
    return GoGSpec.make(
        1,
        ["X"],
        [
            Edge("s", "X", "X", QMat([[k]]), QMat([[k + 1]])),
            Edge("u", "X", "X", QMat([[k - 1]]), QMat([[k]])),
        ],
    )


def _certificate(spec):
    report = whyte_classify(spec)
    assert report.whyte_case == "2c"
    (witness,) = [ev.payload for ev in report.evidence if ev.label == "non-discreteness-certificate"]
    hd = compute_holonomy(spec)
    assert verify_nondiscreteness(hd, witness)
    return hd, witness


def _distance_to_identity(x: QMat):
    return max(abs(x.rows[i][j] - (i == j)) for i in range(x.n) for j in range(x.n))


@PROPERTY
@given(diag_shear_specs())
def test_contraction_certificate_shrinks_conjugates(spec):
    hd, witness = _certificate(spec)
    assert witness.kind == "contraction"
    h, g = word_image(hd, witness.contractor), word_image(hd, witness.word)
    terms = [h ** -k * g * h ** k for k in range(1, 7)]
    assert len(set(terms)) == len(terms)
    distances = [_distance_to_identity(x) for x in terms]
    assert all(later < earlier for earlier, later in zip(distances, distances[1:]))


@PROPERTY
@given(st.integers(2, 200))
def test_rank_one_pairs_are_dense(k):
    _, witness = _certificate(rank_one_pair(k))
    assert witness.kind == "dense"

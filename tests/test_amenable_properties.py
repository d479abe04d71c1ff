"""An amenable group has the Haagerup property and is weakly amenable with
Lambda_cb = 1: checked on generated single-loop ascending specs of rank 1 to
3, where case (2b) is the amenable case."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn.classify import classify
from gbsn.gog import Edge, GoGSpec
from gbsn.linalg import QMat

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def ascending_specs(draw):
    """One vertex, one loop: one inclusion of index 1 (the identity, or the
    identity with one shear entry), the other any nonsingular matrix."""
    n = draw(st.integers(1, 3))
    unimodular = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        unimodular[0][n - 1] = draw(st.integers(-2, 2))
    entries = st.integers(-3, 3)
    other = draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).filter(
            lambda rows: QMat(rows).det() != 0
        )
    )
    ends = (QMat(unimodular), QMat(other))
    if draw(st.booleans()):
        ends = ends[::-1]
    return GoGSpec.make(n, ["X"], [Edge("t", "X", "X", *ends)])


@PROPERTY
@given(ascending_specs())
def test_case_2b_has_haagerup_and_lambda_cb_one(spec):
    report = classify(spec)
    if report.whyte_case == "2b":
        assert report.amenable is True
        assert (report.haagerup, report.weakly_amenable, report.cowling_haagerup) == (
            True,
            True,
            "1",
        )

"""``classify`` reads one analysis per spec and reports what the two single
stages report on their own: checked on generated one-vertex specs of rank 1
and 2 with one to three loops."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gbsn.classify import classify, compression_report, cv_properties, whyte_classify
from gbsn.gog import Edge, GoGSpec
from gbsn.holonomy import compute_holonomy, verify_nondiscreteness
from gbsn.linalg import ZMat
from gbsn.matgroups import verify_certificate

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def one_vertex_specs(draw):
    """One vertex, 1-3 loops, nonsingular inclusions with entries |x| <= 5."""
    n = draw(st.integers(1, 2))
    matrices = st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
    ).filter(lambda rows: ZMat(rows).det() != 0)
    loops = draw(st.integers(1, 3))
    edges = [
        Edge(name, "X", "X", ZMat(draw(matrices)), ZMat(draw(matrices)))
        for name in "stu"[:loops]
    ]
    return GoGSpec.make(n, ["X"], edges)


@PROPERTY
@given(one_vertex_specs())
def test_classify_agrees_with_its_stages(spec):
    report, w, c = classify(spec), whyte_classify(spec), cv_properties(spec)
    assert (report.ends, report.amenable, report.amenable_reason, report.whyte_case) == (
        w.ends,
        w.amenable,
        w.amenable_reason,
        w.whyte_case,
    )
    assert report.evidence[: len(w.evidence)] == w.evidence
    analytic = (report.haagerup, report.weakly_amenable, report.cowling_haagerup)
    if w.amenable is True and c.haagerup is None:
        # the documented override: an amenable group has all three properties
        assert analytic == (True, True, "1")
        assert report.evidence[len(w.evidence):][-1].label == "amenability"
    else:
        assert analytic == (c.haagerup, c.weakly_amenable, c.cowling_haagerup)
        assert report.evidence[len(w.evidence):] == c.evidence
    assert report.haagerup == report.weakly_amenable

    hd = compute_holonomy(spec)
    names = sorted(hd.stable)
    gens = [hd.stable[n] for n in names]
    for ev in report.evidence:
        if ev.label.startswith("tits-certificate"):
            assert verify_certificate(gens, ev.payload, names)
        if ev.label == "non-discreteness-certificate":
            assert verify_nondiscreteness(hd, ev.payload)

    for p in (1, 2):
        zero = compression_report(spec, p).alpha_kind == "zero"
        assert zero == (c.haagerup is False)

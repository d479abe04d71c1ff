"""``classify`` reads one analysis per spec and reports what the two single
stages report on their own, and the analysis kept for the process gives the
reports a fresh one gives: checked on generated one-vertex specs of rank 1
and 2 with one to three loops."""

from hypothesis import given, settings

from gbsn.classify import (
    analysis,
    classify,
    compression_report,
    cv_properties,
    whyte_classify,
)
from gbsn.holonomy import compute_holonomy, verify_nondiscreteness
from gbsn.matgroups import verify_certificate

from conftest import one_vertex_specs

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@PROPERTY
@given(one_vertex_specs(max_rank=2, bound=5))
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
    for ev in report.evidence:
        if ev.label.startswith("tits-certificate"):
            assert verify_certificate(hd.stable, ev.payload)
        if ev.label == "non-discreteness-certificate":
            assert verify_nondiscreteness(hd, ev.payload)

    for p in (1, 2):
        zero = compression_report(spec, p).alpha_kind == "zero"
        assert zero == (c.haagerup is False)


@PROPERTY
@given(one_vertex_specs(max_rank=2, bound=5))
def test_kept_analysis_reports_as_a_fresh_one(spec):
    kept = [classify(spec), whyte_classify(spec), cv_properties(spec)]
    again = [classify(spec), whyte_classify(spec), cv_properties(spec)]
    kept_analysis = analysis(spec)
    assert kept_analysis is analysis(spec)
    analysis.cache_clear()
    fresh = [classify(spec), whyte_classify(spec), cv_properties(spec)]
    assert analysis(spec) is not kept_analysis
    assert kept == again == fresh

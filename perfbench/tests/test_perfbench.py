"""Tests of the benchmark's own parts: generator, reference and tracer."""

import json
import signal
from pathlib import Path

import pytest

import gbsn.britton as britton
from gbsn import gogfile, parse_word
from perfbench import calib, jobs, run, specgen, tracer, worker
from perfbench.reference import AffineModel, affine_image, parse_letters

ROOT = Path(__file__).resolve().parents[2]
DATA = ROOT / "data"


@pytest.mark.parametrize("workload", sorted(specgen.WORKLOADS))
def test_generator_is_deterministic(workload):
    specs1, jobs1 = specgen.generate(workload, 7)
    specs2, jobs2 = specgen.generate(workload, 7)
    assert [s.text() for s in specs1] == [s.text() for s in specs2]
    assert jobs1 == jobs2
    _, jobs3 = specgen.generate(workload, 8)
    assert jobs3 != jobs1


def test_fixed_specs_match_data_files():
    for spec in specgen.DATA_SPECS:
        doc = gogfile.parse((DATA / f"{spec.name}.gog").read_text())
        assert doc.rank == spec.rank
        assert doc.vertices == spec.vertices
        assert doc.edges == spec.edges


def test_generated_specs_parse_back():
    specs, _ = specgen.generate("verdicts", 3)
    for spec in specs:
        doc = gogfile.parse(spec.text())
        assert doc.edges == spec.edges
        assert tuple(doc.tree or ()) == spec.tree


def test_affine_reference_hand_computed_lengths():
    bs12 = AffineModel(2, 1, 12)
    # a^4 has no shorter spelling; a^16 = t^-2 a^4 t^2 (t^-1 a t = a^2)
    assert bs12.length(parse_letters("a^4"), 12) == 4
    assert bs12.length(parse_letters("a^16"), 12) == 8
    assert bs12.length(parse_letters("t^-1 a t a^-2"), 12) == 0
    assert bs12.length(parse_letters("a^16"), 7) == "exceeds radius"
    # ball sizes at radius 8 for BS(1,2) and Z x BS(1,2)
    assert len(AffineModel(2, 1, 8).dist) == 1317
    assert len(AffineModel(2, 2, 8).dist) == 4189


def test_geodesic_targets_are_not_trivial():
    # a trivial target skips the ball build: the job list's costs would
    # depend on the seed
    for seed in range(401, 411):
        specs, jobs_ = specgen.generate("geodesics", seed)
        by_name = {spec.name: spec for spec in specs}
        for job in jobs_:
            n = jobs._affine_n(by_name[job.spec]) if job.kind == "geodesic" else None
            if n:
                word = parse_letters(job.args[0])
                assert affine_image(word, n, by_name[job.spec].rank) != (0, 1, 0), (seed, job)


def test_relators_of_bs12():
    assert specgen.relators(specgen.BS12) == ((("t", -1), ("a", 1), ("t", 1), ("a", -2)),)


def test_tail_has_ten_jobs_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_end_to_end_takes_each_jobs_median_run():
    # results are [index, wall seconds, reference seconds, status]
    full = [
        {"results": [[0, 9.0, 2.0, jobs.DECIDED], [1, 9.0, 0.3, jobs.UNDECIDED]],
         "setup_s": 0.2, "setup_ref_s": 0.2, "wall_s": 18.0, "rss_mb": 30.0},
        {"results": [[0, 9.0, 2.2, jobs.DECIDED], [1, 9.0, 0.5, jobs.DECIDED]],
         "setup_s": 0.2, "setup_ref_s": 0.3, "wall_s": 18.0, "rss_mb": 28.0},
    ]
    light = [{"results": [[1, 9.0, 0.1, jobs.DECIDED]], "setup_s": 0.1, "setup_ref_s": 0.1,
              "wall_s": 9.0, "rss_mb": 20.0}]
    metrics, _ = run.end_to_end(full, light, 5.0)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in bench["end_to_end"]]
    assert [w["name"] for w in bench["workloads"]] == list(specgen.WORKLOADS)
    values = {name: value for name, (value, _) in metrics.items()}
    # job 0: median of 2.0 and 2.2; job 1: median of 0.3, 0.5 and 0.1
    assert values["wall_s"] == pytest.approx(2.4)
    assert values["job_p50_s"] == pytest.approx(1.2)
    # statuses of the full passes only, so that no job weighs more than another
    assert values["decided_share"] == 0.75
    assert values["peak_rss_mb"] == 30.0
    assert values["setup_s"] == pytest.approx(0.2)


def test_reference_seconds_scale_with_the_kernel():
    assert calib.reference_seconds(1.0, calib.NOMINAL_S, calib.NOMINAL_S) == pytest.approx(1.0)
    # a host half as fast doubles both the wall time and the kernel's time
    assert calib.reference_seconds(2.0, 2 * calib.NOMINAL_S, 2 * calib.NOMINAL_S) == pytest.approx(1.0)
    assert 0 < calib.sample() < 1


def test_job_clock_limit_is_in_reference_seconds():
    clock = worker.JobClock(0.12, clocked=True)
    signal.signal(signal.SIGALRM, clock.on_alarm)
    try:
        clock.start()
        with pytest.raises(worker.JobTimeout):
            try:
                while True:
                    pass
            finally:
                clock.stop()
        assert clock.ref >= 0.12 and clock.wall > 0
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        clock.start()
        clock.stop()
        assert 0 <= clock.wall < 0.05 and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def test_unlabelled_evidence_of_undetermined_compare_is_undecided():
    job = specgen.Job("compare", "specA", ("specB",), "quasi-isometric")
    report = {"verdict": "undetermined", "sampled": False, "reasons": [], "evidence": [[4, 1.7]]}
    status, _ = jobs._check_cli(job, None, 2, json.dumps(report), "", None)
    assert status == jobs.UNDECIDED


def _wrapped_attributes():
    owners = [(o, a) for o, a, _ in tracer.SPANNED + tracer.TIMED + tracer.COUNTED]
    owners += [(tracer.linalg.QMat, "__mul__"), (tracer.words.Word, "single_letters")]
    return {(owner, attr): owner.__dict__[attr] for owner, attr in owners}


def test_tracer_restores_gbsn(tmp_path):
    before = _wrapped_attributes()
    path = tmp_path / "bs12.gog"
    path.write_text(specgen.BS12.text())
    spec = gogfile.parse(specgen.BS12.text()).to_spec()
    rec = tracer.Recorder()
    with tracer.Tracer(rec):
        assert jobs._cli(["classify", str(path)])[0] == 0
        assert britton.is_identity(spec, parse_word("t^-1 a t a^-2"))
        assert britton.geodesic_length(spec, parse_word("a^16"), 10) == 8
    assert _wrapped_attributes() == before
    assert all(before[key] is value for key, value in _wrapped_attributes().items())
    totals = rec.totals()
    assert totals["cli.run"]["calls"] == 1
    assert rec.maxima["britton.forward_ball_states"] == 1317
    assert rec.counts["words.letters_expanded"] > 0
    for i, (_, start, end, parent, _) in enumerate(rec.spans):
        assert start <= end and parent < i
    assert all(t > -1e-9 for t in rec.self_times())


def test_tracer_restores_after_error():
    before = _wrapped_attributes()
    with pytest.raises(RuntimeError):
        with tracer.Tracer(tracer.Recorder()):
            raise RuntimeError("job failed")
    assert all(before[key] is value for key, value in _wrapped_attributes().items())

"""Benchmark entry point.

    python3 perfbench/run.py --workload verdicts|word_problem|geodesics \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from the seed;
the gbsn package is imported from ./src. Each pass over the jobs runs in a
fresh interpreter (worker.py), started one at a time, so one client runs one
job at a time (a closed loop) and no pass sees caches of an earlier one.

A run is a fixed number of rounds, ``seconds // round_s`` (at least one;
``ROUND`` gives round_s). A round is one full
pass over the job list and then a few light passes over the jobs not
flagged heavy, so that a cheap job gets several times more samples than a
heavy one. The counts depend only on the workload and ``--seconds``, so
every run takes the median of the same number of samples.

--trace 0 prints the end-to-end metrics, timed in reference seconds
(calib.py) so that the host's changing speed shows far less in them;
--trace 1 runs one traced full pass and one untraced full pass, in wall
seconds, and prints the per-layer metrics instead.
The last line of stdout is one JSON object {"correct", "attempted",
"failed", "metrics"}. The exit code is 0 whenever that line is printed;
failed jobs are reported in it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Per-job time limit in reference seconds (wall seconds in a traced run),
# about twice the slowest job that finishes at the seed commit (classify
# specB; the specA query at radius 8). A job that hits it counts as
# undecided.
JOB_LIMIT_S = {"verdicts": 5.0, "word_problem": 8.0, "geodesics": 20.0}
# workload -> (seconds of --seconds that one round stands for, light passes
# per round, workers per full pass). A full pass split over k workers runs
# every k-th job in each, so that set-up is timed k times. At --seconds 25 a
# run is one round of verdicts (one full and two light passes), one full
# pass of word_problem over three workers (each job runs once) and two
# rounds of geodesics (one full and two light passes each); it takes 20-32 s
# on a 2-core x86 VM at the seed commit, depending on the host's speed.
ROUND = {"verdicts": (25.0, 2, 1), "word_problem": (25.0, 0, 3), "geodesics": (12.5, 2, 1)}
WORKER_TIMEOUT_S = 150
# name -> unit of each per-layer metric, in the order printed
PER_LAYER = {
    m["name"]: m["unit"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
}


def worker(workdir: Path, args, indices: list, mode: str) -> dict:
    """Run one pass in a fresh interpreter and return its report. ``mode``
    is ``clocked`` (timed in reference seconds), ``traced`` or ``plain``."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(workdir),
         args.workload, str(args.seed), ",".join(map(str, indices)), mode],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def tail(times: list) -> tuple:
    """(value, percentile) at the highest percentile with >= 10 jobs beyond it."""
    ordered = sorted(times)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(full: list, light: list, limit: float) -> tuple:
    """End-to-end metrics from the reports of the clocked passes.

    Times are in reference seconds (calib.py), which move far less with
    the host's speed than wall seconds. A job's time is the median of its runs over all passes,
    wall_s is the sum of those times, and job_p50_s and job_tail_s are
    taken over them.
    """
    reports = full + light
    runs: dict = {}
    for report in reports:
        for index, _, ref, _ in report["results"]:
            runs.setdefault(index, []).append(ref)
    times = [statistics.median(v) for v in runs.values()]
    statuses = [status for report in full for *_, status in report["results"]]
    value, pct = tail(times)
    metrics = {
        "wall_s": (sum(times), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (value, "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in reports), "MB"),
        "decided_share": (statuses.count("decided") / len(statuses), "share"),
        "setup_s": (statistics.median(r["setup_ref_s"] for r in reports), "s"),
    }
    every = [status for report in reports for *_, status in report["results"]]
    walls = [sum(seconds for _, seconds, *_ in r["results"]) for r in full]
    notes = [
        f"{len(full)} full-pass and {len(light)} light-pass workers, {len(times)} jobs; "
        f"job_tail_s is p{pct:.1f} ({min(10, len(times) - 1)} jobs beyond it)",
        "times in reference seconds; in wall seconds the full-pass workers took "
        + ", ".join(f"{w:.3f}" for w in walls)
        + f" and set-up took {statistics.median(r['setup_s'] for r in reports):.4f} (median)",
        f"failed_share {every.count('failed') / len(every)} share",
        f"undecided in full passes {statuses.count('undecided')} "
        f"(time limit {limit} reference s per job)",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verdicts", "word_problem", "geodesics"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gbsn" / "__init__.py").is_file():
        print(f"error: no gbsn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import jobs as jobmod
    from perfbench import specgen

    specs, jobs = specgen.generate(args.workload, args.seed)
    limit = JOB_LIMIT_S[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        paths = {}
        for spec in specs:
            paths[spec.name] = str(workdir / f"{spec.name}.gog")
            Path(paths[spec.name]).write_text(spec.text(), encoding="utf-8")
        if any(job.kind == "validate_invalid" for job in jobs):
            paths["invalid"] = str(workdir / "invalid.gog")
            Path(paths["invalid"]).write_text(specgen.INVALID_TEXT, encoding="utf-8")
        ctx = jobmod.Context({s.name: s for s in specs}, paths)
        ctx.load()
        ctx.prepare(jobs)
        (workdir / "inputs.json").write_text(json.dumps({
            "paths": paths,
            "lengths": [[*key, value] for key, value in ctx.lengths.items()],
            "limit": limit,
        }), encoding="utf-8")

        everything = list(range(len(jobs)))
        light_jobs = [i for i, job in enumerate(jobs) if not job.heavy]
        round_s, light_per_round, split = ROUND[args.workload]
        traced = worker(workdir, args, everything, "traced") if args.trace else None
        full, light = [], []
        if args.trace:
            full.append(worker(workdir, args, everything, "plain"))
        for _ in range(0 if args.trace else max(1, int(args.seconds // round_s))):
            full += [worker(workdir, args, everything[i::split], "clocked") for i in range(split)]
            light += [worker(workdir, args, light_jobs, "clocked") for _ in range(light_per_round)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reports = full + light
    if traced is None:
        metrics, notes = end_to_end(full, light, limit)
    else:
        reports.append(traced)
        plain_wall = full[0]["wall_s"]
        metrics = {name: (value, PER_LAYER[name]) for name, value in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced["wall_s"] - plain_wall, "s")
        notes = traced["notes"] + [
            f"traced pass {traced['wall_s']:.3f} s, untraced pass {plain_wall:.3f} s"
        ]
    results = [status for report in reports for *_, status in report["results"]]
    failed = results.count(jobmod.FAILED)
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKDIR WORKLOAD SEED INDICES MODE

run.py starts this once per pass and waits for it, so one client runs one
job at a time. A fresh interpreter per pass makes every job run as it would
for a user who asks once: nothing is cached from an earlier pass, and the
peak memory is that of the program, not of the benchmark's references.

WORKDIR holds the generated spec files and ``inputs.json`` (their paths and
the reference lengths). The worker times its set-up, from the start of
``import gbsn`` until every spec file is read and parsed, runs the jobs at
INDICES (comma-separated positions in the job list) once each under the
per-job time limit, checks every output, and prints one JSON line. MODE
``clocked`` times set-up and jobs in wall and reference seconds (calib.py)
and sets the limit in reference seconds; ``traced`` runs the pass under the
tracer, in wall seconds only, and the line carries the per-layer metrics;
``plain`` is the untraced twin of a traced pass.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
from perfbench import calib  # noqa: E402  (needs the path above; imports no gbsn)

OUT = ROOT / "perfbench" / "out"


class JobTimeout(BaseException):
    """Raised inside a job that overruns its limit.

    A BaseException, so that no ``except Exception`` in the program under
    test swallows it.
    """


class JobClock:
    """Times jobs in wall and reference seconds (see calib.py).

    The kernel runs once between jobs and, from a SIGALRM handler, every
    ``calib.PERIOD_S`` during a job; the handler's own time is left out of
    the job's. Each stretch of a job between two kernel samples converts to
    reference seconds at the speed those two samples give. With ``clocked``
    false the kernel never runs (the traced pass and its untraced twin) and
    only the wall time and its limit count.
    """

    def __init__(self, limit: float, clocked: bool):
        self.limit, self.clocked = limit, clocked
        self.kernel = calib.sample() if clocked else 0.0
        self.running = self.busy = False

    def start(self) -> None:
        self.wall = self.ref = 0.0
        self.running = True
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, calib.PERIOD_S, calib.PERIOD_S)

    def _stretch(self) -> None:
        self.busy = True
        now = time.perf_counter()
        self.wall += now - self.mark
        if self.clocked:
            kernel = calib.sample()
            self.ref += calib.reference_seconds(now - self.mark, self.kernel, kernel)
            self.kernel = kernel
        self.mark = time.perf_counter()
        self.busy = False

    def on_alarm(self, signum, frame) -> None:
        if not self.running or self.busy:
            return
        self._stretch()
        if (self.ref if self.clocked else self.wall) >= self.limit:
            self.running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            raise JobTimeout()

    def stop(self) -> None:
        """End the job's time; a no-op after the time limit ended it."""
        if self.running:
            self.running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._stretch()


def run_pass(selected, ctx, jobmod, limit, clocked, rec=None) -> tuple:
    """Run each (index, job) once; return (wall seconds, [[index, wall
    seconds, reference seconds, status]]). Without ``clocked`` the
    reference seconds are 0."""
    clock = JobClock(limit, clocked)
    signal.signal(signal.SIGALRM, clock.on_alarm)
    results = []
    start = time.perf_counter()
    for index, job in selected:
        if rec is not None:
            rec.start_job(index, job.spec)
        try:
            clock.start()
            try:
                out = jobmod.run(job, ctx)
            finally:
                clock.stop()
        except JobTimeout:
            out = JobTimeout
        except Exception as exc:  # any error of the program is a failed job
            out = exc
        if rec is not None:
            rec.end_job()
        if out is JobTimeout:
            status, reason = jobmod.UNDECIDED, "time limit"
        elif isinstance(out, Exception):
            status, reason = jobmod.FAILED, f"{type(out).__name__}: {out}"
        else:
            try:
                status, reason = jobmod.check(job, out, ctx)
            except Exception as exc:  # malformed output
                status, reason = jobmod.FAILED, f"unreadable output: {type(exc).__name__}: {exc}"
        if status == jobmod.FAILED:
            print(f"FAILED job {index} {job.kind} {job.spec}: {reason}", file=sys.stderr)
        results.append([index, clock.wall, clock.ref, status])
    return time.perf_counter() - start, results


def per_layer(rec, jobs, names) -> tuple:
    """Per-layer metrics of a traced pass, by the names of BENCHMARK.json."""
    totals = rec.totals()
    metrics = {}
    for name in names:
        base, _, stat = name.rpartition("_")
        if name in rec.counts:
            metrics[name] = rec.counts[name]
        elif name in rec.maxima:
            metrics[name] = rec.maxima[name]
        elif name in rec.seconds:
            metrics[name] = rec.seconds[name]
        elif stat in ("s", "calls") and base in totals:
            metrics[name] = totals[base][stat]
        else:
            metrics[name] = 0
    share, notes = _dominant_spans(rec, jobs)
    metrics["holonomy.witness_share_specB"] = share
    return metrics, notes


def _dominant_spans(rec, jobs) -> tuple:
    """Self-time breakdown of each classify job on specB."""
    own = rec.self_times()
    share, notes = 0.0, []
    for index, job in enumerate(jobs):
        if job.kind != "classify" or job.spec != "specB":
            continue
        by_name: dict = {}
        total = 0.0
        for i, (name, start, end, parent, jid) in enumerate(rec.spans):
            if jid != index:
                continue
            by_name[name] = by_name.get(name, 0.0) + own[i]
            if parent < 0:
                total += end - start
        if not total:
            continue
        top = sorted(by_name.items(), key=lambda kv: -kv[1])[:3]
        share = by_name.get("holonomy.witness", 0.0) / total
        notes.append(
            "classify specB self time: "
            + ", ".join(f"{n} {v / total:.1%}" for n, v in top)
            + f" of {total:.3f} s"
        )
    return share, notes


def main(argv) -> int:
    workdir, workload, seed, indices, mode = argv
    from perfbench import specgen

    specs, jobs = specgen.generate(workload, int(seed))
    selected = [(int(i), jobs[int(i)]) for i in indices.split(",")]
    inputs = json.loads((Path(workdir) / "inputs.json").read_text(encoding="utf-8"))

    calib.sample()  # the first run in a fresh interpreter is a warm-up
    before = calib.sample()
    start = time.perf_counter()
    import gbsn  # noqa: F401  (the import is part of the set-up)
    from perfbench import jobs as jobmod

    ctx = jobmod.Context({spec.name: spec for spec in specs}, inputs["paths"])
    ctx.load()
    setup_s = time.perf_counter() - start
    report = {
        "setup_s": setup_s,
        "setup_ref_s": calib.reference_seconds(setup_s, before, calib.sample()),
    }
    ctx.lengths = {tuple(key): value for *key, value in inputs["lengths"]}

    limit = inputs["limit"]
    if mode == "traced":
        from perfbench.tracer import Recorder, Tracer

        rec = Recorder()
        with Tracer(rec):
            wall, results = run_pass(selected, ctx, jobmod, limit, False, rec)
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in bench["per_layer"]]
        report["layers"], report["notes"] = per_layer(rec, jobs, names)
        trace_file = OUT / f"trace-{workload}-{seed}.json"
        trace_file.write_text(json.dumps({
            "jobs": [[job.kind, job.spec] for job in jobs],
            "totals": rec.totals(),
            "spans": rec.dump(),
        }))
        report["notes"].append(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        wall, results = run_pass(selected, ctx, jobmod, limit, mode == "clocked")
    report.update(
        wall_s=wall,
        results=results,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one job against gbsn and check its output against a reference.

``run`` is the timed part: the call into gbsn and nothing else. ``check``
runs afterwards and sorts the outcome into decided, undecided or failed:

* failed: an unexpected exception, exit 1 on a valid input, or a decided
  answer that contradicts the answer known from the construction;
* undecided: exit 2, a verdict labelled sampled, or the per-job time limit;
* decided: everything else.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

import gbsn.britton as britton
import gbsn.cli as cli
import gbsn.gogfile as gogfile
from gbsn.words import Word, parse_word

from .reference import AffineModel, parse_letters
from .specgen import COMMITTED_GEODESICS, Job, Spec, diag, identity

DECIDED, UNDECIDED, FAILED = "decided", "undecided", "failed"
REFERENCE_RADIUS = 12  # covers every geodesic radius and distortion cap used
CLI_KINDS = frozenset(
    ("validate", "validate_invalid", "holonomy", "classify", "compression", "compare", "distortion")
)


@dataclass
class Context:
    """Per-run inputs shared by all jobs: spec files, parsed specs and the
    reference answers of the geodesic and distortion jobs."""

    specs: dict  # name -> specgen.Spec
    paths: dict  # name -> .gog path
    parsed: dict = field(default_factory=dict)  # name -> gbsn GoGSpec
    lengths: dict = field(default_factory=dict)  # (spec, target, radius) -> answer

    def load(self) -> None:
        """Read and parse every spec file: the set-up a user pays before the
        first job."""
        for name, path in self.paths.items():
            with open(path, encoding="utf-8") as fh:
                doc = gogfile.parse(fh.read())
            if name in self.specs:
                self.parsed[name] = doc.to_spec()

    def prepare(self, jobs) -> None:
        """Reference lengths for the geodesic and distortion jobs, computed
        before timing; the affine balls are dropped afterwards.

        BS(1,n)-type specs use the affine model; the others use the committed
        value, after checking that its spelling reduces to the target.
        """
        models = {}
        for job in jobs:
            if job.kind == "geodesic":
                queries = [job.args]
            elif job.kind == "distortion":
                element, max_power, _ = job.args
                queries = [(f"{element}^{m}", REFERENCE_RADIUS) for m in range(1, max_power + 1)]
            else:
                continue
            spec = self.specs[job.spec]
            n = _affine_n(spec)
            for target, radius in queries:
                key = (job.spec, target, radius)
                if n:
                    if job.spec not in models:
                        models[job.spec] = AffineModel(n, spec.rank, REFERENCE_RADIUS)
                    self.lengths[key] = models[job.spec].length(parse_letters(target), radius)
                    continue
                length, spelling = COMMITTED_GEODESICS[key]
                parsed = self.parsed[job.spec]
                if len(Word(parse_letters(spelling))) != length or britton.britton_reduce(
                    parsed, parse_word(spelling)
                ) != britton.britton_reduce(parsed, parse_word(target)):
                    raise AssertionError(f"committed spelling {spelling!r} does not give {target!r}")
                self.lengths[key] = length


def _affine_n(spec: Spec) -> int | None:
    """n when the spec is BS(1,n) or Z x BS(1,n) in the form the affine model
    covers (one loop, alpha = I, omega = diag(1, .., 1, n)), else None."""
    if spec.rank > 2 or len(spec.vertices) != 1 or len(spec.loops()) != 1:
        return None
    (_, _, _, alpha, omega), = spec.loops()
    n = omega[-1][-1]
    if alpha == identity(spec.rank) and omega == diag(*([1] * (spec.rank - 1) + [n])):
        return n
    return None


def _cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv + ["--format", "json"])
    return rc, out.getvalue(), err.getvalue()


def run(job: Job, ctx: Context):
    """The timed call into gbsn."""
    kind, args = job.kind, job.args
    if kind in ("validate", "holonomy", "classify"):
        return _cli([kind, ctx.paths[job.spec]])
    if kind == "validate_invalid":
        return _cli(["validate", ctx.paths["invalid"]])
    if kind == "compression":
        return _cli(["compression", ctx.paths[job.spec], "--p", args[0]])
    if kind == "compare":
        return _cli(["compare", ctx.paths[job.spec], ctx.paths[args[0]]])
    if kind == "distortion":
        element, max_power, cap = args
        return _cli([
            "distortion", ctx.paths[job.spec], "--element", element,
            "--max-power", str(max_power), "--bfs-cap", str(cap),
        ])
    spec = ctx.parsed[job.spec]
    if kind == "is_identity":
        return britton.is_identity(spec, Word(args[0]))
    if kind == "reduce_pair":
        return tuple(britton.britton_reduce(spec, Word(w)) for w in args)
    if kind == "nf_incremental":
        nf = britton.britton_reduce(spec, Word())
        for chunk in args:
            nf = britton.nf_multiply(spec, nf, Word(chunk))
        whole = britton.britton_reduce(spec, Word([x for chunk in args for x in chunk]))
        return nf, whole
    if kind == "geodesic":
        target, radius = args
        return britton.geodesic_length(spec, parse_word(target), radius)
    raise ValueError(f"unknown job kind {kind!r}")


def check(job: Job, result, ctx: Context) -> tuple:
    """(status, reason) for a finished job."""
    kind = job.kind
    if kind in CLI_KINDS:
        return _check_cli(job, ctx.specs.get(job.spec), *result, ctx)
    if kind == "is_identity":
        return (DECIDED, "") if result is job.expect else (FAILED, f"answered {result}")
    if kind == "reduce_pair":
        nf1, nf2 = result
        if nf1 != nf2:
            return FAILED, "equal elements got different normal forms"
        if nf1.is_trivial():
            return FAILED, "a non-trivial element reduced to the identity"
        return DECIDED, ""
    if kind == "nf_incremental":
        nf, whole = result
        if nf != whole:
            return FAILED, "nf_multiply and britton_reduce disagree"
        if nf.is_trivial() is not job.expect:
            return FAILED, f"trivial={nf.is_trivial()}, expected {job.expect}"
        return DECIDED, ""
    if kind == "geodesic":
        expected = ctx.lengths[(job.spec, *job.args)]
        if result != expected:
            return FAILED, f"length {result!r}, expected {expected!r}"
        return DECIDED, ""
    return FAILED, f"no check for {kind!r}"


_TRI = {"yes": True, "no": False}


def _check_cli(job: Job, spec: Spec | None, rc: int, out: str, err: str, ctx: Context):
    if job.kind == "validate_invalid":
        ok = rc == 1 and json.loads(out)["ok"] is False
        return (DECIDED, "") if ok else (FAILED, "an invalid spec was accepted")
    if rc not in (0, 2):
        return FAILED, f"exit {rc} on a valid input: {err.strip()}"
    report = json.loads(out)
    reason = _contradiction(job, spec, report, ctx)
    if reason:
        return FAILED, reason
    # evidence items are dicts (labelled dataclasses) or plain values such
    # as the (radius, distance) pairs of sampled Cartan sets; only a dict
    # carries a label
    sampled = report.get("sampled") is True or any(
        isinstance(ev, dict) and "sampled" in str(ev.get("label", ""))
        for ev in report.get("evidence", ())
    )
    return (DECIDED, "") if rc == 0 and not sampled else (UNDECIDED, "")


def _contradiction(job: Job, spec: Spec, report: dict, ctx: Context) -> str:
    """A decided field that disagrees with the construction, or ''."""
    kind = job.kind
    if kind == "validate":
        return "" if report["ok"] is True else f"violations {report['violations']}"
    if kind == "holonomy":
        got = {
            name: tuple(tuple(Fraction(x) for x in row) for row in rows)
            for name, rows in report["stable"].items()
        }
        return "" if got == spec.holonomy() else f"holonomy {report['stable']}"
    if kind == "classify":
        for key, want in (
            ("amenable", spec.amenable),
            ("haagerup", spec.haagerup),
            ("weakly_amenable", spec.haagerup),
        ):
            got = _TRI.get(report[key])
            if got is not None and want is not None and got != want:
                return f"{key} = {report[key]}"
        case = report["whyte_case"]
        if spec.whyte and case in ("2a", "2b", "2c") and case != spec.whyte:
            return f"whyte case {case}, expected {spec.whyte}"
        return ""
    if kind == "compression":
        p = Fraction(job.args[0])
        alpha_kind = report["alpha_kind"]
        if alpha_kind == "zero" and spec.haagerup is not False:
            return "zero exponent for a group with the Haagerup property"
        if alpha_kind == "value":
            if spec.haagerup is False and p <= 2:
                return "positive exponent at p <= 2 without the Haagerup property"
            if not 0 < Fraction(report["alpha"]) <= 1:
                return f"exponent {report['alpha']} outside (0, 1]"
        return ""
    if kind == "compare":
        verdict = report["verdict"]
        if verdict != "undetermined" and not report["sampled"] and verdict != job.expect:
            return f"verdict {verdict}, expected {job.expect}"
        return ""
    if kind == "distortion":
        element, _, cap = job.args
        for entry in report["entries"]:
            true = ctx.lengths[(job.spec, f"{element}^{entry['power']}", REFERENCE_RADIUS)]
            exact, upper = entry["exact_length"], entry["upper_bound"]
            if exact is not None and exact != true:
                return f"|{element}^{entry['power']}| = {exact}, reference {true}"
            if exact is None and upper <= cap:
                return f"no exact length for {element}^{entry['power']} within the cap"
            if true != "exceeds radius" and upper < true:
                return f"upper bound {upper} below the length {true}"
        return ""
    return f"no check for {kind!r}"

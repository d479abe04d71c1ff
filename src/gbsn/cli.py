"""Command-line interface.

Commands: validate, presentation, holonomy, classify, compare, distortion,
compression; every command takes ``--format text|json``. Exit codes: 0 for
decided verdicts, 2 for undetermined ones, 1 for input errors. The JSON
reports are deterministic (sorted keys, exact rationals as strings) and
carry the certificate data needed to re-verify every decided verdict.

A JSON report is written by ``_json_text`` in one pass over the payload:
records, matrices, words and rationals become JSON values on the way, and
the text is exactly that of ``json.dumps(..., sort_keys=True, indent=2)``
on the converted payload (``tests/json_reference.py`` keeps that
conversion). The arguments after a command's name are read by that
command's parser alone; see ``_parse``. Each ``_cmd_*`` returns its
payload, its text lines and its exit code, and ``run`` prints the report.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

from . import britton, gog, gogfile
from .classify import _tri, analysis, classify, compression_report, qi_compare
from .linalg import ProjInterval, ProjPoint, QMat, QuadraticNumber, slope_text
from .record import Record
from .words import Word, parse_word


def _json_text(obj) -> str:
    """The text of ``json.dumps(x, sort_keys=True, indent=2)``, where x is
    ``obj`` with each value json cannot write made one it can, as ``_CHAIN``
    lists. Written in one pass, since ``indent`` keeps json's C encoder out."""
    out = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj, out, nl):
    # nl is the newline and indent of obj's level
    writer = _WRITERS.get(type(obj))
    if writer is None:
        # that of the first class in _CHAIN that obj is an instance of, kept for its type
        writer = _WRITERS[type(obj)] = next((w for cls, w in _CHAIN if isinstance(obj, cls)),
                                            _write_str)
    writer(obj, out, nl)


def _write_str(obj, out, nl):
    out.append(_quote(str(obj)))


def _write_float(obj, out, nl):
    if isfinite(obj):
        out.append(float.__repr__(obj))
    else:
        out.append("NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")


def _write_dict(obj, out, nl):
    if not obj:
        out.append("{}")
        return
    inner, sep = nl + "  ", "{"
    for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
        out += (sep, inner, _quote(key), ": ")
        _write(value, out, inner)
        sep = ","
    out.append(nl + "}")


def _write_list(obj, out, nl):
    if not obj:
        out.append("[]")
        return
    inner, sep = nl + "  ", "["
    for value in obj:
        out += (sep, inner)
        _write(value, out, inner)
        sep = ","
    out.append(nl + "]")


# each class and how its instances are written: a Fraction, Word or unknown
# object as its str, a record as its fields plus "type", its class name (which
# a field of that name overrides). The first class an object is an instance of
# wins, so bool comes before int and the stated certificate records before Record.
_CHAIN = (
    (type(None), lambda obj, out, nl: out.append("null")),
    (bool, lambda obj, out, nl: out.append("true" if obj else "false")),
    (int, lambda obj, out, nl: out.append(int.__repr__(obj))),
    (str, lambda obj, out, nl: out.append(_quote(obj))),
    (float, _write_float),
    (Fraction, _write_str),
    (QuadraticNumber,
     lambda q, out, nl: _write_dict({"a": str(q.a), "b": str(q.b), "d": q.d}, out, nl)),
    (QMat, lambda m, out, nl: _write_list([[str(x) for x in row] for row in m.rows], out, nl)),
    (Word, _write_str),
    (ProjPoint, lambda p, out, nl: _write_dict({"x": p.x, "y": p.y}, out, nl)),
    (ProjInterval,
     lambda i, out, nl: _write_dict({"lo": slope_text(i.lo), "hi": slope_text(i.hi)}, out, nl)),
    (Record, lambda r, out, nl: _write_dict(
        {"type": type(r).__name__, **{n: getattr(r, n) for n in r._fields}}, out, nl)),
    (dict, _write_dict),
    ((list, tuple, set, frozenset), _write_list),
)
_WRITERS = {}  # type -> its writer from _CHAIN, filled on first use


def _load_spec(path: str) -> gog.GoGSpec:
    """The spec in the file at ``path``. The file is read on every call;
    each distinct text is parsed once per process (``_spec_of``), and each
    spec gets one ``Analysis`` per process (``classify.analysis``). So an
    unchanged file is not parsed or analysed again, and an edited one is.
    Both caches grow with the number of distinct spec texts a process
    reads."""
    with open(path, "r", encoding="utf-8") as fh:
        return _spec_of(fh.read())


@functools.lru_cache(maxsize=None)
def _spec_of(text: str) -> gog.GoGSpec:
    # a syntax error or an invalid spec raises on every call: lru_cache keeps no exception
    return gogfile.parse(text).to_spec()


def _cmd_validate(args) -> tuple:
    problems = []
    try:
        _load_spec(args.file)
    except gog.InvalidSpecError as exc:
        problems = exc.problems
    payload = {"command": "validate", "file": args.file, "ok": not problems, "violations": problems}
    lines = ["OK"] if not problems else [f"violation: {p}" for p in problems]
    return payload, lines, 0 if not problems else 1


def _cmd_presentation(args) -> tuple:
    spec = _load_spec(args.file)
    pres = gog.presentation(spec)
    payload = {
        "command": "presentation",
        "generators": pres.generators,
        "relators": pres.relators,
        "relations": pres.relations,
    }
    return payload, [str(pres)], 0


def _cmd_holonomy(args) -> tuple:
    hd = analysis(_load_spec(args.file)).holonomy
    payload = {
        "command": "holonomy",
        "base_vertex": hd.base_vertex,
        "vertex_letters": sorted(hd.vertex_letter_names),
        "stable": hd.stable,
    }
    lines = [f"base vertex: {hd.base_vertex}"]
    lines.append("vertex letters map to the identity")
    for name, m in hd.stable.items():
        rows = "; ".join(", ".join(str(x) for x in row) for row in m.rows)
        lines.append(f"hol({name}) = [{rows}]")
    return payload, lines, 0


def _cmd_classify(args) -> tuple:
    spec = _load_spec(args.file)
    report = classify(spec)
    payload = {
        "command": "classify",
        "file": args.file,
        "ends": report.ends,
        "amenable": _tri(report.amenable),
        "amenable_reason": report.amenable_reason,
        "whyte_case": report.whyte_case,
        "haagerup": _tri(report.haagerup),
        "weakly_amenable": _tri(report.weakly_amenable),
        "cowling_haagerup": report.cowling_haagerup,
        "evidence": report.evidence,
    }
    lines = [f"ends: {report.ends}"]
    lines.append(f"amenable: {_tri(report.amenable)} ({report.amenable_reason})")
    for ev in report.evidence:
        lines.append(f"evidence [{ev.label}]: {ev.detail}")
    lcb = "Λ_cb = 1" if report.cowling_haagerup == "1" else (
        "Λ_cb = ∞ (not weakly amenable)"
        if report.cowling_haagerup == "not-weakly-amenable"
        else "Λ_cb undetermined"
    )
    lines.append(
        f"Whyte case: {report.whyte_case}; Haagerup: {_tri(report.haagerup)}; "
        f"weakly amenable: {_tri(report.weakly_amenable)}; {lcb}"
    )
    return payload, lines, 0 if report.decided() else 2


def _cmd_compare(args) -> tuple:
    spec_a = _load_spec(args.file1)
    spec_b = _load_spec(args.file2)
    verdict = qi_compare(spec_a, spec_b)
    payload = {
        "command": "compare",
        "files": [args.file1, args.file2],
        "verdict": verdict.verdict,
        # kept for readers of the report format: no verdict rests on sampling
        "sampled": False,
        "reasons": verdict.reasons,
        "evidence": verdict.evidence,
    }
    lines = list(verdict.reasons) + [verdict.verdict]
    return payload, lines, 0 if verdict.verdict != "undetermined" else 2


def _cmd_distortion(args) -> tuple:
    spec = _load_spec(args.file)
    element = parse_word(args.element)
    if args.max_power < 1 or args.bfs_cap < 0:
        raise ValueError("--max-power must be >= 1 and --bfs-cap >= 0")
    profile = britton.distortion_profile(
        spec, element, range(1, args.max_power + 1), bfs_cap=args.bfs_cap
    )
    payload = {
        "command": "distortion",
        "element": element,
        "note": profile.note,
        "max_ratio": profile.max_ratio,
        "analytic_constant": profile.analytic_constant,
        "entries": profile.entries,
    }
    lines = [f"element: {element}; {profile.note}"]
    lines.append("power  upper  exact  ratio/log")
    for e in profile.entries:
        exact = "-" if e.exact_length is None else str(e.exact_length)
        ratio = "-" if e.ratio_to_log is None else f"{e.ratio_to_log:.3f}"
        lines.append(f"{e.power:5d}  {e.upper_bound:5d}  {exact:>5}  {ratio:>9}")
    if profile.max_ratio is not None:
        lines.append(f"max ratio over the window: {profile.max_ratio:.3f} (limsup estimate)")
    lines.append(
        "analytic lower bound: |m v| >= log(m)/log(%.3g), labeled analytic"
        % profile.analytic_constant
    )
    return payload, lines, 0


def _cmd_compression(args) -> tuple:
    spec = _load_spec(args.file)
    try:
        p = Fraction(args.p)
    except ZeroDivisionError:
        raise ValueError(f"p = {args.p} has a zero denominator") from None
    report = compression_report(spec, p)
    payload = {
        "command": "compression",
        "p": report.p,
        "alpha_kind": report.alpha_kind,
        "alpha": report.alpha,
        "checklist": report.checklist,
        "detail": report.detail,
    }
    lines = []
    for key, value in report.checklist:
        lines.append(f"condition [{key}]: {value}")
    if report.alpha_kind == "undetermined":
        lines.append(f"α_{report.p} undetermined" + (f" ({report.detail})" if report.detail else ""))
    else:
        lines.append(f"α_{report.p} = {report.alpha}")
    return payload, lines, 0 if report.alpha_kind != "undetermined" else 2


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="gbsn",
        description="Analyze generalized Baumslag-Solitar groups given as graphs of Z^n-groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("validate", _cmd_validate, "check a .gog file")
    p.add_argument("file")
    p = add("presentation", _cmd_presentation, "print the group presentation")
    p.add_argument("file")
    p = add("holonomy", _cmd_holonomy, "print the holonomy matrices")
    p.add_argument("file")
    p = add("classify", _cmd_classify, "quasi-isometry class and analytic properties")
    p.add_argument("file")
    p = add("compare", _cmd_compare, "compare two groups up to quasi-isometry")
    p.add_argument("file1")
    p.add_argument("file2")
    p = add("distortion", _cmd_distortion, "distortion profile of a vertex element")
    p.add_argument("file")
    p.add_argument("--element", required=True, help="vertex letter, e.g. a")
    p.add_argument("--max-power", type=int, default=64)
    p.add_argument("--bfs-cap", type=int, default=15, help="exact BFS length budget")
    p = add("compression", _cmd_compression, "equivariant Lp-compression exponent")
    p.add_argument("file")
    p.add_argument("--p", required=True, help="exponent p >= 1 (rational, e.g. 3/2)")
    parser.commands = sub.choices  # each command's name and parser, for _parse
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``. When ``argv[0]`` names a command,
    its own parser reads the rest, which the tree would hand it anyway; the
    tree parses again only when that leaves arguments over, and reports them."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        payload, lines, code = args.func(args)
        print(_json_text(payload) if args.format == "json" else "\n".join(lines))
        return code
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

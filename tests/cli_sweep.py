"""Byte-identity sweep of the CLI: every report of a fixed set of runs.

A refactor that must leave the output alone is checked by running this
script in both checkouts and comparing the two outputs byte for byte:

    python tests/cli_sweep.py > after.txt
    (in the other checkout, with this file copied to tests/)
    python tests/cli_sweep.py > before.txt
    cmp before.txt after.txt

Each run calls ``gbsn.cli.run`` in-process, with the ``gbsn`` of the checkout
the script sits in, and prints its arguments, exit code, stdout and stderr.
The specs are ``data/*.gog``, ``tests/specs/*.gog`` and every distinct spec
that ``perfbench.specgen.generate`` builds for the three workloads at seeds
1-3 (imported only). They are copied into a temporary directory and named
by relative paths, so no report depends on where the checkout lies.

The runs, per spec: validate, presentation, holonomy, classify and
compression (``--p 3/2`` and ``3``), each in JSON and in text; compare on
every ordered pair of distinct parsed specs of the same rank, and on every
ordered pair of ``data/`` and ``tests/specs/`` specs of different ranks, in
JSON; and, on one-vertex specs, distortion in JSON with ``--max-power 200``
and ``--bfs-cap`` 0, 6 and 10, for each vertex letter, the products x y^-1
of up to three pairs of letters, and the cube of the first letter. Then
holonomy, classify and compression ``--p 3/2`` in JSON on each spec of
``certificate_family``, 40 one-loop specs whose irrational certificates are
stated over a radicand with a square factor or with a denominator; and
classify and compression ``--p 3/2`` in JSON on each spec of
``free_pair_family``, 40 one-vertex specs with two or three loops built to
carry a ping-pong free pair, and on each spec of ``outside_rank2_family``,
10 specs of rank 1 and 3 and trees of groups, which reach the rank-n word
ball and the collapse of a tree of groups. The compare and distortion runs
are picked from the parsed documents, so the invalid specs get them too and
exercise the error path. That is 6,624 runs over 188 spec files.

The word problem has no CLI command, so a last section calls its API: for
each of the 504 word_problem jobs of ``perfbench.specgen.generate`` at seeds
1-3, the ``britton_reduce`` form and the ``is_identity`` answer of each of
its words, and the forms of the ``nf_multiply`` chain through them. A
geodesics section then prints ``geodesic_length``'s answer for each of the
141 geodesic jobs of ``generate`` at seeds 1-3, in job order, in the same
process, so each query meets the oracle store as earlier queries left it.
The whole sweep takes under three minutes on a 2-core x86 VM.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, product
from math import gcd, isqrt
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gbsn import gogfile  # noqa: E402
from gbsn.britton import britton_reduce, geodesic_length, is_identity, nf_multiply  # noqa: E402
from gbsn.cli import run  # noqa: E402
from gbsn.gog import vertex_letters  # noqa: E402
from gbsn.words import Word, parse_word  # noqa: E402
from perfbench.specgen import WORKLOADS, generate  # noqa: E402

SEEDS = (1, 2, 3)
SPEC_COMMANDS = (
    ["validate"],
    ["presentation"],
    ["holonomy"],
    ["classify"],
    ["compression", "--p", "3/2"],
    ["compression", "--p", "3"],
)
BFS_CAPS = ("0", "6", "10")
FAMILY_COMMANDS = (["holonomy"], ["classify"], ["compression", "--p", "3/2"])
FREE_PAIR_COMMANDS = (["classify"], ["compression", "--p", "3/2"])
IDENTITY = ((1, 0), (0, 1))
DOUBLING = ((2, 0), (0, 1))
HYPERBOLIC = (
    ((2, 1), (1, 1)), ((1, 1), (1, 2)), ((3, 1), (2, 1)),
    ((1, 2), (1, 3)), ((2, 3), (1, 2)), ((3, 2), (1, 1)),
)


def spec_texts() -> dict:
    """{relative path: text}, one path per distinct text, in a fixed order."""
    texts = {}
    for folder, target in ((ROOT / "data", "data"), (ROOT / "tests" / "specs", "specs")):
        for path in sorted(folder.glob("*.gog")):
            texts[f"{target}/{path.name}"] = path.read_text()
    for workload in WORKLOADS:
        for seed in SEEDS:
            specs, _ = generate(workload, seed)
            for spec in specs:
                texts[f"gen/{workload}-{seed}-{spec.name}.gog"] = spec.text()
    seen, distinct = set(), {}
    for path, text in texts.items():
        if text not in seen:
            seen.add(text)
            distinct[path] = text
    return distinct


def certificate_family(size: int = 40) -> dict:
    """{relative path: text} for the first ``size`` one-loop rank-2 specs,
    in lexicographic order of (omega, alpha), with alpha I or diag(2, 1) and
    omega entries in -2..2, det omega != 0, whose holonomy omega alpha^-1
    would state an irrational point through a square factor or a
    denominator: the discriminant D of its integer numerator is not a
    square, and D has a square factor > 1 or the holonomy is not integral.
    Selected by integer arithmetic alone."""
    family = {}
    for (a, b, c, d), k in product(product(range(-2, 3), repeat=4), (1, 2)):
        if a * d == b * c:
            continue
        # omega diag(1/k, 1) = [[a, k b], [c, k d]] / k, in lowest terms
        g = gcd(k, a, c)
        n, den = ((a // g, k * b // g), (c // g, k * d // g)), k // g
        disc = (n[0][0] - n[1][1]) ** 2 + 4 * n[0][1] * n[1][0]
        if disc >= 0 and isqrt(disc) ** 2 == disc:
            continue
        if den == 1 and not any(disc % (f * f) == 0 for f in range(2, isqrt(abs(disc)) + 1)):
            continue
        family[f"family/cert-{len(family):02d}.gog"] = (
            f"rank 2\nvertex X\nedge t: X -> X alpha [[{k},0],[0,1]] "
            f"omega [[{a},{b}],[{c},{d}]]\n"
        )
        if len(family) == size:
            break
    return family


def _loops_spec(loops) -> str:
    """A one-vertex rank-2 spec with one loop per (alpha, omega)."""
    def mat(m):
        return "[" + ",".join(f"[{a},{b}]" for a, b in m) + "]"

    edges = "".join(
        f"edge t{i}: X -> X alpha {mat(alpha)} omega {mat(omega)}\n"
        for i, (alpha, omega) in enumerate(loops)
    )
    return f"rank 2\nvertex X\n{edges}"


def free_pair_family() -> dict:
    """{relative path: text} for 40 one-vertex rank-2 specs built to carry a
    ping-pong free pair, fixed by construction: the Sanov-type shears
    [[1, k], [0, 1]] and [[1, 0], [l, 1]] for k, l in 2..4 (9 specs); the 15
    pairs and 4 triples of the unimodular hyperbolic loops ``HYPERBOLIC``;
    4 pairs with a loop of det -1; and 8 pairs with a loop of alpha
    diag(2, 1), whose holonomy has denominator 2."""
    shear = {k: (((1, k), (0, 1)), ((1, 0), (k, 1))) for k in (2, 3, 4)}
    sets = [(shear[k][0], shear[l][1]) for k in (2, 3, 4) for l in (2, 3, 4)]
    sets += combinations(HYPERBOLIC, 2)
    sets += list(combinations(HYPERBOLIC, 3))[::5]
    flips = (((1, 1), (1, 0)), ((0, 1), (1, 1)), ((2, 1), (1, 0)), ((1, 2), (0, -1)))
    loops = [[(IDENTITY, omega) for omega in s] for s in sets]
    loops += [[(IDENTITY, f), (IDENTITY, h)] for f, h in zip(flips, HYPERBOLIC)]
    loops += [[(DOUBLING, h), (IDENTITY, shear[2][i % 2])] for i, h in enumerate(HYPERBOLIC[:4])]
    loops += [[(DOUBLING, h), (DOUBLING, g)] for h, g in combinations(HYPERBOLIC[:4], 2)][:4]
    return {f"freepair/fp-{i:02d}.gog": _loops_spec(spec) for i, spec in enumerate(loops)}


def _spec(rank: int, vertices: str, edges) -> str:
    """A spec of the given rank with one edge line per (name, src, dst,
    alpha, omega); a rank-1 matrix is its entry, a rank-3 one its rows."""
    def mat(m):
        return f"[[{m}]]" if rank == 1 else "[" + ",".join(
            "[" + ",".join(map(str, row)) + "]" for row in m) + "]"

    lines = [f"rank {rank}", *(f"vertex {v}" for v in vertices.split())]
    lines += [f"edge {name}: {src} -> {dst} alpha {mat(a)} omega {mat(o)}"
              for name, src, dst, a, o in edges]
    return "\n".join(lines) + "\n"


def outside_rank2_family() -> dict:
    """{relative path: text} for 10 specs off the rank-2 paths: the relation
    specs ``tests/specs/rank1_relation.gog`` and ``rank3_relation.gog``;
    three rank-1 and three rank-3 one-vertex specs with several loops,
    whose 2a relation search grows a word ball of rank 1 or 3 (the last
    rank-3 spec has a holonomy with denominator 2, so it is no 2a candidate
    and its non-discreteness witness grows the rank-3 ball instead); and
    two rank-1 trees of groups, one that collapses to a point and one that
    does not."""
    i3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    e12, e23 = ((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    cat = ((2, 1, 0), (1, 1, 0), (0, 0, 1))
    perm = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    flip = ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
    double = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    family = {
        f"outside/{name}.gog": (ROOT / "tests" / "specs" / f"{name}.gog").read_text()
        for name in ("rank1_relation", "rank3_relation")
    }
    loops = [
        (1, [(1, -1), (1, -1), (1, 1)]),
        (1, [(-1, 1), (1, 1)]),
        (1, [(-1, -1), (1, -1), (-1, 1)]),
        (3, [(i3, e12), (i3, e23)]),
        (3, [(i3, cat), (i3, perm), (i3, flip)]),
        (3, [(double, i3), (i3, e12), (i3, perm)]),
    ]
    for k, (rank, ends) in enumerate(loops):
        edges = [(f"t{j}", "X", "X", a, o) for j, (a, o) in enumerate(ends)]
        family[f"outside/loops-{k}.gog"] = _spec(rank, "X", edges)
    # each collapse absorbs a vertex that the other edge ends at
    family["outside/tree-point.gog"] = _spec(
        1, "X Y Z", [("e", "X", "Y", 1, 2), ("f", "X", "Z", 1, 1)])
    family["outside/tree-infinite.gog"] = _spec(
        1, "X Y Z", [("e", "X", "Y", 2, 3), ("f", "Z", "Y", 2, 1)])
    return family


def elements(letters: tuple) -> list:
    pairs = [f"{x} {y}^-1" for x, y in combinations(letters, 2)][:3]
    return [*letters, *pairs, f"{letters[0]}^3"]


def letters(doc) -> tuple:
    """The letters of the first vertex of ``doc``, as ``gog.vertex_letters``
    names them; it reads only the rank, the vertices and the edge names, so
    a document that describes no valid spec gets them too."""
    edges = [SimpleNamespace(name=name) for name, *_ in doc.edges]
    spec = SimpleNamespace(rank=doc.rank, vertices=doc.vertices, edges=edges)
    return vertex_letters(spec)[doc.vertices[0]]


def runs(texts: dict):
    parsed = {}
    for path, text in texts.items():
        try:
            parsed[path] = gogfile.parse(text)
        except gogfile.GoGParseError:
            pass
    for path in texts:
        for command in SPEC_COMMANDS:
            for fmt in ("json", "text"):
                yield [command[0], path, *command[1:], "--format", fmt]
    fixed = ("data/", "specs/")
    for first, second in ((a, b) for a in parsed for b in parsed if a != b):
        if parsed[first].rank == parsed[second].rank or (
                first.startswith(fixed) and second.startswith(fixed)):
            yield ["compare", first, second, "--format", "json"]
    for path, doc in parsed.items():
        if len(doc.vertices) != 1:
            continue
        for element in elements(letters(doc)):
            for cap in BFS_CAPS:
                yield ["distortion", path, "--element", element, "--max-power", "200",
                       "--bfs-cap", cap, "--format", "json"]


def family_runs(family: dict, commands: tuple):
    for path in family:
        for command in commands:
            yield [command[0], path, *command[1:], "--format", "json"]


def word_problem_lines():
    """Lines for every word_problem job of ``generate`` at ``SEEDS``: per
    word of its arguments, the ``britton_reduce`` form and ``is_identity``,
    then the forms of the ``nf_multiply`` chain from the identity through
    those words in order. No CLI command reaches these calls."""
    for seed in SEEDS:
        specs, jobs = generate("word_problem", seed)
        parsed = {spec.name: gogfile.parse(spec.text()).to_spec() for spec in specs}
        for k, job in enumerate(jobs):
            spec = parsed[job.spec]
            words = [Word(letters) for letters in job.args]
            yield f"$ word_problem {seed} {k} {job.kind} {job.spec}\n"
            for i, w in enumerate(words):
                yield f"word {i}: {len(w.letters)} runs, {britton_reduce(spec, w)}, {is_identity(spec, w)}\n"
            nf = britton_reduce(spec, Word())
            for w in words:
                nf = nf_multiply(spec, nf, w)
                yield f"chain: {nf}\n"


def geodesic_lines():
    """Lines for every geodesic job of ``generate`` at ``SEEDS``, in job
    order: its spec, target and radius, and ``geodesic_length``'s answer.
    The jobs run in this one process, after the CLI runs, so a query reuses
    any ball that the process-wide store kept from earlier ones, and one
    whose ball grows goes through the store's eviction check. No CLI
    command reaches ``geodesic_length``."""
    for seed in SEEDS:
        specs, jobs = generate("geodesics", seed)
        parsed = {spec.name: gogfile.parse(spec.text()).to_spec() for spec in specs}
        for k, job in enumerate(jobs):
            if job.kind == "geodesic":
                target, radius = job.args
                answer = geodesic_length(parsed[job.spec], parse_word(target), radius)
                yield f"$ geodesic {seed} {k} {job.spec} {target} radius {radius}: {answer}\n"


def main() -> None:
    texts, family, pairs = spec_texts(), certificate_family(), free_pair_family()
    outside = outside_rank2_family()
    out = sys.stdout
    with tempfile.TemporaryDirectory() as tmp:
        for path, text in {**texts, **family, **pairs, **outside}.items():
            target = Path(tmp, path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in (*runs(texts), *family_runs(family, FAMILY_COMMANDS),
                         *family_runs(pairs, FREE_PAIR_COMMANDS),
                         *family_runs(outside, FREE_PAIR_COMMANDS)):
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = run(argv)
                out.write(f"$ gbsn {' '.join(argv)}\nexit {code}\n")
                out.write(f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")
        finally:
            os.chdir(cwd)
    out.writelines(word_problem_lines())
    out.writelines(geodesic_lines())


if __name__ == "__main__":
    main()

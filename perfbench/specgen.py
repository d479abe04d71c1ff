"""Seeded inputs for the three workloads: .gog specs, words and job lists.

Nothing here imports gbsn, so the inputs and their expected answers do not
depend on the code under measurement. One seed gives byte-identical spec
texts, words and job lists.

Every spec family carries the answers that follow from its construction
(``None`` means "not asserted"):

* BS(1,n) and diag(1,n) ascending loops: amenable, case 2b, Haagerup.
* two or more loops (underlying graph of rank >= 2): not amenable.
* rank-1 holonomy is abelian, so its closure is amenable: Haagerup.
* shear plus quarter-turn holonomy contains a free subgroup (all of
  SL_2(Z) when the shear is elementary): no Haagerup.
* an integral Sanov pair with unimodular inclusions gives Z^2 x| F_2:
  case 2a, no Haagerup.
* diagonal plus shear holonomy is triangular: Haagerup; with a proper
  diagonal inclusion its image is non-discrete: case 2c.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .reference import affine_image

Matrix = tuple  # tuple of integer rows
Letters = tuple  # ((name, exponent), ...), not necessarily freely reduced

P_CHOICES = ("1", "3/2", "2", "3")


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def diag(*entries: int) -> Matrix:
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def _render(m: Matrix) -> str:
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in m) + "]"


@dataclass(frozen=True)
class Spec:
    """A graph of Z^n-groups with the answers its construction implies."""

    name: str
    rank: int
    vertices: tuple
    edges: tuple  # ((name, src, dst, alpha, omega), ...); tree edges first
    amenable: bool | None = None
    haagerup: bool | None = None
    whyte: str | None = None
    note: str = field(default="", compare=False)
    tree: tuple = ()

    def text(self) -> str:
        lines = [f"# {self.note}"] if self.note else []
        lines.append(f"rank {self.rank}")
        lines += [f"vertex {v}" for v in self.vertices]
        for name, src, dst, alpha, omega in self.edges:
            lines.append(
                f"edge {name}: {src} -> {dst} alpha {_render(alpha)} omega {_render(omega)}"
            )
        if self.tree:
            lines.append("tree " + " ".join(self.tree))
        return "\n".join(lines) + "\n"

    def loops(self) -> tuple:
        return tuple(e for e in self.edges if e[0] not in self.tree)

    def vertex_letters(self) -> tuple:
        """Generators of the first vertex group: a, b, c, ... minus edge names,
        the naming rule of the .gog format."""
        taken = {e[0] for e in self.edges}
        free = [ch for ch in "abcdefghijklmnopqrstuvwxyz" if ch not in taken]
        return tuple(free[: self.rank])

    def holonomy(self) -> dict:
        """omega * alpha^-1 for every loop, as rows of Fractions.

        Valid because every tree edge built here has alpha == omega, so the
        transport along the spanning tree is the identity.
        """
        assert all(alpha == omega for name, _, _, alpha, omega in self.edges if name in self.tree)
        return {name: _mul(omega, _inverse(alpha)) for name, _, _, alpha, omega in self.loops()}


def _inverse(m: Matrix) -> tuple:
    n = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if work[r][c] != 0)
        work[c], work[pivot] = work[pivot], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return tuple(tuple(row[n:]) for row in work)


def _mul(a, b) -> tuple:
    n = len(a)
    return tuple(
        tuple(sum(Fraction(a[i][k]) * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


# ---------------------------------------------------------------- fixed specs
# The four sample groups of data/*.gog, restated so that expected answers sit
# next to their matrices (a benchmark test checks they match the data files).

SPEC_A = Spec(
    "specA", 2, ("X",),
    (("h", "X", "X", diag(1, 2), diag(2, 1)), ("p", "X", "X", identity(2), ((1, 1), (0, 1)))),
    amenable=False, haagerup=True, whyte="2c", note="data/specA.gog",
)
SPEC_B = Spec(
    "specB", 2, ("X",),
    SPEC_A.edges + (("e", "X", "X", identity(2), ((0, 1), (-1, 0))),),
    amenable=False, haagerup=False, whyte="2c", note="data/specB.gog",
)
BS12 = Spec(
    "bs12", 1, ("X",), (("t", "X", "X", ((1,),), ((2,),)),),
    amenable=True, haagerup=True, whyte="2b", note="data/bs12.gog",
)
ASCEND2 = Spec(
    "ascend2", 2, ("X",), (("t", "X", "X", identity(2), diag(1, 2)),),
    amenable=True, haagerup=True, whyte="2b", note="data/ascend2.gog",
)
DATA_SPECS = (SPEC_A, SPEC_B, BS12, ASCEND2)

# A singular inclusion: validate must reject it (exit 1).
INVALID_TEXT = "rank 2\nvertex X\nedge t: X -> X alpha [[1,0],[0,0]] omega [[1,0],[0,1]]\n"


# ------------------------------------------------------------ spec families

def bs1n(rng: random.Random, name: str) -> Spec:
    n = rng.randint(2, 100)
    ends = (((1,),), ((n,),))
    if rng.random() < 0.5:
        ends = ends[::-1]
    return Spec(name, 1, ("X",), (("t", "X", "X") + ends,), True, True, "2b", f"BS(1,{n})")


def diag_ascending(rng: random.Random, name: str, rank: int) -> Spec:
    n = rng.randint(2, 100)
    entries = [1] * rank
    entries[rng.randrange(rank)] = n
    ends = (identity(rank), diag(*entries))
    if rng.random() < 0.5:
        ends = ends[::-1]
    return Spec(name, rank, ("X",), (("t", "X", "X") + ends,), True, True, "2b",
                f"ascending diag{tuple(entries)}")


def multiloop_rank1(rng: random.Random, name: str, count: int, near_one: bool = False) -> Spec:
    """``count`` rank-1 loops with random inclusions. With ``near_one`` the
    first two are the pair of near_one_rank1, so the witness search ends at
    length 2 whatever the other loops are."""
    ends = [(rng.randint(1, 100), rng.randint(2, 100)) for _ in range(count)]
    if near_one:
        k = rng.randint(32, 99)
        ends[:2] = [(k, k + 1), (k - 1, k)]
    edges = tuple(
        (letter, "X", "X", ((a,),), ((o,),)) for letter, (a, o) in zip("stuv", ends)
    )
    return Spec(name, 1, ("X",), edges, False, True, None, f"{count} rank-1 loops")


def near_one_rank1(rng: random.Random, name: str) -> Spec:
    """Loops with holonomy (k+1)/k and k/(k-1): their quotient is within
    1/k^2 < 1/1000 of 1, so the image is non-discrete (case 2c)."""
    k = rng.randint(32, 99)
    edges = (
        ("s", "X", "X", ((k,),), ((k + 1,),)),
        ("u", "X", "X", ((k - 1,),), ((k,),)),
    )
    return Spec(name, 1, ("X",), edges, False, True, "2c", f"holonomy {k + 1}/{k} and {k}/{k - 1}")


def sanov(rng: random.Random, name: str) -> Spec:
    k = rng.randint(2, 100)
    edges = (
        ("s", "X", "X", identity(2), ((1, k), (0, 1))),
        ("u", "X", "X", identity(2), ((1, 0), (k, 1))),
    )
    return Spec(name, 2, ("X",), edges, False, False, "2a", f"Sanov pair, k = {k}")


def diag_shear(rng: random.Random, name: str) -> Spec:
    m, k = rng.randint(16, 100), rng.randint(1, 10)
    edges = (
        ("h", "X", "X", diag(1, m), diag(m, 1)),
        ("p", "X", "X", identity(2), ((1, k), (0, 1))),
    )
    return Spec(name, 2, ("X",), edges, False, True, "2c", f"diag({m},1/{m}) and shear {k}")


def shear_turn(rng: random.Random, name: str) -> Spec:
    return shear_turn_spec(name, rng.randint(4, 6), rng.randint(1, 3))


def shear_turn_spec(name: str, m: int, k: int) -> Spec:
    edges = (
        ("h", "X", "X", diag(1, m), diag(m, 1)),
        ("p", "X", "X", identity(2), ((1, k), (0, 1))),
        ("e", "X", "X", identity(2), ((0, 1), (-1, 0))),
    )
    return Spec(name, 2, ("X",), edges, False, False, "2c",
                f"diag({m},1/{m}), shear {k} and a quarter turn")


# Three loops with entries near 10^3: ping-pong factors discriminants of
# products of these matrices by trial division; classify does not finish in
# 15 s.
ADVERSARIAL = shear_turn_spec("adversarial", 1000, 1)

# Two fixed shear-and-turn specs whose classify takes 0.3 to 0.8 s. With the
# other jobs of that weight they put the tail percentile of a verdicts pass
# inside a group of jobs of similar cost, so that job_tail_s does not jump
# between groups from one seed to the next.
MID_SPECS = (shear_turn_spec("shearturn_m3", 3, 1), shear_turn_spec("shearturn_m4", 4, 10))


def rank3_two_loops(rng: random.Random, name: str) -> Spec:
    n, m = rng.randint(2, 100), rng.randint(2, 100)
    i, j = rng.sample(range(3), 2)
    e1, e2 = [1, 1, 1], [1, 1, 1]
    e1[i], e2[j] = n, m
    edges = (
        ("s", "X", "X", identity(3), diag(*e1)),
        ("u", "X", "X", diag(*e2), identity(3)),
    )
    return Spec(name, 3, ("X",), edges, False, True, None, "two diagonal rank-3 loops")


def two_vertex(rng: random.Random, name: str, rank: int) -> Spec:
    d = rng.randint(2, 10)
    inc = diag(*([d] + [1] * (rank - 1)))
    loop_x = diag(*([1] * (rank - 1) + [rng.randint(2, 100)]))
    loop_y = diag(*([rng.randint(2, 100)] + [1] * (rank - 1)))
    edges = (
        ("f", "X", "Y", inc, inc),
        ("s", "X", "X", identity(rank), loop_x),
        ("u", "Y", "Y", identity(rank), loop_y),
    )
    return Spec(name, rank, ("X", "Y"), edges, False, True, None,
                "two vertices, one loop at each", tree=("f",))


def bs1n_geodesic(rng: random.Random, name: str, rank: int) -> Spec:
    """BS(1,3) or Z x BS(1,3): balls at radius 8 of 2929 and 7821 states.

    n is fixed so that every seed queries balls of the same sizes; the seed
    picks the targets.
    """
    n = 3
    edge = ("t", "X", "X", identity(rank), diag(*([1] * (rank - 1) + [n])))
    return Spec(name, rank, ("X",), (edge,), True, True, "2b",
                ("" if rank == 1 else "Z x ") + f"BS(1,{n})")


def verdict_corpus(rng: random.Random) -> tuple:
    """Eighteen seeded specs: rank 1-3, 1-4 loops, one and two vertices."""
    return (
        bs1n(rng, "bs1n_0"),
        bs1n(rng, "bs1n_1"),
        bs1n(rng, "bs1n_2"),
        diag_ascending(rng, "ascending_0", 2),
        diag_ascending(rng, "ascending_1", 2),
        diag_ascending(rng, "ascending_2", 3),
        multiloop_rank1(rng, "multiloop_0", 3),
        multiloop_rank1(rng, "multiloop_1", 4, near_one=True),
        near_one_rank1(rng, "nearone_0"),
        near_one_rank1(rng, "nearone_1"),
        sanov(rng, "sanov_0"),
        sanov(rng, "sanov_1"),
        diag_shear(rng, "diagshear_0"),
        diag_shear(rng, "diagshear_1"),
        shear_turn(rng, "shearturn_0"),
        rank3_two_loops(rng, "rank3_0"),
        two_vertex(rng, "twovertex_0", 1),
        two_vertex(rng, "twovertex_1", 2),
    )


# ------------------------------------------------------------------- words

def inverse(word: Letters) -> Letters:
    return tuple((name, -exp) for name, exp in reversed(word))


def vector_word(letters: tuple, vec) -> Letters:
    return tuple((letters[i], c) for i, c in enumerate(vec) if c)


def relators(spec: Spec) -> tuple:
    """Defining relators of a one-vertex spec, from its matrices:
    [x_i, x_j] and t^-1 alpha(e_j) t omega(e_j)^-1 for every loop t."""
    assert len(spec.vertices) == 1
    xs = spec.vertex_letters()
    out = []
    for i in range(spec.rank):
        for j in range(i + 1, spec.rank):
            out.append(((xs[i], 1), (xs[j], 1), (xs[i], -1), (xs[j], -1)))
    for name, _, _, alpha, omega in spec.loops():
        for j in range(spec.rank):
            a_vec = [alpha[i][j] for i in range(spec.rank)]
            o_vec = [omega[i][j] for i in range(spec.rank)]
            out.append(
                ((name, -1),) + vector_word(xs, a_vec) + ((name, 1),)
                + inverse(vector_word(xs, o_vec))
            )
    return tuple(out)


def random_word(rng: random.Random, gens: tuple, length: int, max_exp: int = 2) -> Letters:
    return tuple(
        (rng.choice(gens), rng.choice((-1, 1)) * rng.randint(1, max_exp)) for _ in range(length)
    )


def identity_word(rng: random.Random, spec: Spec, count: int, conj_len: int,
                  long_runs: bool = False) -> Letters:
    """A product of ``count`` conjugated relators (or their inverses).

    Conjugators alternate stable and vertex letters, so reducing u r u^-1
    pinches all the way back. With ``long_runs`` each conjugator starts with
    a stable letter of alternating sign and then a vertex-letter run of
    exponent 99000 .. 10^5: the sign keeps the runs of neighbouring
    conjugators from merging, so every seed expands about the same number
    of letters.
    """
    xs = spec.vertex_letters()
    ts = tuple(e[0] for e in spec.loops())
    rels = relators(spec)
    word: list = []
    for i in range(count):
        u = []
        if long_runs:
            u.append((ts[0], (-1) ** i))
            u.append((rng.choice(xs), rng.choice((-1, 1)) * rng.randint(99_000, 100_000)))
        for j in range(conj_len):
            pool = ts if j % 2 == 0 else xs
            u.append((rng.choice(pool), rng.choice((-1, 1)) * (1 if j % 2 == 0 else rng.randint(1, 3))))
        r = rng.choice(rels)
        if rng.random() < 0.5:
            r = inverse(r)
        word += u
        word += r
        word += inverse(tuple(u))
    return tuple(word)


def nontrivial_insert(rng: random.Random, spec: Spec, word: Letters) -> Letters:
    """Insert c x c^-1 with x != 1 into an identity word, at a relator seam.

    x is a nonzero vertex vector (the vertex group embeds) or a stable
    letter (it survives in the free quotient that kills vertex groups).
    """
    xs = spec.vertex_letters()
    ts = tuple(e[0] for e in spec.loops())
    if rng.random() < 0.5:
        x = ((rng.choice(xs), rng.choice((-1, 1)) * rng.randint(1, 50)),)
    else:
        x = ((rng.choice(ts), rng.choice((-1, 1))),)
    c = random_word(rng, xs + ts, rng.randint(2, 8))
    cut = rng.randint(0, len(word))
    return word[:cut] + c + x + inverse(c) + word[cut:]


# -------------------------------------------------------------------- jobs

@dataclass(frozen=True)
class Job:
    """One closed-loop request: ``kind`` picks the runner in jobs.py."""

    kind: str
    spec: str  # Spec.name, or "" for jobs on an ad-hoc file
    args: tuple = ()
    expect: object = None
    heavy: bool = False  # costs 0.4 s or more at the seed commit: run in full passes only


# the classify jobs of the ε-witness search on specB, of the ping-pong
# search on the shear-and-turn specs and of the adversarial spec
HEAVY_CLASSIFY = frozenset(("specB", "shearturn_m3", "shearturn_m4", "adversarial"))


def verdicts_jobs(rng: random.Random) -> tuple:
    """Specs and the CLI job list of the ``verdicts`` workload."""
    corpus = verdict_corpus(rng)
    specs = DATA_SPECS + MID_SPECS + corpus + (ADVERSARIAL,)
    jobs = []
    for spec in specs:
        jobs.append(Job("validate", spec.name))
        jobs.append(Job("holonomy", spec.name))
        jobs.append(Job("classify", spec.name, heavy=spec.name in HEAVY_CLASSIFY))
        if spec is not ADVERSARIAL:
            jobs.append(Job("compression", spec.name, (rng.choice(P_CHOICES),)))
    by = {s.name: s for s in specs}
    pairs = [
        ("specA", "specB", "quasi-isometric"),
        ("ascend2", "specA", "not-quasi-isometric"),
        ("ascending_0", "sanov_0", "not-quasi-isometric"),
        ("diagshear_0", "specA", "quasi-isometric"),
        ("specA", "diagshear_1", "quasi-isometric"),
        ("sanov_1", "diagshear_1", "not-quasi-isometric"),
        ("bs1n_0", "multiloop_0", "not-quasi-isometric"),
        # rank-1 case 2c groups are all quasi-isometric to BS(2,3) (Whyte)
        ("nearone_0", "nearone_1", "quasi-isometric"),
    ]
    for first, second, verdict in pairs:
        assert by[first].rank == by[second].rank
        heavy = (first, second) == ("specA", "specB")
        jobs.append(Job("compare", first, (second,), verdict, heavy))
    jobs.append(Job("validate_invalid", "invalid"))
    rng.shuffle(jobs)
    return specs, tuple(jobs)


def word_problem_jobs(rng: random.Random) -> tuple:
    """Specs and jobs of the ``word_problem`` workload (one-vertex specs).

    Each spec gets ``WORD_SETS`` sets of words. The cost of a long-run word
    varies by about a quarter from one draw to the next, so a run needs many
    of them for its totals and tail to vary little between seeds.
    """
    specs = (
        SPEC_A, SPEC_B, BS12,
        bs1n(rng, "bs1n_w"),
        sanov(rng, "sanov_w"),
        diag_shear(rng, "diagshear_w"),
        rank3_two_loops(rng, "rank3_w"),
    )
    jobs = []
    for spec in specs * WORD_SETS:
        for long_runs in (False, False, True):
            count = 6 if long_runs else 40
            w = identity_word(rng, spec, count, 10, long_runs)
            jobs.append(Job("is_identity", spec.name, (w,), True))
            w = nontrivial_insert(rng, spec, identity_word(rng, spec, count, 10, long_runs))
            jobs.append(Job("is_identity", spec.name, (w,), False))
        base = nontrivial_insert(rng, spec, ())
        padded = base
        for _ in range(4):
            cut = rng.randint(0, len(padded))
            padded = padded[:cut] + identity_word(rng, spec, 3, 6) + padded[cut:]
        jobs.append(Job("reduce_pair", spec.name, (base, padded), False))
        target = rng.random() < 0.5
        w = identity_word(rng, spec, 24, 8)
        if not target:
            w = nontrivial_insert(rng, spec, w)
        chunk = 10
        chunks = tuple(w[i : i + chunk] for i in range(0, len(w), chunk))
        jobs.append(Job("nf_incremental", spec.name, chunks, target))
    rng.shuffle(jobs)
    return specs, tuple(jobs)


WORD_SETS = 3


# (spec, target, radius) -> (length, explicit spelling). The lengths were
# computed once with GeodesicOracle; each spelling has exactly that many
# letters, and a run checks that it reduces to the target before timing.
COMMITTED_GEODESICS = {
    ("specA", "a^4", 8): (4, "a^4"),
    ("specA", "a^12", 8): (7, "h^-2 a^3 h^2"),
    ("specA", "a^16", 8): (8, "h^-2 a^4 h^2"),
    ("specA", "b^8", 8): (6, "h b^4 h^-1"),
    ("specB", "a^6", 6): (5, "h^-1 a^3 h"),
    ("specB", "a^8", 6): (6, "h^-1 a^4 h"),
    ("specB", "b^8", 6): (6, "h b^4 h^-1"),
}


def geodesic_jobs(rng: random.Random) -> tuple:
    """Specs and jobs of the ``geodesics`` workload.

    The expected lengths are filled in by jobs.Context.prepare: from
    reference.py for the BS(1,n)-type specs, from COMMITTED_GEODESICS for
    specA and specB.
    """
    gen1 = bs1n_geodesic(rng, "bs1n_g", 1)
    gen2 = bs1n_geodesic(rng, "zbs1n_g", 2)
    specs = (SPEC_A, SPEC_B, BS12, ASCEND2, gen1, gen2)
    heavy = []
    for spec_name in ("specA", "specB"):
        keys = sorted(k for k in COMMITTED_GEODESICS if k[0] == spec_name)
        _, target, radius = rng.choice(keys)
        heavy.append(Job("geodesic", spec_name, (target, radius), heavy=True))
    jobs = []
    # Radius 8 stays inside the forward ball, so a query costs one ball build
    # whatever its target; radius 12 adds a backward search. Most jobs are
    # radius-8 bs12 queries, so job_p50_s is the per-query cost of a small
    # ball. The ten jobs above the cheapest ascend2 query are the other five,
    # the specA, specB and Z x BS(1,3) queries and the ascend2 and
    # Z x BS(1,3) distortion jobs, so job_tail_s is that query: the cheapest of
    # six equal jobs, about twice the next cheaper job.
    plan = ((BS12, 30, 4), (ASCEND2, 6, 0), (gen1, 4, 0), (gen2, 1, 0))
    for spec, at_8, at_12 in plan:
        gens = spec.vertex_letters() + ("t",)
        n = spec.loops()[0][4][-1][-1]  # omega = diag(1, .., 1, n)
        for q in range(at_8 + at_12):
            if q % 3 == 0:
                # a power of the letter that t rescales: log-distorted
                target = ((gens[-2], rng.randint(8, 3000)),)
            else:
                # a trivial target is answered before any ball is built, so
                # it would change the cost structure from seed to seed
                target = random_word(rng, gens, rng.randint(4, 14), 1)
                while affine_image(target, n, spec.rank) == (0, 1, 0):
                    target = random_word(rng, gens, rng.randint(4, 14), 1)
            radius = 8 if q < at_8 else 12
            jobs.append(Job("geodesic", spec.name, (_word_text(target), radius)))
        jobs.append(Job("distortion", spec.name, (spec.vertex_letters()[-1], 64, 12)))
    rng.shuffle(jobs)
    # the specA query first and then the specB one, before the others: the
    # peak memory of a pass depends on that order (about 180 MB this way,
    # 185 MB the other way), so it must not change with the seed
    return specs, tuple(heavy + jobs)


def _word_text(word: Letters) -> str:
    return " ".join(name if exp == 1 else f"{name}^{exp}" for name, exp in word) or "1"


WORKLOADS = {
    "verdicts": verdicts_jobs,
    "word_problem": word_problem_jobs,
    "geodesics": geodesic_jobs,
}


def generate(workload: str, seed: int) -> tuple:
    """(specs, jobs) for a workload; deterministic in ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

"""Top-level verdicts: quasi-isometry subclass, analytic properties,
pairwise comparison, and equivariant Lp-compression exponents.

Every verdict reads one ``Analysis`` per spec per process (``analysis``),
whose stages are each computed at most once: the holonomy, and, on first
use, the Tits decision (``tits``) and the non-discreteness witness
(``witness``), both re-verified, and the closure shape (``closure``). The
spec was validated when it was built. Like ``britton._fast_ops``, the cache
grows with the number of distinct specs a process reads.

Each verdict is one function of a spec that reads its ``Analysis``:
``whyte_classify``, ``cv_properties``, ``coarse_density`` and
``compression_report`` (the CLI's ``holonomy`` command reads it too).
``classify`` calls the first two, and ``qi_compare`` calls ``classify`` and
``coarse_density``, by module global. The rules are functions of their own,
each returning what it decides with its reason or evidence: ``_amenability``
and ``_whyte_case`` for ``whyte_classify``, which builds its report once,
``_qi_rule`` for ``qi_compare`` and ``_compression_rule`` for
``compression_report``. ``_analytic`` states how one verdict decides the
three analytic properties.

The quasi-isometry trichotomy for groups whose tree has infinitely many
ends: (2a) semidirect products Z^n x| F with F a free subgroup of GL_n(Z) --
detected through unimodular inclusions and integral discrete holonomy; (2b)
virtually ascending HNN extensions -- exactly the amenable ones, detected in
the literal single-loop ascending form; (2c) everything else, a single
quasi-isometry class within a Hausdorff equivalence class of holonomy --
decided for nonamenable groups whose holonomy image carries an exact
non-discreteness certificate, re-verified before it is reported, and in rank
1 for every nonamenable group with a holonomy value of absolute value != 1
(Whyte 2001, Thm 0.1). The Haagerup property, weak amenability and the
Cowling-Haagerup constant are all decided by amenability of the closure of
the holonomy image, which for subgroups of GL_2(R) is equivalent to virtual
solvability; the equivalence of the four properties makes the reports
self-consistent by construction. Where the holonomy decision is out of reach
(rank >= 3), an amenable group still has all three properties.
``qi_compare`` decides two (2c) groups from the certificates their
classification reports carry, and never from sampled evidence.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

from .gog import GoGSpec, bass_serre_degrees, underlying_rank
from .holonomy import (
    WitnessResult,
    compute_holonomy,
    non_discreteness_witness,
    verify_nondiscreteness,
)
from .linalg import spectral_radius_gt_one, sublattice_index
from .matgroups import (
    ClosureDescription,
    TitsResult,
    WordBall,
    cartan_hausdorff_samples,
    closure_describe,
    verify_certificate,
    virtually_solvable,
)
from .record import Record, replace

Q = Fraction


class Evidence(Record, uncompared=("payload",)):
    label: str
    detail: str
    payload: object = None


class ClassificationReport(Record):
    ends: str
    amenable: Optional[bool]
    amenable_reason: str
    whyte_case: str  # '2a' | '2b' | '2c' | 'out-of-scope(ends)' | 'undetermined'
    haagerup: Optional[bool] = None
    weakly_amenable: Optional[bool] = None
    cowling_haagerup: str = "undetermined"  # '1' | 'not-weakly-amenable' | 'undetermined'
    evidence: tuple = ()

    def decided(self) -> bool:
        return self.whyte_case != "undetermined" and self.haagerup is not None


class AnalyticProperties(Record):
    """The Haagerup property, weak amenability and Lambda_cb of one group."""

    haagerup: Optional[bool]
    weakly_amenable: Optional[bool]
    cowling_haagerup: str  # '1' | 'not-weakly-amenable' | 'undetermined'
    evidence: tuple = ()


class Analysis:
    """The stages of one spec, each computed at most once: the holonomy on
    construction, and, on first use, the Tits decision on the holonomy image
    (``tits``), its non-discreteness witness (``witness``), each certificate
    re-verified, and the closure shape that the Tits decision gives
    (``closure``).

    Every stage hands ``matgroups`` the holonomy's ``stable`` dict as it is.
    There is one ``Analysis`` per spec per process, from ``analysis``, whose
    cache grows with the number of distinct specs, like ``britton._fast_ops``.
    It is shared between calls, so its stages are records that no caller
    changes (the ``stable`` dict included)."""

    def __init__(self, spec: GoGSpec):
        self.holonomy = compute_holonomy(spec)

    def moved_letters(self) -> list:
        """The stable letters whose holonomy has |det| != 1."""
        return [n for n, m in self.holonomy.stable.items() if abs(m.det()) != 1]

    @cached_property
    def tits(self) -> TitsResult:
        if not self.holonomy.stable:
            return TitsResult(True, None, "trivial holonomy image")
        result = virtually_solvable(self.holonomy.stable)
        cert = result.certificate
        if cert is not None and not verify_certificate(self.holonomy.stable, cert):
            raise AssertionError("certificate failed re-verification")
        return result

    @cached_property
    def witness(self) -> WitnessResult:
        witness = non_discreteness_witness(self.holonomy)
        if witness.kind in ("contraction", "dense") and not verify_nondiscreteness(
            self.holonomy, witness
        ):
            raise AssertionError("non-discreteness certificate failed re-verification")
        return witness

    @cached_property
    def closure(self) -> ClosureDescription:
        return closure_describe(self.holonomy.stable, self.tits)


@lru_cache(maxsize=None)
def analysis(spec: GoGSpec) -> Analysis:
    """The process-wide ``Analysis`` of ``spec``, keyed by the spec and its tree."""
    return Analysis(spec)


def _tri(value: Optional[bool]) -> str:
    return {True: "yes", False: "no", None: "undetermined"}[value]


def _certificate_detail(witness: WitnessResult) -> str:
    if witness.kind == "dense":
        return (
            "the absolute values of the holonomy generate a dense subgroup of the "
            "positive reals; re-verified exactly"
        )
    h, g = witness.contractor, witness.word
    return (
        f"the conjugates ({h})^-k {g} ({h})^k, k >= 1, are pairwise distinct and tend "
        f"to I: every nonzero entry (i, j) of {g} - I in an eigenbasis of {h} has "
        "|lambda_j| < |lambda_i|; re-verified exactly"
    )


def _amenability(spec: GoGSpec, rank: int) -> tuple[Optional[bool], str]:
    """Amenability of a group with infinitely many ends and ``rank`` >= 1
    stable letters, and why: free quotients in rank >= 2, and in rank 1 the
    ascending form, both inclusions proper, or undetermined."""
    if rank >= 2:
        return False, f"killing all vertex generators leaves a free group of rank {rank} >= 2"
    loop = spec.loop_edges()[0]
    ia, io = sublattice_index(loop.alpha), sublattice_index(loop.omega)
    if len(spec.vertices) == 1 and (ia == 1 or io == 1):
        return True, f"ascending HNN extension (edge indices {ia} and {io})"
    if ia >= 2 and io >= 2:
        return False, (
            f"HNN extension with both edge inclusions proper (indices {ia}, {io}) "
            "contains a free subgroup"
        )
    return None, "virtually-ascending detection beyond the single-loop form is not implemented"


def _short_relation(stable: dict):
    """A reduced stable-letter relation of length <= 6, or None: one exists
    exactly when two distinct reduced words of length <= 3 have the same image."""
    ball = WordBall(stable)
    for _ in ball.grow(3):
        pass
    return ball.relation()


def _whyte_case(spec: GoGSpec, stages: Analysis, amenable: Optional[bool]) -> tuple:
    """``(case, detail, payload, *certificates)`` by the first rule that
    applies to a group with infinitely many ends and a stable letter: its
    ``whyte-case`` evidence is ``detail`` and ``payload`` (none when
    ``detail`` is None), after the ``certificates``.

    The rank-1 2c rule is Whyte, "The large scale geometry of the higher
    Baumslag-Solitar groups" (GAFA 2001), Thm 0.1: a GBS_1 group whose tree
    has infinitely many ends is virtually F_m x Z, or BS(1,n), or
    quasi-isometric to BS(2,3). A stable letter with |hol| != 1 excludes the
    first, non-amenability the second, so such a group is (2c).
    """
    if amenable is None:
        return "undetermined", None, None
    if amenable:
        return "2b", "2b: virtually ascending HNN extensions are the amenable ones", None
    unimodular = all(sublattice_index(m) == 1 for e in spec.edges for m in (e.alpha, e.omega))
    relation = _short_relation(stages.holonomy.stable) if unimodular else None
    if unimodular and relation is None:
        return "2a", ("2a: unimodular inclusions, holonomy in GL_n(Z) (discrete), no "
                      "stable-letter relation up to length 6"), None
    if unimodular:
        detail = f"ambiguous 2a form: holonomy kills the stable-letter word {relation}"
        return "undetermined", detail, relation
    witness = stages.witness
    if witness.kind in ("contraction", "dense"):
        certificate = Evidence("non-discreteness-certificate", _certificate_detail(witness), witness)
        return "2c", "2c: nonamenable with non-discrete holonomy image", None, certificate
    if spec.rank == 1 and (moved := stages.moved_letters()):
        name, value = moved[0], stages.holonomy.stable[moved[0]].rows[0][0]
        image = Evidence("modular-image", f"|hol({name})| = {abs(value)} != 1: not virtually "
                         "F_m x Z", (name, value))
        return "2c", ("2c: nonamenable GBS_1 group, not virtually F_m x Z, hence quasi-isometric "
                      "to BS(2,3) (Whyte 2001, Thm 0.1)"), None, image
    if witness.kind == "discrete (integral)":
        return "undetermined", ("holonomy image is integral-discrete but inclusions are not "
                                "unimodular; the 2a form is not established"), None
    return "undetermined", ("no non-discreteness certificate: no contraction pair among the "
                            "stable letters and their inverses, and no dense rank-1 image"), None


def whyte_classify(spec: GoGSpec) -> ClassificationReport:
    """Ends, amenability (``_amenability``), and the quasi-isometry subclass
    (``_whyte_case``) of the group. A tree with finitely many ends, or with
    infinitely many and no stable letter (an amalgam), is out of scope."""
    stages = analysis(spec)
    local = bass_serre_degrees(spec)
    degrees = ", ".join(f"{v}: {d}" for v, d in sorted(local.degrees.items()))
    evidence = [Evidence("bass-serre-degrees", f"{degrees}; ends: {local.ends}", local)]
    rank = None
    if local.ends == "infinitely-many-ends":
        rank = underlying_rank(spec)
        evidence.append(Evidence("underlying-rank", f"#edges - #vertices + 1 = {rank}"))
    if not rank:
        scope = ("the trichotomy applies to trees with infinitely many ends" if rank is None
                 else "amalgams (no stable letters) are outside the decision scope")
        return ClassificationReport(local.ends, None, f"not decided: {scope}",
                                    "out-of-scope(ends)", evidence=tuple(evidence))
    amenable, reason = _amenability(spec, rank)
    evidence.append(Evidence("amenability", f"{_tri(amenable)}: {reason}"))
    case, detail, payload, *certificates = _whyte_case(spec, stages, amenable)
    evidence += certificates
    if detail is not None:
        evidence.append(Evidence("whyte-case", detail, payload))
    return ClassificationReport(local.ends, amenable, reason, case, evidence=tuple(evidence))


def cv_properties(spec: GoGSpec) -> AnalyticProperties:
    """Haagerup property, weak amenability and the Cowling-Haagerup constant.

    Decided together by virtual solvability of the holonomy image, which in
    rank 2 only is amenability of its closure (SO(3) is compact and has dense
    free subgroups); the certificate re-verifies exactly before it is reported.
    """
    result = analysis(spec).tits
    if result.certificate is not None:
        evidence = Evidence(
            f"tits-certificate ({result.certificate.kind})",
            result.detail + "; re-verified exactly",
            result.certificate,
        )
    else:
        evidence = Evidence("tits-alternative", result.detail)
    return _analytic(result.virtually_solvable, (evidence,))


def _analytic(verdict: Optional[bool], evidence: tuple) -> AnalyticProperties:
    """All three properties from one verdict: it is the Haagerup property
    and weak amenability, and Lambda_cb is 1 where it holds and infinite
    (not weakly amenable) where it fails."""
    cowling = {True: "1", False: "not-weakly-amenable", None: "undetermined"}[verdict]
    return AnalyticProperties(verdict, verdict, cowling, evidence)


def classify(spec: GoGSpec) -> ClassificationReport:
    """Combined report: Whyte subclass plus the holonomy-closure properties.

    An amenable group has the Haagerup property and is weakly amenable with
    Lambda_cb = 1, so amenability decides all three where the holonomy
    decision is undetermined.
    """
    w, c = whyte_classify(spec), cv_properties(spec)
    if w.amenable is True and c.haagerup is not True:
        if c.haagerup is False:
            raise AssertionError("an amenable group was reported without the Haagerup property")
        amenability = Evidence("amenability", "an amenable group has the Haagerup property "
                               "and is weakly amenable with Lambda_cb = 1")
        c = _analytic(True, c.evidence + (amenability,))
    return replace(w, haagerup=c.haagerup, weakly_amenable=c.weakly_amenable,
                   cowling_haagerup=c.cowling_haagerup, evidence=w.evidence + c.evidence)


class QIVerdict(Record):
    verdict: str  # 'quasi-isometric' | 'not-quasi-isometric' | 'undetermined'
    reasons: tuple
    evidence: tuple = ()


class CoarseDensityReport(Record):
    verdict: str  # 'coarsely-dense' | 'not-coarsely-dense' | 'undetermined'
    method: str
    detail: str = ""


def coarse_density(spec: GoGSpec) -> CoarseDensityReport:
    """Is the holonomy image of ``spec`` at finite Hausdorff distance from
    all of SL_2(R)? Decided in rank 2 by the first rule that applies.

    Both decided paths need |det| = 1 on every generator: determinants 2^k
    keep an image at infinite Hausdorff distance from SL_2(R).

    An image that is not virtually solvable is decided from the free pair of
    its Tits certificate and the contraction pair of its ``witness``: its
    closure then contains SL_2(R). Its part in SL_2(R) has index <= 2, so it
    is still non-discrete and not virtually solvable; let H be the closure
    of that part. H is a Lie group (Cartan's closed-subgroup theorem);
    H° != 1, because the image is not discrete; Lie(H°) is Ad-invariant
    under the image; the image is Zariski-dense in SL_2, because every
    proper algebraic subgroup of SL_2 is virtually solvable; sl_2 is
    irreducible under Ad, so Lie(H°) = sl_2 and H = SL_2(R). Without a
    contraction pair the image may be discrete, and it stays undetermined.

    A virtually solvable image is decided by its ``closure`` shape: a finite
    group is never coarsely dense; a triangularizable group is coarsely
    dense iff its closure has the {nontrivial diagonal value group} x
    {dense unipotent} shape (then it is cocompact in the upper triangular
    subgroup, itself cocompact in SL_2(R)); every other virtually solvable
    closure lies in a conjugate of the triangular subgroup or of a torus
    normalizer and is never cocompact.
    """
    if spec.rank != 2:
        return CoarseDensityReport("undetermined", "no-certificate",
                                   f"rank {spec.rank}: coarse density in SL_2(R) needs rank 2")
    stages = analysis(spec)
    if moved := stages.moved_letters():
        detail = f"|det| != 1 on {', '.join(moved)}, outside the SL_2(R)-closure argument"
        return CoarseDensityReport("undetermined", "no-certificate", detail)
    tits = stages.tits
    if tits.virtually_solvable is None:
        return CoarseDensityReport("undetermined", "no-certificate", tits.detail)
    if tits.virtually_solvable is False and stages.witness.kind == "contraction":
        pair, witness = tits.certificate, stages.witness
        return CoarseDensityReport(
            "coarsely-dense",
            "exact-sl2-closure",
            f"free pair ({pair.word_x}, {pair.word_y}) by ping-pong and contraction pair "
            f"({witness.contractor}, {witness.word}), both re-verified, with |det| = 1 on "
            "every generator: the closure of the image contains SL_2(R)",
        )
    if tits.virtually_solvable is False:
        return CoarseDensityReport("undetermined", "no-certificate", "not virtually solvable: "
                                   "density needs a non-discreteness certificate too")
    desc = stages.closure
    if (desc.status == "triangular" and desc.diag_kind != "trivial"
            and desc.unipotent_kind == "dense"):
        return CoarseDensityReport("coarsely-dense", "exact-closure-shape", "closure is cocompact "
                                   "in the upper triangular subgroup of SL_2(R)")
    return CoarseDensityReport("not-coarsely-dense", "exact-solvable-shape",
                               "solvable closure is not cocompact in SL_2(R)")


def _qi_rule(a: GoGSpec, b: GoGSpec, ra: ClassificationReport,
             rb: ClassificationReport) -> tuple[str, str, tuple]:
    """``(verdict, reason, evidence)`` of the specs ``a`` and ``b``,
    classified as ``ra`` and ``rb``, by the first rule of ``qi_compare``
    that applies. Amenability decides a pair of any ranks; every later rule
    is stated for one lattice rank, so a cross-rank pair that amenability
    does not separate is undetermined."""
    if ra.amenable is not None and rb.amenable is not None and ra.amenable != rb.amenable:
        return "not-quasi-isometric", "amenability is a quasi-isometry invariant and differs", ()
    if a.rank != b.rank:
        return "undetermined", (f"lattice ranks {a.rank} and {b.rank} differ; no rule beyond "
                                "amenability compares across ranks"), ()
    cases = {ra.whyte_case, rb.whyte_case}
    if cases <= {"2a", "2b", "2c"} and len(cases) == 2:
        return "not-quasi-isometric", "the subclasses are quasi-isometry invariant and differ", ()
    if cases == {"2c"} and a.rank == 1:
        certs = tuple(ev for r in (ra, rb) for ev in r.evidence
                      if ev.label in ("non-discreteness-certificate", "modular-image"))
        return "quasi-isometric", ("both are nonamenable and not virtually F_m x Z, so both are "
                                   "quasi-isometric to BS(2,3); rank-1 class (2c) is a single "
                                   "quasi-isometry class (Whyte 2001, Thm 0.1)"), certs
    if cases == {"2c"} and a.rank == 2:
        cda, cdb = coarse_density(a), coarse_density(b)
        if cda.verdict == cdb.verdict == "coarsely-dense":
            return "quasi-isometric", ("both holonomy images are coarsely dense in SL_2(R), hence "
                                       "Hausdorff equivalent; class (2c) within a Hausdorff class "
                                       "is a single quasi-isometry class"), (cda, cdb)
        samples = cartan_hausdorff_samples(analysis(a).holonomy.stable,
                                           analysis(b).holonomy.stable, radii=(4, 6, 8))
        return "undetermined", "no exact Hausdorff-equivalence evidence within bounds", (
            cda, cdb, *samples)
    if cases == {"2c"}:
        return "undetermined", "no exact Hausdorff-equivalence evidence within bounds", ()
    if cases == {"2b"}:
        return "undetermined", ("both are ascending HNN extensions; their finer comparison is "
                                "not implemented"), ()
    return "undetermined", "comparison undetermined for these subclasses", ()


def qi_compare(a: GoGSpec, b: GoGSpec) -> QIVerdict:
    """Compare two specs up to quasi-isometry.

    Exact negative path: the quasi-isometry-invariant data (amenability,
    subclass) differ. Class (2c) is a single quasi-isometry class within a
    Hausdorff equivalence class of holonomy; two (2c) groups are decided from
    the certificates ``classify`` has re-verified, never by sampling:

    * Rank 1 (Whyte, "The large scale geometry of the higher
      Baumslag-Solitar groups", GAFA 2001, Thm 0.1): a rank-1 (2c) group is
      nonamenable and not virtually F_m x Z, so it is quasi-isometric to
      BS(2,3); any two are quasi-isometric.
    * Rank 2: both images are coarsely dense in SL_2(R), each decided
      exactly by ``coarse_density``, so the two are Hausdorff equivalent.

    Every other (2c) pair is 'undetermined', with sampled Cartan distances
    as diagnostics only. Specs of different lattice ranks are compared by
    amenability alone: 'not-quasi-isometric' when both answers are decided
    and differ, 'undetermined' otherwise.
    """
    ra, rb = classify(a), classify(b)
    verdict, reason, evidence = _qi_rule(a, b, ra, rb)
    reasons = (
        f"first: case {ra.whyte_case}, amenable {_tri(ra.amenable)}",
        f"second: case {rb.whyte_case}, amenable {_tri(rb.amenable)}",
        reason,
    )
    return QIVerdict(verdict, reasons, evidence)


class CompressionReport(Record):
    """Equivariant Lp-compression exponent report.

    alpha_kind is 'value' (alpha holds max(1/p, 1/2)), 'zero', or
    'undetermined'. The checklist records the three conditions behind the
    positive formula: amenable holonomy closure, closure cocompact in a
    closed connected subgroup (established in the triangular case through a
    nontrivial cyclic diagonal value group), and an exponential-distortion
    witness (a holonomy generator with spectral radius > 1).
    """

    p: Q
    alpha_kind: str
    alpha: Optional[Q]
    checklist: tuple
    detail: str = ""


def _compression_rule(spec: GoGSpec, p: Q) -> tuple[str, tuple, str]:
    """``(alpha_kind, checklist, detail)`` of ``spec`` at ``p`` by the first
    rule of ``compression_report`` that applies."""
    if spec.rank != 2:
        return "undetermined", (), "compression decision implemented for rank 2"
    stages = analysis(spec)
    haagerup = stages.tits.virtually_solvable
    if haagerup is False:
        if p <= 2:
            return (
                "zero",
                (("haagerup", "no"),),
                "no Haagerup property: a positive exponent would give a proper "
                "affine isometric action on L^p with 1 <= p <= 2",
            )
        return (
            "undetermined",
            (("haagerup", "no"),),
            "the vanishing argument applies to 1 <= p <= 2 only",
        )
    if haagerup is None:
        return "undetermined", (), "holonomy decision undetermined"

    desc = stages.closure
    cocompact = desc.status == "triangular" and desc.diag_kind == "cyclic"
    distortion = any(spectral_radius_gt_one(g) for g in stages.holonomy.stable.values())
    checklist = (
        ("amenable-closure", "yes"),
        (
            "cocompact-in-connected-subgroup",
            "yes (diagonal value group is infinite cyclic; closure cocompact in "
            "the upper triangular subgroup)" if cocompact else "not established",
        ),
        (
            "exponential-distortion-witness",
            "yes (a holonomy generator has spectral radius > 1)"
            if distortion
            else "not established",
        ),
    )
    if cocompact and distortion:
        return "value", checklist, ""
    return "undetermined", checklist, "positive-exponent conditions not established"


def compression_report(spec: GoGSpec, p) -> CompressionReport:
    """The exponent at ``p`` >= 1 by ``_compression_rule``, with alpha read
    off its kind."""
    p = Q(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    kind, checklist, detail = _compression_rule(spec, p)
    alpha = max(1 / p, Q(1, 2)) if kind == "value" else Q(0) if kind == "zero" else None
    return CompressionReport(p, kind, alpha, checklist, detail)

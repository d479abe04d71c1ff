"""Top-level verdicts: quasi-isometry subclass, analytic properties,
pairwise comparison, and equivariant Lp-compression exponents.

The quasi-isometry trichotomy for groups whose tree has infinitely many ends:
(2a) semidirect products Z^n x| F with F a free subgroup of GL_n(Z) --
detected through unimodular inclusions and integral discrete holonomy;
(2b) virtually ascending HNN extensions -- exactly the amenable ones,
detected in the literal single-loop ascending form; (2c) everything else,
a single quasi-isometry class within a Hausdorff equivalence class of
holonomy -- decided for nonamenable groups whose holonomy image carries an
exact non-discreteness certificate, re-verified before it is reported. The
Haagerup property, weak amenability and the Cowling-Haagerup constant are
all decided by amenability of the closure of the holonomy image, which for
subgroups of GL_2(R) is equivalent to virtual solvability; the equivalence
of the four properties makes the reports self-consistent by construction.
Where the holonomy decision is out of reach (rank >= 3), an amenable group
still has all three properties. ``qi_compare`` decides two (2c) groups from
the certificates their classification reports carry, and never from
sampled evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .gog import GoGSpec, bass_serre_degrees, ensure_valid, underlying_rank
from .holonomy import (
    WitnessResult,
    compute_holonomy,
    non_discreteness_witness,
    verify_nondiscreteness,
)
from .linalg import spectral_radius_gt_one, sublattice_index
from .matgroups import (
    CoarseDensityReport,
    TitsResult,
    WordBall,
    cartan_hausdorff_samples,
    closure_describe,
    coarse_density,
    verify_certificate,
    virtually_solvable,
)

Q = Fraction


@dataclass(frozen=True)
class Evidence:
    label: str
    detail: str
    payload: object = field(default=None, compare=False)


@dataclass(frozen=True)
class ClassificationReport:
    ends: str
    amenable: Optional[bool]
    amenable_reason: str
    whyte_case: str  # '2a' | '2b' | '2c' | 'out-of-scope(ends)' | 'undetermined'
    haagerup: Optional[bool]
    weakly_amenable: Optional[bool]
    cowling_haagerup: str  # '1' | 'not-weakly-amenable' | 'undetermined'
    evidence: tuple = ()

    def decided(self) -> bool:
        return self.whyte_case != "undetermined" and self.haagerup is not None


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


def whyte_classify(spec: GoGSpec) -> ClassificationReport:
    """Ends, amenability, and the quasi-isometry subclass of the group."""
    ensure_valid(spec)
    local = bass_serre_degrees(spec)
    evidence = [
        Evidence(
            "bass-serre-degrees",
            ", ".join(f"{v}: {d}" for v, d in sorted(local.degrees.items()))
            + f"; ends: {local.ends}",
            local,
        )
    ]
    if local.ends != "infinitely-many-ends":
        return ClassificationReport(
            local.ends,
            None,
            "not decided: the trichotomy applies to trees with infinitely many ends",
            "out-of-scope(ends)",
            None,
            None,
            "undetermined",
            tuple(evidence),
        )

    rank = underlying_rank(spec)
    evidence.append(Evidence("underlying-rank", f"#edges - #vertices + 1 = {rank}"))
    amenable: Optional[bool]
    if rank >= 2:
        amenable = False
        reason = (
            f"killing all vertex generators leaves a free group of rank {rank} >= 2"
        )
    elif rank == 1:
        loop = spec.loop_edges()[0]
        ia, io = sublattice_index(loop.alpha), sublattice_index(loop.omega)
        if len(spec.vertices) == 1 and (ia == 1 or io == 1):
            amenable = True
            reason = f"ascending HNN extension (edge indices {ia} and {io})"
        elif ia >= 2 and io >= 2:
            amenable = False
            reason = (
                f"HNN extension with both edge inclusions proper "
                f"(indices {ia}, {io}) contains a free subgroup"
            )
        else:
            amenable = None
            reason = (
                "virtually-ascending detection beyond the single-loop form "
                "is not implemented"
            )
    else:
        # rank 0 (a tree of groups): left out of scope by the degree-based
        # classification even though the ends count says infinitely many
        return ClassificationReport(
            local.ends,
            None,
            "not decided: amalgams (no stable letters) are outside the decision scope",
            "out-of-scope(ends)",
            None,
            None,
            "undetermined",
            tuple(evidence),
        )
    evidence.append(Evidence("amenability", f"{_tri(amenable)}: {reason}"))

    if amenable is True:
        whyte = "2b"
        evidence.append(
            Evidence("whyte-case", "2b: virtually ascending HNN extensions are the amenable ones")
        )
    elif amenable is False:
        hd = compute_holonomy(spec)
        unimodular = all(
            sublattice_index(e.alpha) == 1 and sublattice_index(e.omega) == 1
            for e in spec.edges
        )
        if unimodular:
            # a reduced relation of length <= 6 exists exactly when two
            # distinct reduced words of length <= 3 have the same image
            ball = WordBall({name: hd.stable[name] for name in sorted(hd.stable)})
            for _ in ball.grow(3):
                pass
            relation = ball.relation()
            if relation is None:
                whyte = "2a"
                evidence.append(
                    Evidence(
                        "whyte-case",
                        "2a: unimodular inclusions, holonomy in GL_n(Z) (discrete), "
                        "no stable-letter relation up to length 6",
                    )
                )
            else:
                whyte = "undetermined"
                evidence.append(
                    Evidence(
                        "whyte-case",
                        f"ambiguous 2a form: holonomy kills the stable-letter word {relation}",
                        relation,
                    )
                )
        else:
            witness = non_discreteness_witness(hd)
            if witness.kind in ("contraction", "dense"):
                if not verify_nondiscreteness(hd, witness):
                    raise AssertionError("non-discreteness certificate failed re-verification")
                whyte = "2c"
                evidence.append(
                    Evidence("non-discreteness-certificate", _certificate_detail(witness), witness)
                )
                evidence.append(
                    Evidence("whyte-case", "2c: nonamenable with non-discrete holonomy image")
                )
            elif witness.kind == "discrete (integral)":
                whyte = "undetermined"
                evidence.append(
                    Evidence(
                        "whyte-case",
                        "holonomy image is integral-discrete but inclusions are not "
                        "unimodular; the 2a form is not established",
                    )
                )
            else:
                whyte = "undetermined"
                evidence.append(
                    Evidence(
                        "whyte-case",
                        "no non-discreteness certificate: no contraction pair among the "
                        "stable letters and their inverses, and no dense rank-1 image",
                    )
                )
    else:
        whyte = "undetermined"

    return ClassificationReport(
        local.ends,
        amenable,
        reason,
        whyte,
        None,
        None,
        "undetermined",
        tuple(evidence),
    )


def cv_properties(spec: GoGSpec) -> ClassificationReport:
    """Haagerup property, weak amenability and the Cowling-Haagerup constant.

    All three are decided together by virtual solvability of the holonomy
    image (equivalently, amenability of its closure in GL_n(R)); the
    attached certificate re-verifies exactly before it is reported.
    """
    ensure_valid(spec)
    hd = compute_holonomy(spec)
    names = sorted(hd.stable)
    gens = [hd.stable[n] for n in names]
    evidence = []
    if not gens:
        result = TitsResult(True, None, "trivial holonomy image")
    else:
        result = virtually_solvable(gens, names)
    if result.certificate is not None:
        ok = verify_certificate(gens, result.certificate, names)
        if not ok:
            raise AssertionError("certificate failed re-verification")
        evidence.append(
            Evidence(
                f"tits-certificate ({result.certificate.kind()})",
                result.detail + "; re-verified exactly",
                result.certificate,
            )
        )
    else:
        evidence.append(Evidence("tits-alternative", result.detail))
    verdict = result.virtually_solvable
    cowling = {True: "1", False: "not-weakly-amenable", None: "undetermined"}[verdict]
    return ClassificationReport(
        "",
        None,
        "",
        "",
        verdict,
        verdict,
        cowling,
        tuple(evidence),
    )


def classify(spec: GoGSpec) -> ClassificationReport:
    """Combined report: Whyte subclass plus the holonomy-closure properties.

    An amenable group has the Haagerup property and is weakly amenable with
    Lambda_cb = 1, so amenability decides all three where the holonomy
    decision is undetermined.
    """
    w = whyte_classify(spec)
    c = cv_properties(spec)
    if w.amenable is True and c.haagerup is not True:
        if c.haagerup is False:
            raise AssertionError("an amenable group was reported without the Haagerup property")
        amenability = Evidence("amenability", "an amenable group has the Haagerup property "
                               "and is weakly amenable with Lambda_cb = 1")
        c = replace(c, haagerup=True, weakly_amenable=True, cowling_haagerup="1",
                    evidence=c.evidence + (amenability,))
    return ClassificationReport(
        w.ends,
        w.amenable,
        w.amenable_reason,
        w.whyte_case,
        c.haagerup,
        c.weakly_amenable,
        c.cowling_haagerup,
        w.evidence + c.evidence,
    )


@dataclass(frozen=True)
class QIVerdict:
    verdict: str  # 'quasi-isometric' | 'not-quasi-isometric' | 'undetermined'
    reasons: tuple
    evidence: tuple = ()


def _rank2_density(report: ClassificationReport, gens: list, names: list) -> CoarseDensityReport:
    """Coarse density in SL_2(R) of a rank-2 (2c) holonomy image; a
    nonsolvable one is decided from its report's certificates (``qi_compare``).
    Both paths need |det| = 1 on every generator: determinants 2^k keep an
    image at infinite Hausdorff distance from SL_2(R)."""
    moved = [name for name, m in zip(names, gens) if abs(m.det()) != 1]
    if moved:
        detail = f"|det| != 1 on {', '.join(moved)}, outside the SL_2(R)-closure argument"
        return CoarseDensityReport("undetermined", "no-certificate", detail)
    if report.haagerup is not False:
        return coarse_density(gens, names)
    pair, witness = (
        next(ev.payload for ev in report.evidence if ev.label.startswith(label))
        for label in ("tits-certificate", "non-discreteness-certificate")
    )
    return CoarseDensityReport(
        "coarsely-dense",
        "exact-sl2-closure",
        f"free pair ({pair.word_x}, {pair.word_y}) by ping-pong and contraction pair "
        f"({witness.contractor}, {witness.word}), both re-verified, with |det| = 1 on "
        "every generator: the closure of the image contains SL_2(R)",
    )


def qi_compare(a: GoGSpec, b: GoGSpec) -> QIVerdict:
    """Compare two specs up to quasi-isometry.

    Exact negative path: the quasi-isometry-invariant data (amenability,
    subclass) differ. Class (2c) is a single quasi-isometry class within a
    Hausdorff equivalence class of holonomy; two (2c) groups are decided from
    the certificates ``classify`` has re-verified, never by sampling:

    * Rank 1 (Whyte, "The large scale geometry of the higher
      Baumslag-Solitar groups", GAFA 2001): both reports carry a 'dense'
      certificate, so both closures are R>0 or R*, Hausdorff equivalent.
    * Rank 2: both images are coarsely dense in SL_2(R), which needs
      |det| = 1 on every generator; a generator with |det| != 1 leaves that
      side undetermined. A virtually solvable image is then decided by
      ``coarse_density``'s exact closure shape. An image with a free pair
      and a contraction pair has a closure containing SL_2(R). Its part in
      SL_2(R) has index <= 2, so it is still non-discrete and not virtually
      solvable; let H be the closure of that part. H is a Lie group
      (Cartan's closed-subgroup theorem); H° != 1, because the image is not
      discrete; Lie(H°) is Ad-invariant under the image; the image is
      Zariski-dense in SL_2, because every proper algebraic subgroup of SL_2
      is virtually solvable; sl_2 is irreducible under Ad, so
      Lie(H°) = sl_2 and H = SL_2(R).

    Every other (2c) pair is 'undetermined', with sampled Cartan distances
    as diagnostics only.
    """
    ensure_valid(a)
    ensure_valid(b)
    if a.rank != b.rank:
        raise ValueError("dimension mismatch: specs have different ranks")
    ra, rb = classify(a), classify(b)
    reasons = [
        f"first: case {ra.whyte_case}, amenable {_tri(ra.amenable)}",
        f"second: case {rb.whyte_case}, amenable {_tri(rb.amenable)}",
    ]
    if ra.amenable is not None and rb.amenable is not None and ra.amenable != rb.amenable:
        reasons.append("amenability is a quasi-isometry invariant and differs")
        return QIVerdict("not-quasi-isometric", tuple(reasons))
    cases = {ra.whyte_case, rb.whyte_case}
    if cases <= {"2a", "2b", "2c"} and ra.whyte_case != rb.whyte_case:
        reasons.append("the subclasses are quasi-isometry invariant and differ")
        return QIVerdict("not-quasi-isometric", tuple(reasons))
    if ra.whyte_case == rb.whyte_case == "2c":
        certs = tuple(ev for r in (ra, rb) for ev in r.evidence
                      if ev.label == "non-discreteness-certificate")
        if a.rank == 1 and all(ev.payload.kind == "dense" for ev in certs):
            reasons.append(
                "both holonomy images have dense absolute values (re-verified), so both "
                "closures are R>0 or R*, which are Hausdorff equivalent; rank-1 class (2c) "
                "is a single quasi-isometry class (Whyte 2001)"
            )
            return QIVerdict("quasi-isometric", tuple(reasons), evidence=certs)
        evidence = ()
        if a.rank == 2:
            hda, hdb = compute_holonomy(a), compute_holonomy(b)
            names_a, names_b = sorted(hda.stable), sorted(hdb.stable)
            gens_a = [hda.stable[n] for n in names_a]
            gens_b = [hdb.stable[n] for n in names_b]
            cda = _rank2_density(ra, gens_a, names_a)
            cdb = _rank2_density(rb, gens_b, names_b)
            if cda.verdict == cdb.verdict == "coarsely-dense":
                reasons.append(
                    "both holonomy images are coarsely dense in SL_2(R), hence "
                    "Hausdorff equivalent; class (2c) within a Hausdorff class is a "
                    "single quasi-isometry class"
                )
                return QIVerdict("quasi-isometric", tuple(reasons), evidence=(cda, cdb))
            evidence = (cda, cdb, *cartan_hausdorff_samples(gens_a, gens_b, radii=(4, 6, 8)))
        reasons.append("no exact Hausdorff-equivalence evidence within bounds")
        return QIVerdict("undetermined", tuple(reasons), evidence=evidence)
    if ra.whyte_case == rb.whyte_case == "2b":
        reasons.append(
            "both are ascending HNN extensions; their finer comparison is not implemented"
        )
        return QIVerdict("undetermined", tuple(reasons))
    reasons.append("comparison undetermined for these subclasses")
    return QIVerdict("undetermined", tuple(reasons))


@dataclass(frozen=True)
class CompressionReport:
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


def compression_report(spec: GoGSpec, p) -> CompressionReport:
    p = Q(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    ensure_valid(spec)
    if spec.rank != 2:
        return CompressionReport(
            p, "undetermined", None, (), "compression decision implemented for rank 2"
        )
    cv = cv_properties(spec)
    if cv.haagerup is False:
        if p <= 2:
            return CompressionReport(
                p,
                "zero",
                Q(0),
                (("haagerup", "no"),),
                "no Haagerup property: a positive exponent would give a proper "
                "affine isometric action on L^p with 1 <= p <= 2",
            )
        return CompressionReport(
            p,
            "undetermined",
            None,
            (("haagerup", "no"),),
            "the vanishing argument applies to 1 <= p <= 2 only",
        )
    if cv.haagerup is None:
        return CompressionReport(p, "undetermined", None, (), "holonomy decision undetermined")

    hd = compute_holonomy(spec)
    names = sorted(hd.stable)
    gens = [hd.stable[n] for n in names]
    desc = closure_describe(gens, names)
    cocompact = desc.status == "triangular" and desc.diag_kind == "cyclic"
    distortion = any(spectral_radius_gt_one(g) for g in gens)
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
        return CompressionReport(p, "value", max(1 / p, Q(1, 2)), checklist)
    return CompressionReport(
        p, "undetermined", None, checklist, "positive-exponent conditions not established"
    )

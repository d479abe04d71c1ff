"""Exact analysis of generalized Baumslag-Solitar groups over Z^n.

The package models finite graphs of Z^n-groups, computes presentations and
the holonomy homomorphism, solves the word problem by Britton normal forms,
decides virtual solvability of the holonomy image with re-verifiable
certificates, and classifies groups up to quasi-isometry subclass together
with the Haagerup property, weak amenability, and equivariant
Lp-compression exponents.
"""

from .britton import (
    DistortionProfile,
    GeodesicOracle,
    NormalForm,
    britton_reduce,
    distortion_profile,
    geodesic_length,
    is_identity,
    nf_multiply,
)
from .classify import (
    AnalyticProperties,
    ClassificationReport,
    CoarseDensityReport,
    CompressionReport,
    QIVerdict,
    classify,
    coarse_density,
    compression_report,
    cv_properties,
    qi_compare,
    whyte_classify,
)
from .gog import (
    BassSerreLocalData,
    Edge,
    GoGSpec,
    InvalidSpecError,
    Presentation,
    bass_serre_degrees,
    presentation,
    underlying_rank,
    validate,
)
from .gogfile import GoGDocument, GoGParseError, parse, render
from .holonomy import (
    HolonomyData,
    WitnessResult,
    compute_holonomy,
    non_discreteness_witness,
    verify_nondiscreteness,
    word_image,
)
from .linalg import (
    EigenData,
    ProjPoint,
    QMat,
    QuadraticNumber,
    eigen_directions,
    hermite_normal_form,
    sublattice_index,
)
from .matgroups import (
    ClosureDescription,
    FreePairCertificate,
    InvariantLineCertificate,
    InvariantPairCertificate,
    ScalarCertificate,
    TitsResult,
    closure_describe,
    pingpong_certify,
    verify_certificate,
    virtually_solvable,
)
from .words import Word, parse_word

__version__ = "0.1.0"

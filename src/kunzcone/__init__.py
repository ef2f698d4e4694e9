"""Exact arithmetic for numerical semigroups and their Kunz-cone geometry.

The package covers five layers: semigroups with Apery/Kunz coordinates,
Kunz posets, faces of the group cone over Z_n, closed forms for the
arithmetic-like generator family, and monoscopic gluings with the
matching cone embedding.  Everything computes in exact integer or
rational arithmetic; a seeded CLI (``kunzcone``) exposes each layer.
"""

from .arithmetic import (
    EgaParams,
    GridCoord,
    ega_apery_grid,
    ega_contains,
    ega_detect,
    ega_face_dimension,
    ega_frobenius,
    ega_is_minimal,
    ega_kunz_poset,
    ega_new,
    ega_rays,
)
from .cone import CONE, POLYHEDRON, ConeFace, apply_automorphism, face_of
from .errors import (
    AlphaIsGenerator,
    AlphaNotInS,
    DomainError,
    EmptyGenerators,
    InconsistentFace,
    InvalidParams,
    InvalidQuotient,
    NoGaps,
    NotAnElement,
    NotAUnit,
    NotCofinite,
    NotCoprime,
    NotGraded,
    NotInCone,
    NotInPolyhedron,
    OutOfRegime,
    SampleNotInterior,
)
from .gluing import (
    EmbeddingSpec,
    GluingSpec,
    beta_ray,
    extend_poset,
    factor_monoscopic,
    glue,
    glued_apery,
    glued_poset,
    phi,
    verify_face_image,
)
from .linalg import IntegerEchelon, integer_rank
from .poset import KunzPoset, apery_poset, kunz_poset_of, subgroup_of
from .sweeps import SUITES, run_suite
from .semigroup import (
    APERY,
    KUNZ,
    CoordTuple,
    NumericalSemigroup,
    apery_by_class,
    from_kunz_tuple,
)

__version__ = "0.1.0"

__all__ = [
    "APERY",
    "CONE",
    "KUNZ",
    "POLYHEDRON",
    "AlphaIsGenerator",
    "AlphaNotInS",
    "ConeFace",
    "CoordTuple",
    "DomainError",
    "EgaParams",
    "EmbeddingSpec",
    "EmptyGenerators",
    "GluingSpec",
    "GridCoord",
    "InconsistentFace",
    "IntegerEchelon",
    "InvalidParams",
    "InvalidQuotient",
    "KunzPoset",
    "NoGaps",
    "NotAUnit",
    "NotAnElement",
    "NotCofinite",
    "NotCoprime",
    "NotGraded",
    "NotInCone",
    "NotInPolyhedron",
    "NumericalSemigroup",
    "OutOfRegime",
    "SampleNotInterior",
    "apery_by_class",
    "apery_poset",
    "apply_automorphism",
    "beta_ray",
    "ega_apery_grid",
    "ega_contains",
    "ega_detect",
    "ega_face_dimension",
    "ega_frobenius",
    "ega_is_minimal",
    "ega_kunz_poset",
    "ega_new",
    "ega_rays",
    "extend_poset",
    "face_of",
    "factor_monoscopic",
    "from_kunz_tuple",
    "glue",
    "glued_apery",
    "glued_poset",
    "integer_rank",
    "kunz_poset_of",
    "phi",
    "run_suite",
    "SUITES",
    "subgroup_of",
    "verify_face_image",
]

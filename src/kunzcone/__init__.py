"""Exact arithmetic for numerical semigroups and their Kunz-cone geometry.

The package covers five layers: semigroups with Apery/Kunz coordinates,
Kunz posets, faces of the group cone over Z_n, closed forms for the
arithmetic-like generator family, and monoscopic gluings with the
matching cone embedding.  Everything computes in exact integer or
rational arithmetic; a seeded CLI (``kunzcone``) exposes each layer.
"""

from types import ModuleType as _ModuleType

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
from .cone import ConeFace, apply_automorphism, face_of
from .errors import (
    AlphaIsGenerator,
    AlphaNotInS,
    CheckFailed,
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

# every public name imported above; the submodules are not re-exported
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

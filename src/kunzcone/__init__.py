"""Exact arithmetic for numerical semigroups and their Kunz-cone geometry.

The package covers five layers: semigroups with Apery/Kunz coordinates,
Kunz posets, faces of the group cone over Z_n, closed forms for the
arithmetic-like generator family, and monoscopic gluings with the
matching cone embedding.  Everything computes in exact integer or
rational arithmetic; a seeded CLI (``kunzcone``) exposes each layer.

``import kunzcone`` loads no layer.  The first use of a public name
imports the submodule that defines it (PEP 562) and binds all of that
submodule's names here, so ``kunzcone.face_of`` loads ``cone`` and what
it imports, never ``arithmetic``, ``gluing`` or ``sweeps``.
"""

__version__ = "0.1.0"

# each submodule and the public names it exports; the submodules themselves are not exported
_EXPORTS = {
    "arithmetic": (
        "EgaParams", "GridCoord", "ega_apery_grid", "ega_contains", "ega_detect",
        "ega_face_dimension", "ega_frobenius", "ega_is_minimal", "ega_kunz_poset", "ega_new",
        "ega_rays",
    ),
    "cone": ("ConeFace", "apply_automorphism", "face_of"),
    "errors": (
        "AlphaIsGenerator", "AlphaNotInS", "CheckFailed", "DomainError", "EmptyGenerators",
        "InconsistentFace", "InvalidParams", "InvalidQuotient", "NoGaps", "NotAnElement",
        "NotAUnit", "NotCofinite", "NotCoprime", "NotGraded", "NotInCone", "NotInPolyhedron",
        "OutOfRegime", "SampleNotInterior",
    ),
    "gluing": (
        "EmbeddingSpec", "GluingSpec", "beta_ray", "extend_poset", "factor_monoscopic", "glue",
        "glued_apery", "glued_poset", "phi", "verify_face_image",
    ),
    "linalg": ("IntegerEchelon", "integer_rank"),
    "poset": ("KunzPoset", "apery_poset", "kunz_poset_of", "subgroup_of"),
    "semigroup": (
        "APERY", "KUNZ", "CoordTuple", "NumericalSemigroup", "apery_by_class", "from_kunz_tuple",
    ),
    "sweeps": ("SUITES", "run_suite"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and bind all of its names here,
    so that each later lookup is a plain dict hit."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME[name]
    module = __import__(f"{__name__}.{home}", fromlist=(name,))  # a fromlist returns the submodule
    globals().update((n, getattr(module, n)) for n in _EXPORTS[home])
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

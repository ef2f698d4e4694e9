"""Domain-level exceptions.

Every failure of a mathematical precondition raises a subclass of
:class:`DomainError`; the CLI maps these to exit code 1.  Plain
``ValueError``/``TypeError`` are reserved for malformed Python-level
arguments (wrong length, wrong type).
"""


class DomainError(Exception):
    """Base class for domain failures surfaced to users."""


class EmptyGenerators(DomainError):
    """No generators were supplied."""


class NotCofinite(DomainError):
    """The generators have a common divisor greater than 1."""


class NotAnElement(DomainError):
    """A required semigroup element is missing (e.g. the Apery modulus)."""


class NoGaps(DomainError):
    """The semigroup is all of the non-negative integers."""


class NotInPolyhedron(DomainError):
    """A Kunz tuple violates one of the defining inequalities."""


class NotGraded(DomainError):
    """The poset admits no rank function compatible with its covers."""


class NotInCone(DomainError):
    """A coordinate tuple violates one of the cone facet inequalities."""


class NotAUnit(DomainError):
    """The automorphism multiplier is not invertible mod n."""


class InconsistentFace(DomainError):
    """A raw tight set contradicts itself (forces a recorded-strict facet)."""


class InvalidParams(DomainError):
    """Parameters violate the defining constraints of a family."""


class OutOfRegime(DomainError):
    """The requested closed form only exists for other parameter ranges."""


class CheckFailed(DomainError):
    """A closed form disagreed with the structural check or oracle run on it."""


class AlphaIsGenerator(DomainError):
    """The gluing element must not be a minimal generator."""


class AlphaNotInS(DomainError):
    """The gluing element must belong to the base semigroup."""


class NotCoprime(DomainError):
    """The gluing element and multiplier must be coprime."""


class InvalidQuotient(DomainError):
    """A poset's modulus does not match the embedding's subgroup index."""


class SampleNotInterior(DomainError):
    """Sample points do not share a common smallest face."""

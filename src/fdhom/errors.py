"""Exceptions shared across the package."""


class FdhomError(Exception):
    pass


class BadRelation(FdhomError):
    """A quiver relation mixes sources/targets or has terms of length < 2."""


class NotAdmissible(FdhomError):
    """Paths survive at the length cap; the quotient is not visibly finite."""


class FieldTooSmall(FdhomError):
    """The radical could not be certified over this field."""


class Inconclusive(FdhomError):
    """A randomized search exhausted its retry budget without a witness."""


class ResolutionTruncated(FdhomError):
    """A verdict needs resolution data beyond the cap; reported, not guessed."""


class IncompleteEnumeration(FdhomError):
    """An exhaustive search was asked to run over a capped (incomplete) list."""


class CapExceeded(FdhomError):
    """An enumeration closure did not stabilize within its caps."""


class NoSocleElement(FdhomError):
    """Internal inconsistency: no annihilated extension class was found."""


class CertificateFailed(FdhomError):
    """An internal certificate of a computed result did not check out."""


class PreconditionFailed(FdhomError):
    """A certified precondition of an operation was refuted, with the clause."""


class NonIntegerMultiplicity(FdhomError):
    """A character inner product came out non-integral: inconsistent table."""


class MissingPowerMaps(FdhomError):
    """Determinant character needs power maps that the table does not carry."""

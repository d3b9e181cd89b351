"""The base class of the errors torusbase raises, and its one validation report."""

from dataclasses import dataclass


class TorusbaseError(ValueError):
    """An input the library cannot work with.

    Every module's own error (AffineError, CatalogError, ComplexError,
    DocumentError, PolytopeError, SheafError, SurgeryError) derives from it,
    so one handler catches them all; it stays a ValueError for callers that
    catch that.
    """


@dataclass
class ValidationReport:
    """What a validator found wrong; valid when it found nothing.

    str() gives "valid", or one line per violation behind the given prefix:
    complexes.validate writes "violation: ", the sheaf and affine validators
    write none.
    """

    violations: list
    prefix: str = ""

    @property
    def valid(self):
        return not self.violations

    def __str__(self):
        if self.valid:
            return "valid"
        return "\n".join("%s%s" % (self.prefix, v) for v in self.violations)

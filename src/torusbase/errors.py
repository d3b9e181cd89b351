"""The base class of the errors torusbase raises."""


class TorusbaseError(ValueError):
    """An input the library cannot work with.

    Every module's own error (AffineError, CatalogError, ComplexError,
    DocumentError, PolytopeError, SheafError, SurgeryError) derives from it,
    so one handler catches them all; it stays a ValueError for callers that
    catch that.
    """

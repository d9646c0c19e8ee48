"""Shared exception types."""


class PrimlenError(Exception):
    pass


class FieldMismatchError(PrimlenError):
    """Two scalars (or containers) live over different fields."""


class ArityMismatchError(PrimlenError):
    """Two elements have a different number of generators."""


class UnsupportedInputError(PrimlenError):
    """Input outside the supported range (wrong characteristic, arity, ...)."""


class SingularMatrixError(PrimlenError):
    """A square system turned out to be singular."""


class DegreeCapError(PrimlenError):
    """A Lie computation would exceed the degree cap (``metalie.DEGREE_CAP``)."""


class ParseError(PrimlenError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InternalError(PrimlenError):
    """An invariant the algorithms guarantee was violated; indicates a bug."""

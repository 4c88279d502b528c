"""Exception hierarchy for voxgen.

Every failure mode raised by this package derives from VoxgenError so callers
(and the CLI) can catch one type.
"""


class VoxgenError(Exception):
    """Base class for all voxgen errors."""


class ParameterError(VoxgenError, ValueError):
    """A generator parameter is out of its documented range."""


class DuplicateIdError(VoxgenError):
    """An id is already used elsewhere in the volume tree or world."""


class OutOfBoundsError(VoxgenError):
    """An item (child volume, block, entity, object) lies outside its container."""


class EmptyBoxError(VoxgenError):
    """Margins leave an empty inset box on at least one axis."""


class CoordinateOverflowError(VoxgenError):
    """A coordinate left the supported signed 64-bit lattice range."""


class DanglingConnectionError(VoxgenError):
    """A connection references a volume id that does not exist in the world."""


class FrozenWorldError(VoxgenError):
    """Mutation was attempted on a finalized world or its volumes."""


class RetryExhaustedError(VoxgenError):
    """A bounded stochastic retry loop ran out of attempts."""


class ParseError(VoxgenError):
    """A document could not be parsed; includes file and position context."""

    def __init__(self, message: str, path: str = "", line: int = 0, column: int = 0):
        super().__init__(message)
        self.path = path
        self.line = line
        self.column = column


class ValidationError(VoxgenError):
    """A parsed document violates a schema or referential-integrity rule."""


class NonMonotonicTraceError(VoxgenError):
    """A player's trace timestamps decreased."""

"""Error types shared across the package.

Every error raised on purpose by this package derives from :class:`MtfError`,
so callers can catch one base class at the CLI boundary and map it to an
exit code.
"""

from __future__ import annotations

__all__ = [
    "MtfError",
    "BadParameter",
    "OutOfRange",
    "EmptyGraph",
    "NotTriangleFree",
    "NotMaximalTriangleFree",
    "BudgetExceeded",
    "InconsistentWitnesses",
    "PreconditionViolated",
    "ParseError",
    "RangeError",
]


class MtfError(Exception):
    """Base class for all errors raised by this package."""


class BadParameter(MtfError):
    """A parameter value is malformed or outside its documented domain."""


class OutOfRange(MtfError):
    """A vertex id or index is outside the valid range of its structure."""


class EmptyGraph(MtfError):
    """An operation that needs at least one vertex was given an empty graph."""


class NotTriangleFree(MtfError):
    """The input graph contains a triangle where a triangle-free one is required."""


class NotMaximalTriangleFree(MtfError):
    """The input graph is not maximal triangle-free."""


class BudgetExceeded(MtfError):
    """An exact search ran past its node or wall-clock budget.

    Attributes
    ----------
    nodes : int
        Search nodes expanded when the budget tripped.
    seconds : float
        Wall-clock seconds elapsed when the budget tripped.
    """

    def __init__(self, message: str, nodes: int = 0, seconds: float = 0.0):
        super().__init__(message)
        self.nodes = nodes
        self.seconds = seconds


class InconsistentWitnesses(MtfError):
    """The same witness vertex is claimed by two different vertex pairs."""


class PreconditionViolated(MtfError):
    """A lifting precondition failed.

    The ``condition`` attribute names which one: ``"a"`` (the x set is not
    stable; it holds the branch vertices and the interiors of the derived
    paths), ``"b"`` (the used witness set is not stable), or ``"c"`` (some
    witness is not adjacent to exactly its own pair inside the x set plus
    the used witnesses).
    """

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


class ParseError(MtfError):
    """Input text could not be parsed.

    ``offset`` is the byte offset of the offending position when known,
    else -1.
    """

    def __init__(self, message: str, offset: int = -1):
        if offset >= 0:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class RangeError(MtfError):
    """A parsed value (vertex id, edge endpoint) is out of range or degenerate."""

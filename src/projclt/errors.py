"""Exception types shared across the package.

Every validation failure raises a subclass of :class:`ProjCltError`, so callers
(and the command line driver) can catch one type and report the message.
"""


class ProjCltError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(ProjCltError):
    """A configuration object violates one of its declared invariants.

    The message names the offending field and the invariant that failed.
    """


class DimensionError(ProjCltError):
    """Array shapes or dimensions are inconsistent with the requested operation."""


class DomainError(ProjCltError):
    """A scalar argument lies outside the mathematical domain of a kernel."""


class RangeError(ProjCltError):
    """A numeric parameter is outside its admissible range."""


class EmptyBatch(ProjCltError):
    """An operation that needs samples received a batch with none."""


class DimensionTooHigh(ProjCltError):
    """A density estimate was requested in more dimensions than supported."""


class TooFewSamples(ProjCltError):
    """A statistical routine received fewer samples than its floor."""


class GridTooCoarse(ProjCltError):
    """A discrete convolution grid cannot resolve the smoothing kernel."""

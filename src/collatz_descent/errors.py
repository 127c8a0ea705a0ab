"""Exception types shared across the package."""


class CollatzDescentError(Exception):
    """Base class for all domain errors raised by this package."""


class StepCapExceeded(CollatzDescentError):
    """A trajectory ran past the configured step cap without descending.

    Either the cap is too small for the number at hand, or something
    genuinely remarkable is going on.  reason is the text a scan's failure
    row carries for such a number.
    """

    reason = "step cap exceeded"


class CycleDetected(CollatzDescentError):
    """A trajectory returned to its starting value before descending.

    This would be a nontrivial cycle of the 3n+1 map, so it must never
    pass silently.  reason is the text a scan's failure row carries for
    such a number.
    """

    reason = "cycle detected"


class UnrealizablePattern(CollatzDescentError):
    """The step pattern violates a parity rule and no start number can follow it."""


class NotADescent(CollatzDescentError):
    """The step pattern is parity-consistent but never ends below its start."""


class DepthTooLarge(CollatzDescentError):
    """Requested classification depth exceeds the configured maximum."""

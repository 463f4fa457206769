"""Shared exception types."""


class LatHeightsError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(LatHeightsError):
    """A certified comparison could not be decided within the precision cap."""


class UnresolvedTie(PrecisionExhausted):
    """A boundary membership decision (closed-cube / height threshold) could
    not be settled exactly or within the precision cap."""


class BudgetExceeded(LatHeightsError):
    """A constructive search ran out of its configured enumeration budget."""


class ValidationError(LatHeightsError):
    """Invalid input data (non-order, reducible polynomial, rank problems...)."""


class SpecFileError(LatHeightsError):
    """Instance specification file could not be parsed."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            where = "line %d, col %d" % (line, col) if col else "line %d" % line
            message = "%s: %s" % (where, message)
        super().__init__(message)

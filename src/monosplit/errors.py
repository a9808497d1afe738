"""Exception hierarchy shared across the library."""


class MonosplitError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(MonosplitError):
    """Operands of a vector expression do not share a dimension."""


class ParameterError(MonosplitError):
    """A parameter bundle violates its admissibility conditions."""


class OracleError(MonosplitError):
    """An operator oracle failed (singular solve, inconsistent system)."""


class CertificationError(MonosplitError):
    """An inner-solver certificate has a negative ``eps``, violates the
    relative-error criterion or cannot be recorded."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class TheoremViolation(MonosplitError):
    """An observed trace violates a guaranteed inequality or rate bound."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class ConfigError(MonosplitError):
    """An experiment configuration failed to parse or validate."""

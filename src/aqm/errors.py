"""Exception types shared across the package."""


class AqmError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(AqmError, ValueError):
    """Operands have incompatible matrix dimensions."""


class NotHermitianError(AqmError, ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


class IncompatibleObservableError(AqmError, ValueError):
    """Observable is not diagonal in the requested context (wrong device type)."""


class IndeterminateValueError(AqmError, ValueError):
    """No context was given to evaluate an observable in."""


class ImpossibleEventError(AqmError, ValueError):
    """Conditioning on an event of probability zero."""


class ConfigError(AqmError, ValueError):
    """Malformed run configuration."""

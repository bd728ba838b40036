"""The two exception types a caller tells apart.

Every other fault raises a plain ValueError.  A ConfigError is raised
only by aqm.cli, which decides every bad input before --out is created
and tells a ConfigError (bad input: exit 1, nothing written) from any
other exception (a broken run: exit 2 with an error result.json).
Measurability tests tell an IncompatibleObservableError (an observable
that its context does not contain) from a malformed operand.
"""


class ConfigError(ValueError):
    """Malformed run configuration."""


class IncompatibleObservableError(ValueError):
    """Observable is not diagonal in the requested context (wrong device type)."""

"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shape or size constraint violated."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class InsufficientStructureError(ValueError):
    """An operation needs more structure pixels than the mask provides."""


class InputError(ValueError):
    """Invalid or empty input collection."""


class MissingBlockError(InputError, KeyError):
    """A named block is absent from a store; also a KeyError for mapping-style callers."""

    __str__ = InputError.__str__  # KeyError's would quote the message

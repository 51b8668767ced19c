"""Shared exception types and the JSON key lookup that raises them."""


class DspkitError(Exception):
    """Base class for all library-specific errors."""


class ResourceLimitError(DspkitError):
    """A size or resource guard was exceeded."""


class PreconditionError(DspkitError, ValueError):
    """An operation was invoked outside its defined domain."""


class SeriesParameterError(DspkitError, ValueError):
    """A series parameter lies outside the family's validity range."""


class ChainMismatchError(DspkitError):
    """A catalog instance is not rigid, or its reduction step misses its successor."""


class ObstructionError(DspkitError):
    """No generic eigenvalue assignment can exist for the requested mode;
    ``witness``, when given, is a relation every such assignment satisfies."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def require_key(data: dict, key: str):
    """``data[key]`` of a parsed JSON object; a missing key is a ValueError naming it."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing key {key!r}")
    return data[key]

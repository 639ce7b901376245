"""Shared exception types.

The CLI maps ValidationError (and subclasses) to exit code 2 and
NumericalError to exit code 3; everything else is a genuine bug.
"""


class WaveshapeError(Exception):
    """Base class for all package errors."""


class ValidationError(WaveshapeError):
    """Bad inputs: malformed files, inconsistent dims, invalid parameters."""


class ShapeMismatchError(ValidationError):
    """Operands whose grid dims disagree."""


class NumericalError(WaveshapeError):
    """Non-finite values or failed numerical procedure."""

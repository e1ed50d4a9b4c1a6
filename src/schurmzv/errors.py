"""Exceptions shared across the package.

Each type carries the exit code the command line returns for it, so
library code should raise the most specific one that applies.
"""


class SchurMzvError(Exception):
    """Base class for all package errors."""
    exit_code = 3


class ParseError(SchurMzvError):
    """Malformed textual input (tableau files, index strings, flag values)."""
    exit_code = 2


class PreconditionError(SchurMzvError):
    """Structurally valid input that violates a documented precondition."""


class ResourceLimitError(SchurMzvError):
    """An enumeration or summation exceeded its configured budget."""
    exit_code = 4

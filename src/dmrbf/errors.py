"""Exception types raised across the package.

Everything derives from :class:`DmrbfError` so callers can catch one base
class at the CLI boundary and still get specific types in library code.
"""

from __future__ import annotations

from collections.abc import Callable


def shown(value: object, form: Callable[[object], str] = str) -> str:
    """``form(value)`` (``str`` or ``repr``) for a refusal message.

    An int of more than 1024 bits, which no float holds, is given by its
    bit length, and a container that Python will not print (it holds an
    int of over 4300 digits, `sys.get_int_max_str_digits`) by its type.
    """
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"an int of {value.bit_length()} bits"
    try:
        return form(value)
    except ValueError:
        return f"a {type(value).__name__} holding an int of over 4300 digits"


class DmrbfError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DmrbfError):
    """An array argument has the wrong shape (non-square, mismatched, empty)."""


class DomainError(DmrbfError):
    """A scalar argument lies outside its documented domain."""


class NumericalError(DmrbfError):
    """A numerical routine failed: an eigensolver did not converge, or a
    result left the float range."""


class ConditioningError(DmrbfError):
    """A matrix is too ill-conditioned for the requested operation.

    Carries the offending extreme eigenvalues so the caller can report them.
    """

    def __init__(self, message: str, min_eig: float, max_eig: float):
        super().__init__(f"{message} (min eigenvalue {min_eig:.6e}, max {max_eig:.6e})")
        self.min_eig = min_eig
        self.max_eig = max_eig


class DegenerateChannelError(DmrbfError):
    """The effective signal channel vanished; no meaningful weights exist."""


class DegenerateGeometryError(DmrbfError):
    """The desired signal lies (numerically) inside the nulled subspace."""


class UnsupportedScenarioError(DmrbfError):
    """The scenario violates a structural requirement of the method."""


class ConfigError(DmrbfError):
    """A configuration value failed validation.  ``field`` names the key."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ConfigParseError(DmrbfError):
    """A configuration file could not be parsed.  Carries the line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no

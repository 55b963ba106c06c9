"""Exception hierarchy shared by all modules.

Two families matter to callers: InputError (bad arguments, unsupported
requests, malformed files) and NumericError (a computation that was set up
correctly failed to converge or lost too much accuracy).  The command line
maps them to exit codes 2 and 3 respectively.
"""

import operator


class XlabError(Exception):
    """Base class for all library errors."""


class InputError(XlabError):
    """The request itself is invalid or unsupported."""


class DomainError(InputError):
    """A point or parameter lies outside the object's domain."""


class GeometryError(InputError):
    """A support specification is geometrically invalid."""


class SymmetryError(InputError):
    """A required symmetry of the input measure does not hold."""


class CapabilityError(InputError):
    """The combination of options is valid mathematics but not implemented."""


class MeasureFormatError(InputError):
    """A measure description file could not be parsed."""


def as_index(value, name):
    """``value`` as an integer by ``operator.index``, so numpy integers pass
    and 3.5 or "4" raise InputError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, not {value!r}") from None


class NumericError(XlabError):
    """A numeric computation failed to reach its target accuracy."""


class TracingError(NumericError):
    """Curve tracing stalled, lost the curve, or failed to close up."""


class DegeneracyError(NumericError):
    """Orthonormalization broke down: the measure cannot support the
    requested degree.  ``achieved_degree`` is the largest usable degree and
    ``basis`` (when present) holds the partial basis up to that degree."""

    def __init__(self, message, achieved_degree=None, basis=None):
        super().__init__(message)
        self.achieved_degree = achieved_degree
        self.basis = basis

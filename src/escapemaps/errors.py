"""Exception hierarchy shared across the package.

Everything raised deliberately by the library derives from EscapeMapsError,
so callers (in particular the CLI) can distinguish domain errors from bugs.
"""


class EscapeMapsError(Exception):
    """Base class for all errors raised by this package."""


class RationalParseError(EscapeMapsError, ValueError):
    """A rational literal is malformed or has a zero denominator, or a
    point or coefficient is not a Fraction or an int."""


class MapFormatError(EscapeMapsError, ValueError):
    """A JSON document does not follow the documented schema."""


class MapStructureError(EscapeMapsError, ValueError):
    """Interval/branch data does not describe a structurally valid map."""


class OutsideAmbientError(EscapeMapsError, ValueError):
    """A point lies outside the ambient interval of the map."""


class NotInDomainError(EscapeMapsError):
    """The map is undefined at the point (it lies in an open escape gap)."""

    def __init__(self, point, gap_index):
        self.point = point
        self.gap_index = gap_index
        super().__init__(f"map undefined at {point}: inside escape gap {gap_index}")


class NotAnEscapePointError(EscapeMapsError, ValueError):
    """An operation required a point inside an open escape gap (or an
    escape-rooted window) and was given something else."""


class OrbitMeetsBoundaryError(EscapeMapsError):
    """The generalized orbit touches a partition point, so the requested
    window/representation is undefined by design."""


class InconsistentInputsError(EscapeMapsError, ValueError):
    """Two inputs that must derive from the same map do not agree."""


class NotAdmissibleError(EscapeMapsError):
    """A certificate was requested for a vertex set that is not admissible."""


class DepthExceedsTreeError(EscapeMapsError, ValueError):
    """A step budget is not an int (a float, a bool or a string), or is out
    of range: a negative depth, max_iter or horizon, or a horizon past
    max_iter or the forward depth that classification verified."""


class WindowTooShallowError(EscapeMapsError, ValueError):
    """The materialized window is too shallow for the requested check."""


class InfeasibleSpecError(EscapeMapsError):
    """A synthesis spec failed its feasibility check."""

    def __init__(self, report):
        self.report = report
        super().__init__("synthesis spec is infeasible; see report")


class WidthSnapError(EscapeMapsError):
    """No widths make the synthesized map expanding: the transition matrix
    has a single interval, a zero row or is not primitive."""

"""Exception types raised across the library."""


class StokerlabError(Exception):
    """Base class for all library errors."""


class BallBoundary(StokerlabError):
    """A Klein point reached or left the open unit ball."""


class DegenerateFace(StokerlabError):
    """Three points span no hyperbolic plane, or an edge's face planes are ultraparallel."""


class LiftFailure(StokerlabError):
    """Input matrix violates the Lorentz isometry invariants."""


class InvalidCombinatorics(StokerlabError):
    """Face-vertex incidence data does not describe a closed polyhedron."""


class PlanarityViolation(StokerlabError):
    """A face of an embedding is not planar within tolerance."""


class ConvexityViolation(StokerlabError):
    """An embedding fails the strict convexity inequalities."""


class DimensionMismatch(StokerlabError):
    """A computed nullity disagrees with the predicted dimension."""


class RankDeficiency(StokerlabError):
    """A matrix expected to have full rank is rank-deficient."""


class DegenerateFrame(StokerlabError):
    """The first three vertices are collinear; no canonical frame exists."""


class SolverError(StokerlabError):
    """Base class for angle-realization solver failures.

    ``waypoint`` is the failing waypoint index when raised from a
    continuation run, and ``results`` holds the results completed before the
    failure.
    """

    def __init__(self, message, waypoint=None, results=None):
        super().__init__(message)
        self.waypoint = waypoint
        self.results = results if results is not None else []


class NoConvergence(SolverError):
    """Iteration budget exhausted above the residual tolerance."""


class ConvexityLost(SolverError):
    """A convexity margin fell to ``tol.convex``; the target leaves the convex regime."""


class BallExit(SolverError):
    """A vertex left the open unit ball during the solve."""


class IndexRange(StokerlabError):
    """A word references a generator outside the declared range."""


class EigenFailure(StokerlabError):
    """Eigenvector extraction was too ill-conditioned to classify."""


class ParseError(StokerlabError):
    """An input file could not be parsed; carries a position when known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

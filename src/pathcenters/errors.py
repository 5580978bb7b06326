"""Exception hierarchy shared across the package."""


class PathcentersError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(PathcentersError):
    """Invalid graph construction or a graph-level precondition failure."""


class ParseError(PathcentersError):
    """Malformed graph file or element text; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class WordError(PathcentersError):
    """A raw word is not composable in the extended graph."""


class AmbientError(PathcentersError):
    """Mixed ambient data: different graphs, kinds, fields or edge choices."""


class HypothesisNotMet(PathcentersError):
    """A structure theorem was invoked outside its hypotheses."""


class InvariantViolation(PathcentersError):
    """An internal consistency check failed: a theorem, a constructed
    generator or the oracle disagreed with what the mathematics guarantees."""


class ResourceCapExceeded(PathcentersError):
    """A configured resource cap (candidate monomials, vertex count, cycles,
    hereditary saturated sets) was hit."""

    def __init__(self, message, needed=None, cap=None):
        self.needed = needed
        self.cap = cap
        super().__init__(message)

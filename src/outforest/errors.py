"""Exception types shared across the package."""


class OutForestError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(OutForestError):
    """A text input could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedLine(ParseError):
    pass


class OutOfRangeVertex(ParseError):
    pass


class DuplicateArc(ParseError):
    pass


class SelfLoop(ParseError):
    pass


class NotReachable(OutForestError):
    """Some vertex cannot be reached from the requested root."""

    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} is not reachable from the root")
        self.vertex = vertex


class ArcNotInDigraph(OutForestError):
    pass


class OddOrder(OutForestError):
    pass


class WrongClass(OutForestError):
    pass


class NotWeakPerfect(OutForestError):
    pass


class NotAlmostPerfect(OutForestError):
    pass


class NotPerfectMatching(OutForestError):
    pass


class TooFewTriples(OutForestError):
    pass


class Not3DMPerfectMatching(OutForestError):
    pass


class StructureMismatch(OutForestError):
    pass


class BudgetExceeded(OutForestError):
    pass


class InvariantError(OutForestError):
    """An internal invariant failed: a fault in this package, not bad
    input.  Raised where an `assert` would vanish under `python -O`."""

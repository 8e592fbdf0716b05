"""Error types raised by the toolkit.

Every computation failure raises a subclass of ToolkitError; the CLI maps
these to exit code 1 and prints the class name verbatim on the diagnostic
stream.
"""


class ToolkitError(Exception):
    """Base class for all computation errors in this package."""


class Unbounded(ToolkitError):
    """The H-polytope has a nonzero recession direction."""


class EmptyPolytope(ToolkitError):
    """No point satisfies every halfspace."""


class FanNotComplete(ToolkitError):
    """The rays do not positively span the lattice, so the dual polytope is unbounded."""


class GroupDoesNotPreserveFan(ToolkitError):
    """A group element fails to permute the ray set."""


class GroupNotClosed(ToolkitError):
    """The element list is not closed under products, or closure exceeds the cap."""


class DegenerateSubdivision(ToolkitError):
    """Star subdivision request is degenerate (empty or dependent subset, or existing ray)."""


class NotWellFormed(ToolkitError):
    """Weighted projective space weights with a common factor in some n-element sub-multiset."""


class OutOfRegime(ToolkitError):
    """Closed-form formula invoked outside the degree range where it holds."""


class UnsupportedDescriptor(ToolkitError):
    """Del Pezzo descriptor describes no surface covered by the value table."""


class UnknownKey(ToolkitError):
    """Equivariant threshold requested for a key that is not in the known table."""


class InvalidId(ToolkitError):
    """Not a valid Fano threefold family id (valid: 1.1-1.17, 2.1-2.36, 3.1-3.31, 4.1-4.13, 5.1-5.8)."""


class ParseError(ToolkitError):
    """Malformed table or fan text. Carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")

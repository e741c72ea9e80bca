"""Exception hierarchy for spheremap.

Every error raised by this package derives from SpheremapError, so callers
can catch one base class. Construction-input errors and file-format errors
are kept separate from internal-consistency errors (InconsistentDegree),
which indicate a corrupted complex rather than bad user input.  Their
messages show caller-supplied values through ``_shown``.
"""


def _shown(x) -> str:
    """repr(x) for a message, but '<too long to print>' for an int of more
    than 100 digits, or for a value whose repr raises ValueError because it
    holds an int past the interpreter's 4,300-digit limit."""
    if isinstance(x, int) and abs(x) >= 10 ** 100:
        return "<too long to print>"
    try:
        return repr(x)
    except ValueError:
        return "<too long to print>"


class SpheremapError(Exception):
    """Base class for all spheremap errors."""


# -- complex construction ---------------------------------------------------

class NonPure(SpheremapError):
    """Facet list mixes cardinalities."""


class DuplicateFacet(SpheremapError):
    """The same facet appears twice."""


class DegenerateFacet(SpheremapError):
    """A facet repeats a vertex."""


class UnknownVertex(SpheremapError):
    """A vertex id is not part of the complex."""


class FacetNotFound(SpheremapError):
    """The named facet is not in the complex."""


class VertexAlreadyPresent(SpheremapError):
    """A supposedly fresh vertex id already exists."""


class NotClosed(SpheremapError):
    """Operation requires a closed pseudomanifold and the check failed."""


class NonOrientable(SpheremapError):
    """No coherent orientation exists."""


# -- labelings and degree ---------------------------------------------------

class BadLabeling(SpheremapError):
    """Labeling does not cover the vertex set or uses out-of-range colors."""


class NotAPermutation(SpheremapError):
    """Color relabeling map is not a bijection of {1..n+2}."""


class InconsistentDegree(SpheremapError):
    """Per-target-facet signed sums disagree.

    This never happens for a genuine closed coherently-oriented
    pseudomanifold; it signals internal corruption (e.g. hand-edited
    orientation signs). The offending report is attached for diagnosis.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotSingletonColor(SpheremapError):
    """Vertex's color has other preimages, so the link cut is undefined."""


class InvalidLink(SpheremapError):
    """A vertex link fails the sphere checks or is not coherently oriented."""


# -- generators -------------------------------------------------------------

class InvalidDimension(SpheremapError):
    """Dimension outside the generator's domain."""


class ZeroDegree(SpheremapError):
    """Cyclic circle generator needs a nonzero degree."""


class PivotNotFound(SpheremapError):
    """Suspension pivot is not a vertex of the input."""


class BadFacetSign(SpheremapError):
    """Insertion requires a facet of sign +1."""


class BadFacetColors(SpheremapError):
    """Insertion requires a facet colored exactly {1..n+1}."""


# -- search -----------------------------------------------------------------

class UnsupportedDimension(SpheremapError):
    """Exhaustive enumeration only exists for n in {1, 2}."""


class BudgetExceeded(SpheremapError):
    """Requested vertex budget is above the supported guard."""


# -- documents --------------------------------------------------------------

class DocumentSyntaxError(SpheremapError):
    """Document text is not well-formed."""


class ValidationError(SpheremapError):
    """Document contents violate a structural invariant (named in message)."""


class DegreeMismatch(SpheremapError):
    """Document's claimed degree disagrees with the recomputed degree."""

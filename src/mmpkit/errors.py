"""Exception hierarchy for the toolkit.

Every error raised by the library carries a short machine-readable ``code``
so the command-line layer can report failures without stack traces.

An error about one input value also carries a ``field``: the path of the
offending value relative to the object or function that checked it, such
as ``rays[0]`` for a ``Cone``, ``edges[2]`` for a ``DualGraph``, ``coeff``
for a ``BoundaryComponent`` or ``divisor`` for ``is_nef``.  A caller that
holds the value inside a larger document puts its own prefix in front.
An error without a field is a mathematical precondition that failed on
well-formed input.
"""


class ToolkitError(Exception):
    """Base class for all library errors.

    ``code`` overrides the class default for this instance; ``field`` names
    the offending input, or is None when no single input is at fault.
    """

    code = "error"

    def __init__(self, message: str = "", code: str | None = None, field: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code
        self.field = field


class InvalidInputError(ToolkitError, ValueError):
    """An input value breaks a domain rule; always names its field."""

    code = "invalid_input"


# -- exact linear algebra -----------------------------------------------------

class SingularMatrixError(ToolkitError):
    code = "singular_matrix"


class NotSymmetricError(ToolkitError):
    code = "not_symmetric"


class ZeroVectorError(ToolkitError):
    code = "zero_vector"


# -- toric cones --------------------------------------------------------------

class NotFullDimensionalError(ToolkitError):
    code = "not_full_dimensional"


class NotStronglyConvexError(ToolkitError):
    code = "not_strongly_convex"


class NotInConeError(ToolkitError):
    code = "not_in_cone"


class NotQGorensteinError(ToolkitError):
    code = "not_q_gorenstein"


class NotPrimitiveError(ToolkitError):
    code = "not_primitive"


# -- resolution dual graphs ---------------------------------------------------

class DisconnectedError(ToolkitError):
    code = "disconnected"


class NotContractibleError(ToolkitError):
    code = "not_contractible"


class InvalidSiteError(ToolkitError):
    code = "invalid_site"


# -- surface lattices ---------------------------------------------------------

class NonIntegralGenusError(ToolkitError):
    code = "non_integral_genus"


class UnboundedSearchError(ToolkitError):
    code = "unbounded_search"


class NotMinusOneClassError(ToolkitError):
    code = "not_minus_one_class"


class NotRank2Error(ToolkitError):
    code = "not_rank_2"


class EmptyCurveListError(ToolkitError):
    code = "empty_curve_list"


class DegenerateConeError(ToolkitError):
    code = "degenerate_cone"


class UndeterminedOutcomeError(ToolkitError):
    code = "undetermined_outcome"


# -- curve-level utilities ----------------------------------------------------

class InsufficientSamplesError(ToolkitError):
    code = "insufficient_samples"


class NegativeCoefficientError(ToolkitError):
    code = "negative_coefficient"


class CoefficientOutOfRangeError(ToolkitError):
    code = "coefficient_out_of_range"

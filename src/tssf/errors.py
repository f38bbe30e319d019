"""Exception types shared across the library."""


class TssfError(Exception):
    """Base class for all library errors."""


class InvalidInput(TssfError, ValueError):
    """An argument violates a documented precondition."""


class DimMismatch(InvalidInput):
    """Operands have incompatible shapes."""


def _where(index):
    # " i" or " (i, j)" naming a matrix of a stack in a message; "" for a lone one
    return "" if not index else f" {index[0]}" if len(index) == 1 else f" {index}"


class NotPositiveDefinite(TssfError):
    """A matrix required to be symmetric positive definite is not.

    ``NotPositiveDefinite(what, fault, index)`` reads "what index fault" and
    keeps the parts; ``index`` is the matrix's in its stack, ``()`` for a
    lone one. ``NotPositiveDefinite(message)`` has ``fault`` and ``index`` None.
    """

    def __init__(self, what, fault=None, index=None):
        super().__init__(what if fault is None else f"{what}{_where(index)} {fault}")
        self.what, self.fault, self.index = what, fault, index


class ConvergenceFailure(TssfError):
    """An iterative solver stopped before reaching its tolerance.

    Carries the last residual in ``residual`` when available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateModel(TssfError):
    """A fitted model is unusable (e.g. single-class data, zero weights)."""


class UnsupportedFeatureKind(TssfError):
    """The requested feature kind is not valid for this operation."""


class FormatError(TssfError):
    """A file does not conform to its declared on-disk format."""


class DegenerateStatistic(TssfError):
    """A statistic is undefined for the given data (e.g. zero variance)."""

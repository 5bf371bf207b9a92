"""Exception types shared across the package."""


class GmcError(Exception):
    """Base class for all package-specific errors."""


class BasisMismatch(GmcError):
    """Two algebra elements built over different generator sets or relation tables."""


class UnpairedDistributions(GmcError):
    """Attempt to pair two polynomial-growth vectors directly (no smoothing in between)."""


class PreconditionError(GmcError):
    """An operation's stated precondition does not hold for the given inputs."""


class UnsupportedOperation(GmcError):
    """The group model does not provide the requested capability."""


class EnvelopeViolation(PreconditionError):
    """A stored coefficient exceeds the declared growth bound."""


class BudgetExceeded(GmcError):
    """Adaptive truncation could not reach the requested tolerance within budget.

    Carries the bound that was achieved so callers can report it.
    """

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(f"{message} (achieved bound {achieved_bound:.3e})")
        self.achieved_bound = achieved_bound


class QuadratureAccuracyError(GmcError):
    """Two quadrature resolutions disagree beyond tolerance.

    The message gives the achieved gap and the tolerance; both results are kept
    as attributes.
    """

    def __init__(self, message: str, gap: float, tol: float, coarse=None, fine=None):
        super().__init__(f"{message} (gap {gap:.3g}, tolerance {tol:.3g})")
        self.gap = gap
        self.tol = tol
        self.coarse = coarse
        self.fine = fine


class SpecParseError(GmcError):
    """A CLI mini-language spec string could not be parsed; names the offending token."""

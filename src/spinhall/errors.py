"""Exception types raised across the package."""


class SpinHallError(Exception):
    """Base class for all package-specific errors."""


class DegenerateBrightState(SpinHallError):
    """Total bright-link Rabi frequency is zero while the lower control
    fields are not: the dark/bright decomposition is direction-dependent
    and the effective couplings must be supplied directly."""


class SingularDenominator(SpinHallError):
    """The steady-state coherence ratio is not finite (its denominator
    vanished, or its terms overflowed) at a detuning not covered by the
    removable-limit formula."""


class InvalidAngle(SpinHallError):
    """Incidence angle outside the open interval (0, pi/2)."""


class ResonantDenominator(SpinHallError):
    """Multilayer denominator 1 + r12*r23*exp(2i k2z d) is numerically zero."""


class NoMinimumInWindow(SpinHallError):
    """The search window does not bracket an interior minimum of |rp|."""


class ParseError(SpinHallError):
    """A configuration file could not be parsed."""


class ValidationError(SpinHallError):
    """A configuration value violates an invariant of its type."""

"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A supplied parameter violates its documented range."""


class InterferenceDivergenceError(ArithmeticError):
    """The interference integral is non-integrable for this configuration.

    Raised instead of silently returning a huge number when the kernel's
    exponent p is at most 2, such as transmit power (p = alpha) at alpha <= 2.
    """


class NormalizationFitError(RuntimeError):
    """The root-solve for the nearest-distance PDF normalization failed."""


class MonotonicityError(RuntimeError):
    """A quantity that must be monotone on its evaluation grid is not.

    SINR-vs-distance inversion is undefined without strict monotonicity.
    """

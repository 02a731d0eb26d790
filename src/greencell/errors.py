"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A supplied parameter violates its documented range."""


class InterferenceDivergenceError(ArithmeticError):
    """The interference integral is non-integrable for this configuration.

    Raised instead of silently returning a huge number, e.g. when the
    serving distance exceeds the hard-core radius and no regularization
    is active, or when the path-loss exponent is too small for the
    transmit-power integral to converge.
    """


class NormalizationFitError(RuntimeError):
    """The root-solve for the nearest-distance PDF normalization failed."""


class MonotonicityError(RuntimeError):
    """A quantity that must be monotone on its evaluation grid is not.

    SINR-vs-distance inversion is undefined without strict monotonicity.
    """

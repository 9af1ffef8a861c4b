"""Exception types shared across the package."""


class CvsepError(Exception):
    """Base class for all errors raised by this package."""


class NotFinite(CvsepError):
    """Input contains NaN or infinite entries."""


class NotSymmetric(CvsepError):
    """Matrix asymmetry exceeds the symmetry tolerance."""


class NotPhysical(CvsepError):
    """Correlation matrix violates the uncertainty relation."""


class InvalidLlubo(CvsepError):
    """Local operation blocks are not unit-determinant 2x2 matrices."""


class ZeroCoefficient(CvsepError):
    """EPR pair coefficient a must have a^2 and 1/a^2 finite and nonzero."""


class RootNotBracketed(CvsepError):
    """The balance function is positive at the end of its bracket (unphysical input)."""


class DegenerateForm(CvsepError):
    """A mode at vacuum purity, or a vanishing intermode coefficient: the
    squeeze-balance ratio or the optimal witness pair is undefined."""


class NotInSeparableRegime(CvsepError):
    """A positive P-representation exists only in the separable regime."""

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
    """EPR pair coefficient a must be nonzero."""


class DegenerateMode(CvsepError):
    """A mode sits at vacuum purity; the squeeze-balance equation is vacuous."""


class RootNotBracketed(CvsepError):
    """The balance function is positive at the end of its bracket (unphysical input)."""


class DegenerateForm(CvsepError):
    """Standard form II is degenerate; the optimal witness pair is undefined."""


class NotInSeparableRegime(CvsepError):
    """A positive P-representation exists only in the separable regime."""

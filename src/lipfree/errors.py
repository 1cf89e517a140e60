"""Exception types shared across the package."""


class LipfreeError(Exception):
    """Base class for all package errors."""


class BadParameter(LipfreeError):
    """A numeric parameter is outside its admissible range."""


class DuplicatePoint(LipfreeError):
    """Two input points coincide under the chosen norm."""


class SizeLimit(LipfreeError):
    """Instance exceeds the exact-solver size cap."""


class CoverageGap(LipfreeError):
    """Interval family fails to cover the working window."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SupportMismatch(LipfreeError):
    """A weight is nonzero outside its declared annulus."""


class BadFamily(LipfreeError):
    """Annulus family violates a structural precondition."""


class TooSmall(LipfreeError):
    """Space has too few points for the requested operation."""


class BadSubset(LipfreeError):
    """Subset violates a membership precondition."""


class NotSigmaClosed(LipfreeError):
    """Scaling a sample point leaves the sample beyond snap tolerance."""


class PoleInDomain(LipfreeError):
    """A sphere sample contains the projection pole."""


class TooLarge(LipfreeError):
    """Requested generator size exceeds the desk-scale cap."""


class BadSuite(LipfreeError):
    """Unknown suite name or unusable suite configuration."""


class Mismatch(LipfreeError):
    """Two reports cannot be compared."""


class InternalInvariantBroken(LipfreeError):
    """A property that holds by construction failed numerically."""

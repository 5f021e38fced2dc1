"""Shared exception types."""


class BoxQFTError(Exception):
    """Base class for all boxqft errors."""


class DimensionOverflow(BoxQFTError):
    """Fock-space dimension exceeds the configured limit."""


class UnknownMode(BoxQFTError):
    """Requested mode or channel is not part of the grid."""


class DimensionMismatch(BoxQFTError):
    """Operator and state dimensions do not match, or a density is read on
    a space other than its own."""


class OffLatticeMomentum(BoxQFTError):
    """Spatial momentum is not on the reciprocal lattice of the box."""


class MomentumMismatch(BoxQFTError):
    """Momentum conservation violated between external momenta."""


class DegenerateBasis(BoxQFTError):
    """Tensor fit basis is degenerate for the given momentum."""


class RequiresCanonicalFrame(BoxQFTError):
    """Operation only defined for momenta of the form (0,0,0,q) or (t,0,0,q)."""


class ZeroMomentum(BoxQFTError):
    """Spinor conventions are ambiguous at vanishing longitudinal momentum."""


class ConfigInvalid(BoxQFTError):
    """Experiment configuration failed validation."""

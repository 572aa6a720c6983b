"""Exception types for density-matrix validation and witness construction."""


class DimensionError(ValueError):
    """Raised when matrix shapes or subsystem dimension lists do not match."""


class DensityMatrixError(ValueError):
    """Base class for density-matrix invariant violations.

    Parameters
    ----------
    message : str
        Human-readable description.
    magnitude : float
        Size of the offending violation (e.g. how far the trace is from 1).
    """

    def __init__(self, message, magnitude):
        super().__init__(f"{message} (magnitude {magnitude:.3e})")
        self.magnitude = magnitude


class HermiticityViolation(DensityMatrixError):
    """Matrix is not Hermitian within tolerance."""


class TraceViolation(DensityMatrixError):
    """Matrix trace differs from 1 beyond tolerance."""


class NegativityViolation(DensityMatrixError):
    """Matrix has an eigenvalue below the PSD floor."""


class NonFiniteEntry(DensityMatrixError):
    """Matrix has NaN or infinite entries; the magnitude is their count."""


class EigensolverError(DensityMatrixError):
    """Eigensolver residual exceeds tolerance (the magnitude), or LAPACK failed (NaN)."""


class NotAWitness(ValueError):
    """Operator has no negative eigenvalue, so it cannot witness entanglement."""


class NotGHZClass(ValueError):
    """Canonical parameters have zero tangle, so GHZ-subclass machinery does not apply."""

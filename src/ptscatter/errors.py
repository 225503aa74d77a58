"""Exception types raised by the scattering engine."""


class ScatteringError(Exception):
    """Base class for all errors raised by this package.

    ``k`` is the wave number a failure over a batch of k belongs to, or
    None when the error does not single one out.
    """

    def __init__(self, *args, k: float | None = None):
        super().__init__(*args)
        self.k = k


class DegenerateSolutions(ScatteringError):
    """The two basis solutions are not linearly independent."""


class TransmissionPole(ScatteringError):
    """M_RR vanishes: spectral singularity, transmission diverges."""


class ZeroTransmission(ScatteringError):
    """T(L->R) = 0, the S -> M conversion is undefined."""


class GammaPole(ScatteringError):
    """log-gamma evaluated at a non-positive integer."""


class NumeratorPole(GammaPole):
    """A numerator gamma factor sits on a pole; the ratio diverges."""


class PrecisionLoss(ScatteringError):
    """Cancellation leaves a closed form with too few correct digits."""


class StepTooLarge(ScatteringError):
    """Integration step violates the points-per-wavelength criterion."""


class NonDecayedPotential(ScatteringError):
    """|V| at the support edges exceeds the decay tolerance."""


class TransferOverflow(ScatteringError):
    """A transfer-matrix element exceeded the overflow threshold."""


class QuadratureFailure(ScatteringError):
    """Adaptive quadrature did not reach the requested tolerance."""


class ResonancePole(ScatteringError):
    """A non-local denominator 1 - lambda*N vanishes."""


class InvalidNu(ScatteringError):
    """Effective index nu outside the validity window Re(nu) > -1/2."""


class AsymmetricGrid(ScatteringError):
    """Grid is not symmetric about x = 0."""


class VacuousForReflectionless(ScatteringError):
    """Phase relation is undefined when the reflection coefficient is zero."""

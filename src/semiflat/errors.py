"""Exception hierarchy for the semiflat package."""


class SemiflatError(Exception):
    """Base class for all package-specific errors."""


class SingularPolarization(SemiflatError):
    """The polarization matrix Q is not invertible or not antisymmetric."""


class NotPositive(SemiflatError):
    """A matrix required to be positive definite is not."""


class SingularPeriods(SemiflatError):
    """The stacked period matrix (T; conj T) is numerically singular."""


class UnsupportedType(SemiflatError):
    """Fiber type outside the local-model catalog."""


class UnsupportedPair(SemiflatError):
    """Fiber pair that fiber_product does not build: one with an I_b factor."""


class Unsupported(SemiflatError):
    """Operation not defined for this model; among others, the classification of
    a fiber pair with no complete model, which `classify_asymptotics` alone decides."""


class DegenerateLattice(SemiflatError):
    """An imaginary pairing Im(conj(tau_i) tau_j) is non-positive at the sample point."""


class StepTooSmall(SemiflatError):
    """Finite-difference residual is dominated by rounding noise."""


class FitRejected(SemiflatError):
    """A decay or volume-growth fit is refused: its window is too short, a value
    is not finite, every radius over the flat threshold was rejected, or the
    regression residual is not below its threshold."""


class NoConvergence(SemiflatError):
    """Rescaled metric coefficients fail the Cauchy criterion across decades, or
    the radial distance table or its inversion does not converge (a distance
    out of reach, an integrand not finite or not positive)."""


class PolePoint(SemiflatError):
    """The argument is too close to a lattice point."""


class BranchPoint(SemiflatError):
    """wp' vanishes at the argument (branch point of the cubic model)."""


class NotConvergent(SemiflatError):
    """A q-series argument lies outside the convergence policy disk."""


class OriginSingular(SemiflatError):
    """The Eguchi-Hanson closed form is singular at z = 0."""


class ScenarioError(SemiflatError):
    """Malformed scenario configuration (CLI exit code 2)."""

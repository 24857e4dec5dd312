"""Exception hierarchy for the bcsuth package."""


class BcsuthError(Exception):
    """Base class for all package errors."""


class ParameterError(BcsuthError, ValueError):
    """A coupling-parameter constraint is violated; message names the inequality."""


class DomainError(BcsuthError, ValueError):
    """A phase-space point lies outside (or too close to the wall of) its chart."""


class DegenerateTorusError(DomainError):
    """Action vector on the chamber boundary: the angle chart is undefined there.

    Work in the oscillator (z) chart instead; it covers these points smoothly.
    """


class DegenerateChartError(DomainError):
    """Oscillator point with a vanishing component: angles cannot be read off."""


class StructureError(BcsuthError, ValueError):
    """Matrix fails the residual test of its claimed structure tag."""


class PairingError(BcsuthError):
    """A factorization finds no valid structured frame or fails to rebuild its input."""


class ConsistencyError(BcsuthError):
    """An internal cross-check identity failed beyond tolerance (self-check)."""


class NonConvergenceError(BcsuthError):
    """Newton iteration of the implicit integrator failed to converge.

    Raised inside ``dynamics.integrate``, it carries in ``stats`` the
    integrator counters so far, keyed by ``dynamics.STATS``: the failed step
    adds its evaluations and Jacobians but is not counted as a step.
    """

    stats = None


class BoundaryApproachError(BcsuthError):
    """Integration stopped because the state approached a domain wall.

    Carries the truncated trajectory in ``partial`` when available.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial

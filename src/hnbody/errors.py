"""Exception types shared across the package."""


class HnbodyError(Exception):
    """Base class for all library errors."""


class DomainError(HnbodyError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(HnbodyError):
    """A configuration touched the singular set (collision / antipodal pair)."""

    def __init__(self, message, pair=None, time=None, theta=None, trajectory=None):
        super().__init__(message)
        self.pair = pair
        self.time = time
        self.theta = theta
        self.trajectory = trajectory


class StepSizeError(HnbodyError):
    """The adaptive integrator drove the step size below machine resolution."""


class ConvergenceError(HnbodyError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, iterations=None, residual_norm=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm


class ClassNotSolvableError(HnbodyError):
    """Requested a root search for an equilibrium class that has no solutions."""


class PoleError(HnbodyError):
    """A flow was evaluated at or beyond a pole of its closed form."""

    def __init__(self, message, pole_time=None, interval=None):
        super().__init__(message)
        self.pole_time = pole_time
        self.interval = interval


class ValidationError(HnbodyError, ValueError):
    """A configuration document failed schema validation.

    ``path`` points at the offending field, e.g. ``bodies[0].im``.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message

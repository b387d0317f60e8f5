"""Exception types shared across the package."""


class ConstructionError(ValueError):
    """Raised when a network, schedule, or config is built with bad arguments."""


class ContractViolationError(RuntimeError):
    """An operation was called in a state that its contract forbids."""


class IntegrationDivergenceError(RuntimeError):
    """State became non-finite during integration.

    Carries the index of the offending step so callers can report where a
    trajectory blew up.
    """

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class NotAnEquilibriumError(RuntimeError):
    """Equilibrium solve failed to bring the residual under tolerance."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"residual {residual:.3e} did not reach tolerance")


class NonDifferentiableStateError(ValueError):
    """A state sits on an activation kink where the Jacobian is undefined."""

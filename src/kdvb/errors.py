"""Exception types shared across the package.

The hierarchy mirrors the failure modes of the numerical pipeline:
invalid scalar parameters, violated array contracts, malformed run
configurations, blow-up during time stepping, under-resolved grids or
windows, and resonant zero denominators in the multiplier calculus.
"""


class ParameterError(ValueError):
    """A scalar argument is outside its admissible range."""


class InitialDataError(ParameterError):
    """A ParameterError caused by the initial data, not by a block value."""


class ContractViolationError(ValueError):
    """An array argument violates a structural contract (shape, grid match)."""


class ConfigError(ValueError):
    """A run configuration document is malformed or out of range."""


class DivergenceError(RuntimeError):
    """The time integration produced a non-finite state."""

    def __init__(self, step_index: int, time: float, run: int, epsilon: float, dt: float):
        self.step_index = step_index
        self.time = time
        self.run = run  # the index of the diverged run in its batch
        self.epsilon = epsilon
        self.dt = dt
        super().__init__(
            f"epsilon = {epsilon}: non-finite state detected at step {step_index} "
            f"(t = {time:.6g}, dt = {dt:.6g})"
        )

    def __reduce__(self):
        return type(self), (self.step_index, self.time, self.run, self.epsilon, self.dt)


class ResolutionError(RuntimeError):
    """A grid, window, or snapshot density is too coarse for the request."""


class ResonantDenominatorError(ZeroDivisionError):
    """A multiplier denominator vanished on the zero-sum hyperplane."""


class RangeError(FloatingPointError):
    """A computation overflowed the representable floating-point range."""

"""Exception types shared across the package."""


class IonTrapBenchError(Exception):
    """Base class for all package errors."""


class SolverError(IonTrapBenchError):
    """Equilibrium solver failed to converge."""


class ZigzagInstability(IonTrapBenchError):
    """Linear chain is unstable against zigzag buckling.

    Carries the most negative squared mode frequency (rad^2/s^2).
    """

    def __init__(self, message, min_sq_freq):
        super().__init__(message)
        self.min_sq_freq = min_sq_freq


class UnsupportedTarget(IonTrapBenchError):
    """Instruction addresses a channel the machine does not provide."""


class GridViolation(IonTrapBenchError):
    """A duration or start time is not representable on the timing grid."""


class UnknownLabel(IonTrapBenchError):
    """Branch references a measurement label that does not exist."""


class FockLeakage(IonTrapBenchError):
    """Population leaked into the top Fock level beyond the allowed threshold."""

    def __init__(self, message, leakage):
        super().__init__(message)
        self.leakage = leakage


class FitFailure(IonTrapBenchError):
    """Weighted fit did not converge."""


class SchemaError(IonTrapBenchError):
    """Configuration file violates the documented key schema."""


class NoValidShots(IonTrapBenchError):
    """Every shot of a run was invalidated, so no statistic can be formed."""

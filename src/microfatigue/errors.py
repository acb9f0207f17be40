"""Exception hierarchy for the microfatigue package. Every class below the base
is raised somewhere in it."""


class MicrofatigueError(Exception):
    """Base class for all package-specific errors."""


class CalibrationError(MicrofatigueError):
    """Damage-model calibration targets are infeasible."""


class EstimationError(MicrofatigueError):
    """A statistical estimate cannot be formed from the given data."""


class ConfigError(MicrofatigueError):
    """One or more configuration fields are invalid.

    Carries a list of (path, message) pairs so every problem is reported
    in a single pass.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in self.problems))

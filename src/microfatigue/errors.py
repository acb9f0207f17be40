"""Exception hierarchy for the microfatigue package. Every class below the base
is raised somewhere in it. An argument at fault, a calibration target among them,
raises ValueError, its message led by the argument's name."""

import re

# The most characters of a key, or of a value's repr, that a fault message shows: a
# longer one shows its first SHOWN_CHARS characters, then its length.
SHOWN_CHARS = 60

# The most item faults that one list field reports; one more fault counts the rest.
SHOWN_FAULTS = 3

# A run of digits, as a check echoes a whole number: within the float range that a
# config admits, one of up to 309 digits.
_DIGITS = re.compile(r"\d+")


def shown(text: str) -> str:
    """text as a fault message shows it: whole, or cut to SHOWN_CHARS and its length."""
    return text if len(text) <= SHOWN_CHARS else f"{text[:SHOWN_CHARS]}... (length {len(text)})"


class MicrofatigueError(Exception):
    """Base class for all package-specific errors."""


class EstimationError(MicrofatigueError):
    """A statistical estimate cannot be formed from the given data."""


class ConfigError(MicrofatigueError):
    """One or more configuration fields are invalid.

    Carries a list of (path, message) pairs so every problem is reported
    in a single pass. A message shows each run of digits as ``shown`` does.
    """

    def __init__(self, problems):
        self.problems = [(path, _DIGITS.sub(lambda run: shown(run[0]), message))
                         for path, message in problems]
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in self.problems))

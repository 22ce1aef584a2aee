"""Exception hierarchy shared by all seatcheck modules, and the integer test
that the validators use before raising DataError.

The CLI maps these onto process exit codes: DataError -> 2,
NumericalError -> 3 (usage errors exit 1).
"""

import numpy as np


def is_integer(v) -> bool:
    """A Python or numpy integer; a bool, a float or anything else is not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


class SeatcheckError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SeatcheckError):
    """Invalid input data: bad dimensions, missing classes, malformed files."""


class NumericalError(SeatcheckError):
    """Numerical failure: non-finite values where finite ones are required."""


class StageError(SeatcheckError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[stage={stage}] {cause}")
        self.stage = stage
        self.cause = cause

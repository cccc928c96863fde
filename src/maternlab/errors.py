"""Exception types shared across the package."""

__all__ = [
    "MaternlabError",
    "ConditioningError",
    "TruncationError",
    "InsufficientDataError",
]


class MaternlabError(Exception):
    """Base class for errors raised by this package."""


class ConditioningError(MaternlabError):
    """A Gram factorization hit a pivot at or below the conditioning floor.

    The pivot is its bound K(0)(1 - rho(gap)^2), checked before the banded
    solve runs; a block pivot of that solve at or below 0 raises it too.

    Attributes
    ----------
    pivot_index : int
        Zero-based index of the offending pivot.
    pivot_value : float
        The diagonal remainder (or its bound) that fell below the floor.
    floor : float
        The absolute threshold that was in force.
    """

    def __init__(self, pivot_index, pivot_value, floor, detail=""):
        self.pivot_index = int(pivot_index)
        self.pivot_value = float(pivot_value)
        self.floor = float(floor)
        msg = (
            f"factorization pivot {self.pivot_index} = {self.pivot_value:.6e} "
            f"at or below conditioning floor {self.floor:.6e}"
        )
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class TruncationError(MaternlabError):
    """A spectral truncation cannot supply the requested number of modes."""


class InsufficientDataError(MaternlabError):
    """A rate fit was requested with fewer than two usable levels."""

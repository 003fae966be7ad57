"""Exceptions and the integer input check shared by all hyperlab modules."""

import numbers


class HyperlabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(HyperlabError, ValueError):
    """Malformed or out-of-contract input (wrong shape, non-Hermitian, ...)."""


class NotCompletelyPositive(HyperlabError):
    """Choi matrix has a negative eigenvalue beyond tolerance."""


class NotUCP(HyperlabError):
    """Map fails the unital and/or completely positive requirements."""


class NotIsometry(HyperlabError):
    """Operator expected to satisfy V*V = I exactly does not."""


class Infeasible(HyperlabError):
    """Affine constraint system admits no solution."""


def require_integer(name: str, value) -> None:
    """InvalidInput unless value is an int or numpy integer, not a bool.

    A plain int returns before the numbers.Integral check, which costs
    about ten times as much; the dataclass checks run on every solve."""
    if type(value) is int:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")

"""Exception hierarchy shared by all hyperlab modules."""


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

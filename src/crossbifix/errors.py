"""The two outcomes a caller acts on; every other bad argument is a plain ValueError.

Both subclass ValueError, so code that catches ValueError for bad input
catches them too.
"""

__all__ = ["CapExceededError", "NoBlockerError"]


class CapExceededError(ValueError):
    """Work refused for its size: a call asked past its configured cap."""


class NoBlockerError(ValueError):
    """No member of the set shares a factor with the candidate word."""

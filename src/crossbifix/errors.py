"""Exception types shared across the package."""

__all__ = [
    "CapExceededError",
    "CrossBifixError",
    "ImpossibleHeightError",
    "LengthMismatchError",
    "MixedLengthsError",
    "NoBlockerError",
    "OddLengthError",
    "UnsupportedLengthError",
    "WordParseError",
]


class CrossBifixError(Exception):
    """Base class for every error this package raises on purpose."""


class LengthMismatchError(CrossBifixError):
    """Two words that must share a length do not."""


class MixedLengthsError(CrossBifixError):
    """A word collection mixes several lengths."""


class OddLengthError(CrossBifixError):
    """A Dyck path needs an even number of steps."""


class CapExceededError(CrossBifixError):
    """An exhaustive enumeration was asked to go past its configured cap."""


class ImpossibleHeightError(CrossBifixError):
    """No path of the given length can end at the requested height."""


class UnsupportedLengthError(CrossBifixError):
    """The construction or baseline is undefined below length 3."""


class NoBlockerError(CrossBifixError):
    """No member of the set shares a factor with the candidate word."""


class WordParseError(CrossBifixError):
    """A word file contains something other than '0' and '1'."""

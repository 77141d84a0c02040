"""Cross-bifix-free sets of binary words, built from Dyck words.

The package constructs fixed-length binary codeword sets in which no
strict prefix of any word occurs as a strict suffix of any word (its
own borders included), certifies that property and its
non-expandability exhaustively, counts everything in closed form, and
compares the construction against the classic Fibonacci-sized baseline.
The paper's lattice paths are handled as their 0/1 words throughout: a
1 is a rise step, a 0 a fall step, and dyck_paths returns the Dyck
paths as words.  A word is a plain str from end to end.
"""

from . import combinatorics, construction, errors, report, sets, verification, words
from .combinatorics import *  # noqa: F403
from .construction import *  # noqa: F403
from .errors import *  # noqa: F403
from .report import *  # noqa: F403
from .sets import *  # noqa: F403
from .verification import *  # noqa: F403
from .words import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (combinatorics, construction, errors, report, sets, verification, words)
    for name in module.__all__
)

"""Cross-bifix-free sets of binary words, built from Dyck words.

The package constructs fixed-length binary codeword sets in which no
strict prefix of any word occurs as a strict suffix of any word (its
own borders included), certifies that property and its
non-expandability exhaustively, counts everything in closed form, and
compares the construction against the classic Fibonacci-sized baseline.
The paper's lattice paths are handled as their 0/1 words throughout: a
1 is a rise step, a 0 a fall step, and dyck_paths returns the Dyck
paths as words.
"""

from .combinatorics import (
    DEFAULT_ENUMERATION_CAP,
    CountTableEntry,
    bifix_free_count,
    catalan,
    count_table,
    dyck_paths,
    enumerate_bifix_free,
    enumerate_rise_fall,
)
from .construction import (
    cbfs,
    cbfs_cardinality,
    cbfs_even_m_even,
    cbfs_even_m_odd,
    cbfs_odd,
    exclusion_set,
)
from .errors import (
    CapExceededError,
    CrossBifixError,
    ImpossibleHeightError,
    LengthMismatchError,
    MixedLengthsError,
    NoBlockerError,
    OddLengthError,
    UnsupportedLengthError,
    WordParseError,
)
from .report import (
    CardinalityRow,
    CardinalityTable,
    compare_table,
    kernel_cardinality,
    parse_word_lines,
    read_word_set,
    render,
)
from .sets import PROVENANCES, WordSet
from .verification import (
    DEFAULT_SEARCH_CAP,
    ConflictWitness,
    VerificationReport,
    check_set,
    expansion_blocker,
    is_non_expandable,
    max_set_search,
)
from .words import (
    BinaryWord,
    Factor,
    bifixes,
    border_lengths,
    cross_bifixes,
    is_bifix_free,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryWord",
    "CapExceededError",
    "CardinalityRow",
    "CardinalityTable",
    "ConflictWitness",
    "CountTableEntry",
    "CrossBifixError",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_SEARCH_CAP",
    "Factor",
    "ImpossibleHeightError",
    "LengthMismatchError",
    "MixedLengthsError",
    "NoBlockerError",
    "OddLengthError",
    "PROVENANCES",
    "UnsupportedLengthError",
    "VerificationReport",
    "WordParseError",
    "WordSet",
    "bifix_free_count",
    "bifixes",
    "border_lengths",
    "catalan",
    "cbfs",
    "cbfs_cardinality",
    "cbfs_even_m_even",
    "cbfs_even_m_odd",
    "cbfs_odd",
    "check_set",
    "compare_table",
    "count_table",
    "cross_bifixes",
    "dyck_paths",
    "enumerate_bifix_free",
    "enumerate_rise_fall",
    "exclusion_set",
    "expansion_blocker",
    "is_bifix_free",
    "is_non_expandable",
    "kernel_cardinality",
    "max_set_search",
    "parse_word_lines",
    "read_word_set",
    "render",
]

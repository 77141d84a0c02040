"""Binary words and the border predicates built on them.

A binary word is written most significant symbol first, so "110" means
1, then 1, then 0.  The paper draws each word as a lattice path, a 1
being a rise step (1, 1) and a 0 a fall step (1, -1); here the word is
the path, and its heights are read off the text (end_height).  A word
is a plain str throughout the package; check_word holds the word rule
and is applied only where a word arrives from outside: bifixes and
cross_bifixes take the caller's words, so they check each non-empty one
before comparing anything, and return their factors as plain str.
Factor is kept for one use, the factor of a ConflictWitness.  A bifix
(border) of a word is a non-empty factor that is both a strict prefix
and a strict suffix.  Words without bifixes, and pairs of words sharing
no prefix/suffix factor, are the raw material of the synchronization
code sets assembled in the construction module.

_Record is the base of the validated records (Factor, WordSet and the
report's rows), written by hand: importing dataclasses would take most
of a command-line call's start-up.

Everything here is a pure function over immutable values and is safe to
call concurrently.
"""

from __future__ import annotations

__all__ = [
    "Factor",
    "bifixes",
    "border_lengths",
    "check_word",
    "complement",
    "cross_bifixes",
    "end_height",
    "is_bifix_free",
]


_COMPLEMENT_TABLE = str.maketrans("01", "10")


def check_word(text: object) -> str:
    """text as an exact str, provided it is a non-empty word over {0, 1}.

    The word rule of the package, applied where a word enters it from
    outside: anything else raises ValueError.  Coerces with str(), so a
    str subclass comes back as a plain str.
    """
    word = str(text)
    if not word:
        raise ValueError("a binary word needs at least one symbol")
    if word.strip("01"):
        raise ValueError(f"binary word may contain only '0' and '1', got {word!r}")
    return word


def end_height(word: str) -> int:
    """Final ordinate of the word's lattice path: ones minus zeros."""
    return 2 * word.count("1") - len(word)


def complement(word: str) -> str:
    """Swap 0s and 1s, i.e. mirror the path across the axis."""
    return word.translate(_COMPLEMENT_TABLE)


class _Record:
    """Frozen fields, compared, hashed and shown as one tuple.

    A subclass declares its fields as class annotations, in order, after
    those it inherits; its __init__ validates the arguments and writes
    the fields into the instance __dict__, past __setattr__, and any
    later assignment or deletion raises AttributeError.  Equality holds
    between instances of the same class only, as for a frozen dataclass.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(vars(cls).get("__annotations__", ()))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Factor(_Record):
    """The factor of a ConflictWitness: a prefix of one word and a suffix of another.

    A bifix (border) is the case where both are the same word, so the
    kind of a factor follows from the words it joins and is not stored.
    """

    bits: str

    def __init__(self, bits: str) -> None:
        object.__setattr__(self, "bits", check_word(bits))

    def __len__(self) -> int:
        return len(self.bits)


def border_lengths(word: str) -> list[int]:
    """Lengths of all strict non-empty borders of word, increasing.

    One failure-function scan gives the longest border in O(n); the
    border-of-border chain then yields all the others.
    """
    n = len(word)
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and word[i] != word[k]:
            k = fail[k - 1]
        if word[i] == word[k]:
            k += 1
        fail[i] = k
    chain: list[int] = []
    k = fail[n - 1] if n else 0
    while k:
        chain.append(k)
        k = fail[k - 1]
    chain.reverse()
    return chain


def is_bifix_free(word: str) -> bool:
    """True iff no strict non-empty prefix of word is also a suffix.

    Words of length 0 and 1 are bifix-free (there is no strict non-empty
    factor to collide).
    """
    return not border_lengths(word)


def bifixes(word: str) -> list[str]:
    """All strict non-empty borders of word, shortest first.

    Empty exactly when is_bifix_free(word) holds; a non-empty word must pass check_word.
    """
    word = check_word(word) if word else word
    return [word[:k] for k in border_lengths(word)]


def cross_bifixes(word: str, other: str) -> list[str]:
    """Factors that are a prefix of one word and a suffix of the other.

    Collects both directions for every factor length; a factor matching
    in both directions with the same text appears once, so for word ==
    other this is bifixes(word).  Each non-empty word must pass
    check_word, and unequal lengths raise ValueError.
    """
    word, other = (check_word(w) if w else w for w in (word, other))
    n = len(word)
    if n != len(other):
        raise ValueError(f"cannot cross-check lengths {n} and {len(other)}")
    found: list[str] = []
    for k in range(1, n):
        head_a = word[:k]
        head_b = other[:k]
        hit_a = head_a == other[n - k:]
        hit_b = head_b == word[n - k:]
        if hit_a:
            found.append(head_a)
        if hit_b and (not hit_a or head_b != head_a):
            found.append(head_b)
    return found

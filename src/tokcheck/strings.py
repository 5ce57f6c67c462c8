"""Alphabets, symbol strings, truncated string spaces, the prefix metric, factorizations.

Symbols are indices into an alphabet. A token's textual label (say "th") is
display metadata only; nothing in this module ever interprets a label as a
sequence of characters. Enumeration order is fixed everywhere to
length-then-lexicographic on symbol indices so that witnesses and reports
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import AlphabetMismatch, OutOfTruncation, ParseError

CHARACTERS = "characters"
TOKENS = "tokens"


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of atomic symbol labels.

    Iteration and index assignment follow declaration order. The role tag
    distinguishes character alphabets from token vocabularies and selects
    the rendering convention (plain juxtaposition vs "|" separators).
    """

    labels: tuple[str, ...]
    role: str = CHARACTERS
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _max_label_len: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if self.role not in (CHARACTERS, TOKENS):
            raise ValueError(f"role must be {CHARACTERS!r} or {TOKENS!r}, got {self.role!r}")
        if not labels:
            raise ValueError("an alphabet must be nonempty")
        if any(not isinstance(lab, str) or not lab for lab in labels):
            raise ValueError("labels must be nonempty text")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(labels)})
        object.__setattr__(self, "_max_label_len", max(map(len, labels)))
        object.__setattr__(self, "_hash", hash((labels, self.role)))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.labels == other.labels and self.role == other.role

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in alphabet") from None


class Str:
    """A finite sequence of symbol indices over a fixed alphabet.

    A `Str` holds two slots and nothing else: `alphabet` and `syms`, the
    tuple of indices. Both are set once, through the slot descriptors, and
    never again. Two strings are equal when their symbols are equal and
    their alphabets are the same object or equal. The hash is the hash of
    the symbols alone, computed on each call: equal strings have equal
    symbols and so hash equal, and equal symbols over different alphabets
    merely collide.
    """

    __slots__ = ("alphabet", "syms")

    def __init__(self, alphabet: Alphabet, syms: Iterable[int] = ()):
        syms = tuple(syms)
        n = len(alphabet)
        if any(not (0 <= i < n) for i in syms):
            raise ValueError(f"symbol index out of range for alphabet of size {n}")
        _set_alphabet(self, alphabet)
        _set_syms(self, syms)

    @classmethod
    def _wrap(cls, alphabet: Alphabet, syms: tuple[int, ...]) -> "Str":
        # fast path for symbols already known to be valid for the alphabet
        obj = object.__new__(cls)
        _set_alphabet(obj, alphabet)
        _set_syms(obj, syms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Str is immutable")

    def __len__(self) -> int:
        return len(self.syms)

    def __hash__(self) -> int:
        return hash(self.syms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Str):
            return NotImplemented
        return (
            self.syms == other.syms
            and (self.alphabet is other.alphabet or self.alphabet == other.alphabet)
        )

    def __repr__(self) -> str:
        return f"Str({self.render()!r})"

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical ordering key: length first, then lexicographic on indices."""
        return (len(self.syms), self.syms)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.alphabet.labels[i] for i in self.syms)

    def render(self) -> str:
        """Human-readable form: "ε" when empty, labels joined per the alphabet role."""
        if not self.syms:
            return "ε"
        sep = "|" if self.alphabet.role == TOKENS else ""
        return sep.join(self.labels())


# Str.__setattr__ refuses every write, so the constructors store through these.
_set_alphabet = Str.alphabet.__set__
_set_syms = Str.syms.__set__


def empty(alphabet: Alphabet) -> Str:
    return Str(alphabet, ())


def from_labels(alphabet: Alphabet, labels: Iterable[str]) -> Str:
    return Str(alphabet, (alphabet.index(lab) for lab in labels))


def parse_str(alphabet: Alphabet, text: str) -> Str:
    """Parse a rendered string back into a Str.

    "" and "ε" denote the empty string. Text containing "|" is split on it
    and each part must be a label. Otherwise the text is consumed greedily,
    longest matching label first, one label-index probe per candidate
    length; inputs that would need backtracking must use the "|" form.
    """
    if text in ("", "ε"):
        return empty(alphabet)
    if "|" in text:
        parts = text.split("|")
        try:
            return from_labels(alphabet, parts)
        except KeyError as exc:
            raise ParseError(f"cannot parse {text!r}: {exc}") from None
    syms = []
    pos = 0
    while pos < len(text):
        for n in range(min(alphabet._max_label_len, len(text) - pos), 0, -1):
            i = alphabet._index.get(text[pos : pos + n])
            if i is not None:
                break
        else:
            raise ParseError(f"cannot parse {text!r}: no label matches at position {pos}")
        syms.append(i)
        pos += n
    return Str(alphabet, syms)


def _require_same_alphabet(a: Str, b: Str) -> None:
    if not (a.alphabet is b.alphabet or a.alphabet == b.alphabet):
        raise AlphabetMismatch(f"{a!r} and {b!r} are over different alphabets")


def concat(a: Str, b: Str) -> Str:
    """Concatenation; associative, with the empty string as identity."""
    _require_same_alphabet(a, b)
    return Str._wrap(a.alphabet, a.syms + b.syms)


def is_prefix(a: Str, b: Str) -> bool:
    """True iff b = a·c for some c."""
    _require_same_alphabet(a, b)
    return b.syms[: len(a.syms)] == a.syms


def longest_common_prefix(a: Str, b: Str) -> Str:
    _require_same_alphabet(a, b)
    n = 0
    for x, y in zip(a.syms, b.syms):
        if x != y:
            break
        n += 1
    return Str._wrap(a.alphabet, a.syms[:n])


def left_distance(a: Str, b: Str) -> int:
    """|a| + |b| - 2 * |longest common prefix| (a metric on strings)."""
    _require_same_alphabet(a, b)
    n = 0
    for x, y in zip(a.syms, b.syms):
        if x != y:
            break
        n += 1
    return len(a.syms) + len(b.syms) - 2 * n


def factorizations(
    target: tuple[int, ...], pieces: Sequence[tuple[int, ...]], max_parts: int
) -> list[tuple[int, ...]]:
    """Every sequence of at most max_parts piece indices whose pieces concatenate to target.

    Walks level by level over the number of parts: each unfinished
    factorization is extended, in piece-index order, by every piece that
    prefixes the rest of the target, and a finished one is never extended.
    Each level is then lexicographic and levels come shortest first, so
    results are in canonical order (length first, then lexicographic) as
    they are found. Pieces may repeat; each index is tried on its own.

    Only a piece that starts with the next target symbol, or is empty, can
    prefix the rest, so the pieces are grouped once by first symbol, each
    group in piece-index order with every empty piece in its place, and a
    node tries only its symbol's group. The extensions, and their order,
    are those of trying every piece.
    """
    empty: list[tuple[int, tuple[int, ...]]] = []
    by_first = {piece[0]: [] for piece in pieces if piece}
    for j, piece in enumerate(pieces):
        for group in [by_first[piece[0]]] if piece else [*by_first.values(), empty]:
            group.append((j, piece))
    found: list[tuple[int, ...]] = []
    level: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while level:
        longer = []
        for parts, pos in level:
            if pos == len(target):
                found.append(parts)
            elif len(parts) < max_parts:
                for j, piece in by_first.get(target[pos], empty):
                    if target[pos : pos + len(piece)] == piece:
                        longer.append((parts + (j,), pos + len(piece)))
        level = longer
    return found


def enumerate_strings(alphabet: Alphabet, max_len: int) -> Iterator[Str]:
    """Yield every string of length <= max_len exactly once, canonically ordered."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    k = len(alphabet)
    for length in range(max_len + 1):
        for syms in product(range(k), repeat=length):
            yield Str._wrap(alphabet, syms)


@dataclass(frozen=True)
class Space:
    """A truncated string space: all strings over an alphabet of length <= max_len."""

    alphabet: Alphabet
    max_len: int

    def __post_init__(self):
        if self.max_len < 0:
            raise ValueError("max_len must be >= 0")

    def size(self) -> int:
        k = len(self.alphabet)
        if k == 1:
            return self.max_len + 1
        return (k ** (self.max_len + 1) - 1) // (k - 1)

    def strings(self) -> Iterator[Str]:
        return enumerate_strings(self.alphabet, self.max_len)

    def at(self, i: int) -> Str:
        """The i-th string in canonical order, as `list(self.strings())[i]` without listing."""
        if not 0 <= i < self.size():
            raise IndexError(f"index {i} out of range for a space of {self.size()} strings")
        k = len(self.alphabet)
        length, count = 0, 1
        while i >= count:
            i -= count
            length += 1
            count *= k
        syms = []
        for _ in range(length):
            i, digit = divmod(i, k)
            syms.append(digit)
        return Str._wrap(self.alphabet, tuple(reversed(syms)))

    def __contains__(self, s: Str) -> bool:
        return (
            len(s.syms) <= self.max_len
            and (s.alphabet is self.alphabet or s.alphabet == self.alphabet)
        )

    def require(self, s: Str) -> None:
        """Raise if s does not belong to this space."""
        if not (s.alphabet is self.alphabet or s.alphabet == self.alphabet):
            raise AlphabetMismatch(f"{s!r} is not over this space's alphabet")
        if len(s.syms) > self.max_len:
            raise OutOfTruncation(f"{s!r} has length {len(s)} > truncation {self.max_len}")

    def empty(self) -> Str:
        return Str(self.alphabet, ())

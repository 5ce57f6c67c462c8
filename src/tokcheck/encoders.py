"""Concrete tokenizer constructions: greedy longest-match, merge-based, uniform.

A vocabulary binds each token to a nonempty spelling over the character
alphabet. The decoder shared by all constructions concatenates spellings.
No normalization or whitespace handling happens here: out-of-vocabulary
input is a hard error unless an explicit lossy unknown-token fallback is
requested, which deliberately sacrifices round-trip exactness.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .dist import Dist
from .errors import (
    MissingBaseCharacter,
    NoMatchingPrefix,
    NoSegmentation,
    ProcUndefined,
    TokcheckError,
    TruncationOverflow,
    VocabNotOpen,
)
from .stochmap import StochMap, _OnLookup, _ValuesOnLookup
from .strings import TOKENS, Alphabet, Space, Str, factorizations, parse_str
from .tokenizer import Tokenizer


@dataclass(frozen=True)
class Vocab:
    """Ordered token entries, each a (token label, spelling) pair.

    Spellings are nonempty strings over the character alphabet; labels and
    spellings are each pairwise distinct. The vocabulary is open when every
    single character appears as a spelling, which guarantees greedy
    encoding always finds a match. Exact spelling lookups go through one
    index from spelling symbols to token index; longest matches walk a
    trie of the spellings, built once, whose nodes map a symbol to the
    child node and the token spelled by the path so far, or None.
    """

    sigma: Alphabet
    entries: tuple[tuple[str, Str], ...]
    delta: Alphabet = field(init=False, compare=False)
    max_spelling_len: int = field(init=False, compare=False)
    spelling_lens: tuple[int, ...] = field(init=False, compare=False)
    _by_spelling: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)
    _trie: dict[int, tuple[dict, int | None]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("vocabulary must be nonempty")
        labels = [label for label, _ in self.entries]
        spellings = [sp for _, sp in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("token labels must be distinct")
        for sp in spellings:
            if sp.alphabet != self.sigma:
                raise ValueError("every spelling must be over the character alphabet")
            if len(sp) == 0:
                raise ValueError("spellings must be nonempty")
        by_spelling = {sp.syms: j for j, sp in enumerate(spellings)}
        if len(by_spelling) != len(spellings):
            raise ValueError("spellings must be distinct")
        trie: dict[int, tuple[dict, int | None]] = {}
        for syms, j in by_spelling.items():
            node = trie
            for c in syms[:-1]:
                node = node.setdefault(c, ({}, None))[0]
            node[syms[-1]] = (node.get(syms[-1], ({}, None))[0], j)
        spelling_lens = tuple(len(sp) for sp in spellings)
        object.__setattr__(self, "delta", Alphabet(tuple(labels), TOKENS))
        object.__setattr__(self, "max_spelling_len", max(spelling_lens))
        object.__setattr__(self, "spelling_lens", spelling_lens)
        object.__setattr__(self, "_by_spelling", by_spelling)
        object.__setattr__(self, "_trie", trie)

    @classmethod
    def from_texts(cls, sigma: Alphabet, pairs: Sequence[tuple[str, str]]) -> "Vocab":
        return cls(sigma, tuple((label, parse_str(sigma, sp)) for label, sp in pairs))

    def spelling(self, token_index: int) -> Str:
        return self.entries[token_index][1]

    def spellings(self) -> list[Str]:
        return [sp for _, sp in self.entries]

    def token_by_spelling(self, syms: tuple[int, ...]) -> int | None:
        return self._by_spelling.get(syms)

    def longest_match(self, syms: tuple[int, ...], pos: int = 0) -> int | None:
        """The token whose spelling is the longest prefix of syms[pos:], or None.

        One walk down the spelling trie from the root, one lookup per
        matched symbol: it keeps the last token it passes and stops at the
        first symbol with no child, so it never reads past the longest
        spelling. The longest match is unique because spellings are
        distinct.
        """
        node, found = self._trie, None
        end = len(syms)
        while pos < end:
            step = node.get(syms[pos])
            if step is None:
                break
            node, j = step
            if j is not None:
                found = j
            pos += 1
        return found

    @property
    def is_open(self) -> bool:
        return all((c,) in self._by_spelling for c in range(len(self.sigma)))


@dataclass(frozen=True)
class MergeList:
    """Ordered merge rules; each part and their concatenation must spell vocab entries."""

    pairs: tuple[tuple[Str, Str], ...]

    @classmethod
    def from_texts(cls, vocab: Vocab, pairs: Sequence[tuple[str, str]]) -> "MergeList":
        parsed = tuple(
            (parse_str(vocab.sigma, left), parse_str(vocab.sigma, right)) for left, right in pairs
        )
        merged = cls(parsed)
        merged.validate(vocab)
        return merged

    def validate(self, vocab: Vocab) -> list[tuple[int, int, int]]:
        """The (left, right, merged) tokens of each merge, in order; raises at the first bad one."""
        resolved = []
        for left, right in self.pairs:
            merged = vocab.token_by_spelling(left.syms + right.syms)
            if merged is None:
                raise ValueError(
                    f"merge ({left.render()}, {right.render()}) does not spell any vocab entry"
                )
            parts = [vocab.token_by_spelling(part.syms) for part in (left, right)]
            for part, j in zip((left, right), parts):
                if j is None:
                    raise ValueError(
                        f"merge ({left.render()}, {right.render()}) can never fire: "
                        f"its part {part.render()!r} does not spell any vocab entry"
                    )
            resolved.append((*parts, merged))
        return resolved


def decode_tokens(vocab: Vocab, delta: Str) -> Str:
    """Concatenate the spellings of a token sequence."""
    if not (delta.alphabet is vocab.delta or delta.alphabet == vocab.delta):
        raise ValueError("input is not over the vocabulary's token alphabet")
    syms: list[int] = []
    for j in delta.syms:
        syms.extend(vocab.spelling(j).syms)
    return Str._wrap(vocab.sigma, tuple(syms))


def concat_decoder(vocab: Vocab, max_tokens: int, out_max_len: int | None = None) -> StochMap:
    """The deterministic concatenating decoder over token sequences of length <= max_tokens.

    The decoder is the map fixed by the vocabulary's spellings: it stores
    those and decodes a row on lookup. The output truncation defaults to
    max_tokens times the longest spelling, the largest length a decoded
    sequence can reach; a tighter explicit bound raises TruncationOverflow
    if any sequence decodes past it.
    """
    reach = max_tokens * vocab.max_spelling_len
    if out_max_len is None:
        out_max_len = reach
    elif out_max_len < reach:
        longest = max(vocab.spellings(), key=len)
        raise TruncationOverflow(
            f"{max_tokens} copies of the longest spelling {longest.render()!r} decode to "
            f"length {reach} > truncation {out_max_len}"
        )
    dom = Space(vocab.delta, max_tokens)
    cod = Space(vocab.sigma, out_max_len)
    return StochMap.from_spellings(dom, cod, vocab.spellings())


def _greedy(vocab: Vocab, text: tuple[int, ...], unk_index: int | None) -> tuple[int, ...]:
    """Greedy longest match over a symbol tuple, the one loop behind every greedy encoding.

    A position no spelling matches emits unk_index and consumes one
    character, or raises NoMatchingPrefix there when unk_index is None.
    """
    end = len(text)
    lens = vocab.spelling_lens
    out: list[int] = []
    pos = 0
    while pos < end:
        j = vocab.longest_match(text, pos)
        if j is None:
            if unk_index is None:
                raise NoMatchingPrefix(pos)
            out.append(unk_index)
            pos += 1
        else:
            out.append(j)
            pos += lens[j]
    return tuple(out)


def maximal_munch_encode(vocab: Vocab, sigma: Str, unk_token: str | None = None) -> Str:
    """Greedy encoding: repeatedly consume the longest spelling prefixing the rest.

    Each step is one `Vocab.longest_match`, a walk of the spelling trie.
    With unk_token set, a position no spelling matches consumes one
    character and emits that token (a lossy fallback that breaks
    exactness); otherwise such a position is an error. Every emitted index
    is a token of the vocabulary, so the result is built without
    re-checking it.
    """
    if not (sigma.alphabet is vocab.sigma or sigma.alphabet == vocab.sigma):
        raise ValueError("input is not over the vocabulary's character alphabet")
    unk_index = None
    if unk_token is not None:
        unk_index = vocab.delta.index(unk_token)
    return Str._wrap(vocab.delta, _greedy(vocab, sigma.syms, unk_index))


class _GreedyValues(_ValuesOnLookup):
    """Values of the greedy encoder: each text encoded by longest match on lookup."""

    __slots__ = ("_vocab", "_unk_index")

    def __init__(self, vocab: Vocab, dom_space: Space, cod_space: Space, unk_index: int | None):
        self.dom_space = dom_space
        self.cod_space = cod_space
        self._vocab = vocab
        self._unk_index = unk_index

    def image(self, x: Str) -> tuple[int, ...]:
        return _greedy(self._vocab, x.syms, self._unk_index)


def munch_encoder(
    vocab: Vocab, max_len: int, unk_token: str | None = None, out_max_len: int | None = None
) -> StochMap:
    """The greedy encoder over texts of length <= max_len, encoding each text on lookup.

    It stores the vocabulary, not its rows, and its values equal those of
    `materialize` over `maximal_munch_encode`. The errors that tabulation
    would raise are decided at construction. An unknown unk_token label is
    a KeyError. With an unk token every text encodes; without one, the
    first text no spelling prefixes is the first character with no
    one-character spelling (any later failing text fails at such a
    character, which comes before it), and `_raise_where_tabulation_fails`
    raises ProcUndefined there, at position 0, or at the first row longer
    than an explicit out_max_len shorter than max_len.

    Over an open vocabulary every position matches, so the spellings of
    the matched tokens concatenate to the text: the encoder is a section
    of the homomorphism fixed by the vocabulary's spellings, and records
    them as `section_of`.
    """
    unk_index = None if unk_token is None else vocab.delta.index(unk_token)
    char_space = Space(vocab.sigma, max_len)
    token_space = Space(vocab.delta, max_len if out_max_len is None else out_max_len)
    values = _GreedyValues(vocab, char_space, token_space, unk_index)
    is_open = vocab.is_open
    section_of = tuple(vocab.spellings()) if is_open else None
    f = StochMap._of_values(char_space, token_space, values, section_of)
    total = is_open or unk_index is not None
    _raise_where_tabulation_fails(f.kernel, char_space, token_space, total)
    return f


def bpe_encode(vocab: Vocab, merges: MergeList, sigma: Str) -> Str:
    """Merge-based encoding: start from characters, apply merges in list order.

    Each merge makes one pass that replaces adjacent occurrences of its
    pair leftmost-first without overlap. One pass leaves no occurrence
    behind: the merged token spells left·right, so it differs from both
    parts, and two tokens the pass left adjacent were already adjacent and
    not the pair. The within-merge order is this library's convention;
    outputs are deterministic given the rule list. The merges' tokens come
    from `MergeList.validate` after the base-character pass, so
    MissingBaseCharacter is raised first, then `validate`'s error.
    """
    seq = _base_tokens(vocab, sigma)
    return Str._wrap(vocab.delta, _merged(merges.validate(vocab), seq))


def _base_tokens(vocab: Vocab, sigma: Str) -> list[int]:
    """The single-character token of each symbol of sigma: BPE's starting sequence."""
    if not (sigma.alphabet is vocab.sigma or sigma.alphabet == vocab.sigma):
        raise ValueError("input is not over the vocabulary's character alphabet")
    seq: list[int] = []
    for c in sigma.syms:
        j = vocab.token_by_spelling((c,))
        if j is None:
            raise MissingBaseCharacter(
                f"character {vocab.sigma.labels[c]!r} has no single-character vocab entry"
            )
        seq.append(j)
    return seq


def _merged(triples: Sequence[tuple[int, int, int]], seq: list[int]) -> tuple[int, ...]:
    """The token symbols after one pass of each resolved merge, in list order."""
    for left_j, right_j, merged in triples:
        out: list[int] = []
        i = 0
        while i < len(seq):
            if i + 1 < len(seq) and seq[i] == left_j and seq[i + 1] == right_j:
                out.append(merged)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        seq = out
    return tuple(seq)


class _MergedValues(_ValuesOnLookup):
    """Values of merge-based encoding: each text's base tokens merged on lookup.

    With no merges, a value is the text's one-character tokens.
    """

    __slots__ = ("_vocab", "_triples")

    def __init__(
        self,
        vocab: Vocab,
        dom_space: Space,
        cod_space: Space,
        triples: Sequence[tuple[int, int, int]],
    ):
        self.dom_space = dom_space
        self.cod_space = cod_space
        self._vocab = vocab
        self._triples = triples

    def image(self, x: Str) -> tuple[int, ...]:
        return _merged(self._triples, _base_tokens(self._vocab, x))


def segmentations(vocab: Vocab, sigma: Str) -> list[Str]:
    """All token sequences whose spellings concatenate to sigma, canonically ordered.

    One `factorizations` walk over the spellings; nonempty spellings keep
    every segmentation within len(sigma) tokens.
    """
    spellings = [sp.syms for sp in vocab.spellings()]
    return [Str(vocab.delta, parts) for parts in factorizations(sigma.syms, spellings, len(sigma))]


def uniform_segmenter(vocab: Vocab, sigma: Str) -> Dist:
    """Uniform distribution over every segmentation of sigma, over token sequences of length <= |sigma|."""
    segs = segmentations(vocab, sigma)
    if not segs:
        raise NoSegmentation(f"no segmentation of {sigma.render()!r}")
    share = Fraction(1, len(segs))
    return Dist(Space(vocab.delta, len(sigma)), {s: share for s in segs})


class _SegmentationKernel(_OnLookup):
    """Rows of the uniform encoder: each text's `uniform_segmenter`, built on lookup."""

    __slots__ = ("_vocab",)

    def __init__(self, vocab: Vocab, dom_space: Space, cod_space: Space):
        self.dom_space = dom_space
        self.cod_space = cod_space
        self._vocab = vocab

    def _at(self, x: Str) -> Dist:
        return Dist._of_masses(self.cod_space, uniform_segmenter(self._vocab, x).mass)


def munch_tokenizer(vocab: Vocab, max_len: int, unk_token: str | None = None) -> Tokenizer:
    """Greedy encoder over texts of length <= max_len with the concatenating decoder.

    The encoder is `munch_encoder`'s, which encodes a text on lookup, so
    building the pair lists no space. Both maps are fixed by the same
    spellings, so the pair is exact by construction over an open vocabulary.
    """
    if unk_token is None and not vocab.is_open:
        raise VocabNotOpen("greedy encoding over the full space needs an open vocabulary")
    return Tokenizer(munch_encoder(vocab, max_len, unk_token), concat_decoder(vocab, max_len))


def _raise_where_tabulation_fails(
    rows: Mapping[Str, Dist], char_space: Space, token_space: Space, total: bool
) -> None:
    """Raise what tabulating a constructive encoder's rows would, at the same text.

    Tabulation walks the texts in canonical order, wraps a failing lookup
    as ProcUndefined at its text and refuses the first atom past the token
    truncation. `total` says the encoder is defined at every text, as each
    encoder here is over an open vocabulary; one that is not first fails at
    the first character with no one-character spelling, so the rows of the
    texts of length at most 1 decide it. No row is longer than its text,
    so only a token truncation below the text truncation may cut one, and
    then every row is read.
    """
    if token_space.max_len < char_space.max_len:
        texts = char_space.strings()
    elif char_space.max_len and not total:
        texts = Space(char_space.alphabet, 1).strings()
    else:
        return
    for x in texts:
        try:
            row = rows[x]
        except TokcheckError as exc:
            raise ProcUndefined(x, exc) from None
        for y in row.mass:
            token_space.require(y)


def _bpe_encoder(
    vocab: Vocab, merges: MergeList, char_space: Space, token_space: Space
) -> StochMap:
    """`bpe_encode` over char_space, merging each text on lookup with the merges resolved once.

    It stores the resolved merges, not its rows, and its values equal those
    of `materialize` over `bpe_encode`. Tabulation starts at ε, which has
    no base character to miss, so a bad merge raises `validate`'s
    ValueError first; `_raise_where_tabulation_fails` then raises a missing
    base character, wrapped as ProcUndefined, or an over-long row at the
    same first text as tabulation.

    Over an open vocabulary each merge replaces two tokens with one spelling
    their concatenation, so the spellings of a value concatenate to its
    text: the encoder is a section of the homomorphism fixed by the
    vocabulary's spellings, and records them as `section_of`.
    """
    values = _MergedValues(vocab, char_space, token_space, merges.validate(vocab))
    is_open = vocab.is_open
    section_of = tuple(vocab.spellings()) if is_open else None
    f = StochMap._of_values(char_space, token_space, values, section_of)
    _raise_where_tabulation_fails(f.kernel, char_space, token_space, is_open)
    return f


def bpe_tokenizer(vocab: Vocab, merges: MergeList, max_len: int) -> Tokenizer:
    """Merge-based encoder over texts of length <= max_len with the concatenating decoder.

    The encoder is `_bpe_encoder`'s, which merges a text on lookup, so
    building the pair lists no space, and over an open vocabulary the pair
    is exact by construction.
    """
    encoder = _bpe_encoder(vocab, merges, Space(vocab.sigma, max_len), Space(vocab.delta, max_len))
    return Tokenizer(encoder, concat_decoder(vocab, max_len))


def _uniform_encoder(vocab: Vocab, char_space: Space, token_space: Space) -> StochMap:
    """`uniform_segmenter` over char_space, each row built on lookup.

    It stores the vocabulary, not its rows, and its rows equal those of
    `materialize` over `uniform_segmenter`. A text has a segmentation only
    if each of its characters does, so the first text with none is the
    first character with no one-character spelling, and
    `_raise_where_tabulation_fails` raises NoSegmentation there, wrapped as
    ProcUndefined, or an over-long row at the same first text as tabulation.

    Over an open vocabulary a text of length n or less has more than one
    segmentation exactly when some spelling of length 2 to n exists. The
    map stores values exactly when every row is a point mass, so without
    such a spelling it stores the one-character tokens of each text as
    values, and with one it builds every row on lookup. Every segmentation
    spells its text, so the encoder records the vocabulary's spellings as
    `section_of`.
    """
    rows = _SegmentationKernel(vocab, char_space, token_space)
    is_open = vocab.is_open
    _raise_where_tabulation_fails(rows, char_space, token_space, is_open)
    section_of = tuple(vocab.spellings()) if is_open else None
    if any(2 <= len(sp) <= char_space.max_len for sp in vocab.spellings()):
        return StochMap._of_kernel(char_space, token_space, rows, section_of)
    values = _MergedValues(vocab, char_space, token_space, ())
    return StochMap._of_values(char_space, token_space, values, section_of)


def uniform_tokenizer(vocab: Vocab, max_len: int) -> Tokenizer:
    """Stochastic encoder spreading mass uniformly over all segmentations.

    The encoder is `_uniform_encoder`'s, which builds a row on lookup, so
    building the pair lists no space, and over an open vocabulary every
    atom of every row decodes back to its text by construction.
    """
    encoder = _uniform_encoder(vocab, Space(vocab.sigma, max_len), Space(vocab.delta, max_len))
    return Tokenizer(encoder, concat_decoder(vocab, max_len))

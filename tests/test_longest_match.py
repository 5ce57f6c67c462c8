"""The spelling-trie matcher and greedy encoding against the probe-every-length references."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck.errors import NoMatchingPrefix
from helpers import greedy_outcome, oracle_greedy_encode, oracle_longest_match

LABELS = ("a", "b", "c", "d")


@st.composite
def matcher_vocabs(draw):
    """A vocabulary over 1-4 characters with spellings of 1-4 symbols, open or not.

    One drawn spelling always prefixes another, so a walk passes a token
    before it reaches a longer one; half the draws add every missing single
    character, which makes the vocabulary open.
    """
    k = draw(st.integers(1, 4))
    sigma = tk.Alphabet(LABELS[:k])
    chars = st.integers(0, k - 1)
    spellings = draw(
        st.lists(st.lists(chars, min_size=1, max_size=4).map(tuple), min_size=1, max_size=6)
    )
    base = spellings[0][:3]
    longer = base + tuple(draw(st.lists(chars, min_size=1, max_size=4 - len(base))))
    spellings[:1] = [base, longer]
    if draw(st.booleans()):
        spellings += [(c,) for c in range(k)]
    spellings = list(dict.fromkeys(spellings))
    entries = [("".join(LABELS[c] for c in sp), tk.Str(sigma, sp)) for sp in spellings]
    return tk.Vocab(sigma, tuple(entries))


@settings(max_examples=40, deadline=None)
@given(matcher_vocabs(), st.data())
def test_longest_match_and_greedy_encoding_match_the_references(vocab, data):
    unk = data.draw(st.sampled_from([None, *vocab.delta.labels]))
    for text in tk.Space(vocab.sigma, 6).strings():
        syms = text.syms
        for pos in range(len(syms) + 1):
            assert vocab.longest_match(syms, pos) == oracle_longest_match(vocab, syms, pos)
        for u in (None, unk):
            got = greedy_outcome(tk.maximal_munch_encode, vocab, text, u)
            assert got == greedy_outcome(oracle_greedy_encode, vocab, text, u)
            assert type(got) is not tk.Str or got.alphabet is vocab.delta


def test_longest_match_keeps_the_last_token_it_passed():
    sigma = tk.Alphabet(("a", "b", "c"))
    vocab = tk.Vocab.from_texts(sigma, [("a", "a"), ("abc", "abc"), ("b", "b")])
    assert not vocab.is_open
    cases = {"ab": 0, "abc": 1, "abca": 1, "aab": 0, "c": None, "ε": None, "ba": 2}
    for text, want in cases.items():
        syms = tk.parse_str(sigma, text).syms
        assert vocab.longest_match(syms) == oracle_longest_match(vocab, syms) == want
    assert vocab.longest_match(tk.parse_str(sigma, "cab").syms, 1) == 0
    assert vocab.longest_match(tk.parse_str(sigma, "ab").syms, 2) is None
    assert vocab.spelling_lens == (1, 3, 1)
    with pytest.raises(NoMatchingPrefix) as info:
        tk.maximal_munch_encode(vocab, tk.parse_str(sigma, "abcc"))
    assert info.value.position == 3

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck import cli
from tokcheck.errors import (
    MissingBaseCharacter,
    NoMatchingPrefix,
    NoSegmentation,
    ProcUndefined,
    TruncationOverflow,
    VocabNotOpen,
)
from helpers import greedy_outcome, oracle_bpe_encode, oracle_greedy_encode, random_open_vocab


def test_vocab_invariants(sigma):
    with pytest.raises(ValueError):
        tk.Vocab.from_texts(sigma, [("t", "t"), ("t2", "t")])  # duplicate spelling
    with pytest.raises(ValueError):
        tk.Vocab.from_texts(sigma, [("t", "t"), ("t", "h")])  # duplicate label
    with pytest.raises(ValueError):
        tk.Vocab.from_texts(sigma, [("t", "ε")])  # empty spelling
    partial = tk.Vocab.from_texts(sigma, [("t", "t"), ("h", "h")])
    assert not partial.is_open
    full = tk.Vocab.from_texts(sigma, [("t", "t"), ("h", "h"), ("e", "e")])
    assert full.is_open


def test_concat_decoder_values(vocab):
    dec = tk.concat_decoder(vocab, 3)
    assert dec.values[tk.parse_str(vocab.delta, "th|e")] == tk.parse_str(vocab.sigma, "the")
    assert dec.values[tk.parse_str(vocab.delta, "t|he")] == tk.parse_str(vocab.sigma, "the")
    assert dec.values[tk.parse_str(vocab.delta, "ε")] == tk.parse_str(vocab.sigma, "ε")


def test_concat_decoder_truncation_overflow(vocab):
    with pytest.raises(TruncationOverflow):
        tk.concat_decoder(vocab, 3, out_max_len=4)
    # exactly the reachable length is fine
    tk.concat_decoder(vocab, 3, out_max_len=6)


def test_maximal_munch_examples(vocab):
    assert tk.maximal_munch_encode(vocab, tk.parse_str(vocab.sigma, "the")).render() == "th|e"
    assert tk.maximal_munch_encode(vocab, tk.parse_str(vocab.sigma, "e")).render() == "e"
    assert tk.maximal_munch_encode(vocab, tk.parse_str(vocab.sigma, "hethe")).render() == "he|th|e"


def test_maximal_munch_no_match(sigma):
    partial = tk.Vocab.from_texts(sigma, [("t", "t"), ("h", "h")])
    with pytest.raises(NoMatchingPrefix) as info:
        tk.maximal_munch_encode(partial, tk.parse_str(sigma, "te"))
    assert info.value.position == 1


def test_maximal_munch_emitted_spellings_prefix_remainder(vocab):
    for text in tk.enumerate_strings(vocab.sigma, 5):
        out = tk.maximal_munch_encode(vocab, text)
        assert len(out) <= len(text)
        pos = 0
        for j in out.syms:
            sp = vocab.spelling(j)
            assert text.syms[pos : pos + len(sp)] == sp.syms
            pos += len(sp)
        assert pos == len(text)


def test_bpe_examples(vocab):
    merges = tk.MergeList.from_texts(vocab, [("t", "h")])
    assert tk.bpe_encode(vocab, merges, tk.parse_str(vocab.sigma, "the")).render() == "th|e"
    empty = tk.MergeList(())
    assert tk.bpe_encode(vocab, empty, tk.parse_str(vocab.sigma, "the")).render() == "t|h|e"


def test_bpe_two_step_merge(sigma):
    vocab = tk.Vocab.from_texts(
        sigma,
        [("t", "t"), ("h", "h"), ("e", "e"), ("th", "th"), ("the", "the")],
    )
    merges = tk.MergeList.from_texts(vocab, [("t", "h"), ("th", "e")])
    assert tk.bpe_encode(vocab, merges, tk.parse_str(sigma, "the")).render() == "the"


def test_bpe_missing_base_character(sigma):
    vocab = tk.Vocab.from_texts(sigma, [("t", "t"), ("h", "h"), ("th", "th")])
    merges = tk.MergeList(())
    with pytest.raises(MissingBaseCharacter):
        tk.bpe_encode(vocab, merges, tk.parse_str(sigma, "te"))


def test_bpe_merge_must_spell_vocab_entry(vocab):
    with pytest.raises(ValueError):
        tk.MergeList.from_texts(vocab, [("h", "t")])  # "ht" is not a spelling


def test_bpe_merge_parts_must_spell_vocab_entries():
    sigma = tk.Alphabet(("a", "b", "c"))
    vocab = tk.Vocab.from_texts(sigma, [("a", "a"), ("b", "b"), ("c", "c"), ("abc", "abc")])
    with pytest.raises(ValueError, match="part 'ab' does not spell any vocab entry"):
        tk.MergeList.from_texts(vocab, [("ab", "c")])
    with pytest.raises(ValueError, match="part 'bc' does not spell any vocab entry"):
        tk.MergeList.from_texts(vocab, [("a", "bc")])


def test_bpe_encode_raises_validate_error_on_unvalidated_merges(sigma):
    """A MergeList that skipped `validate` fails with its named error, not deep in `Str`."""
    h, t, th, e = (tk.parse_str(sigma, c) for c in ("h", "t", "th", "e"))
    vocab = tk.Vocab.from_texts(sigma, [("t", "t"), ("h", "h")])
    with pytest.raises(ValueError, match=r"merge \(h, t\) does not spell any vocab entry"):
        tk.bpe_encode(vocab, tk.MergeList(((h, t),)), tk.parse_str(sigma, "ht"))
    vocab = tk.Vocab.from_texts(sigma, [("t", "t"), ("h", "h"), ("e", "e"), ("the", "the")])
    with pytest.raises(ValueError, match="its part 'th' does not spell any vocab entry"):
        tk.bpe_encode(vocab, tk.MergeList(((th, e),)), tk.parse_str(sigma, "the"))


def bpe_outcome(encode, vocab, merges, text):
    """An encoding, or the type and message of the MissingBaseCharacter it raises."""
    try:
        return encode(vocab, merges, text)
    except MissingBaseCharacter as exc:
        return (type(exc), str(exc))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bpe_encode_matches_the_repeating_oracle(data):
    """One pass per merge against passes repeated until nothing changes.

    Merge parts are drawn from the tokens so far, so self-merges like
    (a, a) and merges of earlier merges' tokens both occur; an extra
    character z has no vocab entry, so texts holding it must fail alike.
    """
    k = data.draw(st.integers(1, 3))
    labels = "abc"[:k]
    sigma = tk.Alphabet(tuple(labels) + ("z",))
    spellings = list(labels)
    pairs = []
    for _ in range(data.draw(st.integers(0, 6))):
        left = data.draw(st.sampled_from(spellings))
        right = data.draw(st.sampled_from(spellings))
        if left + right not in spellings:
            spellings.append(left + right)
        pairs.append((left, right))
    vocab = tk.Vocab.from_texts(sigma, [(sp, sp) for sp in spellings])
    merges = tk.MergeList.from_texts(vocab, pairs)
    texts = [syms for n in range(7) for syms in itertools.product(range(k), repeat=n)]
    texts += data.draw(st.lists(st.lists(st.integers(0, k), max_size=6), min_size=1, max_size=5))
    for syms in texts:
        text = tk.Str(sigma, syms)
        assert bpe_outcome(tk.bpe_encode, vocab, merges, text) == bpe_outcome(
            oracle_bpe_encode, vocab, merges, text
        )


def test_bpe_leftmost_first_nonoverlapping():
    alpha = tk.Alphabet(("a",))
    vocab = tk.Vocab.from_texts(alpha, [("a", "a"), ("aa", "aa")])
    merges = tk.MergeList.from_texts(vocab, [("a", "a")])
    out = tk.bpe_encode(vocab, merges, tk.Str(alpha, (0, 0, 0)))
    assert out.render() == "aa|a"


def test_uniform_segmenter(vocab):
    d = tk.uniform_segmenter(vocab, tk.parse_str(vocab.sigma, "the"))
    assert {x.render(): m for x, m in d.mass.items()} == {
        "t|h|e": Fraction(1, 3),
        "t|he": Fraction(1, 3),
        "th|e": Fraction(1, 3),
    }
    single = tk.uniform_segmenter(vocab, tk.parse_str(vocab.sigma, "t"))
    assert single == tk.point_mass(tk.parse_str(vocab.delta, "t"), tk.Space(vocab.delta, 1))


def test_uniform_segmenter_no_segmentation(sigma):
    partial = tk.Vocab.from_texts(sigma, [("t", "t"), ("he", "he")])
    with pytest.raises(NoSegmentation):
        tk.uniform_segmenter(partial, tk.parse_str(sigma, "eh"))


def test_uniform_rows_sum_to_one_and_decode_back(vocab):
    t = tk.uniform_tokenizer(vocab, 4)
    for sigma_s, row in t.encoder.rows():
        assert sum(row.mass.values()) == 1
        for delta in row.mass:
            assert tk.decode_tokens(vocab, delta) == sigma_s


def test_uniform_tokenizer_exact(vocab):
    assert tk.is_exact(tk.uniform_tokenizer(vocab, 5))


def test_round_trip_exhaustive(vocab):
    merges = tk.MergeList.from_texts(vocab, [("t", "h"), ("h", "e")])
    for text in tk.enumerate_strings(vocab.sigma, 6):
        assert tk.decode_tokens(vocab, tk.maximal_munch_encode(vocab, text)) == text
        assert tk.decode_tokens(vocab, tk.bpe_encode(vocab, merges, text)) == text


def test_spurious_ambiguity_witness(vocab):
    t_he = tk.parse_str(vocab.delta, "t|he")
    decoded = tk.decode_tokens(vocab, t_he)
    re_encoded = tk.maximal_munch_encode(vocab, decoded)
    assert re_encoded.render() == "th|e"
    assert re_encoded != t_he


def test_munch_tokenizer_requires_open_vocab(sigma):
    partial = tk.Vocab.from_texts(sigma, [("t", "t"), ("h", "h")])
    with pytest.raises(VocabNotOpen):
        tk.munch_tokenizer(partial, 3)


def test_lossy_unk_mode_breaks_exactness():
    alpha = tk.Alphabet(("t", "h", "e", "x", "y"))
    vocab = tk.Vocab.from_texts(
        alpha, [("t", "t"), ("h", "h"), ("e", "e"), ("unk", "x")]
    )
    t = tk.munch_tokenizer(vocab, 2, unk_token="unk")
    y = tk.parse_str(alpha, "y")
    assert t.encoder.values[y].render() == "unk"
    verdict = tk.is_exact(t)
    assert not verdict and verdict.witness == y


open_vocabs = st.integers(0, 2**32 - 1).map(
    lambda seed: random_open_vocab(random.Random(seed), max_sigma=4, max_spelling=4, max_extras=6)
)


def texts(vocab, max_len=8):
    chars = st.integers(0, len(vocab.sigma) - 1)
    return st.lists(chars, max_size=max_len).map(lambda syms: tk.Str(vocab.sigma, syms))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_greedy_encoder_and_transducer_match_oracle(data):
    vocab = data.draw(open_vocabs)
    machine = tk.build_maximal_munch_transducer(vocab)
    for text in data.draw(st.lists(texts(vocab), min_size=1, max_size=10)):
        want = oracle_greedy_encode(vocab, text)
        assert tk.maximal_munch_encode(vocab, text) == want
        assert tk.run(machine, text) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_greedy_encoder_matches_oracle_on_non_open_vocab(data):
    vocab = data.draw(open_vocabs)
    dropped = {(c,) for c in data.draw(st.sets(st.integers(0, len(vocab.sigma) - 1), min_size=1))}
    entries = [(label, sp) for label, sp in vocab.entries if sp.syms not in dropped]
    partial = tk.Vocab(vocab.sigma, tuple(entries or vocab.entries[-1:]))
    unk = data.draw(st.sampled_from([None, *partial.delta.labels]))
    for text in data.draw(st.lists(texts(partial), min_size=1, max_size=10)):
        assert greedy_outcome(tk.maximal_munch_encode, partial, text, unk) == greedy_outcome(
            oracle_greedy_encode, partial, text, unk
        )


@settings(max_examples=100, deadline=None)
@given(open_vocabs)
def test_segmentations_match_brute_force(vocab):
    n = 3
    groups = {}
    for delta in tk.Space(vocab.delta, n).strings():
        groups.setdefault(tk.decode_tokens(vocab, delta), []).append(delta)
    for sigma in tk.Space(vocab.sigma, n).strings():
        assert tk.segmentations(vocab, sigma) == groups.get(sigma, [])


@pytest.mark.parametrize(
    "entries, message",
    [
        ([], "vocabulary must be nonempty"),
        ([("t", "t"), ("a", "a")], "every spelling must be over the character alphabet"),
    ],
)
def test_vocab_rejects_no_entries_and_foreign_spellings(sigma, entries, message):
    # "a" is no character of sigma, so it is parsed over an alphabet of its own
    other = tk.Alphabet(("a",))
    parsed = [(label, tk.parse_str(other if sp == "a" else sigma, sp)) for label, sp in entries]
    with pytest.raises(ValueError) as info:
        tk.Vocab(sigma, parsed)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "encode",
    [
        lambda vocab, text: tk.maximal_munch_encode(vocab, text),
        lambda vocab, text: tk.bpe_encode(vocab, tk.MergeList(()), text),
    ],
    ids=["maximal_munch", "bpe"],
)
def test_encoders_reject_input_over_another_alphabet(vocab, encode):
    foreign = tk.parse_str(tk.Alphabet(("a",)), "a")
    with pytest.raises(ValueError, match="^input is not over the vocabulary's character alphabet$"):
        encode(vocab, foreign)


def test_decode_tokens_rejects_a_character_string(vocab):
    decoded = tk.parse_str(vocab.delta, "t|he")
    assert tk.decode_tokens(vocab, decoded) == tk.parse_str(vocab.sigma, "the")
    with pytest.raises(ValueError, match="^input is not over the vocabulary's token alphabet$"):
        tk.decode_tokens(vocab, tk.parse_str(vocab.sigma, "the"))


def test_bpe_spec_load_resolves_the_merges_at_most_twice(monkeypatch):
    """`from_texts` validates once and tabulation resolves once, not once per text."""
    calls = 0
    validate = tk.MergeList.validate

    def counting(merges, vocab):
        nonlocal calls
        calls += 1
        return validate(merges, vocab)

    monkeypatch.setattr(tk.MergeList, "validate", counting)
    bundle = cli.load_spec(str(Path(__file__).parent / "data" / "the_bpe.json"), 8)
    assert bundle.tokenizer.char_space.size() == 9841
    assert calls <= 2
    calls = 0
    vocab = bundle.vocab
    merges = tk.MergeList.from_texts(vocab, [("h", "e"), ("t", "h")])
    t = tk.bpe_tokenizer(vocab, merges, 6)
    assert calls == 2
    for x in t.char_space.strings():
        assert t.encoder.values[x] == oracle_bpe_encode(vocab, merges, x)


def test_bpe_tokenizer_raises_validate_error_before_a_missing_base_character(sigma):
    """Tabulation starts at ε, so an unvalidated bad merge fails before any text is encoded."""
    h, t = tk.parse_str(sigma, "h"), tk.parse_str(sigma, "t")
    vocab = tk.Vocab.from_texts(sigma, [("t", "t"), ("h", "h")])  # no entry for "e"
    with pytest.raises(ValueError, match=r"merge \(h, t\) does not spell any vocab entry"):
        tk.bpe_tokenizer(vocab, tk.MergeList(((h, t),)), 2)
    with pytest.raises(ProcUndefined) as info:
        tk.bpe_tokenizer(vocab, tk.MergeList(()), 2)
    assert info.value.at == tk.parse_str(sigma, "e")
    assert isinstance(info.value.cause, MissingBaseCharacter)

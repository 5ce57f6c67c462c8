"""The greedy encoder tabulated by the shortest-suffix recurrence against direct greedy encoding."""

import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck import cli, encoders
from tokcheck.errors import OutOfTruncation, ProcUndefined, TokcheckError
from helpers import random_open_vocab

DATA = Path(__file__).parent / "data"


def outcome(build):
    """A built map, or the type, message, text and position of the error building it."""
    try:
        return build()
    except (KeyError, TokcheckError) as exc:
        cause = getattr(exc, "cause", None)
        return (type(exc), str(exc), getattr(exc, "at", None), getattr(cause, "position", None))


@st.composite
def greedy_cases(draw):
    """A vocabulary, open or not, a truncation, an unk token label and a token truncation.

    The unk label may be a token of the vocabulary, None or unknown; the
    token truncation is the text truncation or an explicit bound that may
    be too short for the longest encodings.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    vocab = random_open_vocab(rng, max_sigma=4, max_spelling=4, max_extras=6)
    if draw(st.booleans()):
        dropped = draw(st.sets(st.integers(0, len(vocab.sigma) - 1), min_size=1))
        entries = [e for e in vocab.entries if e[1].syms not in {(c,) for c in dropped}]
        vocab = tk.Vocab(vocab.sigma, tuple(entries or vocab.entries[-1:]))
    unk = draw(st.sampled_from([None, "?", *vocab.delta.labels]))
    n = draw(st.integers(0, 5))
    out_max_len = draw(st.one_of(st.none(), st.integers(0, n + 1)))
    return vocab, n, unk, out_max_len


@settings(max_examples=200, deadline=None)
@given(greedy_cases())
def test_munch_encoder_matches_direct_encoding(case):
    vocab, n, unk, out_max_len = case
    char_space = tk.Space(vocab.sigma, n)
    token_space = tk.Space(vocab.delta, n if out_max_len is None else out_max_len)

    def direct():
        encode = lambda s: tk.maximal_munch_encode(vocab, s, unk)
        return tk.materialize(encode, char_space, token_space)

    got = outcome(lambda: tk.munch_encoder(vocab, n, unk, out_max_len))
    want = outcome(direct)
    if isinstance(want, tk.StochMap):
        assert (got.dom_space, got.cod_space) == (char_space, token_space)
        assert list(got.rows()) == list(want.rows())
    else:
        assert got == want


def test_munch_encoder_errors_name_the_first_failing_text():
    sigma = tk.Alphabet(("a", "b", "c"))
    vocab = tk.Vocab.from_texts(sigma, [("a", "a"), ("bc", "bc")])
    got = outcome(lambda: tk.munch_encoder(vocab, 3))
    assert got[0] is ProcUndefined
    assert (got[2], got[3]) == (tk.parse_str(sigma, "b"), 0)
    assert got == outcome(lambda: tk.munch_encoder(vocab, 3, None, 1))
    assert outcome(lambda: tk.munch_encoder(vocab, 0, "nope")) == (
        KeyError, "\"label 'nope' not in alphabet\"", None, None
    )
    overflow = outcome(lambda: tk.munch_encoder(vocab, 3, "a", 1))
    assert overflow[0] is OutOfTruncation and "a|a" in overflow[1]


def test_munch_encoder_matches_once_per_text_and_never_encodes_directly(vocab, monkeypatch):
    longest_match = tk.Vocab.longest_match
    matched = []

    def counted(self, syms, pos=0):
        matched.append(syms[pos:])
        return longest_match(self, syms, pos)

    def forbidden(*args, **kwargs):
        raise AssertionError("the table must not encode texts directly")

    monkeypatch.setattr(tk.Vocab, "longest_match", counted)
    monkeypatch.setattr(encoders, "maximal_munch_encode", forbidden)
    monkeypatch.setattr(cli, "maximal_munch_encode", forbidden)
    n = 5
    nonempty = [s.syms for s in tk.Space(vocab.sigma, n).strings() if s.syms]
    builds = [
        lambda: tk.munch_tokenizer(vocab, n),
        lambda: tk.munch_tokenizer(vocab, n, unk_token="he"),
        lambda: cli.load_spec(str(DATA / "the_vocab.json"), n),
    ]
    for build in builds:
        matched.clear()
        build()
        assert matched == nonempty

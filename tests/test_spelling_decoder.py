"""A decoder built from spellings against its tabulated twin, which stores every row."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck import cli
from tokcheck.dist import random_dist
from tokcheck.errors import DecoderNotEligible, OutOfDomain, OutOfTruncation, SpaceMismatch
from tokcheck.strings import factorizations
from helpers import tabulated_twin

TOKEN_LABELS = ("A", "B", "C", "D")


@st.composite
def spelling_decoder_pairs(draw):
    """Tokenizers sharing one encoder: one with a spelling decoder, one with its tabulated twin.

    Spellings may be empty or repeat; when they are nonempty and distinct the
    decoder comes from `concat_decoder` on a vocabulary. The encoder sends a
    text to its first segmentation, or, always when it has none and at
    random when the encoder is lossy, to a random token sequence.
    """
    sigma = tk.Alphabet(("a", "b", "c", "d")[: draw(st.integers(1, 4))])
    k = draw(st.integers(1, 4))
    delta = tk.Alphabet(TOKEN_LABELS[:k], tk.TOKENS)
    m = 4 - draw(st.integers(0, 4))  # hypothesis favours small draws: mostly long truncations
    chars = st.integers(0, len(sigma) - 1)
    drawn = draw(st.lists(st.lists(chars, max_size=4), min_size=k, max_size=k))
    if k >= len(sigma) and draw(st.booleans()):
        drawn[: len(sigma)] = [[c] for c in range(len(sigma))]  # every text has a segmentation
    spellings = [tk.Str(sigma, syms) for syms in drawn]
    char_space = tk.Space(sigma, 2)
    token_space = tk.Space(delta, m)
    cod_space = tk.Space(sigma, max(2, m * max(map(len, spellings))))
    if all(spellings) and len({sp.syms for sp in spellings}) == k:
        vocab = tk.Vocab(sigma, tuple(zip(delta.labels, spellings)))
        decoder = tk.concat_decoder(vocab, m, cod_space.max_len)
    else:
        decoder = tk.StochMap.from_spellings(token_space, cod_space, spellings)
    twin = tabulated_twin(spellings, token_space, cod_space)

    pieces = [sp.syms for sp in spellings]
    tokens = list(token_space.strings())
    lossy = draw(st.booleans())
    rows = {}
    for text in char_space.strings():
        segs = factorizations(text.syms, pieces, m)
        if segs and not (lossy and draw(st.booleans())):
            rows[text] = tk.Str(delta, segs[0])
        else:
            rows[text] = draw(st.sampled_from(tokens))
    encoder = tk.materialize(rows.__getitem__, char_space, token_space)
    return tk.Tokenizer(encoder, decoder), tk.Tokenizer(encoder, twin)


def preimages_or_error(t, text):
    try:
        return tk.preimages(t, text)
    except DecoderNotEligible as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(spelling_decoder_pairs(), st.integers(0, 2), st.integers(0, 2**32))
def test_spelling_decoder_matches_tabulated_twin(pair, k, seed):
    t, twin = pair
    f, g = t.decoder, twin.decoder
    assert f.spellings is not None and g.spellings is None

    assert tk.classify(t) == tk.classify(twin)
    assert tk.decoder_eligibility(t) == tk.decoder_eligibility(twin)
    assert tk.is_exact(t) == tk.is_exact(twin)
    for text in t.char_space.strings():
        assert preimages_or_error(t, text) == preimages_or_error(twin, text)

    rng = random.Random(seed)
    for _ in range(3):
        p = random_dist(f.dom_space, rng)
        assert tk.pushforward(f, p) == tk.pushforward(g, p)
    assert tk.bounded_variation_probe(f, k) == tk.bounded_variation_probe(g, k)

    assert cli.table_rows(f) == cli.table_rows(g)
    assert f == g and g == f
    assert len(f.kernel) == len(g.kernel) == f.dom_space.size()
    assert list(f.kernel) == list(f.dom_space.strings())
    assert [x for x, _ in f.rows()] == [x for x, _ in g.rows()]

    delta = f.dom_space.alphabet
    too_long = tk.Str(delta, (0,) * (f.dom_space.max_len + 1))
    foreign = tk.Str(tk.Alphabet(("Z",), tk.TOKENS), ())
    for h in (f, g):
        for x in (too_long, foreign):
            assert x not in h.kernel
            with pytest.raises(OutOfDomain):
                tk.kernel_at(h, x)


def test_spelling_decoder_rows_and_errors(vocab):
    dec = tk.concat_decoder(vocab, 3)
    the = tk.parse_str(vocab.delta, "th|e")
    assert dec.kernel[the] == tk.point_mass(tk.parse_str(vocab.sigma, "the"), dec.cod_space)
    assert dec.spellings == tuple(vocab.spellings())
    twin = tabulated_twin(dec.spellings, dec.dom_space, dec.cod_space)
    assert dict(dec.kernel) == dict(twin.kernel)
    with pytest.raises(ValueError):
        tk.StochMap.from_spellings(dec.dom_space, dec.cod_space, dec.spellings[:2])
    with pytest.raises(SpaceMismatch):
        tk.StochMap.from_spellings(dec.dom_space, dec.cod_space, [tk.Str(vocab.delta, (0,))] * 5)
    with pytest.raises(OutOfTruncation):
        tk.StochMap.from_spellings(dec.dom_space, tk.Space(vocab.sigma, 5), dec.spellings)


def test_empty_spelling_fails_trivial_kernel_at_first_such_token():
    sigma = tk.Alphabet(("x",))
    delta = tk.Alphabet(TOKEN_LABELS[:3], tk.TOKENS)
    spellings = [tk.Str(sigma, (0,)), tk.Str(sigma, ()), tk.Str(sigma, ())]
    for m, want in [
        (0, tk.Verdict.not_applicable("truncation admits no token")),
        (2, tk.Verdict.failed(tk.Str(delta, (1,)), "token decodes to the empty string")),
    ]:
        dec = tk.StochMap.from_spellings(tk.Space(delta, m), tk.Space(sigma, m), spellings)
        encoder = tk.materialize(lambda s: tk.Str(delta, ()), tk.Space(sigma, 0), dec.dom_space)
        assert tk.classify(tk.Tokenizer(encoder, dec)).trivial_kernel == want


def test_classify_munch_n8_passes_every_verdict(vocab):
    report = tk.classify(tk.munch_tokenizer(vocab, 8))
    assert all(
        [
            report.deterministic_encoder,
            report.deterministic_decoder,
            report.bijective,
            report.multiplicative_decoder,
            report.trivial_kernel,
            report.prefix_monotone,
        ]
    )


def test_concat_decoder_n12_is_small(vocab):
    tracemalloc.start()
    try:
        dec = tk.concat_decoder(vocab, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(dec.kernel) == (5**13 - 1) // 4
    delta = tk.parse_str(vocab.delta, "|".join(["th", "e", "t", "he"] * 3))
    assert dec.values[delta] == tk.parse_str(vocab.sigma, "thethe" * 3)

"""The merge-based and uniform encoders, which build rows on lookup, against eager tabulation."""

import random
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck import cli, encoders
from tokcheck.dist import random_dist
from tokcheck.encoders import _bpe_encoder, _uniform_encoder
from tokcheck.errors import OutOfTruncation, TokcheckError
from helpers import (
    oracle_bpe_encoder,
    oracle_uniform_encoder,
    random_open_vocab,
    tabulated_twin,
    the_vocab,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def outcome(build):
    """A built map, or the type, message, text and cause type of the error building it."""
    try:
        return build()
    except (ValueError, TokcheckError) as exc:
        cause = getattr(exc, "cause", None)
        return (type(exc), str(exc), getattr(exc, "at", None), type(cause))


@st.composite
def cases(draw):
    """A vocabulary, open or not, merges (some invalid), a truncation and a token truncation.

    Most merges split a spelling of the vocabulary into two spellings, so
    they are valid; the rest pair two random spellings, which rarely spell a
    third.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    vocab = random_open_vocab(rng, max_sigma=3, max_spelling=3, max_extras=4)
    if draw(st.booleans()):
        dropped = draw(st.sets(st.integers(0, len(vocab.sigma) - 1), min_size=1))
        entries = [e for e in vocab.entries if e[1].syms not in {(c,) for c in dropped}]
        vocab = tk.Vocab(vocab.sigma, tuple(entries or vocab.entries[-1:]))
    spellings = [sp.syms for sp in vocab.spellings()]
    splits = [
        (sp[:cut], sp[cut:])
        for sp in spellings
        for cut in range(1, len(sp))
        if sp[:cut] in spellings and sp[cut:] in spellings
    ]
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        if splits and rng.random() < 0.9:
            left, right = rng.choice(splits)
        else:
            left, right = rng.choice(spellings), rng.choice(spellings)
        pairs.append((tk.Str(vocab.sigma, left), tk.Str(vocab.sigma, right)))
    n = draw(st.integers(0, 4))
    m = draw(st.sampled_from([n, draw(st.integers(0, n))]))
    return vocab, tk.MergeList(tuple(pairs)), n, m


def decoders(vocab, m, n):
    """The concatenating decoder over m tokens, and its twin with every row stored."""
    out_max_len = max(n, m * vocab.max_spelling_len)
    concat = tk.concat_decoder(vocab, m, out_max_len)
    return concat, tabulated_twin(vocab.spellings(), concat.dom_space, concat.cod_space)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_lazy_encoders_match_eager_tabulation(case):
    """Errors, rows, stored values and the verdicts that read them agree with the eager oracles."""
    vocab, merges, n, m = case
    char_space, token_space = tk.Space(vocab.sigma, n), tk.Space(vocab.delta, m)
    builds = [
        (
            lambda: _bpe_encoder(vocab, merges, char_space, token_space),
            lambda: oracle_bpe_encoder(vocab, merges, n, m),
        ),
        (
            lambda: _uniform_encoder(vocab, char_space, token_space),
            lambda: oracle_uniform_encoder(vocab, n, m),
        ),
    ]
    for lazy_build, eager_build in builds:
        lazy, eager = outcome(lazy_build), outcome(eager_build)
        if not isinstance(eager, tk.StochMap):
            assert lazy == eager
            continue
        assert (lazy.dom_space, lazy.cod_space) == (char_space, token_space)
        assert list(lazy.rows()) == list(eager.rows())
        assert (lazy.values is None) == (eager.values is None)
        assert tk.is_deterministic(lazy) == tk.is_deterministic(eager)
        for decoder in decoders(vocab, m, n):
            got, want = tk.Tokenizer(lazy, decoder), tk.Tokenizer(eager, decoder)
            assert tk.is_exact(got) == tk.is_exact(want)
            assert tk.classify(got) == tk.classify(want)


def test_bpe_under_a_short_token_truncation_reads_every_row():
    """Every text of length 2 or less merges to one token, so a token truncation of 1 holds them."""
    sigma = tk.Alphabet(("a",))
    vocab = tk.Vocab.from_texts(sigma, [("a", "a"), ("aa", "aa")])
    merges = tk.MergeList.from_texts(vocab, [("a", "a")])
    lazy = _bpe_encoder(vocab, merges, tk.Space(sigma, 2), tk.Space(vocab.delta, 1))
    assert list(lazy.rows()) == list(oracle_bpe_encoder(vocab, merges, 2, 1).rows())
    want = outcome(lambda: oracle_bpe_encoder(vocab, merges, 3, 1))
    assert want[0] is OutOfTruncation and "aa|a" in want[1]
    assert outcome(lambda: _bpe_encoder(vocab, merges, tk.Space(sigma, 3), lazy.cod_space)) == want


def test_exactness_and_estimation_build_no_encoder_row(monkeypatch):
    """Loading and `is_exact` on the BPE and uniform specs, and estimation through
    `uniform_tokenizer`, neither merge nor segment any text."""
    calls = []
    merged, segmentations = encoders._merged, encoders.segmentations
    monkeypatch.setattr(encoders, "_merged", lambda *a: calls.append(a) or merged(*a))
    monkeypatch.setattr(encoders, "segmentations", lambda *a: calls.append(a) or segmentations(*a))
    for spec in (DATA / "the_bpe.json", GOLDEN / "uniform.json"):
        t = cli.load_spec(str(spec), 6).tokenizer
        assert tk.is_exact(t)
    t = tk.uniform_tokenizer(the_vocab(), 5)
    p_star = random_dist(t.char_space, random.Random(3), 40)
    summary = tk.run_estimation(t, p_star, [10, 100], seed=1)
    assert summary.bias == 0
    assert calls == []


def _count_encoder_rows(monkeypatch):
    """The texts merged and segmented from here on, in call order."""
    merged_texts, segmented_texts = [], []
    merged, segmentations = encoders._merged, encoders.segmentations

    def counting_merged(triples, seq):
        merged_texts.append(tuple(seq))
        return merged(triples, seq)

    def counting_segmentations(vocab, sigma):
        segmented_texts.append(sigma.render())
        return segmentations(vocab, sigma)

    monkeypatch.setattr(encoders, "_merged", counting_merged)
    monkeypatch.setattr(encoders, "segmentations", counting_segmentations)
    return merged_texts, segmented_texts


def test_probe_builds_no_encoder_row(monkeypatch):
    """The probe on the BPE and uniform specs is decided by construction, reading no row."""
    merged_texts, segmented_texts = _count_encoder_rows(monkeypatch)
    for spec in (DATA / "the_bpe.json", GOLDEN / "uniform.json"):
        t = cli.load_spec(str(spec), 5).tokenizer
        assert tk.exact_iff_all_consistent_probe(t, 50, 0) == tk.ProbeReport(True, 50, True)
    assert merged_texts == [] and segmented_texts == []


def test_check_builds_only_the_uniform_rows_up_to_the_first_stochastic_one(monkeypatch, capsys):
    """`check` at n=5 merges no text of the BPE spec and segments each of the uniform
    spec's texts up to th, its first stochastic row, once."""
    merged_texts, segmented_texts = _count_encoder_rows(monkeypatch)
    assert cli.main(["check", str(DATA / "the_bpe.json"), "--max-len", "5"]) == 0
    assert merged_texts == [] and segmented_texts == []
    assert cli.main(["check", str(GOLDEN / "uniform.json"), "--max-len", "5"]) == 0
    out = capsys.readouterr().out
    assert "deterministic encoder: false, witness th, row has support size 2" in out
    assert merged_texts == []
    assert segmented_texts == ["ε", "t", "h", "e", "tt", "th"]


def test_uniform_kernel_membership_builds_no_row(monkeypatch):
    encoder = cli.load_spec(str(GOLDEN / "uniform.json"), 5).tokenizer.encoder
    _, segmented_texts = _count_encoder_rows(monkeypatch)
    sigma = encoder.dom_space.alphabet
    assert tk.parse_str(sigma, "the") in encoder.kernel
    assert tk.Str(sigma, (0,) * 6) not in encoder.kernel
    assert "the" not in encoder.kernel
    assert segmented_texts == []


def test_point_queries_at_max_len_14_print_what_short_truncations_print(capsys):
    """`preimages` on the BPE spec and `marginalize --text` on the uniform spec read no
    encoder row, so at length 14 they print what length 7 prints, under 4 MiB."""
    queries = [
        ["preimages", str(DATA / "the_bpe.json"), "--text", "thth"],
        ["marginalize", str(GOLDEN / "uniform.json"), str(DATA / "the_qdist.json"), "--text", "the"],
    ]
    for argv in queries:
        assert cli.main([*argv, "--max-len", "7"]) == 0
        want = capsys.readouterr()
        tracemalloc.start()
        try:
            code = cli.main([*argv, "--max-len", "14"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr()) == (0, want)
        assert peak < 4 * 2**20, argv

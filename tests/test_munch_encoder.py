"""The greedy encoder, which encodes on lookup, against direct greedy encoding tabulated eagerly."""

import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck import cli, encoders
from tokcheck.errors import OutOfTruncation, ProcUndefined, TokcheckError
from helpers import oracle_munch_encoder, random_open_vocab, tabulated_twin

DATA = Path(__file__).parent / "data"


def outcome(build):
    """A built map, or the type, message, text and position of the error building it."""
    try:
        return build()
    except (KeyError, TokcheckError) as exc:
        cause = getattr(exc, "cause", None)
        return (type(exc), str(exc), getattr(exc, "at", None), getattr(cause, "position", None))


@st.composite
def greedy_cases(draw, max_extras=6, max_n=5):
    """A vocabulary, open or not, a truncation, an unk token label and a token truncation.

    The unk label may be a token of the vocabulary, None or unknown; the
    token truncation is the text truncation or an explicit bound that may
    be too short for the longest encodings.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    vocab = random_open_vocab(rng, max_sigma=4, max_spelling=4, max_extras=max_extras)
    if draw(st.booleans()):
        dropped = draw(st.sets(st.integers(0, len(vocab.sigma) - 1), min_size=1))
        entries = [e for e in vocab.entries if e[1].syms not in {(c,) for c in dropped}]
        vocab = tk.Vocab(vocab.sigma, tuple(entries or vocab.entries[-1:]))
    unk = draw(st.sampled_from([None, "?", *vocab.delta.labels]))
    n = draw(st.integers(0, max_n))
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


def test_munch_encoder_builds_without_matching_and_never_encodes_directly(vocab, monkeypatch):
    longest_match = tk.Vocab.longest_match
    matched = []

    def counted(self, syms, pos=0):
        matched.append(syms[pos:])
        return longest_match(self, syms, pos)

    def forbidden(*args, **kwargs):
        raise AssertionError("building the encoder must not encode texts directly")

    n = 5
    builds = [
        lambda: tk.munch_tokenizer(vocab, n),
        lambda: tk.munch_tokenizer(vocab, n, unk_token="he"),
        lambda: cli.load_spec(str(DATA / "the_vocab.json"), n).tokenizer,
    ]
    for build, unk in zip(builds, [None, "he", None]):
        with monkeypatch.context() as patched:
            patched.setattr(tk.Vocab, "longest_match", counted)
            patched.setattr(encoders, "maximal_munch_encode", forbidden)
            patched.setattr(cli, "maximal_munch_encode", forbidden)
            encoder = build().encoder
            assert matched == []
        want = oracle_munch_encoder(vocab, n, unk)
        assert list(encoder.rows()) == list(want.rows())


def test_munch_tokenizer_builds_without_listing_its_space(vocab, monkeypatch):
    def forbidden(self):
        raise AssertionError("building the tokenizer must not list a space")

    with monkeypatch.context() as patched:
        patched.setattr(tk.Space, "strings", forbidden)
        t = tk.munch_tokenizer(vocab, 14)
        spec = cli.load_spec(str(DATA / "the_vocab.json"), 14).tokenizer
    text = tk.parse_str(vocab.sigma, "thethethe")
    for built in (t, spec):
        assert built.encoder.values[text] == tk.maximal_munch_encode(vocab, text)
        assert len(built.encoder.values) == tk.Space(vocab.sigma, 14).size()
        assert tk.is_exact(built)


def _query(tokenizer, rng, oracle):
    """A token distribution over some encodings of texts and some random token sequences."""
    token_space = tokenizer.token_space
    texts = [tokenizer.char_space.at(rng.randrange(tokenizer.char_space.size())) for _ in range(3)]
    atoms = {oracle.values[x] for x in texts}
    atoms |= {token_space.at(rng.randrange(token_space.size())) for _ in range(3)}
    return tk.Dist(token_space, {d: Fraction(1, len(atoms)) for d in atoms})


@st.composite
def greedy_pairs(draw):
    """A greedy case, a decoder's spellings and form, and a seed for the probe and queries.

    Drawn from one seed, so truncations spread evenly over 0-5. The
    vocabulary is open or not, the unk label None, a token or unknown, and
    the token truncation the text truncation or an explicit one, shorter or
    longer. The decoder uses the vocabulary's spellings or a permutation of
    them, as a homomorphism or, over at most 4,000 token sequences, as its
    table twin.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    vocab = random_open_vocab(rng, max_sigma=4, max_spelling=4, max_extras=3)
    if rng.random() < 0.3:
        kept = [e for e in vocab.entries if len(e[1]) > 1 or rng.random() < 0.5]
        vocab = tk.Vocab(vocab.sigma, tuple(kept or vocab.entries[-1:]))
    unk = rng.choice([None, None, "?", *vocab.delta.labels])
    n = rng.randint(0, 5)
    out_max_len = rng.choice([None, None, rng.randint(0, n + 1)])
    spellings = vocab.spellings()
    if rng.random() < 0.5:
        rng.shuffle(spellings)
    return (vocab, n, unk, out_max_len), spellings, rng.random() < 0.5, rng.randrange(100)


@settings(max_examples=200, deadline=None)
@given(greedy_pairs())
def test_lazy_greedy_verdicts_match_the_tabulated_tokenizer(pair):
    (vocab, n, unk, out_max_len), spellings, table, seed = pair
    got = outcome(lambda: tk.munch_encoder(vocab, n, unk, out_max_len))
    want = outcome(lambda: oracle_munch_encoder(vocab, n, unk, out_max_len))
    if not isinstance(want, tk.StochMap):
        assert got == want
        return
    assert list(got.values.items()) == list(want.values.items())
    assert got == want
    m = got.cod_space.max_len
    dom = tk.Space(vocab.delta, m)
    cod = tk.Space(vocab.sigma, max(n, m * vocab.max_spelling_len))
    if table and dom.size() <= 4000:
        decoder = tabulated_twin(spellings, dom, cod)
    else:
        decoder = tk.StochMap.from_spellings(dom, cod, spellings)
    lazy, eager = tk.Tokenizer(got, decoder), tk.Tokenizer(want, decoder)
    q = _query(eager, random.Random(seed), want)
    checks = [
        tk.is_exact,
        tk.classify,
        lambda t: tk.exact_iff_all_consistent_probe(t, trials=3, seed=seed),
        lambda t: tk.spurious_ambiguity_mass(t, q),
    ]
    for check in checks:
        assert outcome(lambda: check(lazy)) == outcome(lambda: check(eager))


def test_point_queries_at_max_len_14_print_what_max_len_7_prints(capsys):
    spec = str(DATA / "the_vocab.json")
    queries = [
        ["preimages", spec, "--text", "thth"],
        ["marginalize", spec, str(DATA / "the_qdist.json"), "--text", "the"],
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


def test_failing_check_at_max_len_14_stops_at_its_witness(capsys):
    """Greedy with an unk token over a non-open vocab: `check` reads rows only up to `x`."""
    argv = ["check", str(DATA.parent / "golden" / "spec_unk.json"), "--max-len"]
    assert cli.main([*argv, "7"]) == 1
    want = capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main([*argv, "14"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr()) == (1, want)
    assert "witness x" in want.out
    assert peak < 4 * 2**20

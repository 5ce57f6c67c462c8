import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
import tokcheck.strings
import tokcheck.tokenizer
from tokcheck.errors import (
    AlphabetMismatch,
    DecoderNotEligible,
    EncoderNotDeterministic,
    NotDeterministic,
    OutOfTruncation,
    SpaceMismatch,
)
from helpers import (
    corrupt_first_unit_row,
    dist_from,
    oracle_eligibility,
    oracle_is_exact,
    oracle_marginalize,
    oracle_multiplicative,
    oracle_prefix_monotone,
    oracle_probe,
    random_dist,
    random_map,
    random_open_vocab,
    tabulated_twin,
    table_map,
)


def test_fig1_inconsistent_with_pstar(fig1):
    t, p_star = fig1
    verdict = tk.is_consistent_wrt(t, p_star)
    assert not verdict
    sigma, got, want = verdict.witness
    assert sigma == tk.parse_str(t.char_space.alphabet, "s1")
    assert (got, want) == (Fraction(0), Fraction(1, 5))


def test_fig1_consistent_with_modified_p(fig1):
    t, _ = fig1
    p = dist_from(t.char_space, {"s3": 1})  # zero mass on the two moved points
    assert tk.is_consistent_wrt(t, p)


def test_swap_tokenizer_consistent_but_not_exact(swap):
    t, p_equal = swap
    assert tk.is_consistent_wrt(t, p_equal)
    verdict = tk.is_exact(t)
    assert not verdict and verdict.witness == tk.parse_str(t.char_space.alphabet, "x1")
    assert tk.bias(t, p_equal) == 0


def test_munch_tokenizer_exact(munch6):
    assert tk.is_exact(munch6)


def test_fig1_not_exact(fig1):
    t, _ = fig1
    verdict = tk.is_exact(t)
    assert not verdict and verdict.witness == tk.parse_str(t.char_space.alphabet, "s1")


def test_probe_on_exact_tokenizer(vocab):
    t = tk.munch_tokenizer(vocab, 4)
    report = tk.exact_iff_all_consistent_probe(t, trials=100, seed=5)
    assert report.exact and report.ok and report.trials == 100


def test_probe_on_inexact_tokenizers(fig1, swap):
    for t, _ in (fig1, swap):
        report = tk.exact_iff_all_consistent_probe(t)
        assert not report.exact and report.ok
        assert report.counterexample == min(
            (s for s in t.char_space.strings() if len(s) == 1), key=tk.Str.sort_key
        )


def test_classify_concat_decoder(vocab, munch6):
    report = tk.classify(munch6)
    assert report.deterministic_encoder
    assert report.deterministic_decoder
    assert report.bijective
    assert report.multiplicative_decoder
    assert report.trivial_kernel
    assert report.prefix_monotone


def test_classify_erasing_token():
    sigma = tk.Alphabet(("a",))
    delta = tk.Alphabet(("a", "pad"), tk.TOKENS)
    token_space = tk.Space(delta, 2)
    char_space = tk.Space(sigma, 2)

    def decode(seq):
        syms = [0 for j in seq.syms if j == 0]  # "pad" erases
        return tk.Str(sigma, syms)

    decoder = tk.materialize(decode, token_space, char_space)
    encoder = tk.materialize(
        lambda s: tk.Str(delta, tuple(0 for _ in s.syms)), char_space, token_space
    )
    report = tk.classify(tk.Tokenizer(encoder, decoder))
    assert report.multiplicative_decoder
    assert not report.trivial_kernel
    assert report.trivial_kernel.witness == tk.parse_str(delta, "pad")


def test_classify_abstract_table_not_applicable(fig1):
    # abstract points carry no concatenation structure: no nonempty pair fits
    # inside the length-1 truncation, so multiplicativity is undecided
    t, _ = fig1
    report = tk.classify(t)
    assert report.multiplicative_decoder.ok is None
    assert report.trivial_kernel
    assert not report.bijective


def test_classify_stochastic_decoder_not_applicable(vocab):
    t = tk.munch_tokenizer(vocab, 2)
    kernel = dict(t.decoder.kernel)
    the = tk.parse_str(vocab.delta, "th|e")
    cod = t.decoder.cod_space
    kernel[the] = tk.Dist(
        cod,
        {
            tk.parse_str(vocab.sigma, "the"): Fraction(1, 2),
            tk.parse_str(vocab.sigma, "t"): Fraction(1, 2),
        },
    )
    stochastic = tk.StochMap(t.decoder.dom_space, cod, kernel)
    report = tk.classify(tk.Tokenizer(t.encoder, stochastic))
    assert not report.deterministic_decoder
    assert report.multiplicative_decoder.ok is None
    assert report.trivial_kernel.ok is None
    assert report.prefix_monotone.ok is None


def test_preimages_the(munch6, vocab):
    sigma = tk.parse_str(vocab.sigma, "the")
    got = tk.preimages(munch6, sigma)
    assert [d.render() for d in got] == ["t|he", "th|e", "t|h|e"]
    assert {d.render() for d in got} == {"t|h|e", "t|he", "th|e"}


def test_preimages_empty_text(munch6, vocab):
    assert tk.preimages(munch6, tk.Space(vocab.sigma, 0).empty()) == [
        tk.Space(vocab.delta, 0).empty()
    ]


def test_preimages_match_brute_force(vocab):
    t = tk.munch_tokenizer(vocab, 4)
    groups = {}
    for delta in t.token_space.strings():
        groups.setdefault(tk.decode_tokens(vocab, delta), []).append(delta)
    for sigma in t.char_space.strings():
        oracle = sorted(
            (d for d in groups.get(sigma, []) if len(d) <= len(sigma)), key=tk.Str.sort_key
        )
        assert tk.preimages(t, sigma) == oracle


def with_empty_last_token(t):
    """t with its decoder's last token sent to the empty text, so the kernel is not trivial."""
    decoder = t.decoder
    kernel = dict(decoder.kernel)
    last = tk.Str(t.token_space.alphabet, (len(t.token_space.alphabet) - 1,))
    kernel[last] = tk.point_mass(decoder.cod_space.empty(), decoder.cod_space)
    return tk.Tokenizer(t.encoder, tk.StochMap(decoder.dom_space, decoder.cod_space, kernel))


def test_preimages_requires_eligible_decoder(fig1):
    # fig1's own decoder is eligible at its truncation 1: f(ε) = ε and no token decodes to ε
    t = with_empty_last_token(fig1[0])
    with pytest.raises(DecoderNotEligible):
        tk.preimages(t, tk.parse_str(t.char_space.alphabet, "s1"))
    s2 = tk.parse_str(t.char_space.alphabet, "s2")
    assert [d.render() for d in tk.preimages(fig1[0], s2)] == ["d1", "d2"]


def test_preimage_bound():
    assert tk.preimage_bound(3, 5) == 155
    assert tk.preimage_bound(1, 7) == 7
    assert tk.preimage_bound(0, 5) == 0


def test_preimage_bound_holds_exhaustively(vocab):
    t = tk.munch_tokenizer(vocab, 5)
    size = len(vocab.delta)
    for sigma in t.char_space.strings():
        if len(sigma) == 0:
            continue
        assert len(tk.preimages(t, sigma)) <= tk.preimage_bound(len(sigma), size)


def test_marginalize_example(munch6, vocab):
    q = dist_from(munch6.token_space, {"t|he": "1/10", "th|e": "1/5", "t|h|e": "1/20", "t": "13/20"})
    the = tk.parse_str(vocab.sigma, "the")
    assert tk.marginalize(munch6, q, the) == Fraction(7, 20)
    assert tk.marginalize(munch6, q, tk.parse_str(vocab.sigma, "he")) == 0


def test_marginalize_agrees_with_pushforward(vocab):
    t = tk.munch_tokenizer(vocab, 5)
    rng = random.Random(17)
    pool = list(t.token_space.strings())
    support = rng.sample(pool, 8)
    weights = [rng.randint(1, 9) for _ in support]
    q = tk.Dist(t.token_space, {s: Fraction(w, sum(weights)) for s, w in zip(support, weights)})
    pushed = tk.pushforward(t.decoder, q)
    for sigma in t.char_space.strings():
        assert tk.marginalize(t, q, sigma) == pushed.mass_of(sigma)


def test_spurious_ambiguity_mass(munch6, vocab):
    p_star = dist_from(munch6.char_space, {"t": "1/3", "the": "1/3", "he": "1/3"})
    q_star = tk.pushforward(munch6.encoder, p_star)
    assert tk.spurious_ambiguity_mass(munch6, q_star) == 0

    q = dist_from(munch6.token_space, {"t|he": "1/10", "th|e": "9/10"})
    assert tk.spurious_ambiguity_mass(munch6, q) == Fraction(1, 10)

    off = dist_from(munch6.token_space, {"t|he": 1})
    assert tk.spurious_ambiguity_mass(munch6, off) == 1


def test_spurious_ambiguity_refuses_texts_past_the_truncation(vocab):
    # th|th is the greedy encoding of thth, a text the length-2 encoder never sees
    t = tk.munch_tokenizer(vocab, 2)
    past = r"Str\('th\|th'\) decodes to Str\('thth'\), of length 4 > truncation 2"
    with pytest.raises(OutOfTruncation, match=past):
        tk.spurious_ambiguity_mass(t, dist_from(t.token_space, {"th|th": 1}))
    # the first such atom in canonical order is named, after atoms inside the truncation
    q = dist_from(t.token_space, {"he|he": "1/4", "t|h": "1/4", "th|th": "1/4", "e|he": "1/4"})
    with pytest.raises(OutOfTruncation, match=r"^Str\('e\|he'\) decodes"):
        tk.spurious_ambiguity_mass(t, q)
    # atoms whose text lies in the character space are still counted
    q = dist_from(t.token_space, {"t|h": "1/4", "th": "3/4"})
    assert tk.spurious_ambiguity_mass(t, q) == Fraction(1, 4)


def test_spurious_ambiguity_needs_deterministic_encoder(vocab):
    t = tk.uniform_tokenizer(vocab, 3)
    q = tk.pushforward(t.encoder, dist_from(t.char_space, {"the": 1}))
    with pytest.raises(EncoderNotDeterministic):
        tk.spurious_ambiguity_mass(t, q)


def test_bounded_variation_probe_concat_decoder(vocab):
    decoder = tk.concat_decoder(vocab, 5)
    spelling_max = vocab.max_spelling_len
    for k in range(5):
        ck, (u, v) = tk.bounded_variation_probe(decoder, k)
        assert ck <= k * spelling_max
        assert tk.left_distance(u, v) <= k
    assert tk.bounded_variation_probe(decoder, 0)[0] == 0


def test_bounded_variation_probe_rejects_stochastic(vocab):
    t = tk.uniform_tokenizer(vocab, 3)
    with pytest.raises(NotDeterministic):
        tk.bounded_variation_probe(t.encoder, 2)


def test_bounded_variation_grows_for_reversal():
    alpha = tk.Alphabet(("t", "h", "e"))
    measured = []
    for n in (2, 3, 4):
        space = tk.Space(alpha, n)
        rev = tk.materialize(lambda s: tk.Str(alpha, tuple(reversed(s.syms))), space, space)
        measured.append(tk.bounded_variation_probe(rev, 2)[0])
    assert measured == [4, 6, 8]  # grows with the truncation: not bounded variation


def test_exact_implies_injective_encoder_and_surjective_decoder(munch6):
    assert tk.is_exact(munch6)
    assert tk.is_injective(munch6.encoder)
    assert tk.is_surjective(munch6.decoder, onto=munch6.char_space)


def test_exact_implies_decoder_point_mass_on_image(vocab):
    for t in (tk.munch_tokenizer(vocab, 4), tk.uniform_tokenizer(vocab, 4)):
        assert tk.is_exact(t)
        for delta in tk.support_of(t.encoder):
            assert len(tk.kernel_at(t.decoder, delta).mass) == 1


def test_random_exact_tokenizers_and_injected_corruption():
    rng = random.Random(2024)
    vocab = random_open_vocab(rng)
    t = tk.munch_tokenizer(vocab, 4)
    assert tk.is_exact(t)
    corrupted = corrupt_first_unit_row(t)
    verdict = tk.is_exact(corrupted)
    assert not verdict
    assert verdict.witness == min(
        (s for s in t.char_space.strings() if len(s) == 1), key=tk.Str.sort_key
    )


XY = tk.Alphabet(("x", "y"))
ABC = tk.Alphabet(("a", "b", "c"), tk.TOKENS)


def with_empty_encoder(decoder):
    """Pair a decoder with the one-row encoder on the empty text."""
    encoder = table_map(tk.Space(decoder.cod_space.alphabet, 0), decoder.dom_space, {"ε": "ε"})
    return tk.Tokenizer(encoder, decoder)


def spelling_decoder(spellings, max_len, rows):
    """Table decoder over ABC concatenating spellings over XY, with `rows` overridden."""
    token_space = tk.Space(ABC, max_len)
    char_space = tk.Space(XY, max_len * max(map(len, spellings)))
    values = {d: "".join(spellings[j] for j in d.syms) for d in token_space.strings()}
    values.update({tk.parse_str(ABC, text): out for text, out in rows.items()})
    kernel = {d: tk.point_mass(tk.parse_str(XY, v), char_space) for d, v in values.items()}
    return tk.StochMap(token_space, char_space, kernel)


def test_preimages_with_repeated_spelling():
    # a and b both decode to x: still deterministic, multiplicative, trivial kernel
    decoder = spelling_decoder(["x", "x", "y"], 2, {})
    texts = tk.Space(XY, 2)
    # the encoder spells x as a and y as c
    rows = {w: tk.Str(ABC, tuple(2 * i for i in w.syms)) for w in texts.strings()}
    t = tk.Tokenizer(tk.StochMap(texts, decoder.dom_space, rows), decoder)
    assert tk.decoder_eligibility(t)

    def rendered(text):
        return [d.render() for d in tk.preimages(t, tk.parse_str(XY, text))]

    assert rendered("x") == ["a", "b"]
    assert rendered("xy") == ["a|c", "b|c"]
    assert rendered("xx") == ["a|a", "a|b", "b|a", "b|b"]
    with pytest.raises(OutOfTruncation):  # longer than the character truncation
        rendered("xxx")


def test_multiplicativity_witness_when_empty_row_is_nonempty():
    t = with_empty_encoder(spelling_decoder(["x", "y", "xy"], 2, {"ε": "y"}))
    eps = tk.Space(ABC, 0).empty()
    assert tk.classify(t).multiplicative_decoder == tk.Verdict.failed((eps, eps))
    assert tk.decoder_eligibility(t).witness == (eps, eps)


@pytest.mark.parametrize("m", [0, 1])
def test_eligibility_below_truncation_2(m):
    # eligible iff f(ε) = ε and no token in the domain decodes to ε; classify says not applicable
    def decoder(rows):
        table = {"ε": "ε", "a": "x", "b": "y", "c": "xy", **rows}
        kept = {d: out for d, out in table.items() if m == 1 or d == "ε"}
        return with_empty_encoder(table_map(tk.Space(ABC, m), tk.Space(XY, 2), kept))

    eps = tk.Space(ABC, 0).empty()
    na = tk.Verdict.not_applicable("truncation admits no nonempty concatenation")
    for t in [decoder({}), decoder({"b": "ε"}), decoder({"ε": "y"})]:
        assert tk.classify(t).multiplicative_decoder == na
        assert tk.decoder_eligibility(t) == oracle_eligibility(t.decoder)
    assert tk.decoder_eligibility(decoder({}))
    assert tk.preimages(decoder({}), tk.Space(XY, 0).empty()) == [eps]
    moved = tk.Verdict.failed((eps, eps), "multiplicativity: false, witness (ε, ε)")
    assert tk.decoder_eligibility(decoder({"ε": "y"})) == moved
    b = tk.parse_str(ABC, "b")
    empty_b = tk.Verdict.failed(b, "trivial kernel: false, witness b, token decodes to the empty string")
    assert tk.decoder_eligibility(decoder({"b": "ε"})) == (empty_b if m else tk.Verdict.passed())
    # a spelling decoder agrees with its table twin: no token lies in the domain at m = 0
    spellings = [tk.parse_str(XY, sp) for sp in ("x", "ε", "xy")]
    spelled = tk.StochMap.from_spellings(tk.Space(ABC, m), tk.Space(XY, 2), spellings)
    assert tk.decoder_eligibility(with_empty_encoder(spelled)) == (
        empty_b if m else tk.Verdict.passed()
    )


def test_multiplicativity_witness_prefers_one_token_left_factor():
    # both (a, b|c) and (a|b, c) fail; canonical order reports the shorter left factor
    t = with_empty_encoder(spelling_decoder(["x", "y", "xy"], 3, {"a|b|c": "yyy"}))
    a, bc = tk.parse_str(ABC, "a"), tk.parse_str(ABC, "b|c")
    assert oracle_multiplicative(t.decoder).witness == (a, bc)
    report = tk.classify(t)
    assert report.multiplicative_decoder == tk.Verdict.failed((a, bc))
    assert report.prefix_monotone == tk.Verdict.failed((a, tk.parse_str(ABC, "a|b|c")))
    assert tk.decoder_eligibility(t) == tk.Verdict.failed(
        (a, bc), "multiplicativity: false, witness (a, b|c)"
    )


@st.composite
def table_decoder_tokenizers(draw):
    """A table decoder from random spellings (empty ones included), some rows corrupted.

    Up to two rows (the ε row among them) get a random output, and one time
    in five a row is made stochastic.
    """
    k = draw(st.integers(1, 3))
    m = 4 - draw(st.integers(0, 4))  # hypothesis favours small draws: mostly long truncations
    sigma = tk.Alphabet(("x", "y")[: draw(st.integers(1, 2))])
    delta = tk.Alphabet(("a", "b", "c")[:k], tk.TOKENS)
    token_space, char_space = tk.Space(delta, m), tk.Space(sigma, max(1, 2 * m))
    chars = st.integers(0, len(sigma) - 1)
    spellings = draw(st.lists(st.lists(chars, max_size=2).map(tuple), min_size=k, max_size=k))
    out = {d: sum((spellings[j] for j in d.syms), ()) for d in token_space.strings()}
    domain = list(out)
    for d in draw(st.lists(st.sampled_from(domain), max_size=2)):
        out[d] = tuple(draw(st.lists(chars, max_size=char_space.max_len)))
    kernel = {d: tk.point_mass(tk.Str(sigma, y), char_space) for d, y in out.items()}
    if draw(st.integers(1, 5)) == 5:
        half = Fraction(1, 2)
        kernel[draw(st.sampled_from(domain))] = tk.Dist(
            char_space, {tk.Str(sigma, ()): half, tk.Str(sigma, (0,)): half}
        )
    return with_empty_encoder(tk.StochMap(token_space, char_space, kernel))


@settings(max_examples=300, deadline=None)
@given(table_decoder_tokenizers())
def test_structural_verdicts_match_brute_force(t):
    report = tk.classify(t)
    assert report.multiplicative_decoder == oracle_multiplicative(t.decoder)
    assert report.prefix_monotone == oracle_prefix_monotone(t.decoder)
    assert tk.decoder_eligibility(t) == oracle_eligibility(t.decoder)


@st.composite
def probe_tokenizers(draw):
    """Exact and inexact tokenizers over a random open vocab, texts up to length 0-4.

    Greedy and uniform-segmentation encoders are exact (the second
    stochastic). A random stochastic encoder, a corrupted decoder row, or a
    decoder row that keeps half its mass on the right text makes the round
    trip move some text.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    vocab = random_open_vocab(rng)
    n = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["munch", "uniform", "random encoder", "corrupted", "split"]))
    if kind == "uniform":
        return tk.uniform_tokenizer(vocab, n)
    if kind in ("corrupted", "split"):
        t = tk.munch_tokenizer(vocab, max(n, 1))
        if kind == "corrupted":
            return corrupt_first_unit_row(t)
        text = t.char_space.at(draw(st.integers(0, t.char_space.size() - 1)))
        delta = t.encoder.values[text]
        other = t.decoder.cod_space.at(0 if text.syms else 1)  # ε, or the first character
        kernel = dict(t.decoder.kernel)
        half = Fraction(1, 2)
        kernel[delta] = tk.Dist(t.decoder.cod_space, {text: half, other: half})
        decoder = tk.StochMap(t.decoder.dom_space, t.decoder.cod_space, kernel)
        return tk.Tokenizer(t.encoder, decoder)
    t = tk.munch_tokenizer(vocab, n)
    if kind == "random encoder":
        return tk.Tokenizer(random_map(t.char_space, t.token_space, rng), t.decoder)
    return t


@settings(max_examples=200, deadline=None)
@given(probe_tokenizers(), st.integers(0, 6), st.integers(0, 2**32))
def test_probe_matches_point_mass_oracle(t, trials, seed):
    assert tk.is_exact(t) == oracle_is_exact(t)
    assert tk.exact_iff_all_consistent_probe(t, trials, seed) == oracle_probe(t, trials, seed)


def test_probe_matches_point_mass_oracle_on_inexact_tables(fig1, swap):
    for t, _ in (fig1, swap):
        for trials, seed in ((0, 0), (50, 7), (100, 123)):
            report = tk.exact_iff_all_consistent_probe(t, trials, seed)
            assert report == oracle_probe(t, trials, seed)


def test_probe_enumerates_the_char_space_at_most_once(vocab, fig1, monkeypatch):
    """Exactness decides the probe: it lists no space and pushes nothing through either map."""
    t = tk.munch_tokenizer(vocab, 4)
    enumerate_strings = tokcheck.strings.enumerate_strings
    pushforward = tokcheck.tokenizer.pushforward
    enumerated, pushed = [], []

    def counting_enumerate(alphabet, max_len):
        enumerated.append((alphabet, max_len))
        return enumerate_strings(alphabet, max_len)

    def counting_pushforward(f, p):
        pushed.append(f)
        return pushforward(f, p)

    monkeypatch.setattr(tokcheck.strings, "enumerate_strings", counting_enumerate)
    monkeypatch.setattr(tokcheck.tokenizer, "pushforward", counting_pushforward)
    report = tk.exact_iff_all_consistent_probe(t, trials=50, seed=11)
    assert report == tk.ProbeReport(True, 50, True)
    report = tk.exact_iff_all_consistent_probe(fig1[0], trials=50, seed=11)
    assert not report.exact and report.ok
    assert enumerated == [] and pushed == []


def test_marginalize_matches_preimage_sum():
    """The support scan against the preimage sum, for greedy and table decoders.

    Queried texts are every text of the char space, ε included, plus the
    decodings of q's support, some longer than the char truncation, which
    both refuse; q ranges from one atom to more than the preimage bound of
    the shorter texts.
    """
    seen = {"q above the bound": 0, "beyond truncation": 0}
    for seed in range(40):
        rng = random.Random(seed)
        vocab = random_open_vocab(rng)
        t = tk.munch_tokenizer(vocab, rng.randint(2, 3))
        if seed % 2:
            twin = tabulated_twin(vocab.spellings(), t.token_space, t.decoder.cod_space)
            t = tk.Tokenizer(t.encoder, twin)
        q = random_dist(t.token_space, rng, max_support=60)
        decodings = {t.decoder.values[d] for d in q.mass}
        for sigma in [*t.char_space.strings(), *decodings]:
            if len(sigma) > t.char_space.max_len:
                for query in (tk.marginalize, oracle_marginalize):
                    with pytest.raises(OutOfTruncation):
                        query(t, q, sigma)
                seen["beyond truncation"] += 1
                continue
            assert tk.marginalize(t, q, sigma) == oracle_marginalize(t, q, sigma)
            if len(q.mass) > tk.preimage_bound(len(sigma), len(t.token_space.alphabet)):
                seen["q above the bound"] += 1
    assert all(seen.values()), seen


def test_marginalize_error_precedence(fig1, vocab):
    t = with_empty_last_token(fig1[0])
    s1 = tk.parse_str(t.char_space.alphabet, "s1")
    foreign = tk.parse_str(vocab.sigma, "t")
    munch = tk.munch_tokenizer(vocab, 2)
    with pytest.raises(SpaceMismatch):
        tk.marginalize(t, dist_from(munch.token_space, {"t": 1}), foreign)
    q = dist_from(t.token_space, {"d1": 1})
    for sigma in (s1, foreign):
        with pytest.raises(DecoderNotEligible):
            tk.marginalize(t, q, sigma)
    q = dist_from(munch.token_space, {"t": "1/2", "h": "1/2"})
    for sigma in (tk.parse_str(t.char_space.alphabet, "s2"), t.char_space.empty()):
        with pytest.raises(AlphabetMismatch):
            tk.marginalize(munch, q, sigma)


def test_probe_report_that_is_not_ok_names_the_distribution_not_preserved():
    space = tk.Space(tk.Alphabet(("a",)), 1)
    p = tk.point_mass(space.empty(), space)
    report = tk.ProbeReport(True, 5, False, p, "random distribution not preserved")
    assert report.describe() == "exact; random distribution not preserved: Dist({ε: 1})"
    bare = tk.ProbeReport(True, 5, False, p)
    assert bare.describe() == "exact; distribution not preserved: Dist({ε: 1})"


@pytest.mark.parametrize("trials", [-1, -3])
def test_probe_rejects_a_negative_trial_count(vocab, fig1, trials):
    for t in (tk.munch_tokenizer(vocab, 2), fig1[0]):
        with pytest.raises(ValueError, match=r"^trials must be >= 0$"):
            tk.exact_iff_all_consistent_probe(t, trials=trials)


def _space_mismatch_decoder(vocab, case):
    """A decoder that breaks one of `Tokenizer`'s space checks against a greedy encoder at n=2."""
    if case == "domain":
        return tk.concat_decoder(vocab, 3)
    dom = tk.Space(vocab.delta, 2)
    if case == "alphabet":
        cod = tk.Space(tk.Alphabet(("z",)), 4)
    else:
        cod = tk.Space(vocab.sigma, 1)
    return tk.StochMap(dom, cod, {x: cod.empty() for x in dom.strings()})


@pytest.mark.parametrize(
    "case, message",
    [
        ("domain", "encoder codomain must equal decoder domain"),
        ("alphabet", "decoder must map back to the encoder's character alphabet"),
        ("truncation", "decoder output truncation must cover the encoder domain"),
    ],
)
def test_tokenizer_rejects_mismatched_spaces(vocab, case, message):
    encoder = tk.munch_encoder(vocab, 2)
    tk.Tokenizer(encoder, tk.concat_decoder(vocab, 2))  # the matching decoder passes
    with pytest.raises(SpaceMismatch, match=f"^{message}$"):
        tk.Tokenizer(encoder, _space_mismatch_decoder(vocab, case))


def test_is_exact_witness_is_canonical_when_encoder_rows_come_reversed(vocab):
    """Encoder rows in reverse canonical order, two texts failing: the canonical first is named."""
    munch = tk.munch_tokenizer(vocab, 2)
    delta = vocab.delta
    values = dict(munch.encoder.values)
    values[tk.parse_str(vocab.sigma, "t")] = tk.parse_str(delta, "h")
    values[tk.parse_str(vocab.sigma, "he")] = tk.parse_str(delta, "t|t")
    rows = dict(reversed(values.items()))
    encoder = tk.StochMap(munch.char_space, munch.token_space, rows)
    texts = list(munch.char_space.strings())
    assert list(rows) == texts[::-1] and list(encoder.values) == texts
    twin_decoder = tabulated_twin(vocab.spellings(), munch.token_space, munch.decoder.cod_space)
    for decoder in (munch.decoder, twin_decoder):
        t = tk.Tokenizer(encoder, decoder)
        want = oracle_is_exact(t)
        assert want == tk.Verdict.failed(tk.parse_str(vocab.sigma, "t"))
        assert tk.is_exact(t) == want
        assert tk.classify(t).bijective == tk.Verdict.failed(want.witness, "not exact")
    assert munch.decoder.spellings is not None and twin_decoder.spellings is None


def test_spelling_decoder_verdicts_read_no_rows(vocab, monkeypatch):
    """A spelling decoder: `is_exact` lists no texts. It and its table twin: no row is read."""
    exact = tk.munch_tokenizer(vocab, 4)
    values = dict(exact.encoder.values)
    values[tk.parse_str(vocab.sigma, "t")] = tk.parse_str(vocab.delta, "h")
    encoder = tk.StochMap(exact.char_space, exact.token_space, values)
    inexact = tk.Tokenizer(encoder, exact.decoder)
    twin = tabulated_twin(vocab.spellings(), exact.token_space, exact.decoder.cod_space)
    tables = [tk.Tokenizer(t.encoder, twin) for t in (exact, inexact)]
    wants = [oracle_is_exact(t) for t in (exact, inexact)]
    q = dist_from(exact.token_space, {"t|h|e": "1/2", "th|e": "1/4", "h": "1/4"})
    texts = [tk.parse_str(vocab.sigma, s) for s in ("the", "h", "t", "")]
    marginals = [oracle_marginalize(exact, q, s) for s in texts]
    enumerate_strings = tokcheck.strings.enumerate_strings
    enumerated = []

    def counting_enumerate(alphabet, max_len):
        enumerated.append((alphabet, max_len))
        return enumerate_strings(alphabet, max_len)

    def forbidden(*args):
        raise AssertionError("a row was read")

    monkeypatch.setattr(tokcheck.strings, "enumerate_strings", counting_enumerate)
    monkeypatch.setattr(tokcheck.stochmap._PointKernel, "__getitem__", forbidden)
    assert [tk.is_exact(t) for t in (exact, inexact)] == wants
    assert wants == [tk.Verdict.passed(), tk.Verdict.failed(texts[2])]
    assert [tk.marginalize(t, q, s) for t in (exact, inexact) for s in texts] == marginals * 2
    assert marginals == [Fraction(3, 4), Fraction(1, 4), Fraction(0), Fraction(0)]
    assert enumerated == []
    assert [tk.is_exact(t) for t in tables] == wants
    assert [tk.marginalize(t, q, s) for t in tables for s in texts] == marginals * 2


def test_inexact_probe_report_that_is_not_ok_does_not_claim_inconsistency():
    space = tk.Space(tk.Alphabet(("a",)), 1)
    x = tk.parse_str(space.alphabet, "a")
    report = tk.ProbeReport(False, 0, False, x)
    assert report.describe() == "not exact; point mass on a not shown inconsistent"
    shown = tk.ProbeReport(False, 0, True, x)
    assert shown.describe() == "not exact; inconsistent with point mass on a"
    assert tk.ProbeReport(False, 0, False).describe() == "not exact; no counterexample produced"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(-3, 40))
def test_preimage_bound_closed_form_is_the_sum_of_powers(n, vocab_size):
    assert tk.preimage_bound(n, vocab_size) == sum(vocab_size**i for i in range(1, n + 1))


def test_preimage_bound_refuses_a_negative_length():
    with pytest.raises(ValueError, match="^length must be >= 0$"):
        tk.preimage_bound(-1, 5)

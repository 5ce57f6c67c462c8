import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck import cli
from tokcheck.errors import (
    NoMatchingPrefix,
    OutOfDomain,
    OutOfTruncation,
    ProcUndefined,
    SpaceMismatch,
)
from helpers import (
    dist_from,
    oracle_pushforward,
    random_dist,
    random_map,
    table_map,
    tabulated_twin,
)


AB = tk.Alphabet(("a", "b"))
SP2 = tk.Space(AB, 2)


def abstract_space(labels, max_len=1):
    return tk.Space(tk.Alphabet(tuple(labels)), max_len)


def dense(f):
    xs = list(f.dom_space.strings())
    zs = list(f.cod_space.strings())
    return [[f.kernel[x].mass_of(z) for z in zs] for x in xs]


def matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(inner):
            aij = a[i][j]
            if aij:
                for k in range(cols):
                    out[i][k] += aij * b[j][k]
    return out


def test_identity_and_kernel_at():
    ident = tk.identity_map(SP2)
    for x in SP2.strings():
        assert tk.kernel_at(ident, x) == tk.point_mass(x, SP2)
    assert tk.is_deterministic(ident)
    assert tk.is_injective(ident)
    assert tk.is_surjective(ident)
    with pytest.raises(OutOfDomain):
        tk.kernel_at(ident, tk.parse_str(AB, "aaa"))


def test_total_kernel_required():
    kernel = {SP2.empty(): tk.point_mass(SP2.empty(), SP2)}
    with pytest.raises(ValueError):
        tk.StochMap(SP2, SP2, kernel)


def test_compose_identity_laws():
    rng = random.Random(0)
    f = random_map(SP2, SP2, rng)
    ident = tk.identity_map(SP2)
    assert tk.compose(ident, f) == f
    assert tk.compose(f, ident) == f
    assert tk.compose(ident, ident) == ident


def test_fig1_encoder_rows(fig1):
    t, _ = fig1
    sig, dlt = t.char_space.alphabet, t.token_space.alphabet
    row = tk.kernel_at(t.encoder, tk.parse_str(sig, "s2"))
    assert row == tk.point_mass(tk.parse_str(dlt, "d3"), t.token_space)


def test_fig1_round_trip_is_deterministic_table(fig1):
    t, _ = fig1
    kt = tk.compose(t.decoder, t.encoder)
    alpha = t.char_space.alphabet
    want = {"ε": "ε", "s1": "s2", "s2": "s3", "s3": "s3"}
    for src, dst in want.items():
        row = tk.kernel_at(kt, tk.parse_str(alpha, src))
        assert row == tk.point_mass(tk.parse_str(alpha, dst), t.decoder.cod_space)


def test_compose_matches_dense_matrix_product():
    rng = random.Random(7)
    for _ in range(25):
        x = abstract_space([f"x{i}" for i in range(rng.randint(1, 5))])
        y = abstract_space([f"y{i}" for i in range(rng.randint(1, 5))])
        z = abstract_space([f"z{i}" for i in range(rng.randint(1, 5))])
        f, g = random_map(x, y, rng), random_map(y, z, rng)
        assert dense(tk.compose(g, f)) == matmul(dense(f), dense(g))


def test_compose_associative_and_row_stochastic():
    rng = random.Random(8)
    for _ in range(20):
        spaces = [abstract_space([f"{c}{i}" for i in range(rng.randint(1, 5))]) for c in "wxyz"]
        f = random_map(spaces[0], spaces[1], rng)
        g = random_map(spaces[1], spaces[2], rng)
        h = random_map(spaces[2], spaces[3], rng)
        left = tk.compose(h, tk.compose(g, f))
        right = tk.compose(tk.compose(h, g), f)
        assert left == right
        for row in left.kernel.values():
            assert sum(row.mass.values()) == 1


def test_compose_space_mismatch():
    rng = random.Random(1)
    f = random_map(SP2, SP2, rng)
    g = random_map(abstract_space(["u"]), abstract_space(["u"]), rng)
    with pytest.raises(SpaceMismatch):
        tk.compose(g, f)


def test_pushforward_fig1(fig1):
    t, p_star = fig1
    q_star = tk.pushforward(t.encoder, p_star)
    delta = t.token_space.alphabet
    assert q_star == dist_from(t.token_space, {"d1": "1/5", "d3": "4/5"})
    assert q_star.mass_of(tk.parse_str(delta, "d2")) == 0


def test_pushforward_identity_and_point_mass():
    rng = random.Random(3)
    p = random_dist(SP2, rng)
    assert tk.pushforward(tk.identity_map(SP2), p) == p
    f = random_map(SP2, SP2, rng)
    for x in SP2.strings():
        assert tk.pushforward(f, tk.point_mass(x, SP2)) == tk.kernel_at(f, x)


def test_deterministic_pushforward_is_fiber_mass_transport():
    rng = random.Random(4)
    # deterministic map: reverse the string
    f = tk.materialize(lambda s: tk.Str(AB, tuple(reversed(s.syms))), SP2, SP2)
    for _ in range(10):
        p = random_dist(SP2, rng)
        out = tk.pushforward(f, p)
        for y in SP2.strings():
            fiber = sum(
                (p.mass_of(x) for x in SP2.strings() if f.values[x] == y), Fraction(0)
            )
            assert out.mass_of(y) == fiber


def test_is_deterministic_witness(fig1, vocab):
    t, _ = fig1
    assert tk.is_deterministic(t.encoder)
    uniform = tk.uniform_tokenizer(vocab, 3)
    verdict = tk.is_deterministic(uniform.encoder)
    # first stochastic row in canonical order: "th" already has two segmentations
    assert not verdict and verdict.witness == tk.parse_str(vocab.sigma, "th")
    # the witness follows canonical order, not the kernel's insertion order
    rows = reversed(list(uniform.encoder.kernel.items()))
    shuffled = tk.StochMap(uniform.char_space, uniform.token_space, dict(rows))
    assert tk.is_deterministic(shuffled) == verdict


def test_is_injective_witnesses(fig1):
    t, _ = fig1
    sig, dlt = t.char_space.alphabet, t.token_space.alphabet
    v_enc = tk.is_injective(t.encoder)
    assert not v_enc
    assert v_enc.witness == (
        tk.parse_str(sig, "s2"),
        tk.parse_str(sig, "s3"),
        tk.parse_str(dlt, "d3"),
    )
    v_dec = tk.is_injective(t.decoder)
    assert not v_dec
    assert v_dec.witness == (
        tk.parse_str(dlt, "d1"),
        tk.parse_str(dlt, "d2"),
        tk.parse_str(sig, "s2"),
    )


def test_is_surjective(fig1):
    t, _ = fig1
    verdict = tk.is_surjective(t.decoder, onto=t.char_space)
    assert not verdict and verdict.witness == tk.parse_str(t.char_space.alphabet, "s1")
    constant = table_map(SP2, SP2, {x.render(): "a" for x in SP2.strings()})
    assert not tk.is_surjective(constant)
    assert tk.support_of(constant) == {tk.parse_str(AB, "a")}


def test_support_of(fig1):
    t, _ = fig1
    got = {x.render() for x in tk.support_of(t.encoder)}
    # the padding row maps the empty string to itself, so ε joins the image
    assert got == {"ε", "d1", "d3"}
    assert tk.support_of(tk.identity_map(SP2)) == set(SP2.strings())


def test_materialize_row_count_and_agreement(vocab):
    space3 = tk.Space(vocab.sigma, 3)
    tok3 = tk.Space(vocab.delta, 3)
    enc = tk.materialize(lambda s: tk.maximal_munch_encode(vocab, s), space3, tok3)
    assert len(enc.kernel) == 40  # 1 + 3 + 9 + 27
    for x in space3.strings():
        assert enc.values[x] == tk.maximal_munch_encode(vocab, x)
    dec = tk.concat_decoder(vocab, 3)
    assert tk.is_deterministic(dec)


def test_materialize_wraps_failures(vocab):
    space = tk.Space(vocab.sigma, 2)
    bad_vocab = tk.Vocab.from_texts(vocab.sigma, [("t", "t"), ("h", "h")])  # no "e"

    with pytest.raises(ProcUndefined):
        tk.materialize(
            lambda s: tk.maximal_munch_encode(bad_vocab, s), space, tk.Space(bad_vocab.delta, 2)
        )


def test_materialize_checks_each_row_once(monkeypatch):
    """Tabulating `bpe_encode` over the BPE spec's 9,841 texts of length 8 checks each row once."""
    vocab = cli.load_spec(str(Path(__file__).parent / "data" / "the_bpe.json"), 0).vocab
    merges = tk.MergeList.from_texts(vocab, [("t", "h"), ("h", "e")])
    calls = 0
    require = tk.Space.require

    def counting(space, s):
        nonlocal calls
        calls += 1
        return require(space, s)

    monkeypatch.setattr(tk.Space, "require", counting)
    encode = lambda s: tk.bpe_encode(vocab, merges, s)
    encoder = tk.materialize(encode, tk.Space(vocab.sigma, 8), tk.Space(vocab.delta, 8))
    assert encoder.dom_space.size() == 9841
    assert calls == 9841


def test_materialize_raises_at_the_first_bad_row():
    """An over-long row stops tabulation before a later input where the procedure fails."""

    def doubled(s):
        if s.syms == (1, 1):
            raise NoMatchingPrefix(0)
        return tk.Str(AB, s.syms * 2)

    with pytest.raises(ProcUndefined):
        tk.materialize(doubled, SP2, tk.Space(AB, 4))
    with pytest.raises(OutOfTruncation, match="has length 2 > truncation 1"):
        tk.materialize(doubled, SP2, tk.Space(AB, 1))


def test_l1_contraction_on_random_triples():
    rng = random.Random(12)
    for _ in range(100):
        x = abstract_space([f"x{i}" for i in range(rng.randint(1, 5))])
        y = abstract_space([f"y{i}" for i in range(rng.randint(1, 5))])
        f = random_map(x, y, rng)
        p, q = random_dist(x, rng), random_dist(x, rng)
        assert tk.l1_distance(tk.pushforward(f, p), tk.pushforward(f, q)) <= tk.l1_distance(p, q)


def test_is_surjective_rejects_a_target_over_another_alphabet():
    foreign = tk.Space(tk.Alphabet(("c",)), 2)
    message = "^surjectivity target must share the codomain alphabet$"
    with pytest.raises(SpaceMismatch, match=message):
        tk.is_surjective(tk.identity_map(SP2), onto=foreign)


@st.composite
def pushforward_cases(draw):
    """A spelling, value-table or stochastic map with a random distribution over its domain."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    dom = abstract_space("xyz"[: draw(st.integers(1, 3))], draw(st.integers(0, 3)))
    cod_alpha = tk.Alphabet(tuple("ab"[: draw(st.integers(1, 2))]))
    kind = draw(st.sampled_from(["spelling", "values", "stochastic"]))
    spellings = [
        tk.Str(cod_alpha, [rng.randrange(len(cod_alpha)) for _ in range(rng.randint(0, 2))])
        for _ in dom.alphabet
    ]
    cod = tk.Space(cod_alpha, dom.max_len * max(map(len, spellings)))
    if kind == "spelling":
        f = tk.StochMap.from_spellings(dom, cod, spellings)
    elif kind == "values":
        f = tabulated_twin(spellings, dom, cod)
    else:
        f = random_map(dom, cod, rng)
    return f, random_dist(dom, rng, draw(st.integers(1, 6)))


@settings(max_examples=200, deadline=None)
@given(pushforward_cases())
def test_pushforward_matches_the_validating_oracle(case):
    """Same masses in the same order as summing every row and checking the result."""
    f, p = case
    got, want = tk.pushforward(f, p), oracle_pushforward(f, p)
    assert got == want
    assert list(got.mass.items()) == list(want.mass.items())
    assert all(type(m) is Fraction for m in got.mass.values())

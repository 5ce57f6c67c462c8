"""Deterministic maps store their values: one map built from strings, point masses and spellings."""

import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck import cli
from tokcheck.errors import DecoderNotEligible, OutOfDomain
from helpers import corrupt_first_unit_row, dist_from, random_dist, tabulated_twin

DOM_LABELS = ("A", "B", "C")
COD_LABELS = ("x", "y", "z")


@st.composite
def value_tables(draw):
    """A random function between truncated spaces, with its rows in a random order.

    Half the draws are the homomorphism fixed by random spellings, listed in
    canonical order and returned with those spellings; the others send each
    domain string to a random codomain string and return no spellings.
    """
    dom_alpha = tk.Alphabet(DOM_LABELS[: draw(st.integers(1, 3))], tk.TOKENS)
    dom = tk.Space(dom_alpha, draw(st.integers(0, 3)))
    cod_alpha = tk.Alphabet(COD_LABELS[: draw(st.integers(1, 3))])
    chars = st.integers(0, len(cod_alpha) - 1)
    if draw(st.booleans()):
        k = len(dom_alpha)
        drawn = draw(st.lists(st.lists(chars, max_size=3), min_size=k, max_size=k))
        spellings = [tk.Str(cod_alpha, syms) for syms in drawn]
        cod = tk.Space(cod_alpha, dom.max_len * max(map(len, spellings)) + draw(st.integers(0, 1)))
        spell = lambda x: tk.Str(cod_alpha, [c for i in x.syms for c in drawn[i]])
        values = {x: spell(x) for x in dom.strings()}
        return dom, cod, values, spellings
    cod = tk.Space(cod_alpha, draw(st.integers(0, 3)))
    outputs = list(cod.strings())
    domain = draw(st.permutations(list(dom.strings())))
    values = {x: draw(st.sampled_from(outputs)) for x in domain}
    return dom, cod, values, None


def assert_canonical(f):
    """Kernel, values and rows iterate in canonical domain order; values give their symbols."""
    order = list(f.dom_space.strings())
    assert list(f.kernel) == [x for x, _ in f.rows()] == order
    if f.values is not None:
        assert list(f.values) == order
        assert all(f.values.image(x) == y.syms for x, y in f.values.items())


def twins(dom, cod, values, spellings):
    """One map built from string rows, from one-entry distributions and from any spellings."""
    maps = [
        tk.StochMap(dom, cod, dict(values)),
        tk.StochMap(dom, cod, {x: tk.point_mass(y, cod) for x, y in values.items()}),
    ]
    if spellings is not None:
        maps.append(tk.StochMap.from_spellings(dom, cod, spellings))
    return maps


@settings(max_examples=200, deadline=None)
@given(value_tables())
def test_value_map_twins_agree(table):
    dom, cod, values, spellings = table
    maps = twins(dom, cod, values, spellings)
    first = maps[0]
    candidates = [
        *list(cod.strings())[:6],
        tk.Str(cod.alphabet, (0,) * (cod.max_len + 1)),
        tk.Str(tk.Alphabet(("w",)), ()),
    ]
    outside = [
        tk.Str(dom.alphabet, (0,) * (dom.max_len + 1)),
        tk.Str(tk.Alphabet(("Z",), tk.TOKENS), ()),
    ]
    for f in maps:
        assert_canonical(f)
        assert f.values is not None
        assert tk.is_deterministic(f) == tk.Verdict.passed()
        assert dict(f.kernel) == {x: tk.point_mass(y, cod) for x, y in values.items()}
        assert len(f.kernel) == len(first.kernel) == dom.size()
        assert list(f.kernel) == list(first.kernel) == list(dom.strings())
        assert cli.table_rows(f) == cli.table_rows(first)
        for x, y in values.items():
            assert f.values[x] == y
            for z in candidates:
                assert (tuple(tk.kernel_at(f, x).mass) == (z,)) == (z == y)
        for x in outside:
            assert x not in f.kernel and x not in f.values
            with pytest.raises(KeyError):
                f.values[x]
            with pytest.raises(OutOfDomain):
                tk.kernel_at(f, x)
        for g in maps:
            assert f == g and g == f


@settings(max_examples=100, deadline=None)
@given(value_tables())
def test_trusted_value_map_equals_the_checked_one(table):
    dom, cod, values, _ = table
    ordered = tk.stochmap._StoredValues((x, values[x]) for x in dom.strings())
    trusted = tk.StochMap._of_values(dom, cod, ordered)
    checked = tk.StochMap(dom, cod, dict(ordered))
    assert_canonical(trusted)
    assert_canonical(checked)
    assert list(trusted.values.items()) == list(checked.values.items())
    assert list(trusted.kernel.items()) == list(checked.kernel.items())
    assert len(trusted.kernel) == len(checked.kernel) == dom.size()
    assert list(trusted.rows()) == list(checked.rows())
    assert cli.table_rows(trusted) == cli.table_rows(checked)
    assert trusted == checked and checked == trusted
    assert trusted.spellings is None


def test_munch_encoder_is_the_checked_map_of_its_values(vocab):
    assert_canonical(tk.concat_decoder(vocab, 4))
    for unk in (None, "he"):
        enc = tk.munch_encoder(vocab, 4, unk)
        checked = tk.StochMap(enc.dom_space, enc.cod_space, dict(enc.values))
        assert_canonical(enc)
        assert_canonical(checked)
        assert list(enc.values.items()) == list(checked.values.items())
        assert list(enc.kernel) == list(checked.kernel) == list(enc.dom_space.strings())
        assert cli.table_rows(enc) == cli.table_rows(checked)
        assert enc == checked


@settings(max_examples=100, deadline=None)
@given(value_tables(), st.data())
def test_one_stochastic_row_keeps_a_table(table, data):
    dom, cod, values, _ = table
    outputs = list(cod.strings())
    assume(len(outputs) >= 2)
    domain = list(values)
    stochastic = data.draw(st.lists(st.sampled_from(domain), min_size=1, max_size=2, unique=True))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rows = {}
    for x, y in values.items():
        if x in stochastic:
            a, b = rng.sample(outputs, 2)
            rows[x] = dist_from(cod, {a.render(): "1/3", b.render(): "2/3"})
        else:
            rows[x] = y if rng.random() < 0.5 else tk.point_mass(y, cod)
    f = tk.StochMap(dom, cod, rows)
    assert f.values is None
    assert isinstance(f.kernel, dict) and list(f.kernel) == list(dom.strings())
    assert_canonical(f)
    for x, row in rows.items():
        assert isinstance(f.kernel[x], tk.Dist)
        if isinstance(row, tk.Dist):
            assert f.kernel[x] is row
        else:
            assert f.kernel[x] == tk.point_mass(row, cod)
    witness = min(stochastic, key=tk.Str.sort_key)
    assert tk.is_deterministic(f) == tk.Verdict.failed(witness, "row has support size 2")


def test_materialize_mixing_strings_and_point_masses():
    dom = tk.Space(tk.Alphabet(("a", "b")), 3)
    cod = tk.Space(tk.Alphabet(("p", "q"), tk.TOKENS), 3)

    def reverse(x):
        return tk.Str(cod.alphabet, x.syms[::-1])

    def mixed(x):
        return reverse(x) if len(x) % 2 else tk.point_mass(reverse(x), tk.Space(cod.alphabet, 4))

    f, g = tk.materialize(mixed, dom, cod), tk.materialize(reverse, dom, cod)
    assert_canonical(f)
    assert_canonical(g)
    assert f.values is not None and f.values == g.values and f == g
    assert all(type(y) is tk.Str for y in f.values.values())

    half = dist_from(cod, {"p": "1/2", "q": "1/2"})
    aa = tk.parse_str(dom.alphabet, "aa")
    h = tk.materialize(lambda x: half if x == aa else mixed(x), dom, cod)
    assert h.values is None and h.kernel[aa] is half
    assert_canonical(h)
    assert tk.is_deterministic(h) == tk.Verdict.failed(aa, "row has support size 2")
    assert all(h.kernel[x] == g.kernel[x] for x in dom.strings() if x != aa)


def test_tokenizer_is_frozen(munch6):
    with pytest.raises(dataclasses.FrozenInstanceError):
        munch6.decoder = munch6.encoder
    with pytest.raises(dataclasses.FrozenInstanceError):
        munch6._cache = {}


def _or_error(query, *args):
    try:
        return query(*args)
    except DecoderNotEligible as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("decoder_kind", ["eligible", "not multiplicative", "stochastic"])
def test_table_decoder_queries_do_not_depend_on_an_earlier_eligibility_call(vocab, decoder_kind):
    munch = tk.munch_tokenizer(vocab, 3)
    dec = munch.decoder
    table = tk.Tokenizer(munch.encoder, tabulated_twin(dec.spellings, dec.dom_space, dec.cod_space))
    if decoder_kind == "not multiplicative":
        table = corrupt_first_unit_row(table)
    elif decoder_kind == "stochastic":
        kernel = dict(table.decoder.kernel)
        the = tk.parse_str(vocab.delta, "th|e")
        kernel[the] = dist_from(dec.cod_space, {"the": "1/2", "he": "1/2"})
        table = tk.Tokenizer(munch.encoder, tk.StochMap(dec.dom_space, dec.cod_space, kernel))
    q = random_dist(table.token_space, random.Random(3), max_support=20)
    texts = list(table.char_space.strings())

    def answers(t, decide_first):
        if decide_first:
            tk.decoder_eligibility(t)
        return (
            [_or_error(tk.preimages, t, s) for s in texts],
            [_or_error(tk.marginalize, t, q, s) for s in texts],
            tk.decoder_eligibility(t),
        )

    fresh = [tk.Tokenizer(table.encoder, table.decoder) for _ in range(2)]
    first = answers(fresh[0], False)
    assert answers(fresh[1], True) == first
    assert answers(fresh[0], False) == first  # the same tokenizer asked again
    assert bool(first[2]) == (decoder_kind == "eligible")
    if decoder_kind != "eligible":
        note = first[2].note
        assert first[0][0] == first[1][0] == (DecoderNotEligible, note)


def test_munch_encoder_rows_store_values(vocab):
    tracemalloc.start()
    try:
        t = tk.munch_tokenizer(vocab, 9)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = len(t.encoder.values)
    assert rows == (3**10 - 1) // 2
    assert retained / rows <= 550

"""Canonical order by construction: the level walk and the one-pass injectivity check
against their sort-after and pair-scan oracles, and the single-decision paths."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck import cli, tokenizer
from tokcheck.strings import factorizations
from helpers import oracle_factorizations, oracle_is_injective, random_map, table_map
from test_cli import DATA, run_cli


@st.composite
def factorization_queries(draw):
    k = draw(st.integers(1, 3))
    symbol = st.integers(0, k - 1)
    pieces = draw(st.lists(st.lists(symbol, max_size=3).map(tuple), min_size=1, max_size=5))
    target = tuple(draw(st.lists(symbol, max_size=7)))
    return target, pieces, draw(st.integers(0, 8))


@settings(max_examples=400, deadline=None)
@given(factorization_queries())
def test_factorizations_match_the_sorted_depth_first_walk(query):
    target, pieces, max_parts = query
    assert factorizations(target, pieces, max_parts) == oracle_factorizations(target, pieces, max_parts)


@pytest.mark.parametrize("max_parts", range(9))
@pytest.mark.parametrize(
    "pieces",
    [
        [(0,), (), (0, 1)],  # an empty piece
        [(0,), (0,), (1,), (0, 1)],  # a repeated piece
        [(), (), (0,), (0,)],  # both
        [(0, 1), (0,), (1,)],  # longer pieces before shorter ones
    ],
)
def test_factorizations_with_empty_and_repeated_pieces(pieces, max_parts):
    for target in [(), (0,), (0, 1), (0, 1, 0, 1), (1, 1, 0)]:
        got = factorizations(target, pieces, max_parts)
        assert got == oracle_factorizations(target, pieces, max_parts)
        assert got == sorted(got, key=lambda parts: (len(parts), parts))


def _random_value_map(dom_space, cod_space, rng):
    outs = list(cod_space.strings())
    return tk.StochMap(dom_space, cod_space, {x: rng.choice(outs) for x in dom_space.strings()})


@pytest.mark.parametrize("seed", range(100))
def test_is_injective_matches_the_pair_scan(seed):
    rng = random.Random(seed)
    dom = tk.Space(tk.Alphabet(("a", "b")), rng.randint(0, 2))
    cod = tk.Space(tk.Alphabet(("x", "y", "z")), rng.randint(1, 2))
    for f in (random_map(dom, cod, rng, max_support=3), _random_value_map(dom, cod, rng)):
        assert tk.is_injective(f) == oracle_is_injective(f)


def test_is_injective_first_holder_of_the_first_collision_comes_late():
    # aa and ab collide first, on z; the minimal pair is (ε, bb), which share x
    dom = tk.Space(tk.Alphabet(("a", "b")), 2)
    cod = tk.Space(tk.Alphabet(("x", "y", "z", "w", "v")), 1)
    f = table_map(dom, cod, {"ε": "x", "a": "y", "b": "w", "aa": "z", "ab": "z", "ba": "v", "bb": "x"})
    v = tk.is_injective(f)
    assert v == oracle_is_injective(f)
    assert v.witness == (dom.empty(), tk.parse_str(dom.alphabet, "bb"), tk.parse_str(cod.alphabet, "x"))


def test_is_injective_witness_output_is_the_least_shared_one():
    dom = tk.Space(tk.Alphabet(("a",)), 1)
    cod = tk.Space(tk.Alphabet(("x", "y", "z")), 1)
    f = table_map(dom, cod, {"ε": {"z": "1/2", "y": "1/2"}, "a": {"x": "1/3", "z": "1/3", "y": "1/3"}})
    v = tk.is_injective(f)
    assert v == oracle_is_injective(f)
    assert v.witness[2] == tk.parse_str(cod.alphabet, "y")


def test_passing_verdicts_share_one_instance_and_keep_notes():
    assert tk.Verdict.passed() is tk.Verdict.passed()
    noted = tk.Verdict.passed("holds by construction")
    assert noted.ok is True and noted.note == "holds by construction"
    assert noted != tk.Verdict.passed()


@pytest.mark.parametrize("spec", ["the_vocab.json", "fig1.json"])
def test_check_decides_exactness_twice(capsys, monkeypatch, spec):
    calls = []

    def counted(t):
        calls.append(t)
        return real(t)

    real = tokenizer.is_exact
    monkeypatch.setattr(tokenizer, "is_exact", counted)
    monkeypatch.setattr(cli, "is_exact", counted, raising=False)  # a direct call from the CLI
    run_cli(capsys, "check", DATA / spec, "--max-len", "3")
    assert len(calls) == 2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck.errors import AlphabetMismatch, ParseError
from helpers import oracle_parse_str


AB = tk.Alphabet(("a", "b"))
THE = tk.Alphabet(("t", "h", "e"))


def s(alpha, text):
    return tk.parse_str(alpha, text)


def test_alphabet_invariants():
    with pytest.raises(ValueError):
        tk.Alphabet(())
    with pytest.raises(ValueError):
        tk.Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        tk.Alphabet(("a", ""))
    assert list(tk.Alphabet(("z", "a"))) == ["z", "a"]  # declaration order, not sorted


def test_concat_examples():
    assert tk.concat(s(THE, "th"), s(THE, "e")) == s(THE, "the")
    assert tk.concat(s(AB, "ε"), s(AB, "ab")) == s(AB, "ab")
    a, b, c = s(THE, "t"), s(THE, "h"), s(THE, "e")
    assert tk.concat(tk.concat(a, b), c) == tk.concat(a, tk.concat(b, c))


def test_concat_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        tk.concat(s(AB, "a"), s(THE, "t"))


def test_longest_common_prefix():
    x1 = tk.Alphabet(("a", "b", "c", "d", "x", "y"))
    assert tk.longest_common_prefix(s(x1, "abc"), s(x1, "abd")) == s(x1, "ab")
    g = s(x1, "abxy")
    assert tk.longest_common_prefix(g, g) == g
    assert tk.longest_common_prefix(s(x1, "xy"), s(x1, "ab")) == s(x1, "ε")


def test_left_distance_examples():
    x1 = tk.Alphabet(("a", "b", "c", "d"))
    assert tk.left_distance(s(x1, "abc"), s(x1, "abd")) == 2
    g = s(x1, "abc")
    assert tk.left_distance(g, g) == 0
    assert tk.left_distance(s(x1, "ε"), s(x1, "ab")) == 2


def test_is_prefix():
    assert tk.is_prefix(s(THE, "th"), s(THE, "the"))
    assert tk.is_prefix(s(THE, "ε"), s(THE, "the"))
    assert not tk.is_prefix(s(THE, "he"), s(THE, "the"))


def test_enumerate_counts():
    assert len(list(tk.enumerate_strings(AB, 3))) == 15
    assert list(tk.enumerate_strings(THE, 0)) == [s(THE, "ε")]
    five = tk.Alphabet(("a", "b", "c", "d", "e"))
    assert len(list(tk.enumerate_strings(five, 3))) == 156


def test_enumerate_order_and_uniqueness():
    out = list(tk.enumerate_strings(AB, 4))
    assert len(set(out)) == len(out)
    keys = [x.sort_key() for x in out]
    assert keys == sorted(keys)
    # space size formula agrees with the enumeration
    assert tk.Space(AB, 4).size() == len(out)
    with pytest.raises(ValueError):
        list(tk.enumerate_strings(AB, -1))


def test_monoid_laws_exhaustive():
    for size in (1, 2, 3):
        alpha = tk.Alphabet(tuple("abc"[:size]))
        strings = list(tk.enumerate_strings(alpha, 2))
        eps = tk.Space(alpha, 0).empty()
        for a in strings:
            assert tk.concat(eps, a) == a == tk.concat(a, eps)
            for b in strings:
                for c in strings:
                    assert tk.concat(tk.concat(a, b), c) == tk.concat(a, tk.concat(b, c))


def test_left_distance_is_a_metric_exhaustive():
    strings = list(tk.enumerate_strings(AB, 4))
    for a in strings:
        for b in strings:
            d = tk.left_distance(a, b)
            assert d >= 0
            assert (d == 0) == (a == b)
            assert d == tk.left_distance(b, a)
    for a in strings:
        for b in strings:
            dab = tk.left_distance(a, b)
            for c in strings:
                assert dab <= tk.left_distance(a, c) + tk.left_distance(c, b)


@given(st.lists(st.integers(0, 1), max_size=6), st.lists(st.integers(0, 1), max_size=6))
@settings(max_examples=200)
def test_lcp_is_common_prefix(xs, ys):
    a, b = tk.Str(AB, xs), tk.Str(AB, ys)
    p = tk.longest_common_prefix(a, b)
    assert tk.is_prefix(p, a) and tk.is_prefix(p, b)
    # no longer common prefix exists
    n = len(p)
    if len(a) > n and len(b) > n:
        assert a.syms[n] != b.syms[n]


def test_parse_and_render_round_trip():
    tok = tk.Alphabet(("t", "h", "e", "th", "he"), tk.TOKENS)
    for text in ("ε", "t", "th|e", "t|he", "t|h|e"):
        assert tk.parse_str(tok, text).render() == text
    assert tk.parse_str(THE, "the").labels() == ("t", "h", "e")
    assert tk.parse_str(THE, "ε").render() == "ε"
    # greedy parse picks the longest label
    assert tk.parse_str(tok, "the").labels() == ("th", "e")


def test_parse_rejects_unknown():
    with pytest.raises(ParseError):
        tk.parse_str(THE, "tx")


def test_str_validates_indices():
    with pytest.raises(ValueError):
        tk.Str(AB, (0, 5))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=6, unique=True),
    st.text("abc", max_size=8),
)
def test_parse_str_matches_label_scan(labels, text):
    # multi-character labels; "c" is in no label, so texts containing it do not parse
    alphabet = tk.Alphabet(tuple(labels))
    try:
        want = oracle_parse_str(alphabet, text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            tk.parse_str(alphabet, text)
        assert str(got.value) == str(exc)  # names the same position
    else:
        assert tk.parse_str(alphabet, text) == want


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_space_at_is_the_canonical_enumeration(k):
    alpha = tk.Alphabet(tuple("abcd"[:k]))
    for n in range(6):
        space = tk.Space(alpha, n)
        listed = list(space.strings())
        assert [space.at(i) for i in range(len(listed))] == listed
        for i in (-1, len(listed)):
            with pytest.raises(IndexError):
                space.at(i)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_str_value_contract(data):
    labels = data.draw(
        st.lists(st.text("abc", min_size=1, max_size=2), min_size=1, max_size=4, unique=True)
    )
    syms = tuple(data.draw(st.lists(st.integers(0, len(labels) - 1), max_size=6)))
    alphabet = tk.Alphabet(tuple(labels))
    twin = tk.Alphabet(tuple(labels))  # equal, but a distinct object
    assert twin is not alphabet and twin == alphabet
    forms = [tk.Str(alphabet, syms), tk.Str._wrap(alphabet, syms), tk.Str(twin, syms)]
    for x in forms:
        table = {x: "found"}
        for y in forms:
            assert x == y and hash(x) == hash(y)
            assert table.get(y) == "found"
        assert x != syms and syms not in table
    # the same symbols over an unequal alphabet may share a hash but are another string
    other = tk.Str(tk.Alphabet(tuple(labels) + ("z",)), syms)
    assert other != forms[0] and other not in {forms[0]: None}
    for x in forms:
        for name, value in (("alphabet", twin), ("syms", ()), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
        assert x.alphabet == alphabet and x.syms == syms

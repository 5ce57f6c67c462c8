import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck.errors import UndefinedTransition, VocabNotOpen
from helpers import (
    oracle_build_maximal_munch_transducer,
    oracle_equivalent_on,
    random_open_vocab,
)


@pytest.fixture(scope="module")
def machine(vocab):
    return tk.build_maximal_munch_transducer(vocab)


def test_run_examples(machine, vocab):
    sig = vocab.sigma
    assert tk.run(machine, tk.parse_str(sig, "ε")).render() == "ε"
    assert tk.run(machine, tk.parse_str(sig, "th")).render() == "th"
    assert tk.run(machine, tk.parse_str(sig, "the")).render() == "th|e"
    assert tk.run(machine, tk.parse_str(sig, "hethe")).render() == "he|th|e"


def test_empty_input_yields_terminal_only():
    alpha = tk.Alphabet(("a",))
    beta = tk.Alphabet(("x",), tk.TOKENS)
    flush = tk.Str(beta, (0,))
    t = tk.SubseqTransducer(
        states=("q0",),
        input_alphabet=alpha,
        output_alphabet=beta,
        initial="q0",
        next_state={},
        output={},
        terminal={"q0": flush},
    )
    assert tk.run(t, tk.Str(alpha, ())) == flush


def test_undefined_transition_error():
    alpha = tk.Alphabet(("a", "b"))
    beta = tk.Alphabet(("x",), tk.TOKENS)
    eps = tk.Str(beta, ())
    t = tk.SubseqTransducer(
        states=("q0",),
        input_alphabet=alpha,
        output_alphabet=beta,
        initial="q0",
        next_state={("q0", 0): "q0"},
        output={("q0", 0): eps},
        terminal={"q0": eps},
    )
    with pytest.raises(UndefinedTransition) as info:
        tk.run(t, tk.Str(alpha, (0, 1, 0)))
    assert info.value.position == 1
    assert tk.sequential_of(t)  # hand-built machine with empty terminals everywhere


def test_next_and_output_domains_must_match():
    alpha = tk.Alphabet(("a",))
    beta = tk.Alphabet(("x",), tk.TOKENS)
    eps = tk.Str(beta, ())
    with pytest.raises(ValueError):
        tk.SubseqTransducer(
            states=("q0",),
            input_alphabet=alpha,
            output_alphabet=beta,
            initial="q0",
            next_state={("q0", 0): "q0"},
            output={},
            terminal={"q0": eps},
        )


def test_construction_requires_open_vocab(vocab):
    partial = tk.Vocab.from_texts(vocab.sigma, [("t", "t"), ("he", "he")])
    with pytest.raises(VocabNotOpen):
        tk.build_maximal_munch_transducer(partial)


def build_outcome(build, vocab):
    """A built transducer, or the type and message of the error the build raises."""
    try:
        return build(vocab)
    except (VocabNotOpen, ValueError) as exc:
        return (type(exc), str(exc))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_builder_matches_the_worklist_oracle(data):
    """Same states in the same order, tables, terminals and errors as a worklist search.

    Vocabs may miss a single character (not open), and the label a·b
    names the buffer (a·b) and the buffer (a, b) alike when spellings
    extend both.
    """
    labels = data.draw(
        st.sampled_from([("a",), ("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d"), ("a", "b", "a·b")])
    )
    sigma = tk.Alphabet(labels)
    k = len(labels)
    missing = data.draw(st.sampled_from((None,) * 8 + tuple(range(k))))
    spellings = {(c,) for c in range(k) if c != missing}
    if "a·b" in labels:
        spellings |= data.draw(st.sampled_from([set(), {(0, 1, 0), (2, 0)}]))
    longer = st.lists(st.integers(0, k - 1), min_size=2, max_size=5).map(tuple)
    spellings |= data.draw(st.sets(longer, min_size=0 if spellings else 1, max_size=5))
    entries = tuple((f"t{j}", tk.Str(sigma, sp)) for j, sp in enumerate(sorted(spellings)))
    vocab = tk.Vocab(sigma, entries)
    assert build_outcome(tk.build_maximal_munch_transducer, vocab) == build_outcome(
        oracle_build_maximal_munch_transducer, vocab
    )


def test_builder_rejects_colliding_buffer_names():
    sigma = tk.Alphabet(("a", "b", "a·b"))
    spellings = [(0,), (1,), (2,), (0, 1, 0), (2, 0)]
    vocab = tk.Vocab(sigma, tuple((f"t{j}", tk.Str(sigma, sp)) for j, sp in enumerate(spellings)))
    with pytest.raises(ValueError, match="buffer names collide"):
        tk.build_maximal_munch_transducer(vocab)


def test_equivalence_with_direct_encoder(machine, vocab):
    verdict = tk.equivalent_on(machine, lambda s: tk.maximal_munch_encode(vocab, s), 6)
    assert verdict


def test_equivalence_at_zero_compares_only_empty(machine, vocab):
    assert tk.equivalent_on(machine, lambda s: tk.maximal_munch_encode(vocab, s), 0)
    # a reference that disagrees beyond the empty string is not noticed at 0
    lying = lambda s: tk.Str(vocab.delta, (0,) * len(s))
    assert tk.equivalent_on(machine, lying, 0)


def test_corrupted_terminal_detected_with_minimal_witness(machine, vocab):
    bad_terminal = dict(machine.terminal)
    bad_terminal["t"] = tk.parse_str(vocab.delta, "h")
    corrupted = tk.SubseqTransducer(
        states=machine.states,
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        initial=machine.initial,
        next_state=machine.next_state,
        output=machine.output,
        terminal=bad_terminal,
    )
    verdict = tk.equivalent_on(corrupted, lambda s: tk.maximal_munch_encode(vocab, s), 4)
    assert not verdict
    gamma, got, want = verdict.witness
    assert gamma == tk.parse_str(vocab.sigma, "t")
    assert got.render() == "h" and want.render() == "t"


def test_sequential_verdicts(machine, vocab):
    verdict = tk.sequential_of(machine)
    assert not verdict  # multi-character spellings force a buffer flush

    singles = tk.Vocab.from_texts(vocab.sigma, [("t", "t"), ("h", "h"), ("e", "e")])
    relabeler = tk.build_maximal_munch_transducer(singles)
    assert tk.sequential_of(relabeler)
    assert relabeler.states == ("ε",)
    for text in tk.enumerate_strings(vocab.sigma, 4):
        assert tk.run(relabeler, text).syms == text.syms


def test_state_count_bounded_by_strict_prefixes(machine, vocab):
    prefixes = set()
    for sp in vocab.spellings():
        for i in range(1, len(sp)):
            prefixes.add(sp.syms[:i])
    assert len(machine.states) <= len(prefixes) + 1


def test_path_output_is_prefix_monotone(machine, vocab):
    sig = vocab.sigma
    for gamma in tk.enumerate_strings(sig, 4):
        _, out = tk.run_path(machine, gamma)
        for a in range(len(sig)):
            _, ext = tk.run_path(machine, tk.Str(sig, gamma.syms + (a,)))
            assert tk.is_prefix(out, ext)


def test_run_map_has_stable_variation_across_truncations(machine, vocab):
    # measured growth constants plateau as the domain widens, as expected for
    # a map realized by a finite-state device (contrast with reversal)
    measured = []
    for n in (4, 5, 6):
        dom = tk.Space(vocab.sigma, n)
        cod = tk.Space(vocab.delta, n)
        f = tk.materialize(lambda g: tk.run(machine, g), dom, cod)
        measured.append([tk.bounded_variation_probe(f, k)[0] for k in range(4)])
    assert measured[0] == measured[1] == measured[2] == [0, 2, 3, 4]


def equivalence_outcome(check, machine, encode, max_len):
    """A verdict, or the state, symbol and position of the transition a run left the table at."""
    try:
        return check(machine, encode, max_len)
    except UndefinedTransition as exc:
        return (exc.state, exc.symbol, exc.position, str(exc))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equivalent_on_matches_run_by_run_oracle(data):
    """Greedy transducers, whole or with transitions dropped and outputs or terminals altered."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    vocab = random_open_vocab(rng, max_sigma=3, max_spelling=3, max_extras=4)
    machine = tk.build_maximal_munch_transducer(vocab)
    keys = sorted(machine.next_state)
    dropped = set(data.draw(st.lists(st.sampled_from(keys), max_size=2)))
    altered = set(data.draw(st.lists(st.sampled_from(keys), max_size=2)))
    token_strings = st.lists(st.integers(0, len(vocab.delta) - 1), max_size=2).map(
        lambda syms: tk.Str(vocab.delta, syms)
    )
    output = {
        key: data.draw(token_strings) if key in altered else out
        for key, out in machine.output.items()
        if key not in dropped
    }
    terminal = dict(machine.terminal)
    if data.draw(st.booleans()):
        terminal[data.draw(st.sampled_from(machine.states))] = data.draw(token_strings)
    variant = tk.SubseqTransducer(
        states=machine.states,
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        initial=machine.initial,
        next_state={key: q for key, q in machine.next_state.items() if key not in dropped},
        output=output,
        terminal=terminal,
    )
    encode = lambda s: tk.maximal_munch_encode(vocab, s)
    max_len = data.draw(st.integers(0, 5))
    assert equivalence_outcome(tk.equivalent_on, variant, encode, max_len) == equivalence_outcome(
        oracle_equivalent_on, variant, encode, max_len
    )


def test_equivalent_on_reports_a_mismatch_before_a_later_sibling_leaves_the_table(machine, vocab):
    # from state t: "th" gets a wrong output and "te" has no transition
    output = {key: out for key, out in machine.output.items() if key != ("t", 2)}
    output[("t", 1)] = tk.parse_str(vocab.delta, "t|h")
    variant = tk.SubseqTransducer(
        states=machine.states,
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        initial=machine.initial,
        next_state={key: q for key, q in machine.next_state.items() if key != ("t", 2)},
        output=output,
        terminal=machine.terminal,
    )
    encode = lambda s: tk.maximal_munch_encode(vocab, s)
    verdict = tk.equivalent_on(variant, encode, 3)
    assert verdict == oracle_equivalent_on(variant, encode, 3)
    assert verdict.witness[0] == tk.parse_str(vocab.sigma, "th")
    with pytest.raises(UndefinedTransition) as info:
        tk.equivalent_on(variant, lambda s: tk.run(variant, s), 3)
    assert (info.value.state, info.value.symbol, info.value.position) == ("t", "e", 1)


class _SameStr(tk.Str):
    """A Str subclass that changes nothing."""


class _NeverEqual(tk.Str):
    """A Str subclass whose reflected comparison always reports a mismatch."""

    def __ne__(self, other):
        return True


def _encoders_for_comparison(vocab, inputs):
    """Direct encoders returning right and wrong values of several kinds, by name."""
    greedy = lambda s: tk.maximal_munch_encode(vocab, s)
    twin_alpha = tk.Alphabet(vocab.delta.labels, tk.TOKENS)
    other_alpha = tk.Alphabet(vocab.delta.labels + ("x",), tk.TOKENS)

    def wrong_at(bad):
        def encode(s):
            want = greedy(s)
            return tk.Str(vocab.delta, want.syms + (0,)) if s == bad else want

        return encode

    return {
        "right": greedy,
        "equal alphabet": lambda s: tk.Str(twin_alpha, greedy(s).syms),
        "other alphabet": lambda s: tk.Str(other_alpha, greedy(s).syms),
        "same subclass": lambda s: _SameStr(vocab.delta, greedy(s).syms),
        "never-equal subclass": lambda s: _NeverEqual(vocab.delta, greedy(s).syms),
        "not a Str": lambda s: greedy(s).syms,
        "wrong first": wrong_at(inputs[0]),
        "wrong middle": wrong_at(inputs[len(inputs) // 2]),
        "wrong last": wrong_at(inputs[-1]),
    }


@pytest.mark.parametrize(
    "kind, fails_at",
    [
        ("right", None),
        ("equal alphabet", None),
        ("other alphabet", 0),
        ("same subclass", None),
        ("never-equal subclass", 0),
        ("not a Str", 0),
        ("wrong first", 0),
        ("wrong middle", "middle"),
        ("wrong last", -1),
    ],
)
def test_equivalent_on_compares_like_the_oracle(machine, vocab, kind, fails_at):
    max_len = 3
    inputs = list(tk.enumerate_strings(vocab.sigma, max_len))
    encode = _encoders_for_comparison(vocab, inputs)[kind]
    verdict = tk.equivalent_on(machine, encode, max_len)
    assert verdict == oracle_equivalent_on(machine, encode, max_len)
    if fails_at is None:
        assert verdict.ok and verdict.witness is None
        return
    gamma, got, want = verdict.witness
    assert gamma == inputs[len(inputs) // 2 if fails_at == "middle" else fails_at]
    assert type(got) is tk.Str and got.alphabet is machine.output_alphabet
    assert got == tk.run(machine, gamma)
    assert want is not got and type(want) is type(encode(gamma))


_A = tk.Alphabet(("a",))
_X = tk.Alphabet(("x",), tk.TOKENS)
_X_EPS, _A_EPS = tk.Str(_X, ()), tk.Str(_A, ())


@pytest.mark.parametrize(
    "change, message",
    [
        ({"states": ("q0", "q0")}, "state names must be distinct"),
        ({"initial": "q1"}, "initial state must be a declared state"),
        ({"output": {}}, "next-state and output tables must share one domain"),
        (
            {"next_state": {("q0", 0): "q1"}},
            "transition ('q0', 0) references an undeclared state",
        ),
        (
            {"next_state": {("q0", 1): "q0"}, "output": {("q0", 1): _X_EPS}},
            "transition symbol 1 outside the input alphabet",
        ),
        ({"output": {("q0", 0): _A_EPS}}, "output at ('q0', 0) is not over the output alphabet"),
        ({"terminal": {}}, "terminal function must be defined on every state"),
        ({"terminal": {"q0": _A_EPS}}, "terminal output at 'q0' is not over the output alphabet"),
    ],
)
def test_transducer_rejects_malformed_tables(change, message):
    parts = {
        "states": ("q0",),
        "input_alphabet": _A,
        "output_alphabet": _X,
        "initial": "q0",
        "next_state": {("q0", 0): "q0"},
        "output": {("q0", 0): _X_EPS},
        "terminal": {"q0": _X_EPS},
    }
    tk.SubseqTransducer(**parts)  # the unchanged tables are well formed
    with pytest.raises(ValueError) as info:
        tk.SubseqTransducer(**{**parts, **change})
    assert str(info.value) == message


def test_run_rejects_input_over_another_alphabet(machine):
    with pytest.raises(ValueError, match="^input is not over the transducer's input alphabet$"):
        tk.run(machine, tk.Str(_A, (0,)))

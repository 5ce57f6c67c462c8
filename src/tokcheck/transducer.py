"""Subsequential transducers: execution, greedy-encoder construction, equivalence.

A subsequential transducer is a deterministic finite-state machine with an
output string per transition and a terminal output string per state; the
value of an input is the concatenation of the transition outputs along its
path followed by the terminal string of the state it ends in. Transition
functions are partial and represented as explicit tables: leaving the
table is an error, not an implicit sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import UndefinedTransition, VocabNotOpen
from .reports import Verdict
from .strings import Alphabet, Str, concat
from .encoders import Vocab, maximal_munch_encode


@dataclass(frozen=True)
class SubseqTransducer:
    """States, alphabets, initial state, next/output tables, and terminal outputs."""

    states: tuple[str, ...]
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    initial: str
    next_state: dict[tuple[str, int], str]
    output: dict[tuple[str, int], Str]
    terminal: dict[str, Str]

    def __post_init__(self):
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ValueError("state names must be distinct")
        if self.initial not in state_set:
            raise ValueError("initial state must be a declared state")
        if self.next_state.keys() != self.output.keys():
            raise ValueError("next-state and output tables must share one domain")
        k = len(self.input_alphabet)
        for (q, a), q2 in self.next_state.items():
            if q not in state_set or q2 not in state_set:
                raise ValueError(f"transition ({q!r}, {a}) references an undeclared state")
            if not 0 <= a < k:
                raise ValueError(f"transition symbol {a} outside the input alphabet")
        for key, out in self.output.items():
            if out.alphabet != self.output_alphabet:
                raise ValueError(f"output at {key!r} is not over the output alphabet")
        if self.terminal.keys() != state_set:
            raise ValueError("terminal function must be defined on every state")
        for q, out in self.terminal.items():
            if out.alphabet != self.output_alphabet:
                raise ValueError(f"terminal output at {q!r} is not over the output alphabet")


def run_path(t: SubseqTransducer, gamma: Str) -> tuple[str, Str]:
    """Follow gamma through the tables; return the end state and the path output only."""
    if gamma.alphabet != t.input_alphabet:
        raise ValueError("input is not over the transducer's input alphabet")
    state = t.initial
    out: list[int] = []
    for pos, a in enumerate(gamma.syms):
        key = (state, a)
        if key not in t.next_state:
            raise UndefinedTransition(state, t.input_alphabet.labels[a], pos)
        out.extend(t.output[key].syms)
        state = t.next_state[key]
    return state, Str(t.output_alphabet, out)


def run(t: SubseqTransducer, gamma: Str) -> Str:
    """Path output followed by the terminal output of the final state."""
    state, path_out = run_path(t, gamma)
    return concat(path_out, t.terminal[state])


def sequential_of(t: SubseqTransducer) -> Verdict:
    """True iff the terminal function is empty everywhere (no flush needed)."""
    for q in t.states:
        if len(t.terminal[q]) != 0:
            return Verdict.failed(q, "state has a nonempty terminal output")
    return Verdict.passed()


def _paths(
    t: SubseqTransducer, max_len: int
) -> Iterator[tuple[tuple[int, ...], str, tuple[int, ...]]]:
    """Every input up to max_len in canonical order, with the end state and path output of its run.

    Inputs are walked level by level, each extending the state and output
    its one-shorter prefix reached, so each costs one transition; only the
    level being extended is held, never the last one. Leaving the table
    raises `UndefinedTransition` when that input is reached.
    """
    level = [((), t.initial, ())]
    yield level[0]
    for pos in range(max_len):
        keep = pos + 1 < max_len
        longer = []
        for syms, state, out in level:
            for a in range(len(t.input_alphabet)):
                key = (state, a)
                if key not in t.next_state:
                    raise UndefinedTransition(state, t.input_alphabet.labels[a], pos)
                reached = (syms + (a,), t.next_state[key], out + t.output[key].syms)
                yield reached
                if keep:
                    longer.append(reached)
        level = longer


def equivalent_on(t: SubseqTransducer, encode: Callable[[Str], Str], max_len: int) -> Verdict:
    """Compare the transducer against a direct encoder on every input up to max_len.

    Runs are carried from each input to its one-longer extensions instead
    of restarting, and inputs are compared in canonical order, so the first
    mismatch, or the first input that leaves the table, is the same as for
    a `run` of every input. An exact `Str` over the output alphabet with
    the run's symbols is accepted by comparing symbols, as `Str.__eq__`
    would; the run's output is wrapped as a `Str` only for any other
    value, which is then compared as before and, if unequal, reported in
    the witness (input, transducer output, encoder output).
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    out_alpha = t.output_alphabet
    terminal = {q: out.syms for q, out in t.terminal.items()}
    for syms, state, out in _paths(t, max_len):
        gamma = Str._wrap(t.input_alphabet, syms)
        got_syms = out + terminal[state]
        want = encode(gamma)
        if (
            type(want) is Str
            and got_syms == want.syms
            and (out_alpha is want.alphabet or out_alpha == want.alphabet)
        ):
            continue
        got = Str._wrap(out_alpha, got_syms)
        if got != want:
            return Verdict.failed((gamma, got, want))
    return Verdict.passed()


def build_maximal_munch_transducer(vocab: Vocab) -> SubseqTransducer:
    """Compile greedy longest-match encoding into a subsequential transducer.

    States are the pending buffers: the strict prefixes of spellings,
    including the empty buffer. Reading a character extends the buffer;
    once no spelling extends it, the longest spelling prefixing it
    (`Vocab.longest_match`, the matcher of `maximal_munch_encode`) is
    emitted and the remainder is re-scanned, with the re-scan folded into
    the transition so running stays a single left-to-right pass. Every
    pending buffer is reached from its one-shorter prefix without output
    and every re-scan ends on one, so the states are exactly these buffers,
    listed in canonical order (by length, then symbols). The terminal
    output of a state is `maximal_munch_encode` of its buffer.
    """
    if not vocab.is_open:
        raise VocabNotOpen("the transducer construction needs an open vocabulary")
    sigma, delta = vocab.sigma, vocab.delta
    pending = {sp.syms[:i] for _, sp in vocab.entries for i in range(len(sp))}
    names = {
        buf: "·".join(sigma.labels[i] for i in buf) if buf else "ε"
        for buf in sorted(pending, key=lambda buf: (len(buf), buf))
    }
    if len(set(names.values())) != len(names):
        raise ValueError("buffer names collide; use distinct character labels")
    next_state: dict[tuple[str, int], str] = {}
    output: dict[tuple[str, int], Str] = {}
    for buf, q in names.items():
        for a in range(len(sigma)):
            rest, emitted = buf + (a,), []
            while rest not in names:
                j = vocab.longest_match(rest)
                emitted.append(j)
                rest = rest[vocab.spelling_lens[j] :]
            next_state[(q, a)] = names[rest]
            output[(q, a)] = Str._wrap(delta, tuple(emitted))
    terminal = {q: maximal_munch_encode(vocab, Str._wrap(sigma, buf)) for buf, q in names.items()}
    return SubseqTransducer(
        states=tuple(names.values()),
        input_alphabet=sigma,
        output_alphabet=delta,
        initial="ε",
        next_state=next_state,
        output=output,
        terminal=terminal,
    )

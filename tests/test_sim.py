import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tokcheck as tk
import tokcheck.sim
from tokcheck.errors import EmptySample, SpaceMismatch
from helpers import (
    dist_from,
    fig1_pieces,
    oracle_run_estimation,
    random_dist,
    random_map,
    swap_pieces,
    the_vocab,
)


@pytest.fixture(scope="module")
def uniform_three(vocab):
    space = tk.Space(vocab.sigma, 3)
    return dist_from(space, {"t": "1/3", "the": "1/3", "he": "1/3"})


def test_exact_tokenizer_trace_converges(vocab, uniform_three):
    t = tk.munch_tokenizer(vocab, 3)
    summary = tk.run_estimation(t, uniform_three, (100, 1000, 10000, 100000), seed=7)
    assert summary.bias == 0
    assert float(summary.final_tv) < 0.05
    assert summary.converged


def test_fig1_trace_settles_at_bias(fig1):
    t, p_star = fig1
    summary = tk.run_estimation(t, p_star, (100, 1000, 10000, 100000), seed=7)
    assert summary.bias == Fraction(2, 5)
    assert abs(float(summary.final_tv) - 0.4) <= 0.02
    assert not summary.converged


def test_bias_examples(fig1, swap, vocab, uniform_three):
    fig1_t, fig1_p = fig1
    assert tk.bias(fig1_t, fig1_p) == Fraction(2, 5)
    t = tk.munch_tokenizer(vocab, 3)
    assert tk.bias(t, uniform_three) == 0
    swap_t, swap_p = swap
    assert tk.bias(swap_t, swap_p) == 0  # consistent despite inexactness


def test_bias_zero_iff_consistent(fig1, swap, vocab, uniform_three):
    cases = [fig1, swap, (tk.munch_tokenizer(vocab, 3), uniform_three)]
    for t, p in cases:
        assert (tk.bias(t, p) == 0) == bool(tk.is_consistent_wrt(t, p))


def test_trace_limit_matches_bias_within_noise(fig1, swap, vocab, uniform_three):
    n_final = 10**4
    cases = [fig1, swap, (tk.munch_tokenizer(vocab, 3), uniform_three)]
    for t, p in cases:
        summary = tk.run_estimation(t, p, (100, 1000, n_final), seed=3)
        assert abs(float(summary.final_tv) - float(summary.bias)) <= 3 / math.sqrt(n_final) + 0.01


def test_zero_count_step_propagates_empty_sample(vocab, uniform_three):
    t = tk.munch_tokenizer(vocab, 3)
    with pytest.raises(EmptySample):
        tk.run_estimation(t, uniform_three, (0,), seed=1)


def test_trace_records_schedule(fig1):
    t, p_star = fig1
    summary = tk.run_estimation(t, p_star, (10, 100), seed=2)
    assert [n for n, _ in summary.trace.steps] == [10, 100]
    assert summary.trace.target == p_star.embedded(t.decoder.cod_space)
    assert len(summary.rows()) == 2


def _random_table_tokenizer(rng):
    sigma = tk.Alphabet(tuple("xyz"[: rng.randint(1, 3)]))
    delta = tk.Alphabet(tuple("abc"[: rng.randint(1, 3)]), tk.TOKENS)
    m = rng.randint(1, 2)
    chars, tokens = tk.Space(sigma, m), tk.Space(delta, rng.randint(1, 2))
    outputs = tk.Space(sigma, rng.randint(m, 3))
    encoder = random_map(chars, tokens, rng, max_support=3)
    return tk.Tokenizer(encoder, random_map(tokens, outputs, rng, max_support=3))


def _estimation_case(kind, case_seed):
    """A tokenizer of the given kind and a target over its texts, both drawn from case_seed."""
    rng = random.Random(case_seed)
    if kind == "greedy":
        t = tk.munch_tokenizer(the_vocab(), rng.randint(1, 3))
    elif kind == "uniform":
        t = tk.uniform_tokenizer(the_vocab(), rng.randint(1, 3))
    elif kind == "table":
        t = _random_table_tokenizer(rng)
    else:
        t, p_star = fig1_pieces() if kind == "fig1" else swap_pieces()
        if rng.random() < 0.5:
            return t, p_star
    return t, random_dist(t.char_space, rng, max_support=8)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["greedy", "uniform", "fig1", "swap", "table"]),
    st.integers(0, 2**32),
    st.lists(st.integers(1, 600), min_size=1, max_size=4, unique=True).map(sorted),
    st.integers(0, 2**40),
)
@example("fig1", 0, [1], 0)
@example("uniform", 3, [1, 2, 600], 7)
@example("table", 5, [1, 40], 2**40)
def test_run_estimation_matches_oracle(kind, case_seed, schedule, seed):
    t, p_star = _estimation_case(kind, case_seed)
    want = oracle_run_estimation(t, p_star, schedule, seed)
    assert tk.run_estimation(t, p_star, schedule, seed) == want  # every step Dist, TV and the bias
    assert tk.bias(t, p_star) == want.bias


def test_empty_schedule_is_refused(fig1):
    t, p_star = fig1
    with pytest.raises(ValueError, match="at least one sample count"):
        tk.run_estimation(t, p_star, ())


@pytest.mark.parametrize(
    "schedule, error, message",
    [
        ((100000, 5), ValueError, "strictly increasing"),
        ((10, 10), ValueError, "strictly increasing"),
        ((5, 3, -1, 0), ValueError, "sample count must be >= 0"),
        ((5, 3, 0, -1), EmptySample, "empty sample"),
        ((-2, 0), ValueError, "sample count must be >= 0"),
    ],
)
def test_schedule_checked_before_any_draw(fig1, monkeypatch, schedule, error, message):
    """The error drawing the steps in order would raise, raised before the first draw."""
    t, p_star = fig1
    with pytest.raises(error, match=message):
        oracle_run_estimation(t, p_star, schedule)

    def no_draws(*args):
        raise AssertionError("drew before checking the schedule")

    monkeypatch.setattr(tokcheck.sim, "sample_counts", no_draws)
    with pytest.raises(error, match=message):
        tk.run_estimation(t, p_star, schedule)


def test_space_mismatch_precedes_schedule_check(fig1, swap):
    t, _ = fig1
    _, other = swap
    with pytest.raises(SpaceMismatch):
        tk.run_estimation(t, other, ())
    with pytest.raises(SpaceMismatch):
        tk.bias(t, other)

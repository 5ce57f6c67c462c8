import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokcheck as tk
from tokcheck.errors import EmptySample, OutOfTruncation, SpaceMismatch
from helpers import dist_from, oracle_random_dist, oracle_sample, random_dist


AB = tk.Alphabet(("a", "b"))
SP = tk.Space(AB, 3)


def test_point_mass():
    x = tk.parse_str(AB, "ab")
    p = tk.point_mass(x, SP)
    assert p.mass == {x: Fraction(1)}
    eps = tk.point_mass(SP.empty(), SP)
    assert eps.mass_of(SP.empty()) == 1
    with pytest.raises(OutOfTruncation):
        tk.point_mass(tk.parse_str(AB, "aaaa"), SP)


def test_normalization_enforced():
    x, y = tk.parse_str(AB, "a"), tk.parse_str(AB, "b")
    with pytest.raises(ValueError):
        tk.Dist(SP, {x: Fraction(1, 2), y: Fraction(1, 3)})
    with pytest.raises(ValueError):
        tk.Dist(SP, {x: Fraction(3, 2), y: Fraction(-1, 2)})
    # zero masses are dropped, not stored
    d = tk.Dist(SP, {x: Fraction(1), y: Fraction(0)})
    assert y not in d.mass


def test_l1_and_tv_fig1(fig1):
    t, p_star = fig1
    round_tripped = tk.pushforward(t.decoder, tk.pushforward(t.encoder, p_star))
    assert tk.l1_distance(round_tripped, p_star) == Fraction(4, 5)
    assert tk.tv_distance(round_tripped, p_star) == Fraction(2, 5)
    assert tk.l1_distance(p_star, p_star) == 0


def test_distances_between_point_masses():
    a = tk.point_mass(tk.parse_str(AB, "a"), SP)
    b = tk.point_mass(tk.parse_str(AB, "b"), SP)
    assert tk.l1_distance(a, b) == 2
    assert tk.tv_distance(a, b) == 1
    assert tk.tv_distance(a, a) == 0


def test_space_mismatch():
    other = tk.Space(AB, 2)
    p = tk.point_mass(tk.parse_str(AB, "a"), SP)
    q = tk.point_mass(tk.parse_str(AB, "a"), other)
    with pytest.raises(SpaceMismatch):
        tk.l1_distance(p, q)


def test_kl_divergence():
    p = dist_from(SP, {"a": 1})
    q = dist_from(SP, {"a": "1/2", "b": "1/2"})
    r = dist_from(SP, {"b": 1})
    assert tk.kl_divergence(p, p) == 0.0
    assert tk.kl_divergence(p, q) == pytest.approx(math.log(2))
    assert tk.kl_divergence(p, r) == math.inf


def test_pinsker_bound_on_random_pairs():
    rng = random.Random(1234)
    pool = list(SP.strings())
    for _ in range(100):
        support = rng.sample(pool, rng.randint(1, 6))
        ws1 = [rng.randint(1, 9) for _ in support]
        ws2 = [rng.randint(1, 9) for _ in support]
        p = tk.Dist(SP, {s: Fraction(w, sum(ws1)) for s, w in zip(support, ws1)})
        q = tk.Dist(SP, {s: Fraction(w, sum(ws2)) for s, w in zip(support, ws2)})
        assert float(tk.tv_distance(p, q)) <= math.sqrt(tk.kl_divergence(p, q) / 2) + 1e-9


def test_distance_ranges_on_random_pairs():
    rng = random.Random(99)
    for _ in range(50):
        p, q = random_dist(SP, rng), random_dist(SP, rng)
        assert tk.tv_distance(p, q) <= 1
        assert tk.l1_distance(p, q) <= 2


def test_sample_point_mass_and_determinism():
    x = tk.parse_str(AB, "ab")
    p = tk.point_mass(x, SP)
    assert tk.sample(p, seed=3, n=5) == [x] * 5
    q = dist_from(SP, {"a": "1/3", "b": "2/3"})
    assert tk.sample(q, seed=11, n=200) == tk.sample(q, seed=11, n=200)


def test_sample_law_of_large_numbers_fixed_seed(fig1):
    # masses (0.2, 0.4, 0.4); frequencies at seed 42 recorded within +/-0.01
    _, p_star = fig1
    counts = Counter(tk.sample(p_star, seed=42, n=10**5))
    for text, expected in (("s1", 0.2), ("s2", 0.4), ("s3", 0.4)):
        got = counts[tk.parse_str(p_star.space.alphabet, text)] / 10**5
        assert abs(got - expected) <= 0.01


def test_empirical_examples():
    a, b = tk.parse_str(AB, "a"), tk.parse_str(AB, "b")
    d = tk.empirical([a, a, b], SP)
    assert d.mass == {a: Fraction(2, 3), b: Fraction(1, 3)}
    assert tk.empirical([b] * 7, SP) == tk.point_mass(b, SP)
    with pytest.raises(EmptySample):
        tk.empirical([], SP)


def test_empirical_of_sample_is_close():
    rng = random.Random(5)
    for _ in range(3):
        p = random_dist(SP, rng, max_support=5)
        emp = tk.empirical(tk.sample(p, seed=rng.randint(0, 10**6), n=10**5), SP)
        assert float(tk.tv_distance(emp, p)) < 0.02


def test_empirical_converges_on_doubling_schedule():
    space = tk.Space(tk.Alphabet(("t", "h", "e")), 3)
    p = dist_from(space, {"t": "1/5", "th": "2/5", "the": "2/5"})
    prev = None
    n = 500
    while n <= 64000:
        tv = float(tk.tv_distance(tk.empirical(tk.sample(p, seed=n, n=n), space), p))
        if prev is not None:
            assert tv <= prev + 3 / math.sqrt(n)
        prev = tv
        n *= 2


def test_estimator_trace_requires_increasing_counts():
    p = dist_from(SP, {"a": 1})
    tk.EstimatorTrace(((1, p), (2, p)), p)
    with pytest.raises(ValueError):
        tk.EstimatorTrace(((2, p), (2, p)), p)


def test_embedded():
    wide = tk.Space(AB, 5)
    p = dist_from(SP, {"ab": "1/2", "b": "1/2"})
    q = p.embedded(wide)
    assert q.space == wide and q.mass == p.mass
    with pytest.raises(SpaceMismatch):
        p.embedded(tk.Space(tk.Alphabet(("x",)), 5))


def test_random_dist_draws_as_sampling_the_listed_space():
    for k in range(1, 5):
        alpha = tk.Alphabet(tuple("abcd"[:k]))
        for n in range(6):
            space = tk.Space(alpha, n)
            for max_support in (1, 3, 6, 40):
                seed = 1000 * k + 10 * n + max_support
                fast, slow = random.Random(seed), random.Random(seed)
                for _ in range(4):
                    assert random_dist(space, fast, max_support) == oracle_random_dist(
                        space, slow, max_support
                    )
                assert fast.getstate() == slow.getstate()


def test_sample_matches_binary_search_oracle():
    rng = random.Random(8)
    space = tk.Space(AB, 4)
    pool = list(space.strings())
    cases = [tk.point_mass(x, space) for x in (pool[0], pool[7], pool[-1])]  # single atoms
    for k in (2, 3, 7, len(pool)):  # equal masses: every cut is a multiple of 1/k
        cases.append(tk.Dist(space, {s: Fraction(1, k) for s in rng.sample(pool, k)}))
    primes = (3, 5, 7, 11, 13, 2**61 - 1)  # pairwise coprime: the common denominator is large
    masses = [Fraction(1, q) for q in primes]
    support = rng.sample(pool, len(primes) + 1)
    cases.append(tk.Dist(space, {**dict(zip(support, masses)), support[-1]: 1 - sum(masses)}))
    for _ in range(20):
        support = rng.sample(pool, rng.randint(1, len(pool)))
        weights = [rng.randint(1, 10**12) for _ in support]
        cases.append(tk.Dist(space, {s: Fraction(w, sum(weights)) for s, w in zip(support, weights)}))
    for _ in range(20):
        cases.append(random_dist(space, rng, max_support=len(pool)))
    for p in cases:
        for seed in (0, 1, rng.getrandbits(32)):
            assert tk.sample(p, seed, 300) == oracle_sample(p, seed, 300)
    assert tk.sample(cases[0], 5, 0) == oracle_sample(cases[0], 5, 0) == []


def _two_atoms(space, d, rng):
    """Masses 1/d and (d-1)/d on two random strings: the common denominator is d."""
    x, y = rng.sample(list(space.strings()), 2)
    return tk.Dist(space, {x: Fraction(1, d), y: Fraction(d - 1, d)})


def _uniform_255():
    """Mass 1/255 on each of the 255 strings of (a|b)^<=7: support index 254 is a draw of 254."""
    space = tk.Space(AB, 7)
    return tk.Dist(space, {s: Fraction(1, 255) for s in space.strings()})


def test_sample_counts_match_counted_sample():
    rng = random.Random(12)
    space = tk.Space(AB, 4)
    pool = list(space.strings())
    denominators = {
        1: [1],
        8: [200, 2**7, 255],
        9: [256],
        32: [2**31 + 11],
        33: [2**32 + 15, 2**32],
        61: [2**61 - 1],
        65: [2**64],
        89: [2**88 + 7],
    }
    cases = [tk.point_mass(pool[5], space), _uniform_255()]
    for bits, ds in denominators.items():
        for d in ds:
            if d > 1:
                cases.append(_two_atoms(space, d, rng))
            weights = [rng.randint(1, 9) for _ in range(rng.randint(3, 8))]
            # weights summing to a power of two: the common denominator is one too
            weights.append(2 ** math.ceil(math.log2(sum(weights) + 1)) - sum(weights))
            total = sum(weights)
            support = rng.sample(pool, len(weights))
            cases.append(tk.Dist(space, {s: Fraction(w, total) for s, w in zip(support, weights)}))
    got_bits = set()
    for p in cases:
        support = p.support()
        got_bits.add(math.lcm(*(m.denominator for m in p.mass.values())).bit_length())
        for seed in (0, 1, rng.getrandbits(40)):
            for n in (0, 1, 2, 37, 500):
                want = Counter(tk.sample(p, seed, n))
                assert tk.sample_counts(p, seed, n) == [want[s] for s in support]
    assert set(denominators) <= got_bits


def test_sample_counts_read_as_many_bits_as_randrange(monkeypatch):
    """The generator ends in the state that n calls of randrange leave, so no value is wasted."""
    made = []
    plain = random.Random

    class Recording(plain):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    rng = random.Random(3)
    space = tk.Space(AB, 4)
    monkeypatch.setattr(tk.dist.random, "Random", Recording)
    cases = [(1, tk.point_mass(space.empty(), space)), (255, _uniform_255())]
    for d in (2, 3, 2**7, 200, 255, 256, 2**32 + 15, 2**64, 2**88 + 7):
        cases.append((d, _two_atoms(space, d, rng)))
    for d, p in cases:
        for n in (0, 1, 9, 300):
            tk.sample_counts(p, 17, n)
            (drawn,) = made
            made.clear()
            ref = plain(17)
            for _ in range(n):
                ref.randrange(d)
            assert drawn.getstate() == ref.getstate()


def test_sample_counts_rejects_negative_count():
    with pytest.raises(ValueError, match="sample count must be >= 0"):
        tk.sample_counts(tk.point_mass(SP.empty(), SP), 0, -1)


def test_repr_lists_the_support_in_canonical_order():
    a, b = tk.parse_str(AB, "a"), tk.parse_str(AB, "ab")
    d = tk.Dist(SP, {b: Fraction(1, 2), a: Fraction(1, 3), SP.empty(): Fraction(1, 6)})
    assert repr(d) == "Dist({ε: 1/6, a: 1/3, ab: 1/2})"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_l1_distance_sums_over_the_union_of_supports(seed):
    rng = random.Random(seed)
    p, q = random_dist(SP, rng, 8), random_dist(SP, rng, 8)
    union = p.mass.keys() | q.mass.keys()
    want = sum((abs(p.mass_of(x) - q.mass_of(x)) for x in union), Fraction(0))
    assert tk.l1_distance(p, q) == want
    assert tk.l1_distance(q, p) == want

"""Correctness references that share no code with tokcheck.

Strings here are plain tuples of symbol indices and distributions are dicts
from such tuples to Fractions, so a rewrite of tokcheck's matcher,
segmentation walk, sampler or tables cannot change what the benchmark
expects. Every alphabet the benchmark uses has one-character labels, or
texts that are a single label, which `parse` relies on.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction


def parse(labels: tuple[str, ...], text: str) -> tuple[int, ...]:
    """A rendered text as symbol indices: one label, or one character per symbol."""
    if text in ("", "ε"):
        return ()
    if text in labels:
        return (labels.index(text),)
    return tuple(labels.index(c) for c in text)


def greedy_encode(spellings: list[tuple[int, ...]], text: tuple[int, ...]) -> tuple[int, ...]:
    """Longest-match encoding of `text` as token indices; every character must be a spelling."""
    by_spelling = {sp: j for j, sp in enumerate(spellings)}
    longest = max(map(len, spellings))
    out = []
    pos = 0
    while pos < len(text):
        for n in range(min(longest, len(text) - pos), 0, -1):
            j = by_spelling.get(text[pos : pos + n])
            if j is not None:
                out.append(j)
                pos += n
                break
        else:
            raise ValueError(f"no spelling matches at position {pos}")
    return tuple(out)


def count_segmentations(spellings: list[tuple[int, ...]], text: tuple[int, ...]) -> int:
    """Number of token sequences whose spellings concatenate to `text`."""
    ways = [0] * (len(text) + 1)
    ways[len(text)] = 1
    for pos in range(len(text) - 1, -1, -1):
        ways[pos] = sum(
            ways[pos + len(sp)] for sp in spellings if text[pos : pos + len(sp)] == sp
        )
    return ways[0]


def spell(spellings: list[tuple[int, ...]], tokens: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c for j in tokens for c in spellings[j])


def canonical(s: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Length first, then lexicographic on indices."""
    return (len(s), s)


def draw_counts(mass: dict[tuple[int, ...], Fraction], seed: int, n: int) -> dict:
    """Counts of n draws by inverse CDF over the canonical support order.

    The draws are integers below the common denominator of the masses from
    `random.Random(seed).randrange`, the documented sampling contract.
    """
    support = sorted(mass, key=canonical)
    denom = math.lcm(*(mass[s].denominator for s in support))
    cuts = []
    acc = 0
    for s in support:
        acc += mass[s].numerator * (denom // mass[s].denominator)
        cuts.append(acc)
    rng = random.Random(seed)
    counts = [0] * len(support)
    for _ in range(n):
        counts[bisect_right(cuts, rng.randrange(denom))] += 1
    return {s: c for s, c in zip(support, counts) if c}


def push(counts: dict, roundtrip: dict | None) -> dict:
    """Counts moved through a deterministic round trip; None is the identity."""
    if roundtrip is None:
        return counts
    out: dict = {}
    for s, c in counts.items():
        t = roundtrip[s]
        out[t] = out.get(t, 0) + c
    return out


def tv(p: dict, q: dict) -> Fraction:
    """Total variation between two mass dicts."""
    return sum((abs(p.get(s, 0) - q.get(s, 0)) for s in p.keys() | q.keys()), Fraction(0)) / 2

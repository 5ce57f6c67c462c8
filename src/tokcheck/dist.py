"""Finite-support probability distributions with exact rational masses.

Masses are `fractions.Fraction` values throughout, so equality of
distributions is decidable and distance computations are exact. Floats
appear only in `kl_divergence`. Sampling uses the stdlib Mersenne Twister
(`random.Random`) seeded explicitly, drawing integers below the common
denominator of the masses, so draws are exact and bit-reproducible.
`sample_counts` tallies the same draws as `sample` without listing them:
below a denominator of 256 it reads each round of draws with one
`randbytes` call and counts their top bytes, and from 256 up it makes the
`getrandbits` calls of `randrange` one by one. Either way the counts, and
the generator's final state, are those of `sample`.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .errors import EmptySample, SpaceMismatch
from .strings import Space, Str


_ONE = Fraction(1)
# A byte no support index takes: a support has at most denom <= 255 strings
# when draws are read a byte at a time, so indices stop at 254.
_REJECT = 255


class Dist:
    """A probability distribution with finite support inside a truncated space."""

    __slots__ = ("space", "mass")

    def __init__(self, space: Space, mass: Mapping[Str, Fraction]):
        clean: dict[Str, Fraction] = {}
        total = Fraction(0)
        for s, m in mass.items():
            m = Fraction(m)
            if m == 0:
                continue
            if m < 0:
                raise ValueError(f"negative mass {m} at {s!r}")
            space.require(s)
            clean[s] = m
            total += m
        if total != 1:
            raise ValueError(f"masses must sum to exactly 1, got {total}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mass", clean)

    @classmethod
    def _of_masses(cls, space: Space, mass: dict[Str, Fraction]) -> Dist:
        # fast path for masses known to be positive Fractions on strings of the
        # space that sum to 1, such as a mix of distributions by positive weights
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "mass", mass)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Dist is immutable")

    def mass_of(self, s: Str) -> Fraction:
        return self.mass.get(s, Fraction(0))

    def support(self) -> list[Str]:
        """Support strings in canonical order."""
        return sorted(self.mass, key=Str.sort_key)

    def embedded(self, space: Space) -> Dist:
        """The same distribution viewed inside a wider truncation of the same alphabet."""
        if space.alphabet != self.space.alphabet:
            raise SpaceMismatch("cannot embed into a space over a different alphabet")
        return Dist(space, self.mass)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return self.space == other.space and self.mass == other.mass

    def __repr__(self) -> str:
        items = ", ".join(f"{s.render()}: {self.mass[s]}" for s in self.support())
        return f"Dist({{{items}}})"


@dataclass(frozen=True)
class EstimatorTrace:
    """A sequence of estimates at strictly increasing sample counts, with its target."""

    steps: tuple[tuple[int, Dist], ...]
    target: Dist

    def __post_init__(self):
        _require_increasing([n for n, _ in self.steps])


def _require_increasing(counts: Sequence[int]) -> None:
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("sample counts must be strictly increasing")


def point_mass(x: Str, space: Space) -> Dist:
    """The distribution concentrated on a single string, checked once to lie in the space."""
    space.require(x)
    return Dist._of_masses(space, {x: _ONE})


def random_dist(space: Space, rng: random.Random, max_support: int = 6) -> Dist:
    """A random distribution on 1 to max_support strings of the space, integer weights 1-9.

    The support is drawn by index, so the space is never listed; `rng.sample`
    picks the same indices from a range as from the listed strings.
    """
    size = space.size()
    k = rng.randint(1, min(max_support, size))
    support = [space.at(i) for i in rng.sample(range(size), k)]
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    return Dist(space, {s: Fraction(w, total) for s, w in zip(support, weights)})


def _require_same_space(p: Dist, q: Dist) -> None:
    if p.space != q.space:
        raise SpaceMismatch("distributions live over different spaces")


def l1_distance(p: Dist, q: Dist) -> Fraction:
    """Exact sum of |p(x) - q(x)| over the union of supports.

    One pass over p's atoms looks each up in q, and a second adds q's
    mass off p's support, so each key is hashed once per side.
    """
    _require_same_space(p, q)
    p_mass, q_mass = p.mass, q.mass
    total = Fraction(0)
    for x, px in p_mass.items():
        qx = q_mass.get(x)
        total += px if qx is None else abs(px - qx)
    for x, qx in q_mass.items():
        if x not in p_mass:
            total += qx
    return total


def tv_distance(p: Dist, q: Dist) -> Fraction:
    """Total variation distance: half the L1 distance."""
    return l1_distance(p, q) / 2


def kl_divergence(p: Dist, q: Dist) -> float:
    """Relative entropy of p from q in nats; +inf when supp(p) is not inside supp(q)."""
    _require_same_space(p, q)
    total = 0.0
    for x, px in p.mass.items():
        qx = q.mass_of(x)
        if qx == 0:
            return math.inf
        total += float(px) * math.log(px / qx)
    return total


def _inverse_cdf(p: Dist) -> tuple[list[Str], int, list[int]]:
    """Support in canonical order, the common denominator, and cumulative counts below it."""
    support = p.support()
    denom = math.lcm(*(p.mass[s].denominator for s in support))
    cuts = []
    acc = 0
    for s in support:
        acc += int(p.mass[s] * denom)
        cuts.append(acc)
    return support, denom, cuts


def sample(p: Dist, seed: int, n: int) -> list[Str]:
    """Draw n i.i.d. strings from p, reproducibly for a given seed.

    Inverse CDF over the canonical support order, with integer draws below
    the common denominator of the masses, so selection involves no floats:
    a draw r selects the first support string whose cumulative count
    exceeds r.
    """
    if n < 0:
        raise ValueError("sample count must be >= 0")
    support, denom, cuts = _inverse_cdf(p)
    rng = random.Random(seed)
    return [support[bisect.bisect_right(cuts, rng.randrange(denom))] for _ in range(n)]


def sample_counts(p: Dist, seed: int, n: int) -> list[int]:
    """How many of `sample(p, seed, n)`'s draws land on each support string, in canonical order.

    `randrange(denom)` draws `getrandbits(k)`, k = denom.bit_length(), until
    a value below denom comes up; for k <= 32 that value is the top k bits
    of one 32-bit Mersenne Twister word. Draws are read in rounds: each
    round asks for as many values as accepted draws are still missing, so
    the stream is never read past the n-th accepted draw and the generator
    ends where `randrange` leaves it.

    Below 256 (k <= 8) a round reads its words with one `randbytes` call,
    which writes each word as 4 little-endian bytes, so every fourth byte
    is a word's top byte. One `translate` maps a top byte to the support
    index its draw selects, or to _REJECT for a value at or above denom,
    and `bytes.count` tallies the indices. Larger denominators make the
    `getrandbits` calls themselves and count the raw values.
    """
    if n < 0:
        raise ValueError("sample count must be >= 0")
    support, denom, cuts = _inverse_cdf(p)
    rng = random.Random(seed)
    k = denom.bit_length()
    need = n
    if k <= 8:
        table = bytes(
            bisect.bisect_right(cuts, r) if r < denom else _REJECT
            for r in (b >> (8 - k) for b in range(256))
        )
        drawn = bytearray()
        while need:
            indices = rng.randbytes(4 * need)[3::4].translate(table)
            need = indices.count(_REJECT)
            drawn += indices
        return [drawn.count(i) for i in range(len(support))]
    rounds = []
    while need:
        raw = Counter(map(rng.getrandbits, repeat(k, need)))
        need = sum(c for r, c in raw.items() if r >= denom)
        rounds.append(raw)
    counts = [0] * len(support)
    for raw in rounds:
        for r, c in raw.items():
            if r < denom:
                counts[bisect.bisect_right(cuts, r)] += c
    return counts


def empirical(samples: Iterable[Str], space: Space) -> Dist:
    """Relative-frequency distribution of the samples (the MLE over the space)."""
    counts = Counter(samples)
    total = counts.total()
    if total == 0:
        raise EmptySample("cannot estimate from an empty sample")
    return Dist(space, {s: Fraction(c, total) for s, c in counts.items()})

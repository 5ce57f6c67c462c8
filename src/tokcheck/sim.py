"""End-to-end estimation runs: sample, encode, estimate, decode, measure.

Each schedule step draws its own sample with a seed derived as seed XOR n,
so steps are independent and reproducible in isolation. A step counts its
draws per support string of the target (`dist.sample_counts`, the draws of
`dist.sample`, read in bulk from the generator) and mixes the round trips
of those strings, each computed once per run, by the relative
frequencies; by linearity that is the empirical distribution encoded and
decoded. A pair that is exact by construction round-trips each string to
its point mass, so no row is pushed through either map. A mix of
distributions by positive weights summing to 1 is a distribution, so it
is built without re-checking its masses. Convergence at desk scale is
judged by the total variation at the final step (threshold fixed here,
stated in every report); the exact asymptotic answer is the bias,
computed with rational arithmetic from the same round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .dist import Dist, EstimatorTrace, _require_increasing, point_mass, sample_counts, tv_distance
from .errors import EmptySample, SpaceMismatch
from .stochmap import kernel_at, pushforward
from .strings import Space, Str
from .tokenizer import Tokenizer, _exact_by_construction

CONVERGENCE_TOLERANCE = Fraction(1, 20)  # TV threshold 0.05, judged at the final step


@dataclass(frozen=True)
class SimSummary:
    """Observed estimation trace plus the exact asymptotic bias."""

    trace: EstimatorTrace
    tvs: tuple[Fraction, ...]
    bias: Fraction
    tolerance: Fraction

    @property
    def final_tv(self) -> Fraction:
        return self.tvs[-1]

    @property
    def converged(self) -> bool:
        return self.final_tv < self.tolerance and self.final_tv <= self.tvs[0]

    def rows(self) -> list[tuple[int, Fraction]]:
        return [(n, tv) for (n, _), tv in zip(self.trace.steps, self.tvs)]


def _round_trips(t: Tokenizer, p_star: Dist) -> dict[Str, Dist]:
    """The decoded encoder row of each support string of p_star.

    When the encoder is a section of the decoder's homomorphism, each is the
    point mass on its string, and no row is read.
    """
    if p_star.space != t.char_space:
        raise SpaceMismatch("target distribution must live over the encoder's domain")
    if _exact_by_construction(t):
        return {x: point_mass(x, t.decoder.cod_space) for x in p_star.mass}
    return {x: pushforward(t.decoder, kernel_at(t.encoder, x)) for x in p_star.mass}


def _mix(
    round_trips: Mapping[Str, Dist], weights: Iterable[tuple[Str, Fraction]], space: Space
) -> Dist:
    """The weighted sum of round trips: result(y) = sum_x w_x rt_x(y).

    The weights are positive and sum to 1, and every round trip is a
    distribution over the space, so the sum is one too and is not re-checked.
    """
    acc: dict[Str, Fraction] = {}
    for x, w in weights:
        for y, m in round_trips[x].mass.items():
            acc[y] = acc.get(y, 0) + w * m
    return Dist._of_masses(space, acc)


def bias(t: Tokenizer, p_star: Dist) -> Fraction:
    """Exact total variation between the round-tripped distribution and the target.

    Zero exactly when the tokenizer is consistent with respect to p_star.
    """
    return _bias(_round_trips(t, p_star), p_star, p_star.embedded(t.decoder.cod_space))


def _bias(round_trips: Mapping[Str, Dist], p_star: Dist, target: Dist) -> Fraction:
    return tv_distance(_mix(round_trips, p_star.mass.items(), target.space), target)


def _require_schedule(schedule: Sequence[int]) -> None:
    """Raise unless every step can be estimated, before anything is drawn.

    The first count below 1 decides the error, as drawing the steps in order
    would; an order that is not strictly increasing is checked last.
    """
    if not schedule:
        raise ValueError("schedule must have at least one sample count")
    for n in schedule:
        if n < 0:
            raise ValueError("sample count must be >= 0")
        if n == 0:
            raise EmptySample("cannot estimate from an empty sample")
    _require_increasing(schedule)


def run_estimation(
    t: Tokenizer, p_star: Dist, schedule: Sequence[int], seed: int = 0
) -> SimSummary:
    """Estimate p_star through the tokenizer at each sample count in the schedule.

    Every step draws n samples from p_star, encodes the empirical
    distribution into token space, decodes it back, and records the total
    variation to the target. The draws are counted, not listed, and the
    round trip of each support string is computed once per call, so a step
    costs its draws plus one mix over p_star's support. The schedule is
    checked before the first draw.
    """
    round_trips = _round_trips(t, p_star)
    _require_schedule(schedule)
    space = t.decoder.cod_space
    target = p_star.embedded(space)
    support = p_star.support()
    steps: list[tuple[int, Dist]] = []
    tvs: list[Fraction] = []
    for n in schedule:
        counts = sample_counts(p_star, seed ^ n, n)
        weights = ((x, Fraction(c, n)) for x, c in zip(support, counts) if c)
        decoded = _mix(round_trips, weights, space)
        steps.append((n, decoded))
        tvs.append(tv_distance(decoded, target))
    trace = EstimatorTrace(tuple(steps), target)
    return SimSummary(trace, tuple(tvs), _bias(round_trips, p_star, target), CONVERGENCE_TOLERANCE)

"""Finite-domain stochastic maps: kernels, composition, pushforward, predicates.

A map assigns a distribution over the codomain space to every string of its
domain space, and its kernel and values iterate in canonical domain order.
A deterministic map stores only its values, whose `image(x)` gives the
symbols of the value at x, and its kernel builds each point mass on lookup;
the monoid homomorphism fixed by one spelling per domain symbol (such as the
concatenating decoder) stores only the spellings, and the greedy and
merge-based encoders only their vocabulary and merges; each computes a value
on lookup. The uniform encoder builds each of its rows on lookup too. Other
kernels are stored sparsely (positive masses only). A constructive encoder
records in `section_of` the spellings that decode each of its atoms back to
its text. Composition is row-column summation; with exact rational masses
the row sums stay exactly 1.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .dist import _ONE, Dist, point_mass
from .errors import (
    OutOfDomain,
    OutOfTruncation,
    ProcUndefined,
    SpaceMismatch,
    TokcheckError,
)
from .reports import Verdict
from .strings import Space, Str


class _OnLookup(Mapping):
    """A read-only mapping over a domain space whose entries are computed on lookup, never stored.

    A subclass gives `_at`, the entry at a domain string. Keys are the
    domain strings in canonical order; a key outside the domain raises
    KeyError, and membership is decided by the domain alone.
    """

    __slots__ = ("dom_space", "cod_space")

    def __getitem__(self, x: Str):
        if not isinstance(x, Str) or x not in self.dom_space:
            raise KeyError(x)
        return self._at(x)

    def __contains__(self, x) -> bool:
        return isinstance(x, Str) and x in self.dom_space

    def __iter__(self) -> Iterator[Str]:
        return self.dom_space.strings()

    def __len__(self) -> int:
        return self.dom_space.size()


class _ValuesOnLookup(_OnLookup):
    """Values of a deterministic map; a subclass gives `image`, the symbols of the value at x."""

    __slots__ = ()

    def _at(self, x: Str) -> Str:
        return Str._wrap(self.cod_space.alphabet, self.image(x))


class _SpellingValues(_ValuesOnLookup):
    """Values of the homomorphism fixed by one spelling per domain symbol.

    A value is the concatenated spellings of its string's symbols.
    """

    __slots__ = ("_spellings",)

    def __init__(self, dom_space: Space, cod_space: Space, spellings: tuple[Str, ...]):
        self.dom_space = dom_space
        self.cod_space = cod_space
        self._spellings = tuple(sp.syms for sp in spellings)

    def image(self, x: Str) -> tuple[int, ...]:
        """The concatenated spelling symbols of a domain string."""
        syms: tuple[int, ...] = ()
        for i in x.syms:
            syms += self._spellings[i]
        return syms


class _StoredValues(dict):
    """Stored values of a deterministic map, keyed in canonical domain order."""

    __slots__ = ()

    def image(self, x: Str) -> tuple[int, ...]:
        return self[x].syms


class _PointKernel(Mapping):
    """Read-only rows of a deterministic map: the point mass on each value, built on lookup."""

    def __init__(self, values: Mapping[Str, Str], cod_space: Space):
        self._values = values
        self._cod_space = cod_space

    def __getitem__(self, x: Str) -> Dist:
        return Dist._of_masses(self._cod_space, {self._values[x]: _ONE})

    def __iter__(self) -> Iterator[Str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


class StochMap:
    """A total map from a truncated domain space to distributions over a codomain space.

    Rows are given as distributions or as strings for point masses, in any
    order; `kernel` and `values` iterate in canonical domain order. `values`
    holds each row's output if all rows are point masses, else None;
    `spellings`, set by `from_spellings`, holds each domain symbol's image.
    `section_of`, set by a constructive encoder, holds a spelling list whose
    homomorphism maps every atom of every row back to its domain string
    (every value, for a deterministic map), so that decoding with those
    spellings undoes the map by construction.
    """

    __slots__ = ("dom_space", "cod_space", "kernel", "values", "spellings", "section_of")

    def __init__(self, dom_space: Space, cod_space: Space, rows: Mapping[Str, Str | Dist]):
        if len(rows) != dom_space.size():
            raise ValueError(
                f"kernel has {len(rows)} rows but the domain has {dom_space.size()} strings"
            )
        for x, row in rows.items():
            dom_space.require(x)
            if isinstance(row, Str):
                cod_space.require(row)
            elif not isinstance(row, Dist) or row.space != cod_space:
                raise SpaceMismatch(f"row at {x!r} is not a distribution over the codomain space")
        self._build(dom_space, cod_space, {x: rows[x] for x in dom_space.strings()})

    def _build(self, dom_space: Space, cod_space: Space, rows: Mapping[Str, Str | Dist]) -> None:
        # rows checked: one per domain string, in canonical order, each in or over cod_space
        values = _StoredValues()
        for x, row in rows.items():
            if isinstance(row, Str):
                values[x] = row
            elif len(row.mass) == 1:
                (values[x],) = row.mass
        if len(values) < len(rows):  # a stochastic row: keep every row as a distribution
            kernel = {
                x: Dist._of_masses(cod_space, {r: _ONE}) if isinstance(r, Str) else r
                for x, r in rows.items()
            }
            self._fill(dom_space, cod_space, kernel, None, None)
        else:
            self._fill(dom_space, cod_space, _PointKernel(values, cod_space), values, None)

    def _fill(self, dom_space, cod_space, kernel, values, spellings, section_of=None) -> None:
        object.__setattr__(self, "dom_space", dom_space)
        object.__setattr__(self, "cod_space", cod_space)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spellings", spellings)
        object.__setattr__(self, "section_of", section_of)

    @classmethod
    def _of_rows(cls, dom_space: Space, cod_space: Space, rows: dict[Str, Str | Dist]) -> StochMap:
        # fast path for rows checked as they were made in canonical order, as `materialize` does
        f = object.__new__(cls)
        f._build(dom_space, cod_space, rows)
        return f

    @classmethod
    def _of_values(
        cls,
        dom_space: Space,
        cod_space: Space,
        values: Mapping[Str, Str],
        section_of: tuple[Str, ...] | None = None,
    ) -> StochMap:
        # trusted: values keyed by the domain in canonical order, lie in cod_space and give `image`
        f = object.__new__(cls)
        f._fill(dom_space, cod_space, _PointKernel(values, cod_space), values, None, section_of)
        return f

    @classmethod
    def _of_kernel(
        cls,
        dom_space: Space,
        cod_space: Space,
        kernel: Mapping[Str, Dist],
        section_of: tuple[Str, ...] | None = None,
    ) -> StochMap:
        # trusted: rows keyed by the domain in canonical order, over cod_space, not all point masses
        f = object.__new__(cls)
        f._fill(dom_space, cod_space, kernel, None, None, section_of)
        return f

    @classmethod
    def from_spellings(
        cls, dom_space: Space, cod_space: Space, spellings: Sequence[Str]
    ) -> StochMap:
        """The deterministic map sending a string to the concatenation of its symbols' spellings.

        A monoid homomorphism, fixed by one spelling per domain symbol;
        spellings may be empty or repeat. The codomain truncation must hold
        the longest row, max_len copies of the longest spelling.
        """
        spellings = tuple(spellings)
        if len(spellings) != len(dom_space.alphabet):
            raise ValueError(
                f"{len(spellings)} spellings for {len(dom_space.alphabet)} domain symbols"
            )
        if any(sp.alphabet != cod_space.alphabet for sp in spellings):
            raise SpaceMismatch("every spelling must be over the codomain alphabet")
        reach = dom_space.max_len * max(len(sp) for sp in spellings)
        if reach > cod_space.max_len:
            raise OutOfTruncation(f"rows reach length {reach} > truncation {cod_space.max_len}")
        values = _SpellingValues(dom_space, cod_space, spellings)
        f = object.__new__(cls)
        f._fill(dom_space, cod_space, _PointKernel(values, cod_space), values, spellings)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("StochMap is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StochMap):
            return NotImplemented
        return (
            self.dom_space == other.dom_space
            and self.cod_space == other.cod_space
            and self.kernel == other.kernel
        )

    def rows(self) -> Iterable[tuple[Str, Dist]]:
        """Kernel rows in canonical domain order."""
        return self.kernel.items()


def kernel_at(f: StochMap, x: Str) -> Dist:
    try:
        return f.kernel[x]
    except KeyError:
        raise OutOfDomain(f"{x!r} is outside the map's domain") from None


def identity_map(space: Space) -> StochMap:
    """The map sending every string to the point mass on itself."""
    return StochMap(space, space, {x: point_mass(x, space) for x in space.strings()})


def compose(g: StochMap, f: StochMap) -> StochMap:
    """Row-column composition: (g f)(z | x) = sum_y g(z | y) f(y | x)."""
    if f.cod_space != g.dom_space:
        raise SpaceMismatch("codomain of the inner map must equal domain of the outer map")
    kernel = {}
    for x, row in f.kernel.items():
        acc: dict[Str, Fraction] = {}
        for y, py in row.mass.items():
            for z, pz in g.kernel[y].mass.items():
                acc[z] = acc.get(z, Fraction(0)) + py * pz
        kernel[x] = Dist(g.cod_space, acc)
    return StochMap(f.dom_space, g.cod_space, kernel)


def pushforward(f: StochMap, p: Dist) -> Dist:
    """The image distribution: result(y) = sum_x f(y | x) p(x).

    Every row is a distribution over the codomain and p is one over the
    domain, so the sums are positive, lie in the codomain and add up to 1,
    and the result is built without checking them again.
    """
    if p.space != f.dom_space:
        raise SpaceMismatch("distribution does not live over the map's domain")
    acc: dict[Str, Fraction] = {}
    for x, px in p.mass.items():
        for y, pyx in f.kernel[x].mass.items():
            acc[y] = acc.get(y, 0) + px * pyx
    return Dist._of_masses(f.cod_space, acc)


def support_of(f: StochMap) -> set[Str]:
    """Union of the supports of all rows."""
    out: set[Str] = set()
    for row in f.kernel.values():
        out.update(row.mass)
    return out


def is_deterministic(f: StochMap) -> Verdict:
    """True iff every row is a point mass; witness is the first stochastic row.

    A map stores values exactly when every row is a point mass, so only a
    failing check scans the rows, in canonical order, up to the first
    stochastic one.
    """
    if f.values is not None:
        return Verdict.passed()
    x, row = next((x, row) for x, row in f.kernel.items() if len(row.mass) != 1)
    return Verdict.failed(x, f"row has support size {len(row.mass)}")


def is_injective(f: StochMap) -> Verdict:
    """True iff distinct inputs have disjoint row supports.

    The witness is the first colliding triple (x, x', y) with (x, x') minimal
    in canonical pair order and y the least output the two rows share. One
    pass over the rows in canonical order records each output's first
    holder. If x and x' share y and an earlier row also holds y, the pair
    (that row, x) comes first, so the minimal pair's first member is the
    first holder of every output it shares: of the pairs (first holder, x')
    met at collisions, the one with the earliest holder, and for that holder
    the earliest x', is the minimal pair.
    """
    first_holder: dict[Str, tuple[int, Str]] = {}
    best: tuple[int, Str, Str] | None = None
    for rank, (x, row) in enumerate(f.rows()):
        for y in row.mass:
            held = first_holder.setdefault(y, (rank, x))
            if held[0] < rank and (best is None or held[0] < best[0]):
                best = (*held, x)
    if best is None:
        return Verdict.passed()
    _, x, xp = best
    shared = f.kernel[x].mass.keys() & f.kernel[xp].mass.keys()
    return Verdict.failed((x, xp, min(shared, key=Str.sort_key)))


def is_surjective(f: StochMap, onto: Space | None = None) -> Verdict:
    """True iff every string of the target space gets positive mass from some row.

    `onto` restricts the check to a narrower truncation of the codomain
    alphabet; by default the full codomain space is scanned.
    """
    target = onto if onto is not None else f.cod_space
    if target.alphabet != f.cod_space.alphabet:
        raise SpaceMismatch("surjectivity target must share the codomain alphabet")
    hit = support_of(f)
    for y in target.strings():
        if y not in hit:
            return Verdict.failed(y)
    return Verdict.passed()


def materialize(
    proc: Callable[[Str], Str | Dist],
    dom_space: Space,
    cod_space: Space,
) -> StochMap:
    """Tabulate a procedural encoder/decoder over the whole domain space.

    The procedure is called once per domain string. It may return either a
    string (a deterministic row, checked on return against the codomain
    space) or a distribution over it. Any exception it raises is
    wrapped as ProcUndefined at the offending input. Rows are checked here,
    once each, as they are made, and the map is built from them without the
    constructor's checks. The constructive encoders are not tabulated
    here: each encodes a text on lookup.
    """
    rows: dict[Str, Str | Dist] = {}
    for x in dom_space.strings():
        try:
            out = proc(x)
        except TokcheckError as exc:
            raise ProcUndefined(x, exc) from exc
        if isinstance(out, Str):
            cod_space.require(out)
        elif out.space != cod_space:
            out = out.embedded(cod_space)
        rows[x] = out
    return StochMap._of_rows(dom_space, cod_space, rows)

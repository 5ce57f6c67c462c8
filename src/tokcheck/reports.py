"""Verdict and report containers shared by the checkers."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any


@dataclass(frozen=True)
class Verdict:
    """Outcome of a mechanical check.

    ok is True/False for decided properties and None when the property does
    not apply (e.g. multiplicativity of a stochastic decoder). The witness
    is the first counterexample in canonical order, when one exists.
    """

    ok: bool | None
    witness: Any = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.ok is True

    @property
    def applicable(self) -> bool:
        return self.ok is not None

    @staticmethod
    def passed(note: str = "") -> "Verdict":
        return Verdict(True, None, note) if note else _PASSED

    @staticmethod
    def failed(witness: Any, note: str = "") -> "Verdict":
        return Verdict(False, witness, note)

    @staticmethod
    def not_applicable(note: str = "") -> "Verdict":
        return Verdict(None, None, note)

    def describe(self) -> str:
        if self.ok is None:
            return "not applicable" + (f" ({self.note})" if self.note else "")
        if self.ok:
            return "true"
        parts = ["false"]
        if self.witness is not None:
            parts.append(f"witness {_show(self.witness)}")
        if self.note:
            parts.append(self.note)
        return ", ".join(parts)


_PASSED = Verdict(True)  # verdicts are immutable, so every pass without a note shares one


def _show(value: Any) -> str:
    if hasattr(value, "render"):
        return value.render()
    if isinstance(value, tuple):
        return "(" + ", ".join(_show(v) for v in value) + ")"
    return str(value)


@dataclass(frozen=True)
class ClassificationReport:
    """Structural verdicts for a tokenizer pair."""

    deterministic_encoder: Verdict
    deterministic_decoder: Verdict
    bijective: Verdict
    multiplicative_decoder: Verdict
    trivial_kernel: Verdict
    prefix_monotone: Verdict

    def verdicts(self) -> list[tuple[str, Verdict]]:
        """Each verdict with its field name, in declaration order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def lines(self) -> list[str]:
        return [f"{name.replace('_', ' ')}: {v.describe()}" for name, v in self.verdicts()]


@dataclass(frozen=True)
class ProbeReport:
    """Result of probing the exactness/consistency equivalence.

    exact is the exactness verdict. Consistency with the point mass on x
    is the round-trip row at x being that point mass, so exactness decides
    every point mass and, by linearity, every distribution: an exact
    tokenizer is consistent on `trials` random distributions and all point
    masses. For an inexact tokenizer the report exhibits a point mass the
    tokenizer is inconsistent with, and counterexample is the exactness
    witness. The reports that are not ok come from a probe that pushes
    distributions, such as the test suite's oracle: an exact one names the
    distribution found not preserved, and an inexact one the point mass
    not shown inconsistent.
    """

    exact: bool
    trials: int
    ok: bool
    counterexample: Any = None
    detail: str = ""

    def describe(self) -> str:
        if self.exact and not self.ok:
            detail = self.detail or "distribution not preserved"
            return f"exact; {detail}: {_show(self.counterexample)}"
        if self.exact:
            return f"exact; consistent on {self.trials} random distributions and all point masses"
        if self.counterexample is None:
            return "not exact; no counterexample produced"
        shown = _show(self.counterexample)
        if self.ok:
            return f"not exact; inconsistent with point mass on {shown}"
        return f"not exact; point mass on {shown} not shown inconsistent"

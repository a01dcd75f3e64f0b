"""Check outcomes: violations with witnesses, and aggregate verdicts."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    """One counterexample found by a check.

    site identifies where (basis names, word letters, a Const or order value);
    residual is the nonzero object witnessing the failure (an Element, a tensor
    element, or None when the failure is structural rather than numeric).
    """

    check: str
    site: tuple
    residual: object | None = None
    detail: str = ""


@dataclass
class Verdict:
    """Outcome of a verdict-shaped check: pass/fail plus all witnesses found."""

    passed: bool
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @staticmethod
    def from_violations(violations: list[Violation], notes: list[str] | None = None) -> "Verdict":
        return Verdict(not violations, violations, notes or [])

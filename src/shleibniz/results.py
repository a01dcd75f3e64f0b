"""Check outcomes: violations with witnesses, and aggregate verdicts."""

from __future__ import annotations

from .record import Record


class Violation(Record):
    """One counterexample found by a check.

    site identifies where (basis names, word letters, a Const or order value);
    residual is the nonzero object witnessing the failure (an Element, a tensor
    element, or None when the failure is structural rather than numeric).
    """

    __slots__ = ("check", "site", "residual", "detail")

    def __init__(self, check: str, site: tuple, residual: object | None = None, detail: str = ""):
        self._assign(check, site, residual, detail)


class Verdict(Record):
    """Outcome of a verdict-shaped check: pass/fail plus all witnesses found."""

    __slots__ = ("passed", "violations", "notes")
    __hash__ = None  # its fields are lists

    def __init__(
        self,
        passed: bool,
        violations: list[Violation] | None = None,
        notes: list[str] | None = None,
    ):
        violations = [] if violations is None else violations
        self._assign(passed, violations, [] if notes is None else notes)

    @staticmethod
    def from_violations(violations: list[Violation], notes: list[str] | None = None) -> "Verdict":
        return Verdict(not violations, violations, notes or [])

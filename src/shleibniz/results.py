"""Check outcomes: violations with witnesses, and aggregate verdicts."""

from __future__ import annotations

from .record import Record


class Violation(Record):
    """One counterexample found by a check.

    site identifies where (basis names, word letters, a Const or order value);
    residual is the nonzero object witnessing the failure (an Element, a tensor
    element, or None when the failure is structural rather than numeric).
    """

    __slots__ = ("check", "site", "residual")

    def __init__(self, check: str, site: tuple, residual: object | None = None):
        self._assign(check, site, residual)


class Verdict(Record):
    """Outcome of a verdict-shaped check: all witnesses found, passing when
    there are none."""

    __slots__ = ("violations", "notes")
    __hash__ = None  # its fields are lists

    def __init__(self, violations: list[Violation] | None = None, notes: list[str] | None = None):
        self._assign([] if violations is None else violations, [] if notes is None else notes)

    @property
    def passed(self) -> bool:
        return not self.violations

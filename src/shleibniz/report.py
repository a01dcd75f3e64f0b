"""Rendering of check outcomes as text or structured JSON.

Reports are deterministic for a given document and flag set: every list is
already ordered by the checks, residuals render through the exact
formatters, and the only varying field (elapsed time) sits in one line or
one key that consumers can strip.
"""

from __future__ import annotations

import json

from .coalgebra import TensorElement, format_word
from .errors import escape_controls
from .graded import Element, format_element
from .record import Record
from .results import Violation

# enough witnesses to act on without flooding the terminal
WITNESS_LIMIT = 5


class CheckResult(Record):
    """Outcome of one named check inside a command run.

    passed is None for purely informational results (tables of derived
    structure constants and the like), which do not affect the verdict.
    """

    __slots__ = ("name", "passed", "violations", "detail")
    __hash__ = None  # its fields are lists

    def __init__(
        self,
        name: str,
        passed: bool | None,
        violations: list[Violation] | None = None,
        detail: list[str] | None = None,
    ):
        violations = [] if violations is None else violations
        self._assign(name, passed, violations, [] if detail is None else detail)


class Report(Record):
    __slots__ = ("command", "document", "options", "results", "elapsed_ms")
    __hash__ = None  # its fields are lists

    def __init__(
        self,
        command: str,
        document: str,
        options: list[tuple[str, int | bool]],
        results: list[CheckResult],
        elapsed_ms: int = 0,
    ):
        self._assign(command, document, options, results, elapsed_ms)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results if r.passed is not None)


def render_residual(residual: object | None) -> str:
    if residual is None:
        return "(structural)"
    if isinstance(residual, Element):
        return format_element(residual)
    if isinstance(residual, TensorElement):
        return format_element(residual, format_word)
    return str(residual)


def _site_text(site: tuple) -> str:
    return "(" + ", ".join(str(s) for s in site) + ")"


def render_text(report: Report) -> str:
    lines = [f"document: {escape_controls(report.document)}", f"command: {report.command}"]
    for key, value in report.options:
        shown = str(value).lower() if isinstance(value, bool) else value
        lines.append(f"{key}: {shown}")
    for result in report.results:
        if result.passed is None:
            lines.append(f"info {result.name}")
        else:
            status = "pass" if result.passed else "fail"
            suffix = ""
            if not result.passed:
                count = len(result.violations)
                plural = "" if count == 1 else "s"
                suffix = f" ({count} violation{plural})"
            lines.append(f"check {result.name}: {status}{suffix}")
        for line in result.detail:
            lines.append(f"  {line}")
        for violation in result.violations[:WITNESS_LIMIT]:
            lines.append(
                f"  witness {violation.check} at {_site_text(violation.site)}: "
                f"residual {render_residual(violation.residual)}"
            )
        hidden = len(result.violations) - WITNESS_LIMIT
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
    lines.append(f"verdict: {'pass' if report.passed else 'fail'}")
    lines.append(f"elapsed: {report.elapsed_ms} ms")
    return "\n".join(lines) + "\n"


def _site_json(site: tuple) -> list:
    return [s if isinstance(s, (int, str)) else str(s) for s in site]


def render_structured(report: Report) -> str:
    payload = {
        "command": report.command,
        "document": report.document,
        "options": {k: v for k, v in report.options},
        "checks": [
            {
                "name": r.name,
                "status": (
                    "info" if r.passed is None else "pass" if r.passed else "fail"
                ),
                "detail": r.detail,
                "violations": [
                    {
                        "check": v.check,
                        "site": _site_json(v.site),
                        "residual": render_residual(v.residual),
                    }
                    for v in r.violations
                ],
            }
            for r in report.results
        ],
        "verdict": "pass" if report.passed else "fail",
        "elapsed_ms": report.elapsed_ms,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

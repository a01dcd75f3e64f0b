"""Exception taxonomy shared across the package."""

from __future__ import annotations

from .record import Record


class EngineError(Exception):
    """Base class for every error raised by this package."""


class MalformedInputError(EngineError, ValueError):
    """Structurally invalid data: size or arity mismatch, foreign basis, bad index."""


class PreconditionError(EngineError, ValueError):
    """Input is well formed but violates a documented precondition."""


class MCRejectionError(PreconditionError):
    """A proposed Maurer-Cartan element fails its equation at some order."""

    def __init__(self, order: int, residual: object):
        self.order = order
        self.residual = residual
        super().__init__(f"Maurer-Cartan equation fails at order {order}: {residual}")


class GaugeDerivationError(PreconditionError):
    """A gauge generator xi_n that is not a derivation of the bracket."""

    def __init__(self, order: int):
        self.order = order
        super().__init__(f"xi_{order} is not a derivation of the bracket")


# what could drive a terminal, or start a line for str.splitlines()
_CONTROLS = {
    c: f"\\u{c:04x}"
    for c in (*range(0x09), *range(0x0A, 0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)
}


def escape_controls(text: str) -> str:
    """Text echoed from a document with every C0 control character but tab,
    DEL, every C1 control character and U+2028 and U+2029 written as
    \\uXXXX, so that it stays on its own line."""
    return text.translate(_CONTROLS)


class DocumentIssue(Record):
    """One located parse or validation problem in an algebra document."""

    __slots__ = ("line", "field", "message")

    def __init__(self, line: int, field: str, message: str):
        self._assign(line, field, message)

    def render(self) -> str:
        return f"line {self.line}: [{escape_controls(self.field)}] {self.message}"


class DocumentError(EngineError):
    """Raised by the document parser; carries every issue found, not just the first."""

    def __init__(self, issues: list[DocumentIssue]):
        self.issues = list(issues)
        summary = "; ".join(issue.render() for issue in self.issues[:3])
        if len(self.issues) > 3:
            summary += f"; and {len(self.issues) - 3} more"
        super().__init__(summary or "invalid document")

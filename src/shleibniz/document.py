"""Line-oriented text format for graded algebras with deformation data.

A document is a sequence of sections.  Lines starting with '#' and blank
lines are ignored.  A section header is ``[name]`` or ``[name N]`` for the
numbered sections.  Within a section, every line is ``key: value``.

Sections:

``[metadata]``
    Free-form ``key: text`` pairs.  The ``name`` key, when present, labels
    the document in reports.

``[basis]``
    One line per generator, ``name: degree``, in the order the basis is
    indexed.  Names match ``[A-Za-z_][A-Za-z0-9_]*`` and must be unique.

``[bracket]``
    ``left right: element`` giving the bracket of two generators.  Missing
    pairs are zero.  Every term of the element must have degree
    ``|left| + |right|``.

``[delta N]``
    Order-N component of a deformation of the differential, one line per
    generator with a nonzero image: ``name: element``.  Terms must have
    degree ``|name| + 1``.  The orders present must be exactly 0..m for
    some m; a trailing zero component is written as an empty section.

``[gauge N]``
    Order-N gauge generator, same entry shape as ``[delta N]`` but with
    degree-0 images, orders exactly 1..k.

Elements are ``0`` or a signed sum of terms, ``term (('+'|'-') term)*``,
where a term is an optional rational coefficient followed by a generator
name: ``b``, ``2 b``, ``-1/2 c + e``.

Parsing normalises everything (entries sorted by basis index, coefficients
reduced, zero entries dropped), so ``parse(serialize(parse(text)))`` equals
``parse(text)`` for any valid input, and ``serialize`` is a bijection on
parsed documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DocumentError, DocumentIssue, MalformedInputError
from .graded import Element, GradedBasis, format_terms
from .multiop import MultiOp
from .derived import DeformationFamily
from .gauge import GaugeFamily

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_HEADER_RE = re.compile(r"\[\s*([A-Za-z_]+)(?:\s+(-?\d+))?\s*\]\Z")
_INT_RE = re.compile(r"-?\d+\Z")
_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?\Z")

Terms = tuple[tuple[Fraction, str], ...]


@dataclass(frozen=True)
class AlgebraDocument:
    """Parsed, normalised content of an algebra document."""

    basis: tuple[tuple[str, int], ...]
    bracket: tuple[tuple[str, str, Terms], ...]
    deltas: tuple[tuple[tuple[str, Terms], ...], ...]
    gauges: tuple[tuple[tuple[str, Terms], ...], ...]
    metadata: tuple[tuple[str, str], ...] = field(default=())

    @property
    def name(self) -> str:
        for key, value in self.metadata:
            if key == "name":
                return value
        return "unnamed"

    def to_basis(self) -> GradedBasis:
        return GradedBasis(
            tuple(n for n, _ in self.basis), tuple(d for _, d in self.basis)
        )

    def _element(self, basis: GradedBasis, terms: Terms) -> Element:
        coeffs = {basis.index(name): coeff for coeff, name in terms}
        return Element(basis, coeffs)

    def to_bracket(self) -> MultiOp:
        basis = self.to_basis()
        constants = {
            (basis.index(a), basis.index(b)): self._element(basis, terms)
            for a, b, terms in self.bracket
        }
        return MultiOp(basis, 2, 0, constants)

    def _unary(self, entries: tuple[tuple[str, Terms], ...], degree: int) -> MultiOp:
        basis = self.to_basis()
        constants = {
            (basis.index(name),): self._element(basis, terms)
            for name, terms in entries
        }
        return MultiOp(basis, 1, degree, constants)

    def to_family(self) -> DeformationFamily | None:
        if not self.deltas:
            return None
        ops = tuple(self._unary(entries, 1) for entries in self.deltas)
        return DeformationFamily(self.to_bracket(), ops)

    def to_gauge(self) -> GaugeFamily | None:
        if not self.gauges:
            return None
        ops = tuple(self._unary(entries, 0) for entries in self.gauges)
        return GaugeFamily(self.to_bracket(), ops)


def _parse_element(
    raw: str, line_no: int, degrees: dict[str, int], issues: list[DocumentIssue]
) -> Terms | None:
    """Parse an element string into (coefficient, name) terms.

    Returns None when any issue was recorded.  Degree validation is the
    caller's job; this only resolves names and coefficients.
    """
    raw = raw.strip()
    if raw == "0":
        return ()
    if not raw:
        issues.append(DocumentIssue(line_no, raw, "empty element"))
        return None
    # mark every sign as a term boundary, then read one signed term per chunk
    chunks = raw.replace("+", "\0+").replace("-", "\0-").split("\0")
    signed: list[tuple[int, str]] = []
    for position, chunk in enumerate(chunks):
        chunk = chunk.strip()
        if not chunk:
            if position == 0:
                continue
            issues.append(DocumentIssue(line_no, raw, "malformed element"))
            return None
        sgn = 1
        body = chunk
        if chunk[0] == "+":
            body = chunk[1:].strip()
        elif chunk[0] == "-":
            sgn, body = -1, chunk[1:].strip()
        if not body:
            issues.append(DocumentIssue(line_no, raw, "dangling sign"))
            return None
        signed.append((sgn, body))
    if not signed:
        issues.append(DocumentIssue(line_no, raw, "empty element"))
        return None
    collected: dict[str, Fraction] = {}
    bad = False
    for sgn, chunk in signed:
        parts = chunk.split()
        if len(parts) == 1:
            coeff_str, name = None, parts[0]
        elif len(parts) == 2:
            coeff_str, name = parts
        else:
            issues.append(DocumentIssue(line_no, chunk, "malformed term"))
            bad = True
            continue
        coeff = Fraction(sgn)
        if coeff_str is not None:
            match = _RATIONAL_RE.match(coeff_str)
            if match is None:
                issues.append(
                    DocumentIssue(line_no, coeff_str, "bad coefficient")
                )
                bad = True
                continue
            num = int(match.group(1))
            den = int(match.group(2)) if match.group(2) else 1
            if den == 0:
                issues.append(
                    DocumentIssue(line_no, coeff_str, "zero denominator")
                )
                bad = True
                continue
            coeff *= Fraction(num, den)
        if not _NAME_RE.match(name):
            issues.append(DocumentIssue(line_no, name, "bad generator name"))
            bad = True
            continue
        if name not in degrees:
            issues.append(DocumentIssue(line_no, name, "unknown generator"))
            bad = True
            continue
        collected[name] = collected.get(name, Fraction(0)) + coeff
    if bad:
        return None
    return tuple(
        (coeff, name) for name, coeff in collected.items() if coeff != 0
    )


def _term_degree(terms: Terms, degrees: dict[str, int]) -> set[int]:
    return {degrees[name] for _, name in terms}


def parse_document(text: str) -> AlgebraDocument:
    """Parse document text, collecting every issue before failing."""
    issues: list[DocumentIssue] = []
    # first pass: split into sections
    section: str | None = None
    section_no: int | None = None
    basis_entries: list[tuple[str, int, int]] = []  # name, degree, line
    metadata: dict[str, str] = {}
    bracket_lines: list[tuple[int, str, str, str]] = []
    delta_lines: dict[int, list[tuple[int, str, str]]] = {}
    gauge_lines: dict[int, list[tuple[int, str, str]]] = {}
    seen_sections: set[tuple[str, int | None]] = set()

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            match = _HEADER_RE.match(line)
            if match is None:
                issues.append(DocumentIssue(line_no, line, "malformed section header"))
                section = None
                continue
            name, number = match.group(1), match.group(2)
            if name in ("metadata", "basis", "bracket"):
                if number is not None:
                    issues.append(
                        DocumentIssue(line_no, line, "section takes no number")
                    )
                section, section_no = name, None
            elif name in ("delta", "gauge"):
                if number is None:
                    issues.append(
                        DocumentIssue(line_no, line, "section needs an order number")
                    )
                    section = None
                    continue
                section, section_no = name, int(number)
                if name == "delta" and section_no < 0:
                    issues.append(DocumentIssue(line_no, line, "negative delta order"))
                    section = None
                    continue
                if name == "gauge" and section_no < 1:
                    issues.append(
                        DocumentIssue(line_no, line, "gauge orders start at 1")
                    )
                    section = None
                    continue
            else:
                issues.append(DocumentIssue(line_no, name, "unknown section"))
                section = None
                continue
            key = (section, section_no)
            if key in seen_sections:
                issues.append(DocumentIssue(line_no, line, "duplicate section"))
            seen_sections.add(key)
            if section == "delta":
                delta_lines.setdefault(section_no, [])
            if section == "gauge":
                gauge_lines.setdefault(section_no, [])
            continue
        if ":" not in line:
            issues.append(DocumentIssue(line_no, line, "expected 'key: value'"))
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if section is None:
            issues.append(DocumentIssue(line_no, line, "entry outside any section"))
            continue
        if section == "metadata":
            if key in metadata:
                issues.append(DocumentIssue(line_no, key, "duplicate metadata key"))
            metadata[key] = value
        elif section == "basis":
            if not _NAME_RE.match(key):
                issues.append(DocumentIssue(line_no, key, "bad generator name"))
                continue
            if not _INT_RE.match(value):
                issues.append(DocumentIssue(line_no, value, "degree must be an integer"))
                continue
            basis_entries.append((key, int(value), line_no))
        elif section == "bracket":
            parts = key.split()
            if len(parts) != 2:
                issues.append(
                    DocumentIssue(line_no, key, "bracket key needs two generator names")
                )
                continue
            bracket_lines.append((line_no, parts[0], parts[1], value))
        elif section == "delta":
            delta_lines[section_no].append((line_no, key, value))
        elif section == "gauge":
            gauge_lines[section_no].append((line_no, key, value))

    # basis table
    degrees: dict[str, int] = {}
    order: list[tuple[str, int]] = []
    for name, degree, line_no in basis_entries:
        if name in degrees:
            issues.append(DocumentIssue(line_no, name, "duplicate generator"))
            continue
        degrees[name] = degree
        order.append((name, degree))
    if not order:
        issues.append(DocumentIssue(0, "basis", "document has no [basis] section"))
        raise DocumentError(issues)
    index = {name: i for i, (name, _) in enumerate(order)}

    def resolve_entries(
        lines: list[tuple[int, str, str]], image_shift: int, what: str
    ) -> tuple[tuple[str, Terms], ...]:
        out: dict[str, Terms] = {}
        for line_no, key, value in lines:
            if key not in degrees:
                issues.append(DocumentIssue(line_no, key, "unknown generator"))
                continue
            if key in out:
                issues.append(DocumentIssue(line_no, key, f"duplicate {what} entry"))
                continue
            terms = _parse_element(value, line_no, degrees, issues)
            if terms is None:
                continue
            terms = tuple(sorted(terms, key=lambda item: index[item[1]]))
            want = degrees[key] + image_shift
            got = _term_degree(terms, degrees)
            if got and got != {want}:
                issues.append(
                    DocumentIssue(
                        line_no,
                        key,
                        f"{what} image must have degree {want}, found "
                        + ", ".join(str(d) for d in sorted(got)),
                    )
                )
                continue
            if terms:
                out[key] = terms
        return tuple(
            sorted(out.items(), key=lambda item: index[item[0]])
        )

    # bracket
    bracket_out: dict[tuple[str, str], Terms] = {}
    for line_no, left, right, value in bracket_lines:
        missing = [n for n in (left, right) if n not in degrees]
        if missing:
            for n in missing:
                issues.append(DocumentIssue(line_no, n, "unknown generator"))
            continue
        if (left, right) in bracket_out:
            issues.append(
                DocumentIssue(line_no, f"{left} {right}", "duplicate bracket entry")
            )
            continue
        terms = _parse_element(value, line_no, degrees, issues)
        if terms is None:
            continue
        terms = tuple(sorted(terms, key=lambda item: index[item[1]]))
        want = degrees[left] + degrees[right]
        got = _term_degree(terms, degrees)
        if got and got != {want}:
            issues.append(
                DocumentIssue(
                    line_no,
                    f"{left} {right}",
                    f"bracket image must have degree {want}, found "
                    + ", ".join(str(d) for d in sorted(got)),
                )
            )
            continue
        if terms:
            bracket_out[(left, right)] = terms

    # delta / gauge order contiguity
    def check_orders(present: list[int], start: int, what: str) -> None:
        if not present:
            return
        want = list(range(start, start + len(present)))
        if sorted(present) != want:
            issues.append(
                DocumentIssue(
                    0,
                    what,
                    f"{what} orders must be exactly {want[0]}..{want[-1]}, found "
                    + ", ".join(str(n) for n in sorted(present)),
                )
            )

    check_orders(list(delta_lines), 0, "delta")
    check_orders(list(gauge_lines), 1, "gauge")

    deltas: tuple[tuple[tuple[str, Terms], ...], ...] = ()
    if sorted(delta_lines) == list(range(len(delta_lines))):
        deltas = tuple(
            resolve_entries(delta_lines[n], 1, "delta") for n in sorted(delta_lines)
        )
    gauges: tuple[tuple[tuple[str, Terms], ...], ...] = ()
    if sorted(gauge_lines) == list(range(1, len(gauge_lines) + 1)):
        gauges = tuple(
            resolve_entries(gauge_lines[n], 0, "gauge") for n in sorted(gauge_lines)
        )

    if issues:
        raise DocumentError(issues)

    doc = AlgebraDocument(
        basis=tuple(order),
        bracket=tuple(
            (left, right, terms)
            for (left, right), terms in sorted(
                bracket_out.items(), key=lambda kv: (index[kv[0][0]], index[kv[0][1]])
            )
        ),
        deltas=deltas,
        gauges=gauges,
        metadata=tuple(sorted(metadata.items())),
    )
    # final structural validation through the operator layer; Leibniz is not
    # required at parse time, documents may hold invalid data for checking
    try:
        doc.to_bracket()
        doc.to_family()
        doc.to_gauge()
    except MalformedInputError as exc:
        raise DocumentError([DocumentIssue(0, "document", str(exc))]) from exc
    return doc


def _format_terms(terms: Terms) -> str:
    return format_terms((name, coeff) for coeff, name in terms)


def serialize_document(doc: AlgebraDocument) -> str:
    """Render a document canonically; parse(serialize(doc)) == doc."""
    lines: list[str] = []
    if doc.metadata:
        lines.append("[metadata]")
        for key, value in sorted(doc.metadata):
            lines.append(f"{key}: {value}")
        lines.append("")
    lines.append("[basis]")
    for name, degree in doc.basis:
        lines.append(f"{name}: {degree}")
    lines.append("")
    lines.append("[bracket]")
    for left, right, terms in doc.bracket:
        lines.append(f"{left} {right}: {_format_terms(terms)}")
    for n, entries in enumerate(doc.deltas):
        lines.append("")
        lines.append(f"[delta {n}]")
        for name, terms in entries:
            lines.append(f"{name}: {_format_terms(terms)}")
    for n, entries in enumerate(doc.gauges, start=1):
        lines.append("")
        lines.append(f"[gauge {n}]")
        for name, terms in entries:
            lines.append(f"{name}: {_format_terms(terms)}")
    return "\n".join(lines) + "\n"

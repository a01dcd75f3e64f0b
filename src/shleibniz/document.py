"""Line-oriented text format for graded algebras with deformation data.

A document is a sequence of sections.  Lines end at CR LF, CR or LF and
at no other character.  Lines starting with '#' and blank lines are
ignored.  A section header is ``[name]`` or ``[name N]`` for the numbered
sections.  Within a section, every line is ``key: value``.

Sections:

``[metadata]``
    Free-form ``key: text`` pairs.  The ``name`` key, when present, labels
    the document in reports.

``[basis]``
    One line per generator, ``name: degree``, in the order the basis is
    indexed.  Names match ``[A-Za-z_][A-Za-z0-9_]*`` and must be unique.

``[bracket]``
    ``left right: element`` giving the bracket of two generators.  Missing
    pairs are zero.

``[delta N]``
    Order-N component of a deformation of the differential, one line per
    generator with a nonzero image: ``name: element``.  The orders present
    must be exactly 0..m for some m; a trailing zero component is written as
    an empty section.

``[gauge N]``
    Order-N gauge generator, same entry shape as ``[delta N]``, orders
    exactly 1..k.  A generator that is not a derivation of the bracket is
    reported at its section header.

These three sections take one path through the parser and the serializer.
An entry is keyed by a tuple of generator names, two for ``[bracket]`` and
one otherwise, and every term of its image must have the names' degree sum
plus the section's shift: 0 for ``[bracket]`` and ``[gauge N]``, 1 for
``[delta N]``.  The numbered kinds differ only in their first order and
shift, which one table holds.

Elements are ``0`` or a signed sum of terms, ``term (('+'|'-') term)*``,
where a term is an optional rational coefficient followed by a generator
name: ``b``, ``2 b``, ``-1/2 c + e``.  Terms are split before each sign and
nowhere else, and a term's coefficient and name are split at whitespace; any
other character stays in its term and is refused there, as a bad coefficient
or name.

Parsing normalises everything (entries sorted by basis index, coefficients
reduced to exact scalars, an ``int`` when integral and a ``Fraction``
otherwise, zero entries dropped), so ``parse(serialize(parse(text)))`` equals
``parse(text)`` for any valid input, and ``serialize`` is a bijection on
parsed documents.  An ``AlgebraDocument`` builds its basis, bracket, family
and gauge once, when it is constructed; the ``to_*`` methods return them.
Each image goes straight from its terms to the operation's validator as a
coefficient dict {basis index: scalar}: parsing builds no ``Element``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DocumentError, DocumentIssue, GaugeDerivationError
from .graded import GradedBasis, Scalar, exact, format_terms
from .multiop import MultiOp
from .derived import DeformationFamily
from .gauge import GaugeFamily
from .record import Record

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_HEADER_RE = re.compile(r"\[\s*([A-Za-z_]+)(?:\s+(-?\d+))?\s*\]\Z")
_INT_RE = re.compile(r"-?\d+\Z")
_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?\Z")
# a document's only line breaks; str.splitlines breaks at more characters
LINE_BREAK = re.compile(r"\r\n|\r|\n")
# an element splits into terms before every sign and nowhere else
_TERM_SPLIT = re.compile(r"(?=[+-])")

Terms = tuple[tuple[Scalar, str], ...]

# the numbered sections: first order, image-degree shift, and the issue for an
# order below the first; [bracket] entries have shift 0
_NUMBERED = {
    "delta": (0, 1, "negative delta order"),
    "gauge": (1, 0, "gauge orders start at 1"),
}


class AlgebraDocument(Record):
    """Parsed, normalised content of an algebra document.

    Construction builds the basis, the bracket, the family and the gauge once,
    through the operator layer's validation, which takes each entry's image
    as a coefficient dict keyed by basis index; the ``to_*`` methods return
    them.
    """

    # the fields as parsed, then the operator layer's objects built from them
    __slots__ = (
        "basis", "bracket", "deltas", "gauges", "metadata",
        "_basis", "_bracket", "_family", "_gauge",
    )

    def __init__(
        self,
        basis: tuple[tuple[str, int], ...],
        bracket: tuple[tuple[str, str, Terms], ...],
        deltas: tuple[tuple[tuple[str, Terms], ...], ...],
        gauges: tuple[tuple[tuple[str, Terms], ...], ...],
        metadata: tuple[tuple[str, str], ...] = (),
    ):
        graded_basis = GradedBasis(tuple(n for n, _ in basis), tuple(d for _, d in basis))

        def op(arity: int, degree: int, entries: tuple[tuple, ...]) -> MultiOp:
            # an entry is its generator names followed by the image's terms;
            # the images go to the validator as plain coefficient dicts
            index = graded_basis.index
            constants = {
                tuple([index(n) for n in entry[:-1]]): {index(n): c for c, n in entry[-1]}
                for entry in entries
            }
            return MultiOp(graded_basis, arity, degree, constants)

        bracket_op = op(2, 0, bracket)
        delta_ops = tuple(op(1, 1, entries) for entries in deltas)
        xi_ops = tuple(op(1, 0, entries) for entries in gauges)
        self._assign(
            basis, bracket, deltas, gauges, metadata, graded_basis, bracket_op,
            DeformationFamily(bracket_op, delta_ops) if delta_ops else None,
            GaugeFamily(bracket_op, xi_ops) if xi_ops else None,
        )

    @property
    def name(self) -> str:
        for key, value in self.metadata:
            if key == "name":
                return value
        return "unnamed"

    def to_basis(self) -> GradedBasis:
        return self._basis

    def to_bracket(self) -> MultiOp:
        return self._bracket

    def to_family(self) -> DeformationFamily | None:
        return self._family

    def to_gauge(self) -> GaugeFamily | None:
        return self._gauge


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
    # split before every sign and read one signed term per chunk: every chunk
    # but the first starts with its sign, and the first, which starts where
    # raw does, is empty when raw starts with a sign; a dangling sign is the
    # element's only issue
    start = len(issues)
    collected: dict[str, Scalar] = {}
    for chunk in _TERM_SPLIT.split(raw):
        if not chunk:
            continue
        sgn = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sgn, chunk = -1, chunk[1:]
        parts = chunk.split()
        if len(parts) == 1:
            coeff_str, name = None, parts[0]
        elif len(parts) == 2:
            coeff_str, name = parts
        elif parts:
            issues.append(DocumentIssue(line_no, chunk.strip(), "malformed term"))
            continue
        else:
            del issues[start:]
            issues.append(DocumentIssue(line_no, raw, "dangling sign"))
            return None
        coeff: Scalar = sgn
        if coeff_str is not None:
            match = _RATIONAL_RE.match(coeff_str)
            if match is None:
                issues.append(DocumentIssue(line_no, coeff_str, "bad coefficient"))
                continue
            num, den = match.groups()
            if den is None:
                coeff = sgn * int(num)
            elif int(den):
                coeff = sgn * Fraction(int(num), int(den))
            else:
                issues.append(DocumentIssue(line_no, coeff_str, "zero denominator"))
                continue
        if name not in degrees:
            message = "unknown generator" if _NAME_RE.match(name) else "bad generator name"
            issues.append(DocumentIssue(line_no, name, message))
            continue
        collected[name] = collected.get(name, 0) + coeff
    if len(issues) > start:
        return None
    return tuple((exact(coeff), name) for name, coeff in collected.items() if coeff)


def parse_document(text: str) -> AlgebraDocument:
    """Parse document text, collecting every issue before failing."""
    issues: list[DocumentIssue] = []
    # first pass: split into sections; a section is (name, order or None)
    section: tuple[str, int | None] | None = None
    basis_entries: list[tuple[str, int, int]] = []  # name, degree, line
    metadata: dict[str, str] = {}
    # (line, generator names, element text) per [bracket], [delta N], [gauge N]
    entries: dict[tuple[str, int | None], list[tuple[int, tuple[str, ...], str]]] = {}
    headers: dict[tuple[str, int | None], int] = {}  # first line of each section

    for line_no, raw_line in enumerate(LINE_BREAK.split(text), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = None
            match = _HEADER_RE.match(line)
            if match is None:
                issues.append(DocumentIssue(line_no, line, "malformed section header"))
                continue
            name, number = match.group(1), match.group(2)
            if name in ("metadata", "basis", "bracket"):
                if number is not None:
                    issues.append(DocumentIssue(line_no, line, "section takes no number"))
                found: tuple[str, int | None] = (name, None)
            elif name in _NUMBERED:
                if number is None:
                    issues.append(DocumentIssue(line_no, line, "section needs an order number"))
                    continue
                first, _, below = _NUMBERED[name]
                if int(number) < first:
                    issues.append(DocumentIssue(line_no, line, below))
                    continue
                found = (name, int(number))
            else:
                issues.append(DocumentIssue(line_no, name, "unknown section"))
                continue
            if found in headers:
                issues.append(DocumentIssue(line_no, line, "duplicate section"))
            headers.setdefault(found, line_no)
            if name not in ("metadata", "basis"):
                entries.setdefault(found, [])
            section = found
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
        if section[0] == "metadata":
            if key in metadata:
                issues.append(DocumentIssue(line_no, key, "duplicate metadata key"))
            metadata[key] = value
        elif section[0] == "basis":
            if not _NAME_RE.match(key):
                issues.append(DocumentIssue(line_no, key, "bad generator name"))
                continue
            if not _INT_RE.match(value):
                issues.append(DocumentIssue(line_no, value, "degree must be an integer"))
                continue
            basis_entries.append((key, int(value), line_no))
        elif section[0] == "bracket" and len(key.split()) != 2:
            issues.append(DocumentIssue(line_no, key, "bracket key needs two generator names"))
        else:
            names = tuple(key.split()) if section[0] == "bracket" else (key,)
            entries[section].append((line_no, names, value))

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
        header = headers.get(("basis", None))
        if header is None:
            issues.append(DocumentIssue(0, "basis", "document has no [basis] section"))
        else:
            issues.append(DocumentIssue(header, "basis", "section lists no generator"))
        raise DocumentError(issues)
    index = {name: i for i, (name, _) in enumerate(order)}

    def resolve(kind: str, shift: int, lines: list[tuple[int, tuple[str, ...], str]]):
        """Entries as names + (terms,), nonzero ones only, sorted by basis index;
        an image must have the names' degree sum plus the section's shift."""
        out: dict[tuple[str, ...], Terms] = {}
        for line_no, names, value in lines:
            missing = [n for n in names if n not in degrees]
            for n in missing:
                issues.append(DocumentIssue(line_no, n, "unknown generator"))
            if missing:
                continue
            if names in out:
                issues.append(DocumentIssue(line_no, " ".join(names), f"duplicate {kind} entry"))
                continue
            terms = _parse_element(value, line_no, degrees, issues)
            if terms is None:
                continue
            want = sum([degrees[n] for n in names]) + shift
            got = {degrees[n] for _, n in terms}
            if got and got != {want}:
                issues.append(
                    DocumentIssue(
                        line_no,
                        " ".join(names),
                        f"{kind} image must have degree {want}, found "
                        + ", ".join(str(d) for d in sorted(got)),
                    )
                )
                continue
            if terms:
                out[names] = tuple(sorted(terms, key=lambda item: index[item[1]]))
        ordered = sorted(out.items(), key=lambda item: [index[n] for n in item[0]])
        return tuple(names + (terms,) for names, terms in ordered)

    bracket = resolve("bracket", 0, entries.get(("bracket", None), []))
    # numbered sections: orders must be contiguous from the first
    orders: dict[str, list[int]] = {}
    for kind, (first, _, _) in _NUMBERED.items():
        present = sorted(n for k, n in entries if k == kind)
        want = list(range(first, first + len(present)))
        if present != want:
            issues.append(
                DocumentIssue(
                    0,
                    kind,
                    f"{kind} orders must be exactly {want[0]}..{want[-1]}, found "
                    + ", ".join(str(n) for n in present),
                )
            )
            present = []
        orders[kind] = present
    deltas, gauges = (
        tuple(resolve(kind, shift, entries[(kind, n)]) for n in orders[kind])
        for kind, (_, shift, _) in _NUMBERED.items()
    )

    if issues:
        raise DocumentError(issues)
    # the operator layer validates the structure; Leibniz is not required at
    # parse time, documents may hold invalid data for checking, but a gauge
    # generator must be a derivation
    try:
        return AlgebraDocument(
            basis=tuple(order),
            bracket=bracket,
            deltas=deltas,
            gauges=gauges,
            metadata=tuple(sorted(metadata.items())),
        )
    except GaugeDerivationError as exc:
        line_no = headers[("gauge", exc.order)]
        raise DocumentError([DocumentIssue(line_no, f"gauge {exc.order}", str(exc))]) from exc


def _format_terms(terms: Terms) -> str:
    return format_terms((name, coeff) for coeff, name in terms)


def serialize_document(doc: AlgebraDocument) -> str:
    """Render a document canonically; parse(serialize(doc)) == doc."""
    lines: list[str] = []
    if doc.metadata:
        lines += ["[metadata]", *(f"{key}: {value}" for key, value in sorted(doc.metadata)), ""]
    lines += ["[basis]", *(f"{name}: {degree}" for name, degree in doc.basis)]
    sections = [("bracket", doc.bracket)]
    for (kind, (first, _, _)), orders in zip(_NUMBERED.items(), (doc.deltas, doc.gauges)):
        sections += [(f"{kind} {n}", entries) for n, entries in enumerate(orders, start=first)]
    for header, entries in sections:
        lines += ["", f"[{header}]"]
        lines += [f"{' '.join(entry[:-1])}: {_format_terms(entry[-1])}" for entry in entries]
    return "\n".join(lines) + "\n"

"""Command dispatch: parse a document, run the requested checks, build a report.

Every command takes the raw document text so the CLI stays a thin shell and
the full pipeline is testable without a process boundary.  Commands raise
DocumentError for unparseable input and PreconditionError when the document
lacks the sections the command needs; both map to exit code 2 in the CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

from .coalgebra import check_coderivation_axiom, check_dual_leibniz, lift_coderivation
from .derived import (
    DeformationFamily,
    build_sh_structure,
    check_codifferential,
    check_key_lemma,
    check_sh_leibniz,
)
from .document import AlgebraDocument, parse_document
from .errors import PreconditionError
from .gauge import GaugeFamily, check_deformation, check_gauge_equivalence, gauge_transform
from .graded import Element, format_element
from .multiop import MultiOp, check_leibniz_identity
from .report import CheckResult, Report
from .results import Violation


@dataclass(frozen=True)
class RunOptions:
    max_const: int = 6
    max_word_len: int = 4
    max_arity: int = 3
    first_violation: bool = False


def _require_family(doc: AlgebraDocument) -> DeformationFamily:
    fam = doc.to_family()
    if fam is None:
        raise PreconditionError("document has no [delta N] sections")
    return fam


def _require_gauge(doc: AlgebraDocument) -> GaugeFamily:
    gauge = doc.to_gauge()
    if gauge is None:
        raise PreconditionError("document has no [gauge N] sections")
    return gauge


def _split(
    name_map: dict[str, str], violations: list[Violation], first_violation: bool
) -> list[CheckResult]:
    """One CheckResult per tag, in name_map order; only each tag's first under first_violation."""
    results = []
    for tag, label in name_map.items():
        found = [v for v in violations if v.check == tag]
        results.append(CheckResult(label, not found, found[:1] if first_violation else found))
    return results


def _cmd_validate(doc: AlgebraDocument, options: RunOptions) -> list[CheckResult]:
    """Parse a document and summarise its sections."""
    detail = [
        f"generators: {len(doc.basis)}",
        f"bracket entries: {len(doc.bracket)}",
        f"family order: {len(doc.deltas) - 1 if doc.deltas else 'none'}",
        f"gauge order: {len(doc.gauges) if doc.gauges else 'none'}",
    ]
    return [CheckResult("document", True, detail=detail)]


def _cmd_check_leibniz(doc: AlgebraDocument, options: RunOptions) -> list[CheckResult]:
    """Left Leibniz identity on all basis triples."""
    violations = check_leibniz_identity(doc.to_bracket())
    return _split({"leibniz-identity": "leibniz-identity"}, violations, options.first_violation)


def _cmd_check_deformation(doc: AlgebraDocument, options: RunOptions) -> list[CheckResult]:
    """Derivation rule and square-zero ladder for the family."""
    violations = check_deformation(_require_family(doc))
    return _split(
        {
            "deformation-derivation": "derivation-rule",
            "deformation-square": "square-zero-ladder",
        },
        violations,
        options.first_violation,
    )


def _op_table(op: MultiOp, label: str) -> list[str]:
    lines = []
    for key in sorted(op.constants):
        args = ", ".join(op.basis.names[i] for i in key)
        image = Element._trusted(op.basis, op.constants[key])
        lines.append(f"{label}({args}) = {format_element(image)}")
    if not lines:
        lines.append(f"{label} = 0")
    return lines


def _cmd_derive(doc: AlgebraDocument, options: RunOptions) -> list[CheckResult]:
    """Construct the higher brackets and print their structure constants."""
    fam = _require_family(doc)
    # both construction routes run inside and must agree exactly
    structure = build_sh_structure(fam)
    results = [
        CheckResult(
            "route-agreement",
            True,
            detail=[f"arities 1..{structure.max_arity} agree on both constructions"],
        )
    ]
    for i, op in enumerate(structure.ops, 1):
        results.append(CheckResult(f"l_{i}", None, detail=_op_table(op, f"l_{i}")))
    return results


def _cmd_check_sh(doc: AlgebraDocument, options: RunOptions) -> list[CheckResult]:
    """Strong homotopy identities for the derived brackets."""
    structure = build_sh_structure(_require_family(doc))
    verdict = check_sh_leibniz(
        structure, options.max_const, first_violation=options.first_violation
    )
    return [
        CheckResult("sh-identity", verdict.passed, verdict.violations, verdict.notes)
    ]


def _cmd_check_codifferential(
    doc: AlgebraDocument, options: RunOptions
) -> list[CheckResult]:
    """Square of the lifted codifferential on tensor words."""
    verdict = check_codifferential(
        _require_family(doc),
        options.max_word_len,
        first_violation=options.first_violation,
    )
    return [
        CheckResult(
            "codifferential-square", verdict.passed, verdict.violations, verdict.notes
        )
    ]


def _named_unary(doc: AlgebraDocument) -> list[tuple[str, MultiOp]]:
    """The document's nonzero delta_n and xi_n, named by component."""
    fam, gauge = doc.to_family(), doc.to_gauge()
    ops = [(f"delta_{n}", d) for n, d in enumerate(fam.deltas)] if fam else []
    ops += [(f"xi_{n}", x) for n, x in enumerate(gauge.xis, 1)] if gauge else []
    return [(name, op) for name, op in ops if not op.is_zero()]


def _derivation_pool(doc: AlgebraDocument) -> list[tuple[str, MultiOp]]:
    """Nonzero deltas and gauge generators shipped with the document, each once."""
    pool: list[tuple[str, MultiOp]] = []
    for name, op in _named_unary(doc):
        if all(op != other for _, other in pool):
            pool.append((name, op))
    if not pool:
        raise PreconditionError("document ships no nonzero derivations to check")
    return pool


def _cmd_check_key_lemma(doc: AlgebraDocument, options: RunOptions) -> list[CheckResult]:
    """Nested-operation compatibility with commutators of derivations."""
    bracket = doc.to_bracket()
    pool = _derivation_pool(doc)
    arities = list(product(range(1, options.max_arity + 1), repeat=2))
    verdict = check_key_lemma(bracket, pool, arities, options.first_violation)
    detail = [
        f"derivations: {', '.join(name for name, _ in pool)}",
        f"(operation, operation, arity, arity) combinations: {len(pool) ** 2 * len(arities)}",
    ]
    return [CheckResult("key-lemma", verdict.passed, verdict.violations, detail)]


def _cmd_gauge(doc: AlgebraDocument, options: RunOptions) -> list[CheckResult]:
    """Transform the family by the gauge and recheck it."""
    fam = _require_family(doc)
    gauge = _require_gauge(doc)
    transformed = gauge_transform(fam, gauge)
    results = [
        CheckResult(
            f"delta'_{n}",
            None,
            detail=_op_table(transformed.delta(n), f"delta'_{n}"),
        )
        for n in range(transformed.order + 1)
    ]
    violations = check_deformation(transformed)
    results.append(CheckResult("transformed-family", not violations, violations))
    return results


def _cmd_check_gauge_equivalence(
    doc: AlgebraDocument, options: RunOptions
) -> list[CheckResult]:
    """Conjugation, morphism, and orderwise laws for the gauge exponential."""
    verdict = check_gauge_equivalence(
        _require_family(doc),
        _require_gauge(doc),
        max_len=options.max_word_len,
        first_violation=options.first_violation,
    )
    conjugation, expansion = _split(
        {
            "gauge-conjugation": "conjugated-codifferential",
            "gauge-order-expansion": "orderwise-expansion",
        },
        verdict.violations,
        options.first_violation,
    )
    # both laws of e^Xi are proved from Xi's certificate: they pass or raise EngineError
    laws = [CheckResult(name, True) for name in ("exponential-morphism", "exponential-inverse")]
    return [conjugation, *laws, expansion]


def _cmd_check_coalgebra(doc: AlgebraDocument, options: RunOptions) -> list[CheckResult]:
    """Comultiplication axiom and coderivation law for lifted maps."""
    # both are proved per parity pattern: they pass or raise EngineError
    dual = check_dual_leibniz(doc.to_basis(), options.max_word_len)
    ops = [("bracket", doc.to_bracket())] + _named_unary(doc)
    for _, op in ops:
        check_coderivation_axiom(lift_coderivation(op), options.max_word_len)
    detail = [f"lifted maps: {', '.join(name for name, _ in ops)}"]
    return [
        CheckResult("dual-leibniz", dual.passed),
        CheckResult("coderivation-axiom", True, detail=detail),
    ]


def _cmd_report_all(doc: AlgebraDocument, options: RunOptions) -> list[CheckResult]:
    """Every applicable suite, one verdict per check plus an overall verdict."""
    results = _cmd_validate(doc, options)
    results += _cmd_check_leibniz(doc, options)
    results += _cmd_check_coalgebra(doc, options)
    if doc.deltas:
        results += _cmd_check_deformation(doc, options)
        results += _cmd_check_sh(doc, options)
        results += _cmd_check_codifferential(doc, options)
        try:
            results += _cmd_check_key_lemma(doc, options)
        except PreconditionError as exc:  # the key lemma refuses its input
            results.append(CheckResult("key-lemma", None, detail=[f"skipped: {exc}"]))
    else:
        results.append(
            CheckResult("deformation-suites", None, detail=["skipped: no family"])
        )
    if doc.deltas and doc.gauges:
        results += _cmd_check_gauge_equivalence(doc, options)
    else:
        reason = "no family" if doc.gauges else "no gauge sections"
        results.append(CheckResult("gauge-suite", None, detail=[f"skipped: {reason}"]))
    return results


COMMANDS = {
    "validate": _cmd_validate,
    "check-leibniz": _cmd_check_leibniz,
    "check-deformation": _cmd_check_deformation,
    "derive": _cmd_derive,
    "check-sh": _cmd_check_sh,
    "check-codifferential": _cmd_check_codifferential,
    "check-key-lemma": _cmd_check_key_lemma,
    "gauge": _cmd_gauge,
    "check-gauge-equivalence": _cmd_check_gauge_equivalence,
    "check-coalgebra": _cmd_check_coalgebra,
    "report-all": _cmd_report_all,
}

# flags that matter per command, in order: the report header and the
# command-line options are both built from this table
_OPTION_FIELDS = {
    "check-sh": ("max_const", "first_violation"),
    "check-codifferential": ("max_word_len", "first_violation"),
    "check-key-lemma": ("max_arity", "first_violation"),
    "check-gauge-equivalence": ("max_word_len", "first_violation"),
    "check-coalgebra": ("max_word_len",),
    "report-all": ("max_const", "max_word_len", "max_arity", "first_violation"),
}


def run_command(command: str, text: str, options: RunOptions | None = None) -> Report:
    if command not in COMMANDS:
        raise PreconditionError(f"unknown command {command!r}")
    options = options or RunOptions()
    started = time.monotonic()
    doc = parse_document(text)
    results = COMMANDS[command](doc, options)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    shown = _OPTION_FIELDS.get(command, ())
    rendered = [(name.replace("_", "-"), getattr(options, name)) for name in shown]
    return Report(
        command=command,
        document=doc.name,
        options=rendered,
        results=results,
        elapsed_ms=elapsed_ms,
    )

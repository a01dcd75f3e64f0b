"""Text and structured reports pinned byte for byte, apart from elapsed time.

Every command runs on every shipped fixture it applies to, at small scopes,
and the failing commands and ``report-all`` run on each designated
perturbation, with and without ``--first-violation``, so verdicts, witness
lists and their order are all pinned, and so is the head each check keeps.  One fixture also runs after
a diagonal rescaling of its basis, with and without its perturbation, so
that structure constants, residuals and gauge images carry denominators.
Each case pins ``render_text`` minus its ``elapsed:`` line under its plain
key and ``render_structured`` minus its ``elapsed_ms`` key under the key
with a `` structured`` suffix.  The digests in ``golden_reports.json`` were
recorded from the engine before its internals were refactored; regenerate
them only for a deliberate change of report content, with
``python tests/test_golden_reports.py --write``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from shleibniz import fixtures as shipped
from shleibniz.document import AlgebraDocument, serialize_document
from shleibniz.errors import PreconditionError
from shleibniz.report import render_structured, render_text
from shleibniz.runner import COMMANDS, RunOptions, run_command
from oracles import family_fixture_names, perturbed_text

GOLDEN = Path(__file__).with_name("golden_reports.json")
SCOPES = RunOptions(max_const=4, max_word_len=3, max_arity=2)
FIRST = dataclasses.replace(SCOPES, first_violation=True)
FAILING_PATH = (
    "check-deformation",
    "check-sh",
    "check-codifferential",
    "check-gauge-equivalence",
)
RESCALED = "endo2"
RESCALED_COMMANDS = (
    "check-sh",
    "check-codifferential",
    "check-coalgebra",
    "check-gauge-equivalence",
)
# basis letter k is rescaled by LAMBDAS[k % 4]
LAMBDAS = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def _digest(rendered: str, timing_prefix: str) -> str:
    kept = [line for line in rendered.splitlines() if not line.startswith(timing_prefix)]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def report_digests(command: str, text: str, options: RunOptions = SCOPES) -> tuple[str, str]:
    """Digests of the text and of the structured rendering of one run."""
    report = run_command(command, text, options)
    return (
        _digest(render_text(report), "elapsed:"),
        _digest(render_structured(report), '  "elapsed_ms":'),
    )


def rescaled_document(doc: AlgebraDocument) -> AlgebraDocument:
    """The same structure written in the basis y_k = LAMBDAS[k % 4] x_k.

    A map sending x_a to sum c_g x_g sends y_a to sum (lambda_a c_g /
    lambda_g) y_g, and a bracket likewise picks up lambda_a lambda_b /
    lambda_g.  The change of basis is an isomorphism, so every verdict of
    the original holds, while the constants now carry denominators.
    """
    scale = {name: LAMBDAS[k % len(LAMBDAS)] for k, (name, _) in enumerate(doc.basis)}

    def terms(inputs: tuple[str, ...], old):
        factor = math.prod(scale[name] for name in inputs)
        return tuple((c * factor / scale[g], g) for c, g in old)

    def unary(orders):
        return tuple(tuple((src, terms((src,), t)) for src, t in order) for order in orders)

    return AlgebraDocument(
        doc.basis,
        tuple((a, b, terms((a, b), t)) for a, b, t in doc.bracket),
        unary(doc.deltas),
        unary(doc.gauges),
        tuple((k, f"{v}-rescaled" if k == "name" else v) for k, v in doc.metadata),
    )


def rescaled_cases() -> dict[str, str]:
    """Case label -> document text for the rescaled fixture, plain and perturbed."""
    doc = rescaled_document(shipped.load_fixture(RESCALED))
    return {
        f"{RESCALED}-rescaled": serialize_document(doc),
        f"{RESCALED}-rescaled+perturbation": perturbed_text(RESCALED, doc),
    }


def compute_digests() -> dict[str, str]:
    runs: list[tuple[str, str, str, RunOptions]] = []
    for name in shipped.fixture_names():
        runs.extend((command, name, shipped.fixture_text(name), SCOPES) for command in COMMANDS)
    for name in family_fixture_names():
        text, label = perturbed_text(name), f"{name}+perturbation"
        runs.extend((command, label, text, SCOPES) for command in FAILING_PATH)
        runs.append(("report-all", label, text, SCOPES))
        for command in FAILING_PATH + ("report-all",):
            runs.append((command, f"{label} first-violation", text, FIRST))
    for label, text in rescaled_cases().items():
        runs.extend((command, label, text, SCOPES) for command in RESCALED_COMMANDS)
    out: dict[str, str] = {}
    for command, label, text, options in runs:
        try:
            text_digest, structured_digest = report_digests(command, text, options)
        except PreconditionError:
            continue
        out[f"{command} {label}"] = text_digest
        out[f"{command} {label} structured"] = structured_digest
    return out


def test_reports_match_golden_digests():
    want = json.loads(GOLDEN.read_text("utf-8"))
    got = compute_digests()
    assert sorted(got) == sorted(want)
    assert [case for case in want if got[case] != want[case]] == []


def test_perturbed_reports_fail():
    for name in family_fixture_names():
        report = run_command("check-sh", perturbed_text(name), SCOPES)
        assert not report.passed, name


def test_rescaled_fixture_carries_denominators_and_keeps_its_verdicts():
    doc = rescaled_document(shipped.load_fixture(RESCALED))
    constants = [c for *_, terms in doc.bracket for c, _ in terms]
    constants += [c for order in doc.deltas for _, terms in order for c, _ in terms]
    assert any(Fraction(c).denominator > 1 for c in constants)
    originals = (shipped.fixture_text(RESCALED), perturbed_text(RESCALED))
    for text, original in zip(rescaled_cases().values(), originals):
        for command in RESCALED_COMMANDS:
            assert (
                run_command(command, text, SCOPES).passed
                == run_command(command, original, SCOPES).passed
            ), (command, text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    GOLDEN.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n", "utf-8")

"""Text reports pinned byte for byte, apart from the elapsed line.

Every command runs on every shipped fixture it applies to, at small scopes,
and the failing commands run on each designated perturbation, so verdicts,
witness lists and their order are all pinned.  The digests in
``golden_reports.json`` were recorded from the engine before its internals
were refactored; regenerate them only for a deliberate change of report
content, with ``python tests/test_golden_reports.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from shleibniz import fixtures as shipped
from shleibniz.document import AlgebraDocument, serialize_document
from shleibniz.errors import PreconditionError
from shleibniz.report import render_text
from shleibniz.runner import COMMANDS, RunOptions, run_command

GOLDEN = Path(__file__).with_name("golden_reports.json")
SCOPES = RunOptions(max_const=4, max_word_len=3, max_arity=2)
FAILING_PATH = ("check-deformation", "check-sh", "check-codifferential")


def report_digest(command: str, text: str) -> str:
    rendered = render_text(run_command(command, text, SCOPES))
    kept = [line for line in rendered.splitlines() if not line.startswith("elapsed:")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def perturbed_text(name: str) -> str:
    """The fixture's document with its designated perturbation written in."""
    doc = shipped.load_fixture(name)
    tweak = shipped.perturbation(name)
    entries = {src: dict((g, c) for c, g in terms) for src, terms in doc.deltas[tweak.order]}
    image = entries.setdefault(tweak.source, {})
    image[tweak.target] = image.get(tweak.target, Fraction(0)) + tweak.amount
    order = tuple(
        (src, tuple((c, g) for g, c in entries[src].items() if c))
        for src, _ in doc.basis
        if any(entries.get(src, {}).values())
    )
    deltas = doc.deltas[: tweak.order] + (order,) + doc.deltas[tweak.order + 1 :]
    return serialize_document(
        AlgebraDocument(doc.basis, doc.bracket, deltas, doc.gauges, doc.metadata)
    )


def compute_digests() -> dict[str, str]:
    out: dict[str, str] = {}
    for name in shipped.fixture_names():
        text = shipped.fixture_text(name)
        for command in COMMANDS:
            try:
                out[f"{command} {name}"] = report_digest(command, text)
            except PreconditionError:
                pass
    for name in shipped.family_fixture_names():
        text = perturbed_text(name)
        for command in FAILING_PATH:
            out[f"{command} {name}+perturbation"] = report_digest(command, text)
    return out


def test_reports_match_golden_digests():
    want = json.loads(GOLDEN.read_text("utf-8"))
    got = compute_digests()
    assert sorted(got) == sorted(want)
    assert [case for case in want if got[case] != want[case]] == []


def test_perturbed_reports_fail():
    for name in shipped.family_fixture_names():
        report = run_command("check-sh", perturbed_text(name), SCOPES)
        assert not report.passed, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    GOLDEN.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n", "utf-8")

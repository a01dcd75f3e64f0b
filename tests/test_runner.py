"""Command dispatch and report rendering outside the click layer."""

from __future__ import annotations

import collections
import itertools
import json
import re
import sys

import pytest

from shleibniz import coalgebra, derived, gauge
from shleibniz import fixtures as shipped
from shleibniz.derived import check_key_lemma
from shleibniz.document import parse_document, serialize_document
from shleibniz.errors import MCRejectionError, PreconditionError
from shleibniz.gauge import McElement
from shleibniz.graded import GradedBasis, SparseVector
from shleibniz.multiop import DgLeibnizAlgebra, MultiOp, check_derivation
from shleibniz.report import WITNESS_LIMIT, render_structured, render_text
from shleibniz.runner import COMMANDS, RunOptions, _derivation_pool, run_command
from oracles import (
    assert_no_dense_api,
    family_fixture_names,
    mc_element,
    perturbed_text,
    vector,
)


def broken_endo2_text() -> str:
    # dropping the E11 component of delta_0 E01 breaks the derivation rule
    # and the ladder in many places at once
    base = shipped.fixture_text("endo2")
    text = base.replace("[delta 0]\nE01: E00 + E11\n", "[delta 0]\nE01: E00\n")
    assert text != base
    return text


def test_codifferential_at_length_five_on_a_dimension_11_sum_walks_no_word():
    # a walk over the 11 + ... + 11^5 words takes seconds; the certificate
    # proves the pass from the reachable words alone
    names = ("endo2", "heis3w", "quartic")
    doc = shipped.direct_sum([shipped.load_fixture(n) for n in names], ["", "r_", "q_"], "sum11")
    text = serialize_document(doc)
    assert len(doc.basis) == 11

    assert_no_dense_api()
    report = run_command("check-codifferential", text, RunOptions(max_word_len=5))
    assert [r.passed for r in report.results] == [True]


def refuse_the_word_layer(monkeypatch) -> None:
    """Make every per-word evaluation raise, wherever a shleibniz module
    binds it.  MultiOp and GradedBasis have no tuple walk or dense
    evaluation left to refuse."""

    def refusal(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"a command reached {name}")

        return refuse

    assert_no_dense_api()
    modules = [m for n, m in sys.modules.items() if n.startswith("shleibniz") and m]
    for owner, name in (
        (coalgebra, "comultiply"),
        (coalgebra, "evaluate_coderivation"),
        (coalgebra, "_lift_terms"),
        (coalgebra, "extend_linearly"),
        (gauge, "exp_xi"),
    ):
        original = getattr(owner, name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refusal(name))


def test_no_command_walks_a_word(monkeypatch):
    # every command at its default flags, with and without first_violation,
    # on every shipped fixture and on each designated perturbation, among
    # them endo2 with E01 -> E00 added to delta_0, whose gauge conjugation
    # fails; no command evaluates a word or a basis tuple
    texts = {name: shipped.fixture_text(name) for name in shipped.fixture_names()}
    texts.update((f"{name}+perturbation", perturbed_text(name)) for name in family_fixture_names())
    refuse_the_word_layer(monkeypatch)
    ran = 0
    for label, text in texts.items():
        for command, first in itertools.product(COMMANDS, (False, True)):
            try:
                run_command(command, text, RunOptions(first_violation=first))
            except PreconditionError:
                continue
            ran += 1
    report = run_command("check-gauge-equivalence", texts["endo2+perturbation"])
    assert not report.passed
    assert ran >= 200, ran
    # the refusals reach the bindings the engine calls through
    basis = GradedBasis(("x",), (0,))
    spec = coalgebra.lift_coderivation(MultiOp(basis, 2, 0, {(0, 0): {0: 1}}))
    for call in (
        lambda: coalgebra.evaluate_coderivation(spec, (0, 0)),
        lambda: gauge.exp_xi(spec, (0, 0)),
    ):
        with pytest.raises(AssertionError, match="a command reached"):
            call()


def test_maurer_cartan_and_the_cohomology_complex_walk_no_word(monkeypatch):
    # the library entry points no command reaches, under the same guard:
    # Maurer-Cartan accepted on endo2, rejected at order 2 on quartic and
    # refused on l2b, whose bracket is not skewsymmetric; the cohomology
    # complex on the two fixtures whose delta_0 it takes
    refuse_the_word_layer(monkeypatch)
    endo2 = shipped.load_fixture("endo2").to_family()
    algebra = DgLeibnizAlgebra(endo2.basis, endo2.bracket, endo2.delta(0))
    assert gauge.mc_to_deformation(algebra, mc_element("endo2")).order == 1
    quartic = shipped.load_fixture("quartic").to_bracket()
    flat = DgLeibnizAlgebra(quartic.basis, quartic, MultiOp.zero(quartic.basis, 1, 1))
    with pytest.raises(MCRejectionError) as rejected:
        gauge.mc_to_deformation(flat, mc_element("quartic"))
    assert rejected.value.order == 2
    l2b = shipped.load_fixture("l2b").to_family()
    lie = DgLeibnizAlgebra(l2b.basis, l2b.bracket, l2b.delta(0))
    with pytest.raises(PreconditionError, match="not graded skewsymmetric"):
        gauge.mc_to_deformation(lie, McElement((vector(l2b.basis, "b"),)))
    for name in ("endo2", "heis3w"):
        fam = shipped.load_fixture(name).to_family()
        assert derived.leibniz_cohomology_check(fam.bracket, fam.delta(0), i_max=2).passed, name


def test_passing_report_all_builds_no_vector(monkeypatch):
    # operations store coefficient dicts, so a passing report-all, which
    # has no witness to show, never wraps an image in a vector
    real = SparseVector._trusted.__func__
    built = collections.Counter()

    def counted(cls, basis, coeffs):
        built[cls.__name__] += 1
        return real(cls, basis, coeffs)

    monkeypatch.setattr(SparseVector, "_trusted", classmethod(counted))
    names = shipped.fixture_names()
    assert len(names) == 6
    for name in names:
        report = run_command("report-all", shipped.fixture_text(name))
        assert report.passed, name
        assert not built, (name, built)
    # the counter sees the vectors the engine does build
    assert not run_command("report-all", perturbed_text("endo2")).passed
    assert built


def test_report_all_names_the_missing_family_of_a_gauge():
    # endo2 without its delta sections keeps its gauge: the gauge row is
    # skipped for want of a family, not of gauge sections
    base = shipped.fixture_text("endo2")
    text = re.sub(r"\[delta \d\]\n(?:.+\n)+\n", "", base)
    assert "[delta" not in text and "[gauge 1]" in text
    rows = {r.name: r for r in run_command("report-all", text).results}
    assert rows["deformation-suites"].detail == ["skipped: no family"]
    assert rows["gauge-suite"].detail == ["skipped: no family"]
    rows = {r.name: r for r in run_command("report-all", shipped.fixture_text("quartic")).results}
    assert rows["gauge-suite"].detail == ["skipped: no gauge sections"]


def test_unknown_command_raises():
    with pytest.raises(PreconditionError):
        run_command("frobnicate", shipped.fixture_text("heisab"))


def test_witness_list_is_capped_in_text_output():
    report = run_command("check-sh", broken_endo2_text(), RunOptions(max_const=4))
    assert not report.passed
    worst = max(len(r.violations) for r in report.results)
    assert worst > WITNESS_LIMIT
    text = render_text(report)
    assert "... and" in text
    assert text.count("witness") <= WITNESS_LIMIT * len(report.results)


def test_structured_sites_are_json_safe():
    report = run_command("check-sh", broken_endo2_text(), RunOptions(max_const=4))
    payload = json.loads(render_structured(report))
    for check in payload["checks"]:
        for violation in check["violations"]:
            assert all(isinstance(s, (int, str)) for s in violation["site"])


def test_structured_and_text_agree_on_verdict():
    for name in ("heisab", "quartic"):
        report = run_command("report-all", shipped.fixture_text(name),
                             RunOptions(max_const=4, max_word_len=3))
        text = render_text(report)
        payload = json.loads(render_structured(report))
        assert ("verdict: pass" in text) == (payload["verdict"] == "pass")


def test_informational_results_do_not_affect_verdict():
    report = run_command("derive", shipped.fixture_text("heisab"))
    infos = [r for r in report.results if r.passed is None]
    assert infos
    assert report.passed


def test_first_violation_stops_early():
    slow = run_command("check-sh", broken_endo2_text(), RunOptions(max_const=4))
    fast = run_command(
        "check-sh", broken_endo2_text(), RunOptions(max_const=4, first_violation=True)
    )
    count = lambda rep: sum(len(r.violations) for r in rep.results)
    assert count(fast) == 1
    assert count(slow) > 1


def first_failing_key_lemma_precondition(text: str, max_arity: int) -> str:
    """The precondition error of the first failing combination, the
    combinations taken in the command's (operation, operation, arity, arity)
    order and both inputs of each checked with check_derivation, first then
    second, as a per-combination call would."""
    doc = parse_document(text)
    bracket = doc.to_bracket()
    pool = [op for _, op in _derivation_pool(doc)]
    arities = range(1, max_arity + 1)
    for d1, d2, i, j in itertools.product(pool, pool, arities, arities):
        for label, d in (("first", d1), ("second", d2)):
            if check_derivation(d, bracket):
                return f"{label} operation is not a derivation of the bracket"
    raise AssertionError("every call passed its preconditions")


@pytest.mark.parametrize(
    "old, new, position",
    [
        # delta_0 heads the derivation pool; a1 -> w breaks D{h, a} = {Dh, a} - {h, Da}
        ("[delta 0]\na: a1\n", "[delta 0]\na1: w\n", "first"),
        # delta_1 comes second; the same break
        ("[delta 1]\na: h\n", "[delta 1]\na1: w\n", "second"),
    ],
)
def test_key_lemma_command_reports_the_first_failing_precondition(old, new, position):
    base = shipped.fixture_text("heisab")
    text = base.replace(old, new)
    assert text != base
    expected = first_failing_key_lemma_precondition(text, max_arity=2)
    assert expected == f"{position} operation is not a derivation of the bracket"
    with pytest.raises(PreconditionError) as caught:
        run_command("check-key-lemma", text, RunOptions(max_arity=2))
    assert str(caught.value) == expected
    doc = parse_document(text)
    with pytest.raises(PreconditionError) as caught:
        check_key_lemma(doc.to_bracket(), _derivation_pool(doc), [(1, 1)])
    assert str(caught.value) == expected


def test_key_lemma_first_violation_keeps_one_witness(monkeypatch):
    # the (N_i D, N_j D') side doubled from arity 2 on, so that the first
    # failing combination has several residuals: the flag keeps only the
    # head of the full list, as every other check does
    real = derived.hom_tables

    def doubled(acc, fs, gs, scale, max_arity):
        return real(acc, fs, gs, 2 * scale if max_arity > 1 else scale, max_arity)

    monkeypatch.setattr(derived, "hom_tables", doubled)
    text = shipped.fixture_text("endo2")
    found = {}
    for first in (False, True):
        options = RunOptions(max_arity=2, first_violation=first)
        (result,) = run_command("check-key-lemma", text, options).results
        found[first] = result.violations
    full = found[False]
    assert len(full) >= 2 and full[0].site[:4] == full[1].site[:4], full[:2]
    assert found[True] == full[:1]


def test_key_lemma_decides_one_combination_per_mirror_pair(monkeypatch):
    # endo2's pool: delta_0 odd, xi_1 and xi_2 even; 36 combinations at
    # arities up to 2 make 15 mirror pairs, 6 self-mirrored diagonals and,
    # of those, 4 even diagonals that vanish identically; of the 17 left,
    # the 4 at arities (1, 1) vanish identically too
    real, calls = derived._key_lemma_residuals, []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(derived, "_key_lemma_residuals", counted)
    doc = shipped.load_fixture("endo2")
    pool = _derivation_pool(doc)
    assert [(name, op.degree) for name, op in pool] == [("delta_0", 1), ("xi_1", 0), ("xi_2", 0)]
    text = shipped.fixture_text("endo2")
    report = run_command("check-key-lemma", text, RunOptions(max_arity=2))
    assert report.passed
    assert len(calls) == 13 and len(set(calls)) == 13
    assert all(site[2:] != (1, 1) for site in calls)


def test_gauge_first_violation_keeps_the_verdict_of_every_row():
    # E01 -> E00 added to delta_0 of endo2 fails both the conjugation and the
    # order expansion; the flag keeps the head of each row, not of the list
    text = perturbed_text("endo2")
    rows = {}
    for first in (False, True):
        options = RunOptions(max_word_len=3, first_violation=first)
        rows[first] = run_command("check-gauge-equivalence", text, options).results
    assert [r.passed for r in rows[False]] == [False, True, True, False]
    assert len(rows[False][3].violations) == 3
    for full, kept in zip(rows[False], rows[True]):
        assert (kept.passed, kept.violations) == (full.passed, full.violations[:1]), full.name


def test_report_all_first_violation_keeps_one_witness_per_failing_row():
    # every row keeps its verdict and the head of its full witness list
    scopes = dict(max_const=4, max_word_len=3, max_arity=2)
    for name in family_fixture_names():
        text = perturbed_text(name)
        full = run_command("report-all", text, RunOptions(**scopes)).results
        kept = run_command("report-all", text, RunOptions(**scopes, first_violation=True)).results
        assert [r.name for r in kept] == [r.name for r in full], name
        for whole, head in zip(full, kept):
            assert head.passed == whole.passed, (name, whole.name)
            assert head.violations == whole.violations[:1], (name, whole.name)
        failing = [r for r in kept if r.passed is False]
        assert failing and all(len(r.violations) == 1 for r in failing), name

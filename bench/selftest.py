"""Fast tests for the benchmark's generators and scope formula.

Kept out of the repository's test suite on purpose (the file name does not
match pytest's default pattern); run them with

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from shleibniz.document import serialize_document  # noqa: E402
from shleibniz.fixtures import load_fixture  # noqa: E402
from shleibniz.runner import RunOptions, run_command  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402


def _passes(text: str, command: str, **flags) -> bool:
    return run_command(command, text, RunOptions(**flags)).passed


def test_direct_sum_prefixes_and_pads():
    endo2, heis3w = load_fixture("endo2"), load_fixture("heis3w")
    doc = gen.direct_sum([heis3w, endo2], ["p_", "q_"], "sum")
    assert len(doc.basis) == 8
    assert doc.basis[0] == ("p_g0", 0) and doc.basis[4] == ("q_E01", -1)
    assert len(doc.deltas) == 4 and len(doc.gauges) == 2
    # heis3w has orders 0..2 only, so its part of delta_3 is zero
    assert all(name.startswith("q_") for name, _ in doc.deltas[3])


def test_tensor_with_dual_numbers_multiplies_powers_of_t():
    doc = gen.tensor_dual_numbers(load_fixture("heis3w"), "prod")
    bracket = {(a, b): terms for a, b, terms in doc.bracket}
    assert len(doc.basis) == 8
    assert [n for _, n in bracket[("g0", "t_h")]] == ["t_g1"]
    assert ("t_g0", "t_h") not in bracket  # t^2 = 0


def test_generated_valid_inputs_pass():
    for name in ("sh-sparse", "sh-dense"):
        workload = workloads.build(name, 0)
        for job in workload.jobs:
            if job.expect_pass and job.command == "check-sh":
                text = workload.docs[job.doc]
                assert _passes(text, "check-sh", max_const=3), job.doc
                assert _passes(text, "check-codifferential", max_word_len=2), job.doc


def test_single_perturbation_is_caught_by_both_routes():
    product = gen.tensor_dual_numbers(load_fixture("heis3w"), "prod")
    source, target = gen.perturbation_candidates(product)[0]
    text = serialize_document(gen.perturb(product, source, target, "bad"))
    sh = run_command("check-sh", text, RunOptions(max_const=3)).results[0]
    cod = run_command("check-codifferential", text, RunOptions(max_word_len=2)).results[0]
    assert not sh.passed and not cod.passed
    # weight 2 fails (delta_0^2 != 0); through the subwords it acts on, that
    # failure also makes the squared codifferential nonzero on longer words
    assert min(v.site[0] for v in sh.violations) == 2
    assert min(len(v.site) + 1 for v in cod.violations) == 2


def test_perturbation_candidates_break_the_square():
    # heis3w's delta_0 is g0 -> h; adding h -> w makes delta_0^2 (g0) = w
    candidates = gen.perturbation_candidates(load_fixture("heis3w"))
    assert ("h", "w") in candidates
    assert ("g0", "h") not in candidates  # only rescales the existing constant


def test_scope_matches_formula_on_small_case():
    doc = load_fixture("abelian3")  # dimension 3, l_1 and l_2
    # weights 2, 3, 4 enumerate 3, 9 and 27 tuples; weight 5 is vacuous
    assert workloads.scope(doc, "check-sh", RunOptions(max_const=5)) == 3 + 9 + 27
    assert workloads.scope(doc, "check-codifferential", RunOptions(max_word_len=3)) == 39

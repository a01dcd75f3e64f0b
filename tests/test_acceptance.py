"""Acceptance suite: ten exact, exhaustive checks over the shipped corpus.

Every check runs at zero tolerance in rational arithmetic; a failure prints
the criterion line with the first concrete witness.  Run with ``pytest -v``
to get one pass/fail line per criterion.
"""

from __future__ import annotations

import itertools
import time

import pytest

from shleibniz import fixtures as shipped
from shleibniz.coalgebra import (
    TensorElement,
    check_coderivation_axiom,
    check_dual_leibniz,
    evaluate_coderivation,
    lift_coderivation,
)
from shleibniz.derived import (
    build_sh_structure,
    check_codifferential,
    check_key_lemma,
    check_sh_leibniz,
    derived_bracket,
    derived_bracket_explicit,
    derived_bracket_tensor,
    leibniz_cohomology_check,
)
from shleibniz.errors import MCRejectionError
from shleibniz.gauge import (
    check_deformation,
    check_gauge_equivalence,
    mc_to_deformation,
)
from shleibniz.multiop import (
    DgLeibnizAlgebra,
    MultiOp,
    check_leibniz_identity,
    check_skewsymmetry,
)
from oracles import (
    abelian_subalgebra,
    apply_indices,
    corestriction,
    decompose_k,
    index_tuples,
    mc_element,
    perturbation,
    perturbed_family,
    restrict,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def derivation_pool(doc) -> list[MultiOp]:
    """Deduplicated nonzero derivations shipped with a fixture."""
    ops: list[MultiOp] = []
    fam = doc.to_family()
    if fam is not None:
        ops.extend(fam.deltas)
    gauge = doc.to_gauge()
    if gauge is not None:
        ops.extend(gauge.xis)
    pool: list[MultiOp] = []
    for op in ops:
        if not op.is_zero() and all(op != seen for seen in pool):
            pool.append(op)
    return pool


def test_criterion_01_sh_identities_exhaustive_on_small_corpus(docs, family_names):
    started = time.monotonic()
    assert len(family_names) >= 5
    for name in family_names:
        doc = docs[name]
        fam = doc.to_family()
        assert len(doc.basis) <= 4, name
        assert fam.order <= 3, name
        assert check_deformation(fam) == [], name
        verdict = check_sh_leibniz(build_sh_structure(fam), max_const=6)
        assert verdict.passed, name
    elapsed = time.monotonic() - started
    report(1, elapsed < 60.0,
           f"{len(family_names)} fixtures, Const <= 6, {elapsed:.1f} s")


def test_criterion_02_both_routes_agree_everywhere(docs, family_names):
    checked = 0
    for name in family_names:
        doc = docs[name]
        fam = doc.to_family()
        # construction routes: layered evaluator vs closed form, every l_i,
        # compared constant by constant
        for i in range(1, fam.order + 2):
            a = derived_bracket_tensor(fam.bracket, fam.delta(i - 1), i)
            b = derived_bracket_explicit(fam.bracket, fam.delta(i - 1), i)
            assert a == b, (name, i)
            checked += 1
        # verdict routes: sh identities vs squared codifferential, on
        # matching scopes (words of length n carry the weight-(n+1) identities)
        sh = check_sh_leibniz(build_sh_structure(fam), max_const=5)
        cod = check_codifferential(fam, max_len=4)
        assert sh.passed and cod.passed, name
        bad = perturbed_family(doc, perturbation(name))
        sh_bad = check_sh_leibniz(build_sh_structure(bad), max_const=4)
        cod_bad = check_codifferential(bad, max_len=3)
        assert sh_bad.passed == cod_bad.passed == False, name
    report(2, True, f"{checked} operations, verdicts agree on valid and broken input")


def test_criterion_03_single_constant_perturbations_are_caught(docs, family_names):
    witnesses = []
    for name in family_names:
        tweak = perturbation(name)
        bad = perturbed_family(docs[name], tweak)
        sh = check_sh_leibniz(build_sh_structure(bad), max_const=4)
        cod = check_codifferential(bad, max_len=3)
        assert not sh.passed and not cod.passed, name
        first_sh = sh.violations[0]
        first_cod = cod.violations[0]
        for v in (first_sh, first_cod):
            assert v.site, name
            assert v.residual is not None and not v.residual.is_zero(), name
        witnesses.append((name, first_sh.site, first_cod.site))
    report(3, True, "; ".join(f"{n} at {s1} / {s2}" for n, s1, s2 in witnesses[:2])
           + f"; {len(witnesses)} fixtures total")


def test_criterion_04_nested_insertion_commutator_identity(docs):
    pairs = 0
    for name in shipped.fixture_names():
        doc = docs[name]
        pool = [(f"D{n}", op) for n, op in enumerate(derivation_pool(doc))]
        arities = [(i, j) for i in range(1, 6) for j in range(1, 7 - i)]
        verdict = check_key_lemma(doc.to_bracket(), pool, arities)
        assert verdict.passed, (name, verdict.violations[:1])
        pairs += len(pool) ** 2 * len(arities)
    report(4, True, f"{pairs} (derivation, derivation, i, j) cases with i+j <= 6")


def test_criterion_05_coalgebra_axioms_on_short_words(docs):
    lifts = 0
    for name in shipped.fixture_names():
        doc = docs[name]
        basis = doc.to_basis()
        assert check_dual_leibniz(basis, max_len=5).passed, name
        ops = [doc.to_bracket()] + derivation_pool(doc)
        for op in ops:
            if op.is_zero():
                continue
            spec = lift_coderivation(op)
            assert check_coderivation_axiom(spec, max_len=5).passed, name
            lifts += 1
            # the lift splits into summands indexed by how deep the
            # operation reaches; they must add up to the whole lift
            for length in range(1, 6):
                for word in index_tuples(basis, length):
                    total = TensorElement.zero(basis)
                    for k in range(op.arity, length + 1):
                        total = total + decompose_k(op, k, basis, word)
                    assert total == evaluate_coderivation(spec, word), (name, word)
            # corestriction recovers the operation on words of its arity
            for word in index_tuples(basis, op.arity):
                got = corestriction(evaluate_coderivation(spec, word))
                assert got == apply_indices(op, word), (name, word)
    report(5, True, f"{lifts} lifted maps, words of length <= 5")


def test_criterion_06_gauge_action_identities(docs, family_names):
    checked = 0
    for name in family_names:
        doc = docs[name]
        gauge = doc.to_gauge()
        if gauge is None:
            continue
        verdict = check_gauge_equivalence(doc.to_family(), gauge, max_len=4)
        assert verdict.passed, (name, [v.check for v in verdict.violations[:3]])
        checked += 1
    assert checked >= 3
    report(6, True, f"{checked} (family, gauge) pairs, words of length <= 4")


def test_criterion_07_operations_restrict_to_sh_lie_on_abelian_part(docs):
    doc = docs["heisab"]
    structure = build_sh_structure(doc.to_family())
    sbasis = structure.basis
    sub = [sbasis.index(n) for n in abelian_subalgebra("heisab")]
    for i in range(1, structure.max_arity + 1):
        op = structure.ops[i - 1]
        for key in itertools.product(sub, repeat=i):
            image = apply_indices(op, key)
            assert all(b in sub for b in image.coeffs), (i, key)
        assert check_skewsymmetry(restrict(op, sub)).passed, i
    report(7, True,
           f"l_1..l_{structure.max_arity} skewsymmetric on the shifted span")


def test_criterion_08_maurer_cartan_accept_and_reject(docs):
    doc = docs["endo2"]
    fam = doc.to_family()
    algebra = DgLeibnizAlgebra(doc.to_basis(), fam.bracket, fam.delta(0))
    induced = mc_to_deformation(algebra, mc_element("endo2"))
    assert check_deformation(induced) == []

    quartic = docs["quartic"]
    bracket = quartic.to_bracket()
    trivial = DgLeibnizAlgebra(quartic.to_basis(), bracket,
                               MultiOp.zero(bracket.basis, 1, 1))
    with pytest.raises(MCRejectionError) as excinfo:
        mc_to_deformation(trivial, mc_element("quartic"))
    assert excinfo.value.order == 2
    report(8, True,
           f"accepted order-{induced.order} family; rejected at order "
           f"{excinfo.value.order} with residual {excinfo.value.residual}")


def test_criterion_09_binary_derived_bracket_is_a_leibniz_bracket(docs, family_names):
    for name in family_names:
        fam = docs[name].to_family()
        l2 = derived_bracket(fam.bracket, fam.delta(0), 2)
        assert check_leibniz_identity(l2) == [], name
    # on the abelian part of the dg Lie fixture the binary bracket is also
    # graded skewsymmetric
    doc = docs["heisab"]
    fam = doc.to_family()
    l2 = derived_bracket(fam.bracket, fam.delta(0), 2)
    sub = [l2.basis.index(n) for n in abelian_subalgebra("heisab")]
    assert check_skewsymmetry(restrict(l2, sub)).passed
    report(9, True, f"{len(family_names)} fixtures, all triples")


def test_criterion_10_cohomology_differential_on_derivation_subcomplex(docs):
    spans = 0
    for name in ("endo2", "heis3w"):
        fam = docs[name].to_family()
        verdict = leibniz_cohomology_check(fam.bracket, fam.delta(0), i_max=3)
        assert verdict.passed, name
        spans += 1
    report(10, True, f"{spans} fixtures, spanning derivations, i <= 3, square zero")

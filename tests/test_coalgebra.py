"""Tensor coalgebra words, comultiplication, and coderivation lifts."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from shleibniz import fixtures as shipped
from shleibniz.coalgebra import (
    CoderivationSpec,
    TensorElement,
    TensorPairElement,
    check_coderivation_axiom,
    check_dual_leibniz,
    check_hom_bracket_lift_agreement,
    comultiply,
    corestriction,
    decompose_k,
    evaluate_coderivation,
    evaluate_on_tensor,
    hom_bracket,
    lift_coderivation,
    word_degree,
)
from shleibniz.errors import MalformedInputError
from shleibniz.graded import Element, GradedBasis
from shleibniz.multiop import MultiOp, commutator


def small_basis() -> GradedBasis:
    return GradedBasis(("x", "y"), (0, 1))


def test_comultiply_single_letter_is_zero():
    assert comultiply(small_basis(), (0,)).is_zero()


def test_comultiply_two_letters():
    basis = small_basis()
    assert comultiply(basis, (0, 1)) == TensorPairElement(basis, {((0,), (1,)): 1})


def test_comultiply_three_letters_hand_expansion():
    # (x, y, x) splits as x (x) (y,x) + (-1)^(|x||y|) y (x) (x,x) + (x,y) (x) x
    basis = small_basis()
    got = comultiply(basis, (0, 1, 0))
    want = TensorPairElement(
        basis,
        {((0,), (1, 0)): 1, ((1,), (0, 0)): 1, ((0, 1), (0,)): 1},
    )
    assert got == want


def test_comultiply_koszul_cancellation():
    # both singleton unshuffles of (y, y, .) pick up opposite signs and cancel
    basis = small_basis()
    got = comultiply(basis, (1, 1, 0))
    assert got == TensorPairElement(basis, {((1, 1), (0,)): 1})


def test_comultiply_rejects_empty_word():
    with pytest.raises(MalformedInputError):
        comultiply(small_basis(), ())


def test_vector_constructors_reject_bad_keys():
    basis = small_basis()
    bad = [
        (Element, {2: 1}),
        (Element, {-1: 1}),
        (TensorElement, {(): 1}),
        (TensorElement, {(0, 2): 1}),
        (TensorPairElement, {((), (0,)): 1}),
        (TensorPairElement, {((0,), ()): 1}),
        (TensorPairElement, {((0,), (2,)): 1}),
        (TensorPairElement, {((-1,), (0,)): 1}),
    ]
    for cls, coeffs in bad:
        with pytest.raises(MalformedInputError):
            cls(basis, coeffs)


def test_arithmetic_results_hold_nonzero_fractions():
    basis = small_basis()
    x = Element(basis, {0: 1, 1: Fraction(1, 2)})
    t = TensorElement(basis, {(0, 1): 2, (1,): -1})
    p = TensorPairElement(basis, {((0,), (1,)): 3, ((1,), (1, 0)): Fraction(2, 3)})
    results = []
    for v in (x, t, p):
        results += [v + v, v - v, -v, v.scale(0), v.scale(2), v.scale(Fraction(-1, 3)), 3 * v]
        results.append(v + v.scale(-1))
    results.append(comultiply(basis, (1, 1, 0)))
    spec = lift_coderivation(MultiOp(basis, 2, 1, {(0, 0): basis.vector(1)}))
    results.append(evaluate_coderivation(spec, (0, 0, 1, 0)))
    for result in results:
        assert all(type(c) is Fraction and c for c in result.coeffs.values()), result


def test_word_degree_sums_letter_degrees():
    basis = small_basis()
    assert word_degree(basis, (0, 1, 1)) == 2
    assert word_degree(basis, ()) == 0


def test_tensor_element_arithmetic():
    basis = small_basis()
    a = TensorElement(basis, {(0, 1): Fraction(1, 2)})
    b = TensorElement(basis, {(0, 1): Fraction(1, 2), (1,): 1})
    assert (a + a) - b == TensorElement(basis, {(0, 1): Fraction(1, 2), (1,): -1})
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    assert b.items() == [((1,), Fraction(1)), ((0, 1), Fraction(1, 2))]


def test_dual_leibniz_on_fixture_bases(docs):
    for name in ("endo2", "heisab", "quartic"):
        verdict = check_dual_leibniz(docs[name].to_basis(), max_len=4)
        assert verdict.passed, name


def test_lift_single_component_spec():
    bracket = shipped.load_fixture("endo2").to_bracket()
    spec = lift_coderivation(bracket)
    assert spec.arities() == [2]
    assert spec.degree == bracket.degree
    assert spec.components[2] == bracket


def test_decompose_k_sums_to_full_lift():
    bracket = shipped.load_fixture("endo2").to_bracket()
    basis = bracket.basis
    spec = lift_coderivation(bracket)
    for word in itertools.product(range(len(basis)), repeat=3):
        total = TensorElement.zero(basis)
        for k in range(bracket.arity, len(word) + 1):
            total = total + decompose_k(bracket, k, basis, word)
        assert total == evaluate_coderivation(spec, word)


def test_decompose_k_zero_outside_range():
    bracket = shipped.load_fixture("endo2").to_bracket()
    basis = bracket.basis
    assert decompose_k(bracket, 1, basis, (0, 1)).is_zero()
    assert decompose_k(bracket, 3, basis, (0, 1)).is_zero()


def test_decompose_k_preserves_last_letter_below_word_length():
    bracket = shipped.load_fixture("endo2").to_bracket()
    basis = bracket.basis
    word = (0, 1, 2, 3)
    for k in range(2, len(word)):
        te = decompose_k(bracket, k, basis, word)
        assert te.terms
        assert all(w[-1] == word[-1] for w in te.terms)


def test_corestriction_round_trip():
    # on words of the operation's arity the lift has a single-letter part
    # that recovers the operation itself
    doc = shipped.load_fixture("endo2")
    for op in (doc.to_bracket(), doc.to_family().delta(0)):
        spec = lift_coderivation(op)
        basis = op.basis
        for word in itertools.product(range(len(basis)), repeat=op.arity):
            got = corestriction(evaluate_coderivation(spec, word))
            assert got == op.apply_indices(word)


def test_corestriction_drops_longer_words():
    basis = small_basis()
    te = TensorElement(basis, {(0,): 2, (0, 1): 5})
    assert corestriction(te).coeffs == {0: Fraction(2)}


def test_lifted_fixture_maps_are_coderivations(docs):
    for name in ("endo2", "heisab"):
        doc = docs[name]
        fam = doc.to_family()
        ops = [doc.to_bracket()] + [fam.delta(n) for n in range(fam.order + 1)]
        for op in ops:
            if op.is_zero():
                continue
            verdict = check_coderivation_axiom(lift_coderivation(op), max_len=4)
            assert verdict.passed, (name, op.arity, op.degree)


def test_corrupted_lift_fails_coderivation_axiom():
    # keeping only the k = arity summand of the lift breaks the axiom on
    # longer words even though single letters still look fine
    bracket = shipped.load_fixture("endo2").to_bracket()
    basis = bracket.basis
    spec = lift_coderivation(bracket)

    def truncated(word):
        return decompose_k(bracket, bracket.arity, basis, word)

    verdict = check_coderivation_axiom(spec, max_len=3, evaluate=truncated)
    assert not verdict.passed
    assert all(len(v.site) >= 3 for v in verdict.violations)


def test_evaluate_on_tensor_is_linear():
    bracket = shipped.load_fixture("heisab").to_bracket()
    basis = bracket.basis
    spec = lift_coderivation(bracket)
    a = TensorElement(basis, {(0, 2): 1})
    b = TensorElement(basis, {(2, 0): Fraction(3, 2)})
    combined = evaluate_on_tensor(spec, a + b)
    assert combined == evaluate_on_tensor(spec, a) + evaluate_on_tensor(spec, b)


def test_coderivation_spec_validates_components():
    basis = small_basis()
    op = MultiOp(basis, 1, 1, {(0,): TensorElement(basis, {}).basis.vector(1)})
    with pytest.raises(MalformedInputError):
        CoderivationSpec(basis, 0, {1: op})
    with pytest.raises(MalformedInputError):
        CoderivationSpec(basis, 1, {2: op})


def test_hom_bracket_shape_and_antisymmetry():
    doc = shipped.load_fixture("endo2")
    fam = doc.to_family()
    d0, d1 = fam.delta(0), fam.delta(1)
    hb = hom_bracket(d0, d1)
    assert hb.arity == 1 and hb.degree == 2
    sign = -1 if (d0.degree * d1.degree) % 2 else 1
    assert hom_bracket(d1, d0).scale(-sign) == hb
    # odd self-bracket is twice the composite square
    assert hom_bracket(d0, d0) == commutator(d0, d0)


def test_hom_bracket_lift_agreement(docs):
    doc = docs["endo2"]
    bracket = doc.to_bracket()
    fam = doc.to_family()
    pairs = [
        (fam.delta(0), fam.delta(1)),
        (fam.delta(0), bracket),
        (bracket, bracket),
    ]
    for f, g in pairs:
        verdict = check_hom_bracket_lift_agreement(f, g, max_len=3)
        assert verdict.passed, (f.arity, g.arity)

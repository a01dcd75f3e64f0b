"""Tensor coalgebra words, comultiplication, and coderivation lifts."""

from __future__ import annotations

import ast
import functools
import importlib
import itertools
import math
import pkgutil
import random
import re
from fractions import Fraction

import pytest

import oracles
import shleibniz
from shleibniz import coalgebra, graded, runner
from shleibniz import fixtures as shipped
from shleibniz.coalgebra import (
    CoderivationSpec,
    TensorElement,
    TensorPairElement,
    check_coderivation_axiom,
    check_dual_leibniz,
    comultiply,
    evaluate_coderivation,
    extend_linearly,
    hom_bracket,
    lift_coderivation,
)
from shleibniz.derived import build_codifferential, check_codifferential
from shleibniz.errors import EngineError, MalformedInputError, MCRejectionError
from shleibniz.gauge import build_xi, exp_xi, gauge_transform, mc_to_deformation
from shleibniz.graded import Element, GradedBasis, SparseVector, koszul_sign, unshuffles
from shleibniz.linalg import derivation_basis
from shleibniz.multiop import (
    DgLeibnizAlgebra,
    MultiOp,
    check_derivation,
    check_leibniz_identity,
    n_i_d,
    nary_bracket,
)
from shleibniz.results import Verdict, Violation
from shleibniz.runner import RunOptions, run_command
from oracles import (
    SIGN_CACHES,
    Perturbation,
    apply,
    apply_indices,
    assert_no_dense_api,
    corestriction,
    decompose_k,
    index_tuples,
    mc_element,
    perturbation,
    perturbed_family,
    perturbed_text,
    tabulate,
    word_degree,
)
from test_derived import random_op
from test_multiop import compose, dense_commutator, dense_compose


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


def is_canonical(c) -> bool:
    """Nonzero, and an int (not a bool) or a Fraction with denominator > 1."""
    return bool(c) and (type(c) is int or (type(c) is Fraction and c.denominator > 1))


def assert_canonical(vectors) -> bool:
    """Every stored coefficient is canonical, of vectors or of an operation's
    coefficient dicts; True if any carries a denominator."""
    rational = False
    for vec in vectors:
        coeffs = vec.coeffs if isinstance(vec, SparseVector) else vec
        assert all(is_canonical(c) for c in coeffs.values()), vec
        rational = rational or any(type(c) is Fraction for c in coeffs.values())
    return rational


def test_stored_coefficients_are_canonical_exact_scalars():
    basis = small_basis()
    x = Element(basis, {0: 1, 1: Fraction(1, 2)})
    t = TensorElement(basis, {(0, 1): 2, (1,): -1})
    p = TensorPairElement(basis, {((0,), (1,)): 3, ((1,), (1, 0)): Fraction(2, 3)})
    results = []
    for v in (x, t, p):
        results += [v + v, v - v, -v, v.scale(0), v.scale(2), v.scale(Fraction(-1, 3)), 3 * v]
        results += [v + v.scale(-1), v.scale(Fraction(6, 2)), v.scale(6).scale(Fraction(1, 6))]
        results.append(v.scale(Fraction(3, 2)) + v.scale(Fraction(1, 2)))
    results.append(Element(basis, {0: Fraction(4, 2), 1: Fraction(-4, 6)}))
    results.append(comultiply(basis, (1, 1, 0)))
    op = MultiOp(basis, 2, 1, {(0, 0): {1: 1}})
    spec = lift_coderivation(op)
    word_image = evaluate_coderivation(spec, (0, 0, 1, 0))
    results += [word_image, decompose_k(op, 2, basis, (0, 0, 1, 0)), corestriction(word_image)]
    results += [apply(op, [x, x]), apply(op.scale(Fraction(1, 2)), [x, x])]
    results.append(extend_linearly(t, lambda w: comultiply(basis, w + (0,)), TensorPairElement))
    unit = Element(basis, {0: Fraction(1, 2)}).scale(2).coeffs[0]
    assert unit == 1 and type(unit) is int
    assert assert_canonical(results)
    # witnesses of the engine: the scattered square of a codifferential with a
    # half-integral chain constant
    tweak = Perturbation(0, "E01", "E00", Fraction(1, 2))
    engine = check_codifferential(perturbed_family(shipped.load_fixture("endo2"), tweak), 3)
    assert not engine.passed
    assert assert_canonical(v.residual for v in engine.violations)


def test_genuinely_rational_outputs_are_canonical():
    doc = shipped.load_fixture("endo2")
    fam, gauge = doc.to_family(), doc.to_gauge()
    basis = fam.basis
    spec = build_xi(gauge)
    # the 1/p! terms of the exponential series
    images = [exp_xi(spec, w) for n in (2, 3) for w in index_tuples(basis, n)]
    assert assert_canonical(images)
    transformed = gauge_transform(fam.extended(fam.order + 2), gauge)
    assert assert_canonical(c for d in transformed.deltas for c in d.constants.values())
    # Maurer-Cartan: the (1/2){theta, theta} residual, and an accepted element
    quartic = shipped.load_fixture("quartic").to_bracket()
    flat = DgLeibnizAlgebra(quartic.basis, quartic, MultiOp.zero(quartic.basis, 1, 1))
    with pytest.raises(MCRejectionError) as rejected:
        mc_to_deformation(flat, mc_element("quartic"))
    assert assert_canonical([rejected.value.residual])
    algebra = DgLeibnizAlgebra(basis, fam.bracket, fam.delta(0))
    induced = mc_to_deformation(algebra, mc_element("endo2"))
    assert_canonical(c for d in induced.deltas for c in d.constants.values())
    # linalg solves over the rationals and builds its operations through op_from_terms
    derivations = [
        c for name in ("endo2", "heis3w", "quartic")
        for d in derivation_basis(shipped.load_fixture(name).to_bracket())
        for c in d.constants.values()
    ]
    assert derivations
    assert_canonical(derivations)


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
            assert got == apply_indices(op, word)


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
    # longer words even though single letters still look fine; the engine
    # proves lifts only, so the corrupted map goes through the dense walk
    bracket = shipped.load_fixture("endo2").to_bracket()
    basis = bracket.basis
    spec = lift_coderivation(bracket)

    def truncated(word):
        return decompose_k(bracket, bracket.arity, basis, word)

    violations = dense_check_coderivation_axiom(spec, 3, truncated)
    assert violations
    assert all(len(v.site) >= 3 for v in violations)


def dense_check_dual_leibniz(basis: GradedBasis, max_len: int) -> list[Violation]:
    """check_dual_leibniz as a walk over every word, before parity patterns."""
    split = functools.cache(lambda word: comultiply(basis, word).terms)
    violations = []
    for length in range(1, max_len + 1):
        for word in index_tuples(basis, length):
            delta = split(word)
            lhs: dict = {}
            for (w1, w2), c in delta.items():
                for (w21, w22), c2 in split(w2).items():
                    key = (w1, w21, w22)
                    lhs[key] = lhs.get(key, 0) + c * c2
            rhs: dict = {}
            for (w1, w2), c in delta.items():
                for (w11, w12), c1 in split(w1).items():
                    key = (w11, w12, w2)
                    rhs[key] = rhs.get(key, 0) + c * c1
                    swap = -1 if (word_degree(basis, w11) * word_degree(basis, w12)) % 2 else 1
                    skey = (w12, w11, w2)
                    rhs[skey] = rhs.get(skey, 0) + swap * c * c1
            diff = dict(lhs)
            for k, c in rhs.items():
                diff[k] = diff.get(k, 0) - c
            diff = {k: c for k, c in diff.items() if c}
            if diff:
                witness = next(iter(sorted(diff)))
                names = tuple(basis.names[i] for i in word)
                detail = f"first mismatched triple {witness}: {diff[witness]}"
                violations.append(Violation("dual-leibniz", names, None, detail))
    return violations


def dense_check_coderivation_axiom(
    spec: CoderivationSpec, max_len: int, evaluate=None
) -> list[Violation]:
    """check_coderivation_axiom as a walk over every word, before parity patterns."""
    basis = spec.basis
    if evaluate is None:
        evaluate = lambda word: evaluate_coderivation(spec, word)
    lift = functools.cache(evaluate)
    split = functools.cache(lambda word: comultiply(basis, word))
    violations = []
    for length in range(1, max_len + 1):
        for word in index_tuples(basis, length):
            lhs = extend_linearly(lift(word), split, TensorPairElement)
            acc: dict = {}
            for (w1, w2), c in split(word).terms.items():
                for w1p, c1 in lift(w1).terms.items():
                    acc[w1p, w2] = acc.get((w1p, w2), Fraction(0)) + c * c1
                jump = -1 if (spec.degree * word_degree(basis, w1)) % 2 else 1
                for w2p, c2 in lift(w2).terms.items():
                    acc[w1, w2p] = acc.get((w1, w2p), Fraction(0)) + jump * c * c2
            residual = lhs - TensorPairElement(basis, acc)
            if not residual.is_zero():
                names = tuple(basis.names[i] for i in word)
                violations.append(Violation("coderivation-axiom", names, residual))
    return violations


def test_corrupted_codifferential_matches_its_per_word_loop(docs, family_names):
    # a perturbed codifferential is still a lift, so the engine proves it a
    # coderivation as the dense walk finds; truncating its lift breaks the
    # axiom, which only the dense walk, calling the map once per word, sees
    for name in family_names:
        bad = perturbed_family(docs[name], perturbation(name))
        spec = build_codifferential(bad)
        basis = spec.basis
        assert check_coderivation_axiom(spec, max_len=3) == Verdict(True, [])
        assert dense_check_coderivation_axiom(spec, 3) == [], name
        calls: list = []

        def truncated(word):
            calls.append(word)
            total = TensorElement.zero(basis)
            for op in spec.components.values():
                total = total + decompose_k(op, op.arity, basis, word)
            return total

        assert dense_check_coderivation_axiom(spec, 3, truncated), name
        assert len(calls) == len(set(calls)), name


def test_evaluate_on_tensor_is_linear():
    bracket = shipped.load_fixture("heisab").to_bracket()
    basis = bracket.basis
    spec = lift_coderivation(bracket)
    a = TensorElement(basis, {(0, 2): 1})
    b = TensorElement(basis, {(2, 0): Fraction(3, 2)})

    def lift(te):
        return extend_linearly(te, lambda w: evaluate_coderivation(spec, w), TensorElement)

    assert lift(a + b) == lift(a) + lift(b)


def test_coderivation_spec_validates_components():
    basis = small_basis()
    op = MultiOp(basis, 1, 1, {(0,): {1: 1}})
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


def check_hom_bracket_lift_agreement(f: MultiOp, g: MultiOp, max_len: int = 4) -> Verdict:
    """Oracle: the lift of (f, g) equals the commutator of the lifts.

    [f^c, g^c] = f^c g^c - (-1)^(|f||g|) g^c f^c, compared word by word for
    lengths <= max_len.  The lifts of f and g are computed at most once per
    word; the lift of (f, g) is needed once per word anyway.
    """
    basis = f.basis
    bracket_lift = lift_coderivation(hom_bracket(f, g))
    f_spec, g_spec = lift_coderivation(f), lift_coderivation(g)
    f_lift = functools.cache(lambda word: evaluate_coderivation(f_spec, word))
    g_lift = functools.cache(lambda word: evaluate_coderivation(g_spec, word))
    sign = -1 if (f.degree * g.degree) % 2 else 1
    violations: list[Violation] = []
    for length in range(1, max_len + 1):
        for word in index_tuples(basis, length):
            lhs = evaluate_coderivation(bracket_lift, word)
            rhs = extend_linearly(g_lift(word), f_lift, TensorElement) - (
                extend_linearly(f_lift(word), g_lift, TensorElement).scale(sign)
            )
            residual = lhs - rhs
            if not residual.is_zero():
                violations.append(
                    Violation(
                        "hom-bracket-lift",
                        tuple(basis.names[i] for i in word),
                        residual,
                    )
                )
    return Verdict.from_violations(violations)


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


def dense_hom_bracket(f: MultiOp, g: MultiOp, lift) -> MultiOp:
    """hom_bracket as first written: f . g^c - (-1)^(|f||g|) g . f^c
    tabulated on every one of the dim^(i+j-1) keys, with lift(op, word) the
    lift of op on one word (shared_lifts)."""
    sign = -1 if (f.degree * g.degree) % 2 else 1

    def fn(key: tuple[int, ...]) -> Element:
        # corestrict f . g^c, then subtract sign * g . f^c
        out: dict = {}
        for op, other, scale in ((f, g, 1), (g, f, -sign)):
            for word, c in lift(other, key).terms.items():
                assert len(word) == op.arity
                for i, ci in op.constants.get(word, {}).items():
                    out[i] = out.get(i, 0) + scale * c * ci
        return Element(f.basis, out)

    return tabulate(f.basis, f.arity + g.arity - 1, f.degree + g.degree, fn)


def insertions(bracket: MultiOp, unary: list[MultiOp], max_arity: int) -> list[MultiOp]:
    """The bracket, N_3, and N_i of every unary op for i <= max_arity, nonzero only."""
    ops = [bracket, nary_bracket(bracket, 3)]
    ops += [n_i_d(bracket, d, i) for d in unary for i in range(1, max_arity + 1)]
    return [op for op in ops if not op.is_zero()]


def scrambled_op(basis: GradedBasis, degree: int, seed: int) -> MultiOp:
    """An arity-1 operation of the given degree with small random integer entries."""
    rng = random.Random(seed)
    constants = {}
    for x in range(len(basis)):
        target = [y for y in range(len(basis)) if basis.degree(y) == basis.degree(x) + degree]
        constants[(x,)] = {y: rng.randint(-2, 2) for y in target}
    return MultiOp(basis, 1, degree, constants)


def hom_bracket_oracle_pools(docs, generated) -> list[tuple[str, MultiOp, list[MultiOp], int]]:
    """(label, bracket, operations, largest arity of a hom bracket) for the
    oracle test."""
    pools = []
    for seed, (name, doc) in enumerate(sorted(docs.items())):
        bracket = doc.to_bracket()
        fam, gauge = doc.to_family(), doc.to_gauge()
        unary = [d for d in fam.deltas if not d.is_zero()] if fam else []
        unary += list(gauge.xis) if gauge else []
        pools.append((name, bracket, insertions(bracket, unary, 3), 4))
        scrambled = scrambled_op(bracket.basis, 1, seed)
        pools.append((f"{name} scrambled", bracket, insertions(bracket, [scrambled], 3), 4))
    doc = generated["endo2(x)Q[t]/t^2"]
    unary = [d for d in doc.to_family().deltas if not d.is_zero()] + list(doc.to_gauge().xis)
    bracket = doc.to_bracket()
    pools.append(("endo2(x)Q[t]/t^2", bracket, insertions(bracket, unary, 2), 3))
    # {e, e} = e and {e, f} = {f, e} = f with e even and f odd: not Leibniz
    basis = GradedBasis(("e", "f"), (0, 1))
    square = MultiOp(basis, 2, 0, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
    assert check_leibniz_identity(square)
    pools.append(("square", square, insertions(square, [scrambled_op(basis, 1, 5)], 3), 4))
    # sparse random operations of every arity up to 3 over mixed parities
    rng = random.Random(20093)
    basis = GradedBasis(("a", "b", "c", "d"), (0, 1, 1, 2))
    ops = [
        random_op(basis, arity, degree, rng, density=0.5)
        for arity in (1, 2, 3)
        for degree in (0, 1, 1, 2, -1)
    ]
    ops = [op for op in ops if not op.is_zero()]
    bracket = next(op for op in ops if (op.arity, op.degree) == (2, 0))
    pools.append(("random", bracket, ops, 4))
    return pools


def shared_letter(f: MultiOp, g: MultiOp) -> bool:
    """Whether g feeds some key of f whose letters before the fed letter
    share one with the key of g, so that two interleavings give one key."""
    for gk, image in g.constants.items():
        for fk in f.constants:
            for p, z in enumerate(fk):
                if z in image and set(fk[:p]) & set(gk[:-1]):
                    return True
    return False


def shared_lifts(ops: list[MultiOp]):
    """lift(op, word) for the operations in ops, each evaluated once per word."""
    specs = {id(op): lift_coderivation(op) for op in ops}
    table = functools.cache(lambda key, word: evaluate_coderivation(specs[key], word))
    return lambda op, word: table(id(op), word)


@pytest.fixture(scope="module")
def hom_bracket_oracle(docs, generated) -> list[tuple[str, MultiOp, MultiOp, MultiOp]]:
    """(label, f, g, dense_hom_bracket(f, g, lift)) for every pair of an oracle pool
    whose bracket has at most the pool's largest arity.  Each operation of a
    pool is lifted once per word across the pool's pairs."""
    oracle = []
    for label, _, ops, max_arity in hom_bracket_oracle_pools(docs, generated):
        lift = shared_lifts(ops)
        oracle += [
            (label, f, g, dense_hom_bracket(f, g, lift))
            for f, g in itertools.product(ops, repeat=2)
            if f.arity + g.arity - 1 <= max_arity
        ]
    return oracle


def test_hom_bracket_matches_its_dense_tabulation(docs, generated, hom_bracket_oracle):
    assert any(
        check_derivation(op, bracket)
        for _, bracket, ops, _ in hom_bracket_oracle_pools(docs, generated)
        for op in ops
        if op.arity == 1
    )
    odd = shared = 0
    for label, f, g, dense in hom_bracket_oracle:
        sparse = hom_bracket(f, g)
        assert sparse == dense, (label, f, g)
        assert list(sparse.constants) == list(dense.constants), (label, f, g)
        if not sparse.is_zero() and label == "random":
            # (-1)^(|g| |fk[:p]|) needs g odd and a letter before z
            odd += f.degree % 2 and g.degree % 2 and min(f.arity, g.arity) >= 2
            shared += shared_letter(f, g) or shared_letter(g, f)
    assert len(hom_bracket_oracle) > 800 and odd >= 10 and shared >= 20, (odd, shared)


def test_compositions_evaluate_no_lift_and_no_table(hom_bracket_oracle, monkeypatch):
    unary = [(f, g) for _, f, g, _ in hom_bracket_oracle if f.arity == g.arity == 1]
    expected = [(dense_compose(f, g), dense_commutator(f, g)) for f, g in unary]
    assert len(unary) > 100 and any(not c.is_zero() for _, c in expected)

    def refuse(*args, **kwargs):
        raise AssertionError("a composition lifted a word")

    monkeypatch.setattr(coalgebra, "evaluate_coderivation", refuse)
    assert_no_dense_api()
    for label, f, g, dense in hom_bracket_oracle:
        assert hom_bracket(f, g) == dense, (label, f, g)
    for (f, g), (composite, bracketed) in zip(unary, expected):
        assert compose(f, g) == composite and hom_bracket(f, g) == bracketed


def coalgebra_oracle_cases(docs, generated) -> list[tuple[str, GradedBasis, list[CoderivationSpec], int]]:
    """(label, basis, specs, max_len): every fixture with every shipped op, its
    codifferential and Xi (several components each) and a scrambled op; the
    dimension-8 sum endo2 + heis3w and product endo2 (x) Q[t]/t^2 at length 3."""
    cases = []
    for seed, (name, doc) in enumerate(sorted(docs.items())):
        bracket = doc.to_bracket()
        fam, gauge = doc.to_family(), doc.to_gauge()
        ops = [bracket] + (list(fam.deltas) if fam else []) + (list(gauge.xis) if gauge else [])
        ops.append(scrambled_op(bracket.basis, 1, seed))
        specs = [lift_coderivation(op) for op in ops if not op.is_zero()]
        specs += [build_codifferential(fam)] if fam else []
        specs += [build_xi(gauge)] if gauge else []
        cases.append((name, bracket.basis, specs, 4))
    for label, doc in generated.items():
        fam = doc.to_family()
        specs = [lift_coderivation(fam.bracket), lift_coderivation(fam.delta(1))]
        cases.append((label, fam.basis, specs + [build_codifferential(fam)], 3))
    return cases


def assert_certificates_match_the_dense_walk(cases) -> int:
    """Same verdicts and violation lists, in the same order; returns the
    number of violations seen."""
    seen = 0
    for label, basis, specs, max_len in cases:
        got = check_dual_leibniz(basis, max_len)
        want = dense_check_dual_leibniz(basis, max_len)
        assert (got.passed, got.violations) == (not want, want), label
        seen += len(want)
        for spec in specs:
            got = check_coderivation_axiom(spec, max_len)
            want = dense_check_coderivation_axiom(spec, max_len)
            assert (got.passed, got.violations) == (not want, want), (label, spec.arities())
            seen += len(want)
    return seen


def test_sign_caches_hold_every_cache_of_the_package():
    # a cache missing here would carry a verdict of a mutated sign into the
    # tests after it; _times holds no sign, mutated_signs replaces
    # unshuffle_forms whole, and the letter index of a MultiOp holds letters
    # and parities, never a row
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(shleibniz.__path__, "shleibniz.")
    ]
    names = {module.__name__.removeprefix("shleibniz.") for module in modules}
    assert {"coalgebra", "derived", "gauge", "graded", "multiop", "linalg"} <= names
    cached = {
        value
        for module in modules
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }
    assert cached - {coalgebra._times, graded.unshuffle_forms} <= set(SIGN_CACHES)


def test_parity_certificates_match_the_dense_walk(docs, generated, fresh_certificates):
    assert assert_certificates_match_the_dense_walk(coalgebra_oracle_cases(docs, generated)) == 0


def test_parity_certificates_match_the_dense_walk_on_generated_bases(fresh_certificates):
    rng = random.Random(7)
    cases = []
    for n in range(6):
        dim = rng.randint(1, 4)
        basis = GradedBasis(
            tuple(f"e{k}" for k in range(dim)), tuple(rng.randint(-2, 2) for _ in range(dim))
        )
        specs = [lift_coderivation(scrambled_op(basis, degree, n)) for degree in (0, 1)]
        specs = [spec for spec in specs if spec.components]
        cases.append((f"generated {n}", basis, specs, 4))
    assert assert_certificates_match_the_dense_walk(cases) == 0


def dual_pattern_certified(pattern: tuple[int, ...]) -> bool:
    """Whether the dual Leibniz proof of the pattern's length passes it."""
    return pattern not in coalgebra._dual_leibniz_failures(len(pattern))


def arities_certified(pattern: tuple[int, ...], arities, parity: int) -> bool:
    """Whether the per-arity proofs of the pattern's length pass it for
    every one of these arities: the engine's verdict on a lift with
    components of these arities."""
    n = len(pattern)
    return all(pattern not in coalgebra._coderivation_failures(n, a, parity) for a in arities)


def lift_pattern_certified(spec: CoderivationSpec, pattern: tuple[int, ...]) -> bool:
    """The certificate of spec's lift on one parity pattern: proved for each
    component arity that fits in it, or vacuous when none does."""
    fitting = [a for a in spec.arities() if a <= len(pattern)]
    return arities_certified(pattern, fitting, spec.degree % 2)


def assert_failing_patterns_cover_the_dense_walk(cases) -> int:
    """Every dense witness lies on a parity pattern that does not certify,
    and wherever the dense walk finds one the engine check raises
    EngineError naming a pattern that does not certify; returns the number
    of witnesses seen."""
    seen = 0
    for label, basis, specs, max_len in cases:
        parity = {name: d % 2 for name, d in zip(basis.names, basis.degrees)}
        checks = [
            (
                functools.partial(check_dual_leibniz, basis, max_len),
                dense_check_dual_leibniz(basis, max_len),
                dual_pattern_certified,
            )
        ]
        for spec in specs:
            checks.append(
                (
                    functools.partial(check_coderivation_axiom, spec, max_len),
                    dense_check_coderivation_axiom(spec, max_len),
                    functools.partial(lift_pattern_certified, spec),
                )
            )
        for check, want, certified in checks:
            for v in want:
                assert not certified(tuple(parity[x] for x in v.site)), (label, v.site)
            if want:
                with pytest.raises(EngineError, match="parity pattern") as raised:
                    check()
                named = re.search(r"parity pattern (\([0-9, ]+\))", str(raised.value)).group(1)
                assert not certified(ast.literal_eval(named)), (label, named)
            seen += len(want)
    return seen


def indicator(target: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The monomials of the polynomial over F_2 that is 1 exactly on the
    parity tuple target: the product of y_a over target's ones and of
    1 + y_a over its zeros, expanded."""
    ones = tuple(a for a, t in enumerate(target) if t)
    zeros = [a for a, t in enumerate(target) if not t]
    extra = (c for r in range(len(zeros) + 1) for c in itertools.combinations(zeros, r))
    return tuple(tuple(sorted(ones + c)) for c in extra)


@pytest.mark.parametrize("target", [(0, 1), (1, 1)])
def test_parity_certificates_match_the_dense_walk_under_a_flipped_sign(
    docs, generated, mutated_signs, target
):
    # flipping the Koszul sign of every two-symbol unshuffle on one parity
    # tuple, in the sign source, breaks comultiply and the lifts on the
    # generic and the concrete words alike: each dense witness must lie on a
    # pattern the symbolic proof fails, and the engine must refuse the check
    flip = indicator(target)

    def flipped(p, q, rows):
        if p + q != 2:
            return rows
        return tuple((first, second, form + flip, sgn) for first, second, form, sgn in rows)

    mutated_signs(flipped)
    for p in range(3):
        for row, sigma in zip(graded.signed_unshuffles(p, 2 - p, target), unshuffles(p, 2 - p)):
            assert row[2] == -koszul_sign(sigma, target), (p, sigma)
    cases = [case for case in coalgebra_oracle_cases(docs, generated) if case[3] == 4]
    assert assert_failing_patterns_cover_the_dense_walk(cases) > 100
    # some patterns of length 4 still certify, so the covering says something
    verdicts = {dual_pattern_certified(p) for p in itertools.product((0, 1), repeat=4)}
    assert verdicts == {True, False}


def random_spec(rng: random.Random, degree: int) -> CoderivationSpec:
    """A coderivation of the given degree over a random basis of two or three
    letters, with constants on about half the keys of each of one to three
    arities among 1, 2 and 3."""
    dim = rng.choice((2, 3))
    basis = GradedBasis(
        tuple(f"x{i}" for i in range(dim)), tuple(rng.choice((-1, 0, 1, 2)) for _ in range(dim))
    )
    arities = rng.sample((1, 2, 3), rng.randint(1, 3))
    return CoderivationSpec(
        basis, degree, {a: random_op(basis, a, degree, rng, density=0.5) for a in arities}
    )


def test_scattered_lift_matches_the_lift_on_every_short_word():
    # every word of length <= 4, repeated letters included, in (length, word)
    # order; words whose lift terms all cancel must be left out
    rng = random.Random(1709)
    parities, cancelled, nonzero = set(), 0, 0
    for trial in range(40):
        spec = random_spec(rng, rng.choice((-1, 0, 1, 2)))
        parities.add(spec.degree % 2)
        want = []
        for word in (w for n in range(1, 5) for w in index_tuples(spec.basis, n)):
            value = evaluate_coderivation(spec, word)
            if not value.is_zero():
                want.append((word, value))
                continue
            parity = tuple(spec.basis.degree(i) % 2 for i in word)
            cancelled += any(
                True
                for op in spec.components.values()
                for k in range(op.arity, len(word) + 1)
                for _ in coalgebra._lift_terms(op, word, parity, k)
            )
        assert list(coalgebra.scattered_lift(spec, 4)) == want, trial
        nonzero += len(want)
    assert parities == {0, 1}
    assert nonzero > 1000 and cancelled >= 10, (nonzero, cancelled)


def test_first_violation_builds_no_lift_value_past_its_witness(monkeypatch):
    # endo2 (x) Q[t]/t^2 with E01 -> E00 added to delta_0 fails well below
    # length 6; under the flag the scatter stops at the witness's length, so
    # no value of the square's lift has a word longer than the witness, and
    # the square's lift (degree 2, parity 0) is proved a coderivation no
    # further; partial (parity 1) is still proved up to 6 for the verdict
    doc = shipped.tensor_dual_numbers(shipped.load_fixture("endo2"), "endo2xt")
    basis = doc.to_basis()
    lengths = []
    proved = {0: [], 1: []}
    real = TensorElement._trusted.__func__
    real_failures = coalgebra._coderivation_failures

    def recorded(cls, on, coeffs):
        if on == basis:
            lengths.extend(len(word) for word in coeffs)
        return real(cls, on, coeffs)

    def failures(n, arity, parity):
        proved[parity].append(n)
        return real_failures(n, arity, parity)

    monkeypatch.setattr(TensorElement, "_trusted", classmethod(recorded))
    monkeypatch.setattr(coalgebra, "_coderivation_failures", failures)
    options = RunOptions(max_word_len=6, first_violation=True)
    (result,) = run_command("check-codifferential", perturbed_text("endo2", doc), options).results
    (witness,) = result.violations
    assert len(witness.site) < 6 and lengths, (witness.site, lengths)
    assert max(lengths) <= len(witness.site), (witness.site, max(lengths))
    assert max(proved[1]) == 6 and proved[0], proved
    assert max(proved[0]) <= len(witness.site), (witness.site, max(proved[0]))


def test_patterns_no_component_fits_are_certified_without_a_proof(monkeypatch):
    def refuse(n, arity, parity):
        raise AssertionError(f"proved length {n} for arity {arity}")

    monkeypatch.setattr(coalgebra, "_coderivation_failures", refuse)
    basis = GradedBasis(("x", "y"), (0, 1))
    spec = CoderivationSpec(basis, 0, {3: MultiOp(basis, 3, 0, {(0, 0, 1): {basis.index("y"): 1}})})
    assert check_coderivation_axiom(spec, 2) == Verdict(True, [])
    # a spec with no component, such as Xi of an empty gauge, proves nothing
    assert check_coderivation_axiom(CoderivationSpec(basis, 0, {}), 5) == Verdict(True, [])
    with pytest.raises(AssertionError):
        check_coderivation_axiom(spec, 3)


def test_a_failing_certificate_names_the_least_pattern_over_the_basis_parities(monkeypatch):
    # length 2 fails (1, 1), (0, 1) and (1, 0): a basis of both parities
    # names the least of them, an all-even basis meets none and passes
    chosen = frozenset({(1, 1), (0, 1), (1, 0)})

    def failures(n, *rest):
        return chosen if n == 2 else frozenset()

    monkeypatch.setattr(coalgebra, "_dual_leibniz_failures", failures)
    monkeypatch.setattr(coalgebra, "_coderivation_failures", failures)
    for degrees, named in (((0, 1), "(0, 1)"), ((0, 2), None)):
        basis = GradedBasis(("x", "y"), degrees)
        spec = lift_coderivation(MultiOp(basis, 1, 0, {(0,): {basis.index("x"): 1}}))
        for check in (
            functools.partial(check_dual_leibniz, basis, 3),
            functools.partial(check_coderivation_axiom, spec, 3),
        ):
            if named is None:
                assert check() == Verdict(True, [])
                continue
            with pytest.raises(EngineError, match=re.escape(f"parity pattern {named};")):
                check()


# the arity sets whose lifts the commands certify, and more
CERTIFIED_ARITIES = ((1,), (2,), (1, 2), (2, 3), (1, 2, 3), (1, 2, 3, 4))


def symbolic_against_the_oracle(max_len: int, arity_sets) -> tuple[int, int]:
    """Asserts that the symbolic verdict equals the one-pattern oracle on
    every parity pattern up to max_len, for dual Leibniz and for the lift of
    each arity set with either degree parity; returns the numbers of failing
    and of certifying verdicts.  The oracle lifts an arity set jointly, the
    engine proves each arity alone, so this checks that the residual splits
    by arity."""
    verdicts = []
    for n in range(1, max_len + 1):
        for pattern in itertools.product((0, 1), repeat=n):
            got = dual_pattern_certified(pattern)
            assert got == oracles.dual_leibniz_certified(pattern), pattern
            verdicts.append(got)
            for arities in arity_sets:
                fitting = tuple(a for a in arities if a <= n)
                for parity in (0, 1) if fitting else ():
                    got = arities_certified(pattern, fitting, parity)
                    want = oracles.coderivation_certified(pattern, fitting, parity)
                    assert got == want, (pattern, fitting, parity)
                    verdicts.append(got)
    return verdicts.count(False), verdicts.count(True)


def test_symbolic_pattern_proofs_match_the_one_pattern_oracle(fresh_certificates):
    failing, certified = symbolic_against_the_oracle(6, CERTIFIED_ARITIES)
    assert failing == 0 and certified > 1000, (failing, certified)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symbolic_pattern_proofs_match_the_oracle_under_a_mutated_sign(mutated_signs, seed):
    # one extra monomial in one row of one small unshuffle table of the sign
    # source: the generic residuals no longer cancel group by group, and the
    # exact evaluation must fail exactly the patterns the oracle fails
    rng = random.Random(seed)
    size = rng.choice((2, 3))
    p = rng.randint(0, size)
    r = rng.randrange(math.comb(size, p))
    monomial = tuple(sorted(rng.sample(range(size), rng.choice((1, 2)))))

    def mutate(pp, qq, rows):
        if (pp, qq) != (p, size - p):
            return rows
        first, second, form, sgn = rows[r]
        return rows[:r] + ((first, second, form + (monomial,), sgn),) + rows[r + 1 :]

    mutated_signs(mutate)
    # a failing symbolic verdict comes only from the exact evaluation
    failing, certified = symbolic_against_the_oracle(5, CERTIFIED_ARITIES[:4])
    assert failing and certified, (failing, certified)


def test_a_sign_monomial_of_three_symbols_is_refused(mutated_signs):
    # the sign source pairs two symbols per inversion; a three-symbol
    # monomial cannot be an affine product, so the symbolic proofs that read
    # its table, at length 4 here, refuse it rather than misread it
    def mutate(p, q, rows):
        if (p, q) != (1, 2):
            return rows
        first, second, form, sgn = rows[0]
        return ((first, second, form + ((0, 1, 2),), sgn),) + rows[1:]

    mutated_signs(mutate)
    basis = GradedBasis(("x", "y"), (0, 1))
    spec = lift_coderivation(MultiOp(basis, 1, 0, {(0,): {basis.index("x"): 1}}))
    assert check_dual_leibniz(basis, 3) == Verdict(True, [])
    for check in (
        functools.partial(check_dual_leibniz, basis, 4),
        functools.partial(check_coderivation_axiom, spec, 4),
    ):
        with pytest.raises(EngineError, match=re.escape("monomial (0, 1, 2) of more than two")):
            check()


def test_check_coalgebra_builds_one_generic_residual_per_length(fresh_certificates, monkeypatch):
    # check-coalgebra --max-word-len 8 on endo2 certifies 2^n patterns per
    # length and lifted map; it builds each grouped residual once, per
    # (length, arity, parity), and once per length for dual Leibniz
    built = []

    def counted(name):
        real = getattr(coalgebra, name)

        def build(*args):
            built.append((name, args))
            return real(*args)

        return build

    for name in ("_dual_leibniz_residual", "_coderivation_residual"):
        monkeypatch.setattr(coalgebra, name, counted(name))
    options = RunOptions(max_word_len=8)
    report = run_command("check-coalgebra", shipped.fixture_text("endo2"), options)
    assert all(result.passed for result in report.results)
    dual = [args for name, args in built if name == "_dual_leibniz_residual"]
    lift = [args for name, args in built if name == "_coderivation_residual"]
    assert dual == [(n,) for n in range(1, 9)]
    assert len(set(lift)) == len(lift)
    # the bracket (arity 2, even) and the deltas (odd) and xi (even) of arity 1
    maps = {(arity, parity) for n, arity, parity in lift if n == 8}
    assert maps == {(2, 0), (1, 1), (1, 0)}
    assert sorted(lift) == sorted((n, a, p) for a, p in maps for n in range(a, 9))


def test_report_all_builds_each_single_arity_residual_once(fresh_certificates, monkeypatch):
    # report-all on endo2 at the default flags proves the lifts of the
    # bracket, the deltas, partial (arities 1 to 4) and Xi; every lift asks
    # for the residual of each of its arities alone, so whichever of the
    # three commands asks first builds it and no set of arities is built
    built, asked, running = [], {}, []
    real_residual = coalgebra._coderivation_residual
    real_failures = coalgebra._coderivation_failures

    def residual(*args):
        built.append(args)
        return real_residual(*args)

    def failures(*args):
        asked.setdefault(running[-1] if running else None, set()).add(args)
        return real_failures(*args)

    def during(name):
        command = getattr(runner, name)

        def run(doc, options):
            running.append(name)
            try:
                return command(doc, options)
            finally:
                running.pop()

        return run

    commands = (
        "_cmd_check_coalgebra",
        "_cmd_check_codifferential",
        "_cmd_check_gauge_equivalence",
    )
    for name in commands:
        monkeypatch.setattr(runner, name, during(name))
    monkeypatch.setattr(coalgebra, "_coderivation_residual", residual)
    monkeypatch.setattr(coalgebra, "_coderivation_failures", failures)
    report = run_command("report-all", shipped.fixture_text("endo2"), RunOptions())
    assert all(result.passed is not False for result in report.results)
    assert set(asked) == set(commands), set(asked)
    assert all(type(x) is int for args in built for x in args), built
    assert len(set(built)) == len(built)
    assert set(built) == set().union(*asked.values())
    partial = asked["_cmd_check_codifferential"]
    assert {(a, p) for n, a, p in partial} == {(1, 1), (2, 1), (3, 1), (4, 1)}, partial

"""Multilinear operations, the Leibniz identity, and nested brackets."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shleibniz import fixtures as shipped
from shleibniz.errors import MalformedInputError, PreconditionError
from shleibniz.graded import Element, GradedBasis
from shleibniz.multiop import (
    DgLeibnizAlgebra,
    LeibnizAlgebra,
    MultiOp,
    check_derivation,
    check_differential,
    check_leibniz_identity,
    check_rearrangement,
    check_skewsymmetry,
    commutator,
    compose_unary,
    identity_op,
    n_i_d,
    nary_bracket,
)


def one_dim_square() -> MultiOp:
    basis = GradedBasis(("e",), (0,))
    return MultiOp(basis, 2, 0, {(0, 0): basis.vector(0)})


def test_idempotent_bracket_fails_leibniz_with_explicit_residual():
    # {e,{e,e}} - {{e,e},e} - {e,{e,e}} = e - e - e = -e
    op = one_dim_square()
    violations = check_leibniz_identity(op)
    assert len(violations) == 1
    assert violations[0].site == ("e", "e", "e")
    assert violations[0].residual == op.basis.vector(0).scale(-1)


def test_fixture_brackets_satisfy_leibniz(docs):
    for doc in docs.values():
        assert check_leibniz_identity(doc.to_bracket()) == []


def test_multiop_validates_shapes():
    basis = GradedBasis(("x", "y"), (0, 1))
    with pytest.raises(MalformedInputError):
        MultiOp(basis, 0, 0, {})
    with pytest.raises(MalformedInputError):
        MultiOp(basis, 1, 0, {(0, 0): basis.vector(0)})
    with pytest.raises(MalformedInputError):
        MultiOp(basis, 1, 0, {(5,): basis.vector(0)})
    # degree 1 op sending x (deg 0) to x (deg 0) is inhomogeneous
    with pytest.raises(MalformedInputError):
        MultiOp(basis, 1, 1, {(0,): basis.vector(0)})
    # mixed-degree image is rejected even when the total shape is right
    with pytest.raises(MalformedInputError):
        MultiOp(basis, 1, 0, {(0,): basis.vector(0) + basis.vector(1)})


def test_multiop_drops_zero_constants():
    basis = GradedBasis(("x", "y"), (0, 1))
    op = MultiOp(basis, 1, 1, {(0,): Element(basis, {1: Fraction(0)})})
    assert op.is_zero()
    assert op == MultiOp.zero(basis, 1, 1)


def test_apply_is_multilinear():
    doc = shipped.load_fixture("endo2")
    bracket = doc.to_bracket()
    basis = bracket.basis
    x = basis.vector("E00") + basis.vector("E11").scale(Fraction(3, 2))
    y = basis.vector("E10")
    lhs = bracket.apply([x, y])
    rhs = bracket.apply([basis.vector("E00"), y]) + bracket.apply(
        [basis.vector("E11"), y]
    ).scale(Fraction(3, 2))
    assert lhs == rhs


@given(
    a=st.fractions(min_value=-4, max_value=4, max_denominator=5),
    b=st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
def test_apply_scaling_property(a, b):
    bracket = shipped.load_fixture("quartic").to_bracket()
    basis = bracket.basis
    u, v = basis.vector("u"), basis.vector("v")
    assert bracket.apply([u.scale(a), v.scale(b)]) == bracket.apply([u, v]).scale(a * b)


def test_compose_and_commutator_signs():
    basis = GradedBasis(("p", "q", "r"), (0, 1, 2))
    up1 = MultiOp(basis, 1, 1, {(0,): basis.vector(1)})
    up2 = MultiOp(basis, 1, 1, {(1,): basis.vector(2)})
    both = compose_unary(up2, up1)
    assert both.apply_indices((0,)) == basis.vector(2)
    # odd-odd commutator is an anticommutator
    assert commutator(up1, up2) == compose_unary(up1, up2) + compose_unary(up2, up1)
    even = identity_op(basis)
    assert commutator(even, up1).is_zero()


def test_derivation_rule_sign():
    # D{x,y} = {Dx,y} + (-1)^(|x||D|) {x,Dy}; an odd D over an odd x flips
    doc = shipped.load_fixture("heis3w")
    bracket = doc.to_bracket()
    delta = doc.to_family().delta(0)
    assert check_derivation(delta, bracket) == []
    basis = bracket.basis
    # break it: send g1 to w as well, then the pair (h, g0) fails
    broken = delta + MultiOp(basis, 1, 1, {(basis.index("g1"),): basis.vector("w")})
    bad = check_derivation(broken, bracket)
    assert bad
    assert ("h", "g0") in [v.site for v in bad]


def test_check_differential_flags_nonzero_square():
    doc = shipped.load_fixture("heis3w")
    bracket = doc.to_bracket()
    basis = bracket.basis
    chain = doc.to_family().delta(0) + MultiOp(
        basis, 1, 1, {(basis.index("h"),): basis.vector("w")}
    )
    verdict = check_differential(chain, bracket)
    assert not verdict.passed
    assert any(v.check == "differential-square" for v in verdict.violations)


def test_nary_bracket_is_left_nested():
    bracket = shipped.load_fixture("endo2").to_bracket()
    basis = bracket.basis
    n3 = nary_bracket(bracket, 3)
    n4 = nary_bracket(bracket, 4)
    for key in itertools.product(range(len(basis)), repeat=3):
        x, y, z = (basis.vector(k) for k in key)
        expected = bracket.apply([bracket.apply([x, y]), z])
        assert n3.apply_indices(key) == expected
    # N_4 = N_2(N_3 (x) 1)
    for key in itertools.product(range(len(basis)), repeat=4):
        inner = n3.apply_indices(key[:3])
        assert n4.apply_indices(key) == bracket.apply([inner, basis.vector(key[3])])


def test_n_i_d_inserts_in_leftmost_slot_without_signs():
    doc = shipped.load_fixture("endo2")
    bracket = doc.to_bracket()
    delta = doc.to_family().delta(0)
    basis = bracket.basis
    assert n_i_d(bracket, delta, 1) == delta
    two = n_i_d(bracket, delta, 2)
    for key in itertools.product(range(len(basis)), repeat=2):
        expected = bracket.apply([delta.apply_indices((key[0],)), basis.vector(key[1])])
        assert two.apply_indices(key) == expected


def dense_n_i_d(bracket: MultiOp, op: MultiOp, i: int) -> dict[tuple[int, ...], Element]:
    """The definition as an oracle: N_i(op x_1, x_2, ..., x_i) by explicit
    left nesting, tabulated on every one of the dim^i basis tuples."""
    basis = bracket.basis
    table = {}
    for key in basis.index_tuples(i):
        value = op.apply_indices(key[:1])
        for x in key[1:]:
            value = bracket.apply([value, basis.vector(x)])
        table[key] = value
    return table


def assert_n_i_d_matches_oracle(bracket: MultiOp, op: MultiOp, max_i: int = 4) -> None:
    for i in range(1, max_i + 1):
        fast = n_i_d(bracket, op, i)
        assert (fast.arity, fast.degree) == (i, op.degree)
        oracle = dense_n_i_d(bracket, op, i)
        assert fast.constants == {k: v for k, v in oracle.items() if not v.is_zero()}, i


def scrambled_op(basis: GradedBasis, seed: int) -> MultiOp:
    """A degree-0 arity-1 operation with small random integer entries."""
    rng = random.Random(seed)
    constants = {}
    for x in range(len(basis)):
        same = [y for y in range(len(basis)) if basis.degree(y) == basis.degree(x)]
        constants[(x,)] = Element(basis, {y: rng.randint(-2, 2) for y in same})
    return MultiOp(basis, 1, 0, constants)


def fixture_derivations(doc) -> list[MultiOp]:
    """The nonzero deltas and gauge generators a fixture ships."""
    fam, gauge = doc.to_family(), doc.to_gauge()
    ops = list(fam.deltas if fam is not None else ()) + list(gauge.xis if gauge is not None else ())
    return [op for op in ops if not op.is_zero()]


def test_n_i_d_recurrence_matches_dense_definition_on_fixtures(docs):
    for seed, (name, doc) in enumerate(sorted(docs.items())):
        bracket = doc.to_bracket()
        for op in fixture_derivations(doc) + [scrambled_op(bracket.basis, seed)]:
            assert_n_i_d_matches_oracle(bracket, op)


def test_n_i_d_recurrence_matches_dense_definition_off_the_happy_path():
    # a non-derivation inserted into a Leibniz bracket
    bracket = shipped.load_fixture("endo2").to_bracket()
    op = scrambled_op(bracket.basis, 3)
    assert check_derivation(op, bracket)
    assert_n_i_d_matches_oracle(bracket, op)
    # a bracket that is not Leibniz at all
    square = one_dim_square()
    assert_n_i_d_matches_oracle(square, identity_op(square.basis).scale(Fraction(-3, 2)))
    assert_n_i_d_matches_oracle(square, MultiOp.zero(square.basis, 1, 0))


def test_nary_bracket_is_the_identity_insertion(docs):
    for bracket in [doc.to_bracket() for doc in docs.values()] + [one_dim_square()]:
        identity = identity_op(bracket.basis)
        for i in range(1, 5):
            assert nary_bracket(bracket, i) == n_i_d(bracket, identity, i)
        assert_n_i_d_matches_oracle(bracket, identity)


def test_n_i_d_rejects_malformed_input():
    bracket = shipped.load_fixture("endo2").to_bracket()
    delta = shipped.load_fixture("endo2").to_family().delta(0)
    foreign = MultiOp.zero(GradedBasis(("z",), (0,)), 1, 1)
    for args in (
        (bracket, delta, 0),
        (delta, delta, 2),
        (bracket, bracket, 2),
        (bracket, foreign, 1),
        (bracket, foreign, 3),
    ):
        with pytest.raises(MalformedInputError):
            n_i_d(*args)
    for args in ((bracket, 0), (delta, 2)):
        with pytest.raises(MalformedInputError):
            nary_bracket(*args)


def test_rearrangement_identity_on_fixture_brackets(docs):
    for name in ("endo2", "quartic", "heisab"):
        verdict = check_rearrangement(docs[name].to_bracket(), max_n=3)
        assert verdict.passed, name


def test_rearrangement_fails_for_non_leibniz_bracket():
    verdict = check_rearrangement(one_dim_square(), max_n=2)
    assert not verdict.passed


def test_skewsymmetry_verdicts():
    assert check_skewsymmetry(shipped.load_fixture("quartic").to_bracket()).passed
    assert check_skewsymmetry(shipped.load_fixture("endo2").to_bracket()).passed
    l2b = shipped.load_fixture("l2b").to_bracket()
    verdict = check_skewsymmetry(l2b)
    assert not verdict.passed
    # {e,e} + (-1)^(0*0) {e,e} = 2c
    witness = [v for v in verdict.violations if v.site[:2] == ("e", "e")]
    assert witness and witness[0].residual == l2b.basis.vector("c").scale(2)


def test_algebra_constructors_validate():
    square = one_dim_square()
    with pytest.raises(PreconditionError):
        LeibnizAlgebra(square.basis, square)
    doc = shipped.load_fixture("heis3w")
    basis, bracket = doc.to_basis(), doc.to_bracket()
    LeibnizAlgebra(basis, bracket)
    delta = doc.to_family().delta(0)
    DgLeibnizAlgebra(basis, bracket, delta)
    broken = delta + MultiOp(basis, 1, 1, {(basis.index("h"),): basis.vector("w")})
    with pytest.raises(PreconditionError):
        DgLeibnizAlgebra(basis, bracket, broken)

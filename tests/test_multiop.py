"""Multilinear operations, the Leibniz identity, and nested brackets."""

from __future__ import annotations

import collections
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shleibniz import fixtures as shipped
from shleibniz.coalgebra import evaluate_coderivation, hom_bracket, lift_coderivation
from shleibniz.derived import build_sh_structure
from shleibniz.errors import MalformedInputError, PreconditionError
from shleibniz.graded import Element, GradedBasis
from shleibniz.linalg import derivation_basis
from shleibniz.multiop import (
    DgLeibnizAlgebra,
    LeibnizAlgebra,
    MultiOp,
    _composite_terms,
    check_derivation,
    check_differential,
    check_leibniz_identity,
    check_skewsymmetry,
    compose_into,
    compose_tables,
    hom_tables,
    identity_op,
    n_i_d,
    nary_bracket,
    op_from_terms,
)
from shleibniz.results import Verdict, Violation
from oracles import (
    apply,
    apply_indices,
    assert_no_dense_api,
    family_fixture_names,
    index_tuples,
    perturbation,
    perturbed_family,
    skewsymmetry_walk,
    tabulate,
    vector,
)


def one_dim_square() -> MultiOp:
    basis = GradedBasis(("e",), (0,))
    return MultiOp(basis, 2, 0, {(0, 0): {0: 1}})


def test_idempotent_bracket_fails_leibniz_with_explicit_residual():
    # {e,{e,e}} - {{e,e},e} - {e,{e,e}} = e - e - e = -e
    op = one_dim_square()
    violations = check_leibniz_identity(op)
    assert len(violations) == 1
    assert violations[0].site == ("e", "e", "e")
    assert violations[0].residual == vector(op.basis, 0).scale(-1)


def test_fixture_brackets_satisfy_leibniz(docs):
    for doc in docs.values():
        assert check_leibniz_identity(doc.to_bracket()) == []


def test_multiop_validates_shapes():
    basis = GradedBasis(("x", "y"), (0, 1))
    with pytest.raises(MalformedInputError):
        MultiOp(basis, 0, 0, {})
    with pytest.raises(MalformedInputError):
        MultiOp(basis, 1, 0, {(0, 0): {0: 1}})
    with pytest.raises(MalformedInputError):
        MultiOp(basis, 1, 0, {(5,): {0: 1}})
    # degree 1 op sending x (deg 0) to x (deg 0) is inhomogeneous
    with pytest.raises(MalformedInputError):
        MultiOp(basis, 1, 1, {(0,): {0: 1}})
    # mixed-degree image is rejected even when the total shape is right
    with pytest.raises(MalformedInputError):
        MultiOp(basis, 1, 0, {(0,): {0: 1, 1: 1}})
    # an image is a coefficient dict: an Element, over any basis, is not one
    with pytest.raises(MalformedInputError, match=r"image of \(0,\) is not a coefficient dict"):
        MultiOp(basis, 1, 1, {(0,): vector(basis, 1)})


def test_multiop_drops_zero_constants():
    basis = GradedBasis(("x", "y"), (0, 1))
    op = MultiOp(basis, 1, 1, {(0,): {1: Fraction(0)}})
    assert op.is_zero()
    assert op == MultiOp.zero(basis, 1, 1)


def test_op_from_terms_drops_zeros_and_sorts_keys():
    basis = GradedBasis(("x", "y"), (0, 0))
    acc = {(1, 0): {0: 2, 1: 0}, (0, 1): {1: 0}, (0, 0): {1: Fraction(4, 2)}}
    op = op_from_terms(basis, 2, 0, acc)
    assert list(op.constants) == [(0, 0), (1, 0)]
    assert type(op.constants[(0, 0)][1]) is int
    validated = {(0, 0): {1: 2}, (1, 0): {0: Fraction(2)}}
    assert op == MultiOp(basis, 2, 0, validated)
    with pytest.raises(AttributeError):
        op.arity = 3
    # computed and validated operations both store plain coefficient dicts
    # of canonical exact scalars: an int when integral, never a zero
    halves = {(0,): {0: Fraction(1, 2), 1: Fraction(4, 2)}, (1,): {0: Fraction(0)}}
    computed = op_from_terms(basis, 1, 0, halves)
    given = MultiOp(basis, 1, 0, halves)
    for stored in (op, MultiOp(basis, 2, 0, validated), computed, given):
        for image in stored.constants.values():
            assert type(image) is dict and image, stored
            assert all(
                type(c) is int or (type(c) is Fraction and c.denominator > 1)
                for c in image.values()
            ), image
            assert all(image.values()), image
    assert computed == given and computed.constants == {(0,): {0: Fraction(1, 2), 1: 2}}


def refusal(build) -> str | None:
    """The text of the MalformedInputError that build raises, None if none."""
    try:
        build()
    except MalformedInputError as exc:
        return str(exc)
    return None


def test_dict_images_build_the_operation_op_from_terms_computes(docs, generated):
    # the validated constructor takes a parsed document's plain coefficient
    # dicts: the operation op_from_terms computes from the same dicts
    ops = []
    for doc in [*docs.values(), *generated.values()]:
        fam, gauge = doc.to_family(), doc.to_gauge()
        ops += [doc.to_bracket(), *(fam.deltas if fam else ()), *(gauge.xis if gauge else ())]
    rng = random.Random(7)
    basis = GradedBasis(("a", "b", "c", "d"), (0, 1, 1, 2))
    by_degree = collections.defaultdict(list)
    for letter, degree in enumerate(basis.degrees):
        by_degree[degree].append(letter)
    for _ in range(60):
        arity, degree = rng.randint(1, 3), rng.randint(-1, 1)
        table = {}
        for key in itertools.product(range(len(basis)), repeat=arity):
            letters = by_degree[sum(basis.degrees[x] for x in key) + degree]
            if letters and rng.random() < 0.5:
                table[key] = {
                    b: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                    for b in rng.sample(letters, rng.randint(1, len(letters)))
                }
        ops.append(op_from_terms(basis, arity, degree, table))
        raw = {key: {b: Fraction(c) for b, c in image.items()} for key, image in table.items()}
        assert MultiOp(basis, arity, degree, raw) == ops[-1]
    assert len(ops) > 80 and sum(op.is_zero() for op in ops) < 10
    for op in ops:
        dicts = {key: dict(image) for key, image in op.constants.items()}
        from_dicts = MultiOp(op.basis, op.arity, op.degree, dicts)
        assert from_dicts == op
        scalars = [c for image in from_dicts.constants.values() for c in image.values()]
        assert all(type(c) is int or c.denominator > 1 for c in scalars), scalars


def test_dict_images_are_refused_with_the_element_texts():
    basis = GradedBasis(("x", "y", "z"), (0, 1, 1))
    # (key, image, arity, degree) per refusal; a bad letter or scalar gets
    # the text Element's own constructor gives it
    cases = {
        "key index out of range": ((0, 3), {1: 1}, 2, 1),
        "image index out of range": ((0,), {3: 1}, 1, 1),
        "wrong key length": ((0,), {1: 1}, 2, 1),
        "inhomogeneous image": ((0,), {0: 1, 1: 2}, 1, 0),
        "wrong degree": ((1,), {2: Fraction(1, 2)}, 1, 1),
        "float scalar": ((0,), {1: 1.5}, 1, 1),
        "bool scalar": ((0,), {1: True}, 1, 1),
    }
    texts = {}
    for label, (key, image, arity, degree) in cases.items():
        texts[label] = refusal(lambda: MultiOp(basis, arity, degree, {key: image}))
    assert texts == {
        "key index out of range": "constant key (0, 3) has an index out of range",
        "image index out of range": "basis index 3 out of range",
        "wrong key length": "constant key (0,) does not have arity 2",
        "inhomogeneous image": "element is not homogeneous: degrees [0, 1]",
        "wrong degree": "image of (1,) has degree 1, expected 2 (operation degree 1)",
        "float scalar": "coefficient of 1 is a float, not an int or a Fraction",
        "bool scalar": "coefficient of 1 is a bool, not an int or a Fraction",
    }
    # random images with one fault each: each refusal has one of these texts
    shapes = re.compile(
        r"constant key \(.*\) (has an index out of range|does not have arity \d)"
        r"|basis index -?\d+ out of range|element is not homogeneous: degrees \[.*\]"
        r"|image of \(.*\) has degree -?\d+, expected -?\d+ \(operation degree -?\d+\)"
        r"|coefficient of -?\d+ is a float, not an int or a Fraction"
    )
    rng = random.Random(11)
    refused = 0
    for _ in range(200):
        arity = rng.randint(1, 2)
        key = tuple(rng.randint(-1, 3) for _ in range(rng.randint(1, 3)))
        image = {rng.randint(-1, 3): rng.choice((1, -2, Fraction(1, 3), 0.5, 0))}
        degree = rng.randint(-1, 2)
        text = refusal(lambda: MultiOp(basis, arity, degree, {key: image}))
        key_ok = len(key) == arity and min(key) >= 0 and max(key) < 3
        ((letter, c),) = image.items()
        if key_ok or (0 <= letter < 3 and type(c) is not float):
            # a fault in the key or in the image, not in both
            assert text is None or shapes.fullmatch(text), (key, image, arity, degree, text)
            refused += text is not None
    assert refused > 50


def test_apply_is_multilinear():
    doc = shipped.load_fixture("endo2")
    bracket = doc.to_bracket()
    basis = bracket.basis
    x = vector(basis, "E00") + vector(basis, "E11").scale(Fraction(3, 2))
    y = vector(basis, "E10")
    lhs = apply(bracket, [x, y])
    rhs = apply(bracket, [vector(basis, "E00"), y])
    rhs = rhs + apply(bracket, [vector(basis, "E11"), y]).scale(Fraction(3, 2))
    assert lhs == rhs


@given(
    a=st.fractions(min_value=-4, max_value=4, max_denominator=5),
    b=st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
def test_apply_scaling_property(a, b):
    bracket = shipped.load_fixture("quartic").to_bracket()
    basis = bracket.basis
    u, v = vector(basis, "u"), vector(basis, "v")
    assert apply(bracket, [u.scale(a), v.scale(b)]) == apply(bracket, [u, v]).scale(a * b)


def test_compose_and_commutator_signs():
    basis = GradedBasis(("p", "q", "r"), (0, 1, 2))
    up1 = MultiOp(basis, 1, 1, {(0,): {1: 1}})
    up2 = MultiOp(basis, 1, 1, {(1,): {2: 1}})
    both = compose(up2, up1)
    assert apply_indices(both, (0,)) == vector(basis, 2)
    # odd-odd commutator is an anticommutator, and an odd self-bracket is
    # twice the square, which is p -> r here
    assert hom_bracket(up1, up2) == compose(up1, up2) + compose(up2, up1)
    assert hom_bracket(up1 + up2, up1 + up2) == both.scale(2)
    even = identity_op(basis)
    assert hom_bracket(even, up1).is_zero()


def test_derivation_rule_sign():
    # D{x,y} = {Dx,y} + (-1)^(|x||D|) {x,Dy}; an odd D over an odd x flips
    doc = shipped.load_fixture("heis3w")
    bracket = doc.to_bracket()
    delta = doc.to_family().delta(0)
    assert check_derivation(delta, bracket) == []
    basis = bracket.basis
    # break it: send g1 to w as well, then the pair (h, g0) fails
    broken = delta + MultiOp(basis, 1, 1, {(basis.index("g1"),): {basis.index("w"): 1}})
    bad = check_derivation(broken, bracket)
    assert bad
    assert ("h", "g0") in [v.site for v in bad]


def test_check_differential_flags_nonzero_square():
    doc = shipped.load_fixture("heis3w")
    bracket = doc.to_bracket()
    basis = bracket.basis
    chain = doc.to_family().delta(0) + MultiOp(
        basis, 1, 1, {(basis.index("h"),): {basis.index("w"): 1}}
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
        x, y, z = (vector(basis, k) for k in key)
        expected = apply(bracket, [apply(bracket, [x, y]), z])
        assert apply_indices(n3, key) == expected
    # N_4 = N_2(N_3 (x) 1)
    for key in itertools.product(range(len(basis)), repeat=4):
        inner = apply_indices(n3, key[:3])
        assert apply_indices(n4, key) == apply(bracket, [inner, vector(basis, key[3])])


def test_n_i_d_inserts_in_leftmost_slot_without_signs():
    doc = shipped.load_fixture("endo2")
    bracket = doc.to_bracket()
    delta = doc.to_family().delta(0)
    basis = bracket.basis
    assert n_i_d(bracket, delta, 1) == delta
    two = n_i_d(bracket, delta, 2)
    for key in itertools.product(range(len(basis)), repeat=2):
        expected = apply(bracket, [apply_indices(delta, (key[0],)), vector(basis, key[1])])
        assert apply_indices(two, key) == expected


def dense_n_i_d(bracket: MultiOp, op: MultiOp, i: int) -> dict[tuple[int, ...], Element]:
    """The definition as an oracle: N_i(op x_1, x_2, ..., x_i) by explicit
    left nesting, tabulated on every one of the dim^i basis tuples."""
    basis = bracket.basis
    table = {}
    for key in index_tuples(basis, i):
        value = apply_indices(op, key[:1])
        for x in key[1:]:
            value = apply(bracket, [value, vector(basis, x)])
        table[key] = value
    return table


def assert_n_i_d_matches_oracle(bracket: MultiOp, op: MultiOp, max_i: int = 4) -> None:
    for i in range(1, max_i + 1):
        fast = n_i_d(bracket, op, i)
        assert (fast.arity, fast.degree) == (i, op.degree)
        oracle = dense_n_i_d(bracket, op, i)
        assert fast.constants == {k: v.coeffs for k, v in oracle.items() if not v.is_zero()}, i


def scrambled_op(basis: GradedBasis, seed: int) -> MultiOp:
    """A degree-0 arity-1 operation with small random integer entries."""
    rng = random.Random(seed)
    constants = {}
    for x in range(len(basis)):
        same = [y for y in range(len(basis)) if basis.degree(y) == basis.degree(x)]
        constants[(x,)] = {y: rng.randint(-2, 2) for y in same}
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


def dense_check_derivation(op: MultiOp, bracket: MultiOp) -> list[Violation]:
    """check_derivation as first written: the residual
    D{x, y} - {Dx, y} - (-1)^(|x||D|) {x, Dy} on every one of the dim^2 pairs."""
    basis = bracket.basis
    out = []
    for x, y in index_tuples(basis, 2):
        lhs = apply(op, [apply_indices(bracket, (x, y))])
        first = apply(bracket, [apply_indices(op, (x,)), vector(basis, y)])
        sign = -1 if (basis.degree(x) * op.degree) % 2 else 1
        second = apply(bracket, [vector(basis, x), apply_indices(op, (y,))]).scale(sign)
        residual = lhs - first - second
        if not residual.is_zero():
            out.append(Violation("derivation", (basis.names[x], basis.names[y]), residual))
    return out


def random_unary(basis: GradedBasis, degree: int, rng: random.Random) -> MultiOp:
    """A homogeneous arity-1 operation with small random integer entries on
    about half the letters, so most such operations are not derivations."""
    constants = {}
    for x in range(len(basis)):
        if rng.random() < 0.5:
            continue
        target = basis.degree(x) + degree
        constants[(x,)] = {
            t: rng.randint(-2, 2) for t in range(len(basis)) if basis.degree(t) == target
        }
    return MultiOp(basis, 1, degree, constants)


def derivation_oracle_inputs(docs, generated) -> list[tuple[str, MultiOp, list[MultiOp]]]:
    """(label, bracket, ops): the shipped deltas and gauges, the perturbed
    deltas, a spanning set of the derivations, and random homogeneous
    operations of degrees -1, 0, 1 and 2, over the corpus, the dimension-8
    inputs and a bracket that is not Leibniz."""
    rng = random.Random(20091)
    inputs = []
    for name, doc in sorted(docs.items()) + sorted(generated.items()):
        bracket = doc.to_bracket()
        ops = fixture_derivations(doc)
        if name in family_fixture_names():
            ops += list(perturbed_family(doc, perturbation(name)).deltas)
        ops += derivation_basis(bracket)
        ops += [random_unary(bracket.basis, g, rng) for g in (-1, 0, 1, 2) for _ in range(3)]
        inputs.append((name, bracket, ops))
    square = one_dim_square()
    inputs.append(("square", square, [identity_op(square.basis), scrambled_op(square.basis, 1)]))
    return inputs


def test_derivation_check_matches_its_dense_loop(docs, generated):
    failing = odd_failing = 0
    for label, bracket, ops in derivation_oracle_inputs(docs, generated):
        for op in ops:
            sparse = check_derivation(op, bracket)
            assert sparse == dense_check_derivation(op, bracket), (label, op)
            failing += bool(sparse)
            odd_failing += bool(sparse) and op.degree % 2
    # enough failures, with odd operations among them, that a wrong pair,
    # order or (-1)^(|x||D|) sign would show
    assert failing >= 40 and odd_failing >= 20, (failing, odd_failing)


def test_derivation_check_never_walks_every_pair(docs):
    cases = []
    for name, doc in sorted(docs.items()):
        gauge = doc.to_gauge()
        if gauge is None:
            continue
        ops = list(gauge.xis) + [scrambled_op(gauge.basis, len(cases))]
        cases += [(name, gauge.bracket, op, dense_check_derivation(op, gauge.bracket)) for op in ops]
    assert any(expected for *_, expected in cases)

    assert_no_dense_api()
    for name, bracket, op, expected in cases:
        assert check_derivation(op, bracket) == expected, name


def dense_check_leibniz_identity(bracket: MultiOp) -> list[Violation]:
    """check_leibniz_identity as first written: the residual
    {x, {y, z}} - {{x, y}, z} - (-1)^(|x||y|) {y, {x, z}} on every one of the
    dim^3 triples."""
    basis = bracket.basis
    out = []
    for x, y, z in index_tuples(basis, 3):
        lhs = apply(bracket, [vector(basis, x), apply_indices(bracket, (y, z))])
        first = apply(bracket, [apply_indices(bracket, (x, y)), vector(basis, z)])
        sign = -1 if (basis.degree(x) * basis.degree(y)) % 2 else 1
        second = apply(bracket, [vector(basis, y), apply_indices(bracket, (x, z))]).scale(sign)
        residual = lhs - first - second
        if not residual.is_zero():
            names = tuple(basis.names[i] for i in (x, y, z))
            out.append(Violation("leibniz-identity", names, residual))
    return out


def perturbed_bracket(bracket: MultiOp, rng: random.Random) -> MultiOp:
    """The bracket with one random rational multiple of a letter of the right
    degree added to the image of one random pair."""
    basis = bracket.basis
    while True:
        x, y = rng.randrange(len(basis)), rng.randrange(len(basis))
        want = basis.degree(x) + basis.degree(y) + bracket.degree
        targets = [t for t in range(len(basis)) if basis.degree(t) == want]
        if targets:
            break
    constants = {key: dict(image) for key, image in bracket.constants.items()}
    bump = vector(basis, rng.choice(targets)).scale(rng.choice((1, -1, 2, Fraction(-1, 2))))
    constants[x, y] = (apply_indices(bracket, (x, y)) + bump).coeffs
    return MultiOp(basis, 2, bracket.degree, constants)


def test_leibniz_identity_matches_its_dense_loop(docs, generated):
    rng = random.Random(20092)
    brackets = [doc.to_bracket() for _, doc in sorted(docs.items()) + sorted(generated.items())]
    brackets.append(one_dim_square())
    failing = odd_failing = 0
    for bracket in brackets:
        for candidate in [bracket] + [perturbed_bracket(bracket, rng) for _ in range(8)]:
            sparse = check_leibniz_identity(candidate)
            assert sparse == dense_check_leibniz_identity(candidate), candidate
            failing += bool(sparse)
            odd_failing += any(
                candidate.basis.degree(candidate.basis.index(v.site[0])) % 2
                and candidate.basis.degree(candidate.basis.index(v.site[1])) % 2
                for v in sparse
            )
    # enough failures, with odd (x, y) pairs among them, that a wrong triple,
    # order or (-1)^(|x||y|) sign would show
    assert failing >= 50 and odd_failing >= 20, (failing, odd_failing)


def test_leibniz_identity_never_walks_every_triple(docs):
    rng = random.Random(20093)
    cases = []
    for _, doc in sorted(docs.items()):
        for bracket in (doc.to_bracket(), perturbed_bracket(doc.to_bracket(), rng)):
            cases.append((bracket, dense_check_leibniz_identity(bracket)))
    assert any(expected for _, expected in cases)

    assert_no_dense_api()
    for bracket, expected in cases:
        assert check_leibniz_identity(bracket) == expected


def compose(outer: MultiOp, inner: MultiOp) -> MultiOp:
    """outer . inner for arity-1 operations: the arity-1 table of
    compose_tables, scattered from the constants."""
    table = compose_tables({}, {1: outer}, {1: inner}, 1, 1)[1]
    return op_from_terms(inner.basis, 1, outer.degree + inner.degree, table)


def dense_compose(outer: MultiOp, inner: MultiOp) -> MultiOp:
    """outer . inner as first written: tabulated on every letter through
    from_function and the generic apply."""
    return tabulate(
        inner.basis,
        1,
        outer.degree + inner.degree,
        lambda key: apply(outer, [apply_indices(inner, key)]),
    )


def dense_commutator(a: MultiOp, b: MultiOp) -> MultiOp:
    """[a, b] from the two dense composites, tabulated on every letter."""
    sign = -1 if (a.degree * b.degree) % 2 else 1
    ab, ba = dense_compose(a, b), dense_compose(b, a)
    return tabulate(
        a.basis,
        1,
        a.degree + b.degree,
        lambda key: apply_indices(ab, key) - apply_indices(ba, key).scale(sign),
    )


def test_compositions_match_their_dense_tabulation(docs, generated):
    pairs = nonzero = 0
    for label, _, ops in derivation_oracle_inputs(docs, generated):
        for a, b in itertools.product(ops, repeat=2):
            bracketed = hom_bracket(a, b)
            for fast, dense in (
                (compose(a, b), dense_compose(a, b)),
                (bracketed, dense_commutator(a, b)),
            ):
                assert fast == dense, (label, a, b)
                assert list(fast.constants) == list(dense.constants), (label, a, b)
            pairs += 1
            nonzero += not bracketed.is_zero()
    assert pairs > 6000 and nonzero > 2500, (pairs, nonzero)


def check_rearrangement(bracket: MultiOp, max_n: int = 3) -> Verdict:
    """Pull the second argument of a nested bracket out to the front.

    For 1 <= n <= max_n and all basis tuples (A, B, y_1, ..., y_n):

        N_{n+2}(A, B, y_1, ..., y_n)
          = -(-1)^(|A||B|) {B, N_{n+1}(A, y_1, ..., y_n)}
            + sum_a (-1)^(|B|(|y_1|+...+|y_{a-1}|))
                N_{n+1}(A, y_1, ..., {B, y_a}, ..., y_n).

    The n = 0 instance would assert graded antisymmetry, which genuine Leibniz
    algebras do not satisfy, so it is excluded.
    """
    basis = bracket.basis
    violations: list[Violation] = []
    for n in range(1, max_n + 1):
        big = nary_bracket(bracket, n + 2)
        small = nary_bracket(bracket, n + 1)
        for key in index_tuples(basis, n + 2):
            a, b = key[0], key[1]
            ys = key[2:]
            lhs = apply_indices(big, key)
            sign_ab = -1 if (basis.degree(a) * basis.degree(b)) % 2 else 1
            rhs = apply(bracket, [vector(basis, b), apply_indices(small, (a,) + ys)])
            rhs = rhs.scale(-sign_ab)
            prefix = 0
            for pos in range(n):
                inner = apply_indices(bracket, (b, ys[pos]))
                args = [vector(basis, a)]
                args += [vector(basis, j) for j in ys[:pos]]
                args.append(inner)
                args += [vector(basis, j) for j in ys[pos + 1 :]]
                sign = -1 if (basis.degree(b) * prefix) % 2 else 1
                rhs = rhs + apply(small, args).scale(sign)
                prefix += basis.degree(ys[pos])
            residual = lhs - rhs
            if not residual.is_zero():
                names = tuple(basis.names[i] for i in key)
                violations.append(Violation("rearrangement", (n,) + names, residual))
    return Verdict.from_violations(violations)


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
    assert witness and witness[0].residual == vector(l2b.basis, "c").scale(2)


def random_rational_op(basis: GradedBasis, arity: int, degree: int, rng: random.Random) -> MultiOp:
    """An operation with Fraction images on about a third of the basis tuples."""
    constants = {}
    for key in index_tuples(basis, arity):
        want = sum(basis.degree(i) for i in key) + degree
        letters = [t for t in range(len(basis)) if basis.degree(t) == want]
        if letters and rng.random() < 0.35:
            constants[key] = {t: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for t in letters}
    return MultiOp(basis, arity, degree, constants)


def graded_antisymmetrization(op: MultiOp) -> MultiOp:
    """op(x, y) - (-1)^(|x||y|) op(y, x) for an arity-2 op: skewsymmetric."""
    basis = op.basis
    acc: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for (x, y), image in op.constants.items():
        sign = -1 if (basis.degree(x) * basis.degree(y)) % 2 else 1
        for key, scale in (((x, y), 1), ((y, x), -sign)):
            out = acc.setdefault(key, {})
            for b, c in image.items():
                out[b] = out.get(b, 0) + scale * c
    return op_from_terms(basis, 2, op.degree, acc)


def test_skewsymmetry_matches_its_tuple_walk(docs):
    # every fixture's bracket, deltas, gauges and derived l_i, and seeded
    # random operations of arity 1 to 3 over mixed parities with Fraction
    # constants, antisymmetrized ones and one-constant breaks of them among
    # them: the same violations, in the same order, as the walk over every
    # basis tuple
    ops = []
    for _, doc in sorted(docs.items()):
        fam, gauge = doc.to_family(), doc.to_gauge()
        ops.append(doc.to_bracket())
        ops += list(fam.deltas) + list(build_sh_structure(fam).ops) if fam else []
        ops += gauge.xis if gauge else ()
    rng = random.Random(3301)
    for _ in range(240):
        basis = random_graded_basis(rng)
        op = random_rational_op(basis, rng.randint(1, 3), rng.randint(-1, 1), rng)
        ops.append(op)
        if op.arity == 2:
            skew = graded_antisymmetrization(op)
            ops += [skew, skew + random_rational_op(basis, 2, op.degree, random.Random(len(ops)))]
    passed = failed = odd = 0
    for op in ops:
        verdict = check_skewsymmetry(op)
        assert verdict == skewsymmetry_walk(op), op
        passed += verdict.passed and op.arity > 1 and not op.is_zero()
        failed += not verdict.passed
        odd += any(
            all(op.basis.degree(op.basis.index(n)) % 2 for n in v.site[:2])
            for v in verdict.violations
            if v.site[-1] == "swap@1"
        )
    assert len(ops) > 400 and passed >= 60 and failed >= 120 and odd >= 40, (passed, failed, odd)


def test_algebra_constructors_validate():
    square = one_dim_square()
    with pytest.raises(PreconditionError):
        LeibnizAlgebra(square.basis, square)
    doc = shipped.load_fixture("heis3w")
    basis, bracket = doc.to_basis(), doc.to_bracket()
    LeibnizAlgebra(basis, bracket)
    delta = doc.to_family().delta(0)
    DgLeibnizAlgebra(basis, bracket, delta)
    broken = delta + MultiOp(basis, 1, 1, {(basis.index("h"),): {basis.index("w"): 1}})
    with pytest.raises(PreconditionError):
        DgLeibnizAlgebra(basis, bracket, broken)


def random_graded_basis(rng: random.Random) -> GradedBasis:
    dim = rng.randint(2, 4)
    degrees = [rng.randint(-1, 2) for _ in range(dim)]
    return GradedBasis(tuple(f"e{k}" for k in range(dim)), degrees)


def random_homogeneous(basis: GradedBasis, arity: int, degree: int, rng: random.Random) -> MultiOp:
    """An operation with small random integer images on about nine tenths
    of the basis tuples, each image spread over the letters of its degree."""
    constants = {}
    for key in index_tuples(basis, arity):
        if rng.random() < 0.9:
            target = sum(basis.degree(i) for i in key) + degree
            letters = [t for t in range(len(basis)) if basis.degree(t) == target]
            constants[key] = {t: rng.randint(-2, 2) for t in letters}
    return MultiOp(basis, arity, degree, constants)


def test_hom_bracket_is_graded_antisymmetric_and_satisfies_jacobi():
    # (F, G) is the corestriction of the commutator [F^c, G^c] of
    # coderivations, so it is graded antisymmetric and satisfies graded
    # Jacobi; no oracle writes the sign a second time
    rng = random.Random(1703)
    nonzero = 0
    for _ in range(200):
        basis = random_graded_basis(rng)
        f, g, h = (
            random_homogeneous(basis, rng.randint(1, 2), rng.randint(-1, 1), rng) for _ in range(3)
        )
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert hom_bracket(f, g) == hom_bracket(g, f).scale(-sign), (f, g)
        lhs = hom_bracket(f, hom_bracket(g, h))
        rhs = hom_bracket(hom_bracket(f, g), h) + hom_bracket(g, hom_bracket(f, h)).scale(sign)
        assert lhs == rhs, (f, g, h)
        nonzero += not lhs.is_zero()
    assert nonzero >= 60, nonzero


def test_hom_tables_sums_the_hom_brackets_of_every_pair_of_arities():
    rng = random.Random(1704)
    for _ in range(40):
        basis = random_graded_basis(rng)
        f_degree, g_degree = rng.randint(-1, 1), rng.randint(-1, 1)
        fs = {a: random_homogeneous(basis, a, f_degree, rng) for a in (1, 2)}
        gs = {a: random_homogeneous(basis, a, g_degree, rng) for a in (1, 2)}
        scale, max_arity = rng.choice((1, -2, Fraction(1, 2))), rng.randint(1, 3)
        got = hom_tables({}, fs, gs, scale, max_arity)
        want: dict[int, MultiOp] = {}
        for f, g in itertools.product(fs.values(), gs.values()):
            value = hom_bracket(f, g).scale(scale)
            if value.arity <= max_arity:
                want[value.arity] = want[value.arity] + value if value.arity in want else value
        assert set(got) == set(want), (set(got), set(want))
        for n, terms in got.items():
            assert op_from_terms(basis, n, f_degree + g_degree, terms) == want[n], n


def lifted_composite(f: MultiOp, g: MultiOp, word: tuple[int, ...]) -> Element:
    """f . g^c on one word, through the per-word lift of g: f applied to
    every term of g^c(word)."""
    out = Element.zero(f.basis)
    for u, c in evaluate_coderivation(lift_coderivation(g), word).terms.items():
        out = out + apply_indices(f, u).scale(c)
    return out


def term_shape(g: MultiOp, p: int) -> str:
    """Which placing a term of _composite_terms takes: the letter at
    position 0, an empty head (g of arity 1), or a real placing."""
    return "position 0" if not p else "empty head" if g.arity == 1 else "general"


def test_compose_into_matches_the_lift_word_by_word():
    # the whole table of f . g^c against the per-word lift, on every word of
    # its length, for f and g of arities 1 to 3 over a mixed-parity basis
    # and g of odd and even degree: every shape of term, the single placings
    # read straight off the placement table among them
    rng = random.Random(2801)
    basis = GradedBasis(("a", "b", "c", "d"), (0, 1, 2, -1))
    shapes = collections.Counter()
    nonzero = 0
    for m, j, g_degree in itertools.product((1, 2, 3), (1, 2, 3), (0, 1)):
        f = random_homogeneous(basis, m, rng.randint(-1, 1), rng)
        g = random_homogeneous(basis, j, g_degree, rng)
        acc: dict[tuple[int, ...], dict[int, int]] = {}
        compose_into(acc, f, g, 1)
        for word in index_tuples(basis, m + j - 1):
            want = lifted_composite(f, g, word)
            assert Element._trusted(basis, acc.get(word, {})) == want, (m, j, g_degree, word)
            nonzero += not want.is_zero()
        shapes.update(term_shape(g, p) for _, p, *_ in _composite_terms(f, g))
    assert set(shapes) == {"position 0", "empty head", "general"}, shapes
    assert nonzero > 1000, nonzero


@pytest.mark.parametrize("flipped", [(0, 1), (1, 0)])
def test_single_placings_read_their_row_off_the_sign_source(mutated_signs, flipped):
    # flip the lone row of one (0, q) or (p, 0) unshuffle table in
    # graded.unshuffle_forms: f . g^c must change, so the single placings
    # do not assume +1.  The same f and g keep their letter index across
    # the flip, which holds letters and parities, never a row
    basis = GradedBasis(("a", "b", "c"), (0, 1, 2))
    rng = random.Random(2802)
    f = random_homogeneous(basis, 1 + flipped[0], 0, rng)
    g = random_homogeneous(basis, 1 + flipped[1], 1, rng)
    assert {term_shape(g, p) for _, p, *_ in _composite_terms(f, g)} <= {
        "position 0", "empty head"
    }
    before: dict[tuple[int, ...], dict[int, int]] = {}
    compose_into(before, f, g, 1)

    def flip(p, q, rows):
        if (p, q) != flipped:
            return rows
        ((first, second, form, sgn),) = rows
        return ((first, second, form + ((),), sgn),)

    mutated_signs(flip)
    after: dict[tuple[int, ...], dict[int, int]] = {}
    compose_into(after, f, g, 1)
    assert op_from_terms(basis, 2, 1, after) != op_from_terms(basis, 2, 1, before)

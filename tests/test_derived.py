"""Higher derived brackets, the sh identities, and the codifferential route."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from shleibniz import fixtures as shipped
from shleibniz.derived import (
    DeformationFamily,
    ShLeibnizStructure,
    build_codifferential,
    build_sh_structure,
    check_codifferential,
    check_key_lemma,
    check_sh_leibniz,
    derived_bracket,
    derived_bracket_explicit,
    derived_bracket_tensor,
    leibniz_cohomology_check,
    partial_i,
)
from shleibniz.errors import MalformedInputError, PreconditionError
from shleibniz.graded import (
    Element,
    GradedBasis,
    Shift,
    anti_koszul_sign,
    shifted_degrees,
    unshuffles,
)
from shleibniz.multiop import (
    MultiOp,
    check_leibniz_identity,
    check_skewsymmetry,
    n_i_d,
    nary_bracket,
)


def closed_form(bracket: MultiOp, delta: MultiOp, key: tuple[int, ...]) -> Element:
    """Independent oracle: (-1)^e N_i(delta x_1, x_2, ..., x_i) with
    e = sum of |x_j| over j < i with i - j odd, computed from scratch."""
    basis = bracket.basis
    i = len(key)
    exponent = sum(basis.degree(key[j - 1]) for j in range(1, i) if (i - j) % 2)
    value = delta.apply_indices(key[:1])
    for b in key[1:]:
        value = bracket.apply([value, basis.vector(b)])
    return value.scale(-1 if exponent % 2 else 1)


def test_binary_closed_form_on_every_heis3w_pair():
    # l_2(s x, s y) = (-1)^(|x|) s {delta x, y}
    doc = shipped.load_fixture("heis3w")
    fam = doc.to_family()
    basis = fam.basis
    sbasis = shifted_degrees(basis, Shift.RAISE)
    l2 = derived_bracket(fam.bracket, fam.delta(1), 2)
    for key in itertools.product(range(len(basis)), repeat=2):
        expect = closed_form(fam.bracket, fam.delta(1), key).reshape(sbasis)
        assert l2.apply_indices(key) == expect, key


def test_ternary_hand_value_on_endo2():
    # delta E00 = E10, {{E10, E00}, E01} = {E10, E01} = E00 + E11, and the
    # parity exponent only sees the middle argument (degree 0), so the sign
    # stays positive
    doc = shipped.load_fixture("endo2")
    fam = doc.to_family()
    basis = fam.basis
    sbasis = shifted_degrees(basis, Shift.RAISE)
    l3 = derived_bracket(fam.bracket, fam.delta(2), 3)
    key = tuple(basis.index(n) for n in ("E00", "E00", "E01"))
    want = (basis.vector("E00") + basis.vector("E11")).reshape(sbasis)
    assert l3.apply_indices(key) == want


def test_ternary_sign_flip_from_odd_middle_argument():
    doc = shipped.load_fixture("endo2")
    fam = doc.to_family()
    basis = fam.basis
    l3 = derived_bracket(fam.bracket, fam.delta(2), 3)
    for key in itertools.product(range(len(basis)), repeat=3):
        expect = closed_form(fam.bracket, fam.delta(2), key)
        got = l3.apply_indices(key).reshape(basis)
        assert got == expect, key


def test_both_routes_agree_on_all_fixtures(docs, family_names):
    for name in family_names:
        fam = docs[name].to_family()
        for i in range(1, fam.order + 2):
            a = derived_bracket_tensor(fam.bracket, fam.delta(i - 1), i)
            b = derived_bracket_explicit(fam.bracket, fam.delta(i - 1), i)
            assert a == b, (name, i)


def test_derived_bracket_shape():
    fam = shipped.load_fixture("endo2").to_family()
    for i in (1, 2, 3, 4):
        op = derived_bracket(fam.bracket, fam.delta(i - 1), i)
        assert op.arity == i
        assert op.degree == 2 - i
    with pytest.raises(MalformedInputError):
        derived_bracket(fam.bracket, fam.delta(0), 0)
    with pytest.raises(MalformedInputError):
        derived_bracket(fam.bracket, fam.bracket, 2)


def test_partial_i_matches_unshifted_insertion():
    fam = shipped.load_fixture("endo2").to_family()
    for i in (1, 2, 3):
        assert partial_i(fam.bracket, fam.delta(i - 1), i) == n_i_d(
            fam.bracket, fam.delta(i - 1), i
        )


def test_binary_derived_bracket_is_leibniz(docs, family_names):
    # a square-zero derivation induces an honest Leibniz bracket on the shift
    for name in family_names:
        fam = docs[name].to_family()
        l2 = derived_bracket(fam.bracket, fam.delta(0), 2)
        assert check_leibniz_identity(l2) == [], name


def test_sh_structure_shape_and_truncation():
    fam = shipped.load_fixture("heisab").to_family()
    structure = build_sh_structure(fam)
    assert structure.max_arity == fam.order + 1
    assert structure.op(structure.max_arity + 1) is None
    with pytest.raises(MalformedInputError):
        ShLeibnizStructure(structure.basis, (structure.ops[1],))


def test_sh_identities_hold_on_family_fixtures(docs, family_names):
    for name in family_names:
        structure = build_sh_structure(docs[name].to_family())
        verdict = check_sh_leibniz(structure, max_const=5)
        assert verdict.passed, name


def test_codifferential_squares_to_zero(docs, family_names):
    for name in family_names:
        verdict = check_codifferential(docs[name].to_family(), max_len=4)
        assert verdict.passed, name


def test_routes_agree_on_perturbed_families(docs, family_names):
    # both formulations must reject the same deliberately broken input
    for name in family_names:
        tweak = shipped.perturbation(name)
        bad = shipped.perturbed_family(docs[name], tweak)
        sh = check_sh_leibniz(build_sh_structure(bad), max_const=4)
        cod = check_codifferential(bad, max_len=3)
        assert not sh.passed, name
        assert not cod.passed, name
        assert sh.violations[0].residual is not None
        assert cod.violations[0].residual is not None


def sh_residual_reference(structure: ShLeibnizStructure, xs: tuple[int, ...]) -> Element:
    """The weight-(len(xs) + 1) sh identity on the tuple xs, term by term as
    the check_sh_leibniz docstring writes it, from the reference unshuffles and
    anti-Koszul sign chi(sigma) and plain MultiOp.apply."""
    basis = structure.basis
    const = len(xs) + 1
    degrees = [basis.degree(b) for b in xs]
    args = [basis.vector(b) for b in xs]
    total = Element.zero(basis)
    for i in range(1, const):
        j = const - i
        li, lj = structure.op(i), structure.op(j)
        if li is None or lj is None:
            continue
        for k in range(j, const):
            for sigma in unshuffles(k - j, j - 1):
                front = [sigma(a) - 1 for a in range(1, k - j + 1)]
                back = [sigma(a) - 1 for a in range(k - j + 1, k)]
                exponent = (k + 1 - j) * (j - 1) + j * sum(degrees[a] for a in front)
                sign = anti_koszul_sign(sigma, degrees[: k - 1]) * (-1 if exponent % 2 else 1)
                inner = lj.apply([args[a] for a in back] + [args[k - 1]])
                outer = li.apply([args[a] for a in front] + [inner] + args[k:])
                total = total + outer.scale(sign)
    return total


def random_op(basis: GradedBasis, arity: int, degree: int, rng: random.Random) -> MultiOp:
    """Small random integer constants on every tuple, homogeneous of the given degree."""
    constants = {}
    for key in basis.index_tuples(arity):
        target = sum(basis.degree(b) for b in key) + degree
        constants[key] = Element(
            basis,
            {t: rng.randint(-2, 2) for t in range(len(basis)) if basis.degree(t) == target},
        )
    return MultiOp(basis, arity, degree, constants)


def test_sh_residuals_match_the_defining_formula_on_an_invalid_structure():
    # odd letters and nonzero l_2(..., l_2(...), ...) terms, so the permutation
    # sign of chi(sigma) changes residuals
    rng = random.Random(20090)
    basis = GradedBasis(("a", "b", "c", "d"), (0, 1, 1, 2))
    structure = ShLeibnizStructure(
        basis, tuple(random_op(basis, i, 2 - i, rng) for i in (1, 2, 3))
    )
    verdict = check_sh_leibniz(structure, max_const=4)
    engine = {v.site: v.residual for v in verdict.violations}
    compared = 0
    for const in (2, 3, 4):
        for xs in basis.index_tuples(const - 1):
            site = (const,) + tuple(basis.names[b] for b in xs)
            expected = sh_residual_reference(structure, xs)
            assert engine.pop(site, Element.zero(basis)) == expected, site
            compared += 1
    assert compared == 84 and not engine
    assert not verdict.passed


def test_vacuous_weights_are_noted_not_passed():
    fam = shipped.load_fixture("heis3w").to_family()
    truncated = DeformationFamily(fam.bracket, fam.deltas[:1])
    structure = build_sh_structure(truncated)
    verdict = check_sh_leibniz(structure, max_const=6)
    assert verdict.passed
    assert any("vacuous" in note for note in verdict.notes)


def test_sh_check_rejects_tiny_const():
    structure = build_sh_structure(shipped.load_fixture("heisab").to_family())
    with pytest.raises(MalformedInputError):
        check_sh_leibniz(structure, max_const=1)


def test_all_operations_skew_on_shifted_abelian_subalgebra():
    doc = shipped.load_fixture("heisab")
    fam = doc.to_family()
    structure = build_sh_structure(fam)
    sbasis = structure.basis
    sub = [sbasis.index(n) for n in shipped.abelian_subalgebra("heisab")]
    for i in range(1, structure.max_arity + 1):
        op = structure.op(i)
        assert check_skewsymmetry(op, indices=sub).passed, i
        # the subspace is closed under every operation
        for key in itertools.product(sub, repeat=i):
            image = op.apply_indices(key)
            assert all(b in sub for b in image.coeffs), (i, key)


def test_odd_diagonal_value_survives_skew_check():
    # l_2(s a, s a) = s a1 is nonzero yet compatible with graded symmetry
    # because s a sits in odd degree
    doc = shipped.load_fixture("heisab")
    structure = build_sh_structure(doc.to_family())
    sbasis = structure.basis
    ia = sbasis.index("a")
    assert structure.op(2).apply_indices((ia, ia)) == sbasis.vector("a1")
    assert sbasis.degree(ia) % 2 == 1


def off_diagonal_pair_family() -> DeformationFamily:
    """Five-dimensional variant with two even generators feeding one odd one.

    Test-local on purpose: the shipped fixtures stay at four generators, and
    the off-diagonal symmetry of the induced binary operation needs a second
    even source."""
    basis = GradedBasis(("g0", "k0", "g1", "h", "w"), (0, 0, 1, 1, 2))
    g1 = basis.vector("g1")
    bracket = MultiOp(
        basis,
        2,
        0,
        {
            (basis.index("h"), basis.index("g0")): g1,
            (basis.index("h"), basis.index("k0")): g1,
            (basis.index("g0"), basis.index("h")): g1.scale(-1),
            (basis.index("k0"), basis.index("h")): g1.scale(-1),
        },
    )
    h = basis.vector("h")
    delta1 = MultiOp(
        basis, 1, 1, {(basis.index("g0"),): h, (basis.index("k0"),): h}
    )
    return DeformationFamily(bracket, (MultiOp.zero(basis, 1, 1), delta1))


def test_off_diagonal_symmetric_values():
    from shleibniz.gauge import check_deformation

    fam = off_diagonal_pair_family()
    assert check_deformation(fam) == []
    structure = build_sh_structure(fam)
    sbasis = structure.basis
    l2 = structure.op(2)
    ig, ik = sbasis.index("g0"), sbasis.index("k0")
    sg1 = sbasis.vector("g1")
    # both even sources land on the same odd element, in either order
    assert l2.apply_indices((ig, ik)) == sg1
    assert l2.apply_indices((ik, ig)) == sg1
    sub = [ig, ik, sbasis.index("g1")]
    assert check_skewsymmetry(l2, indices=sub).passed
    assert check_sh_leibniz(structure, max_const=4).passed


def test_key_lemma_on_fixture_derivations():
    doc = shipped.load_fixture("endo2")
    fam = doc.to_family()
    d1, d2 = fam.delta(0), fam.delta(1)
    for i, j in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        verdict = check_key_lemma(fam.bracket, d1, d2, i, j)
        assert verdict.passed, (i, j)


def test_key_lemma_rejects_non_derivations():
    doc = shipped.load_fixture("heis3w")
    fam = doc.to_family()
    basis = fam.basis
    not_der = MultiOp(basis, 1, 1, {(basis.index("g1"),): basis.vector("w")})
    with pytest.raises(PreconditionError):
        check_key_lemma(fam.bracket, not_der, fam.delta(0), 2, 2)
    with pytest.raises(PreconditionError):
        check_key_lemma(fam.bracket, fam.delta(0), fam.bracket, 1, 1)


def test_cohomology_differential_identity():
    for name in ("endo2", "heis3w"):
        fam = shipped.load_fixture(name).to_family()
        verdict = leibniz_cohomology_check(fam.bracket, fam.delta(0), i_max=2)
        assert verdict.passed, name


def test_cohomology_check_preconditions():
    fam = shipped.load_fixture("heis3w").to_family()
    basis = fam.basis
    not_der = MultiOp(basis, 1, 1, {(basis.index("g1"),): basis.vector("w")})
    with pytest.raises(PreconditionError):
        leibniz_cohomology_check(fam.bracket, not_der)
    with pytest.raises(PreconditionError):
        leibniz_cohomology_check(fam.bracket, fam.delta(0), derivations=[not_der])


def test_deformation_family_validation():
    doc = shipped.load_fixture("heis3w")
    bracket = doc.to_bracket()
    basis = bracket.basis
    delta = doc.to_family().delta(0)
    with pytest.raises(MalformedInputError):
        DeformationFamily(delta, (delta,))
    with pytest.raises(MalformedInputError):
        DeformationFamily(bracket, ())
    with pytest.raises(MalformedInputError):
        DeformationFamily(bracket, (bracket,))
    other = shipped.load_fixture("endo2").to_family()
    with pytest.raises(MalformedInputError):
        DeformationFamily(bracket, (other.delta(0),))
    fam = doc.to_family()
    assert fam.delta(fam.order + 5).is_zero()
    with pytest.raises(MalformedInputError):
        fam.delta(-1)
    padded = fam.extended(fam.order + 2)
    assert padded.order == fam.order + 2
    assert padded.extended(1) is padded


def test_codifferential_components_are_nested_insertions():
    fam = shipped.load_fixture("heisab").to_family()
    spec = build_codifferential(fam)
    assert spec.arities() == [1, 2]
    assert spec.components[2] == n_i_d(fam.bracket, fam.delta(1), 2)
    nested = nary_bracket(fam.bracket, 2)
    assert nested == fam.bracket

"""Higher derived brackets, the sh identities, and the codifferential route."""

from __future__ import annotations

import collections
import functools
import itertools
import random
from fractions import Fraction

import pytest

from shleibniz import coalgebra, derived, graded, multiop
from shleibniz import fixtures as shipped
from shleibniz.coalgebra import (
    TensorElement,
    evaluate_coderivation,
    extend_linearly,
)
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
)
from shleibniz.errors import EngineError, MalformedInputError, PreconditionError
from shleibniz.graded import (
    Element,
    GradedBasis,
    koszul_sign,
    shifted_degrees,
    sign_of_permutation,
    signed_unshuffles,
    unshuffles,
)
from shleibniz.multiop import (
    MultiOp,
    check_derivation,
    check_leibniz_identity,
    check_skewsymmetry,
    compose_tables,
    identity_op,
    n_i_d,
    nary_bracket,
)
from shleibniz.results import Verdict, Violation
from oracles import (
    Perturbation,
    apply,
    apply_indices,
    apply_layer,
    assert_no_dense_api,
    corestriction,
    every_pattern,
    index_tuples,
    key_lemma_direct,
    perturbation,
    perturbed_family,
    reshape,
    restrict,
    suspension_factor,
    tabulate,
    vector,
    with_constants,
)


def closed_form(bracket: MultiOp, delta: MultiOp, key: tuple[int, ...]) -> Element:
    """Independent oracle: (-1)^e N_i(delta x_1, x_2, ..., x_i) with
    e = sum of |x_j| over j < i with i - j odd, computed from scratch."""
    basis = bracket.basis
    i = len(key)
    exponent = sum(basis.degree(key[j - 1]) for j in range(1, i) if (i - j) % 2)
    value = apply_indices(delta, key[:1])
    for b in key[1:]:
        value = apply(bracket, [value, vector(basis, b)])
    return value.scale(-1 if exponent % 2 else 1)


def test_binary_closed_form_on_every_heis3w_pair():
    # l_2(s x, s y) = (-1)^(|x|) s {delta x, y}
    doc = shipped.load_fixture("heis3w")
    fam = doc.to_family()
    basis = fam.basis
    sbasis = shifted_degrees(basis)
    l2 = derived_bracket(fam.bracket, fam.delta(1), 2, nary_bracket(fam.bracket, 2))
    for key in itertools.product(range(len(basis)), repeat=2):
        expect = reshape(closed_form(fam.bracket, fam.delta(1), key), sbasis)
        assert apply_indices(l2, key) == expect, key


def test_ternary_hand_value_on_endo2():
    # delta E00 = E10, {{E10, E00}, E01} = {E10, E01} = E00 + E11, and the
    # parity exponent only sees the middle argument (degree 0), so the sign
    # stays positive
    doc = shipped.load_fixture("endo2")
    fam = doc.to_family()
    basis = fam.basis
    sbasis = shifted_degrees(basis)
    l3 = derived_bracket(fam.bracket, fam.delta(2), 3, nary_bracket(fam.bracket, 3))
    key = tuple(basis.index(n) for n in ("E00", "E00", "E01"))
    want = reshape(vector(basis, "E00") + vector(basis, "E11"), sbasis)
    assert apply_indices(l3, key) == want


def test_ternary_sign_flip_from_odd_middle_argument():
    doc = shipped.load_fixture("endo2")
    fam = doc.to_family()
    basis = fam.basis
    l3 = derived_bracket(fam.bracket, fam.delta(2), 3, nary_bracket(fam.bracket, 3))
    for key in itertools.product(range(len(basis)), repeat=3):
        expect = closed_form(fam.bracket, fam.delta(2), key)
        got = reshape(apply_indices(l3, key), basis)
        assert got == expect, key


def test_both_routes_agree_on_all_fixtures(docs, family_names):
    for name in family_names:
        fam = docs[name].to_family()
        for i in range(1, fam.order + 2):
            nested = nary_bracket(fam.bracket, i)
            a = derived_bracket_tensor(fam.bracket, fam.delta(i - 1), i, nested)
            b = derived_bracket_explicit(fam.bracket, fam.delta(i - 1), i)
            assert a == b, (name, i)


def test_derived_bracket_shape():
    fam = shipped.load_fixture("endo2").to_family()
    for i in (1, 2, 3, 4):
        op = derived_bracket(fam.bracket, fam.delta(i - 1), i, nary_bracket(fam.bracket, i))
        assert op.arity == i
        assert op.degree == 2 - i
    with pytest.raises(MalformedInputError):
        derived_bracket(fam.bracket, fam.delta(0), 0, nary_bracket(fam.bracket, 1))
    with pytest.raises(MalformedInputError):
        derived_bracket(fam.bracket, fam.bracket, 2, nary_bracket(fam.bracket, 2))
    # a delta over a foreign basis is refused even when it is zero, where no
    # tuple would ever reach it
    foreign = GradedBasis(("z", "y"), (0, 1))
    for delta in (MultiOp.zero(foreign, 1, 1), MultiOp(foreign, 1, 1, {(0,): {1: 1}})):
        for i in (1, 3):
            with pytest.raises(MalformedInputError):
                derived_bracket(fam.bracket, delta, i, nary_bracket(fam.bracket, i))
            with pytest.raises(MalformedInputError):
                derived_bracket_tensor(fam.bracket, delta, i, nary_bracket(fam.bracket, i))


def dense_route_a(bracket: MultiOp, delta: MultiOp, i: int) -> MultiOp:
    """Route (a) as first written: the signed layer composite
    (-1)^((i-1)(i-2)/2) s . N_i . s^{-1}(i) . (s delta s^{-1} (x) 1^(i-1)),
    tabulated on every one of the dim^i tuples."""
    basis = bracket.basis
    sbasis = shifted_degrees(basis)
    nested = nary_bracket(bracket, i)
    up = suspension_factor(basis, 1)
    down = suspension_factor(sbasis, -1)
    prefactor = -1 if (((i - 1) * (i - 2)) // 2) % 2 else 1

    def s_delta_s_inv(e: Element) -> Element:
        return reshape(apply(delta, [reshape(e, basis)]), sbasis)

    def fn(key: tuple[int, ...]) -> Element:
        slots = [(vector(sbasis, b), sbasis.degree(b)) for b in key]
        sign1, slots = apply_layer([(1, s_delta_s_inv)] + [(0, None)] * (i - 1), slots)
        sign2, slots = apply_layer([down] * i, slots)
        value = apply(nested, [elt for elt, _ in slots])
        sign3, lifted = apply_layer([up], [(value, value.homogeneous_degree() or 0)])
        return lifted[0][0].scale(prefactor * sign1 * sign2 * sign3)

    return tabulate(sbasis, i, 2 - i, fn)


def dense_partial_i(bracket: MultiOp, delta: MultiOp, i: int) -> MultiOp:
    """s^{-1} . l_i . s(i) with l_i from the dense route (a), tabulated on
    every one of the dim^i tuples."""
    basis = bracket.basis
    l_i = dense_route_a(bracket, delta, i)
    up = suspension_factor(basis, 1)

    def via_shift(key: tuple[int, ...]) -> Element:
        sign, slots = apply_layer([up] * i, [(vector(basis, b), basis.degree(b)) for b in key])
        return reshape(apply(l_i, [elt for elt, _ in slots]), basis).scale(sign)

    return tabulate(basis, i, 1, via_shift)


def scrambled_deformation(basis: GradedBasis, seed: int) -> MultiOp:
    """A degree +1 arity-1 operation with small random integer entries."""
    rng = random.Random(seed)
    constants = {}
    for x in range(len(basis)):
        up = [y for y in range(len(basis)) if basis.degree(y) == basis.degree(x) + 1]
        constants[(x,)] = {y: rng.randint(-2, 2) for y in up}
    return MultiOp(basis, 1, 1, constants)


def squares_with_odd_partner() -> MultiOp:
    """{e, e} = e and {e, f} = {f, e} = f with e even and f odd: not Leibniz,
    since {e, {e, e}} = e while {{e, e}, e} + {e, {e, e}} = 2e."""
    basis = GradedBasis(("e", "f"), (0, 1))
    return MultiOp(basis, 2, 0, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})


def oracle_inputs(docs, generated) -> list[tuple[str, MultiOp, list[MultiOp]]]:
    """(label, bracket, deltas) on and off the happy path; fixtures without a
    family contribute their bracket with a scrambled delta only."""
    inputs = []
    for seed, (name, doc) in enumerate(sorted(docs.items())):
        bracket = doc.to_bracket()
        fam = doc.to_family()
        shipped_deltas = [d for d in fam.deltas if not d.is_zero()] if fam else []
        inputs.append((name, bracket, shipped_deltas + [scrambled_deformation(bracket.basis, seed)]))
    for label, doc in generated.items():
        fam = doc.to_family()
        inputs.append((label, fam.bracket, [d for d in fam.deltas if not d.is_zero()]))
    square = squares_with_odd_partner()
    assert check_leibniz_identity(square)
    inputs.append(("square", square, [scrambled_deformation(square.basis, 5)]))
    return inputs


def test_route_a_matches_its_dense_tabulation(docs, generated):
    inputs = oracle_inputs(docs, generated)
    assert any(check_derivation(d, bracket) for _, bracket, deltas in inputs for d in deltas)
    for label, bracket, deltas in inputs:
        assert deltas and all(d.basis == bracket.basis for d in deltas)
        for delta in deltas:
            for i in range(1, 5):
                sparse = derived_bracket_tensor(bracket, delta, i, nary_bracket(bracket, i))
                dense = dense_route_a(bracket, delta, i)
                assert sparse == dense, (label, i)
                assert list(sparse.constants) == sorted(sparse.constants), (label, i)
                assert sparse == derived_bracket_explicit(bracket, delta, i), (label, i)


def test_partial_i_matches_its_dense_tabulation(docs, generated):
    # the codifferential component partial_i = N_i(delta (x) 1^(i-1)) is the
    # suspension conjugate s^{-1} . l_i . s(i) of the dense route (a)
    for label, bracket, deltas in oracle_inputs(docs, generated):
        for delta in deltas:
            for i in range(1, 4):
                assert n_i_d(bracket, delta, i) == dense_partial_i(bracket, delta, i), (label, i)


def test_route_a_signs_are_load_bearing(monkeypatch):
    """Route (a) with the s^{-1}(i) layer's Koszul sign dropped disagrees with
    route (b).  That is the only layer whose sign can be -1: the first layer
    and the s layer each have one operator of nonzero degree, in the first
    slot, which jumps nothing."""
    fam = shipped.load_fixture("endo2").to_family()
    build_sh_structure(fam)

    def unsigned_desuspension(op_degrees, arg_degrees):
        if all(d == -1 for d in op_degrees):
            return 1
        return graded.layer_sign(op_degrees, arg_degrees)

    monkeypatch.setattr(derived, "layer_sign", unsigned_desuspension)
    with pytest.raises(EngineError):
        build_sh_structure(fam)


def test_route_a_applies_no_operation_and_no_layer_evaluator(generated):
    fam = generated["endo2(x)Q[t]/t^2"].to_family()
    deltas = [d for d in fam.deltas if not d.is_zero()]
    expected = {
        (n, i): derived_bracket_explicit(fam.bracket, d, i)
        for n, d in enumerate(deltas)
        for i in range(1, 5)
    }
    assert_no_dense_api()
    for (n, i), want in expected.items():
        nested = nary_bracket(fam.bracket, i)
        assert derived_bracket_tensor(fam.bracket, deltas[n], i, nested) == want, (n, i)


def test_sh_structure_runs_the_identity_recurrence_once_per_family(
    docs, family_names, generated, monkeypatch
):
    # route (a) reads every N_i off one run of the recurrence on the
    # identity, up to arity order + 1; route (b) runs it on each delta
    real, runs = multiop._nested_levels, []

    def counted(bracket, op, top):
        identity = op.degree == 0 and op.constants == identity_op(op.basis).constants
        runs.append((identity, top))
        return real(bracket, op, top)

    fams = [docs[name].to_family() for name in family_names]
    fams += [doc.to_family() for doc in generated.values()]
    assert len(fams) > 4
    for fam in fams:
        expected = [
            derived_bracket_tensor(fam.bracket, d, i, nary_bracket(fam.bracket, i))
            for i, d in enumerate(fam.deltas, 1)
        ]
        with monkeypatch.context() as patched:
            patched.setattr(multiop, "_nested_levels", counted)
            runs.clear()
            structure = build_sh_structure(fam)
        top = fam.order + 1
        assert [t for identity, t in runs if identity] == [top]
        assert [t for identity, t in runs if not identity] == list(range(1, top + 1))
        assert list(structure.ops) == expected


def test_binary_derived_bracket_is_leibniz(docs, family_names):
    # a square-zero derivation induces an honest Leibniz bracket on the shift
    for name in family_names:
        fam = docs[name].to_family()
        l2 = derived_bracket(fam.bracket, fam.delta(0), 2, nary_bracket(fam.bracket, 2))
        assert check_leibniz_identity(l2) == [], name


def test_sh_structure_shape_and_truncation():
    fam = shipped.load_fixture("heisab").to_family()
    structure = build_sh_structure(fam)
    assert structure.max_arity == fam.order + 1
    assert len(structure.ops) == structure.max_arity
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


def test_the_smallest_scopes_check_weight_two_and_single_letters(docs, family_names):
    # max_const = 2 is the weight-2 identity alone and max_len = 1 the square
    # on single letters: both are accepted, pass on every family, and on each
    # designated perturbation report exactly the weight-2 or length-1
    # witnesses of the next wider scope; a smaller scope is refused
    for name in family_names:
        fam = docs[name].to_family()
        assert check_sh_leibniz(build_sh_structure(fam), max_const=2).passed, name
        assert check_codifferential(fam, max_len=1).passed, name
        bad = perturbed_family(docs[name], perturbation(name))
        structure = build_sh_structure(bad)
        wider = check_sh_leibniz(structure, max_const=3).violations
        weight_two = [v for v in wider if v.site[0] == 2]
        assert check_sh_leibniz(structure, max_const=2).violations == weight_two != [], name
        longer = check_codifferential(bad, max_len=2).violations
        letters = [v for v in longer if len(v.site) == 1]
        assert check_codifferential(bad, max_len=1).violations == letters != [], name
        for max_const in (1, 0):
            with pytest.raises(MalformedInputError):
                check_sh_leibniz(structure, max_const)
        for max_len in (0, -1):
            with pytest.raises(MalformedInputError):
                check_codifferential(bad, max_len)


def test_routes_agree_on_perturbed_families(docs, family_names):
    # both formulations must reject the same deliberately broken input
    for name in family_names:
        tweak = perturbation(name)
        bad = perturbed_family(docs[name], tweak)
        sh = check_sh_leibniz(build_sh_structure(bad), max_const=4)
        cod = check_codifferential(bad, max_len=3)
        assert not sh.passed, name
        assert not cod.passed, name
        assert sh.violations[0].residual is not None
        assert cod.violations[0].residual is not None


def codifferential_reference(
    fam: DeformationFamily, max_len: int, first_violation: bool = False
) -> list[Violation]:
    """check_codifferential as first written: the codifferential evaluated
    afresh on every word and on every word of its image."""
    spec = build_codifferential(fam)
    basis = fam.basis
    violations = []
    for length in range(1, max_len + 1):
        for word in index_tuples(basis, length):
            twice = extend_linearly(
                evaluate_coderivation(spec, word),
                lambda w: evaluate_coderivation(spec, w),
                TensorElement,
            )
            if not twice.is_zero():
                names = tuple(basis.names[i] for i in word)
                violations.append(Violation("codifferential-square", names, twice))
                if first_violation:
                    return violations
    return violations


def chain_perturbations(fam: DeformationFamily) -> list[Perturbation]:
    """Every single constant source -> target with |target| = |source| + 1,
    at every order of the family."""
    basis = fam.basis
    return [
        Perturbation(order, basis.names[x], basis.names[y], 1)
        for order in range(fam.order + 1)
        for x in range(len(basis))
        for y in range(len(basis))
        if basis.degree(y) == basis.degree(x) + 1
    ]


def test_codifferential_matches_its_per_word_loop_on_perturbations(docs, family_names, generated):
    inputs = [(name, docs[name]) for name in family_names] + [
        (label, generated[label]) for label in ("endo2(x)Q[t]/t^2", "endo2+heis3w")
    ]
    outcomes = collections.Counter()
    for label, doc in inputs:
        fam = doc.to_family()
        tweaks = chain_perturbations(fam)
        assert label not in family_names or perturbation(label) in tweaks
        max_len = 2 if len(fam.basis) >= 8 else 3
        for tweak in tweaks:
            bad = perturbed_family(doc, tweak)
            every = codifferential_reference(bad, max_len)
            for length in range(1, max_len + 1):
                expected = [v for v in every if len(v.site) <= length]
                for first in (False, True):
                    got = check_codifferential(bad, length, first_violation=first)
                    want = Verdict(expected[:1] if first else expected)
                    assert got == want, (label, tweak, length, first)
            # the shortest failing word length, 0 for a pass at max_len
            outcomes[len(every[0].site) if every else 0] += 1
    # passes the certificate must prove, and failures it must leave to the
    # walk although every shorter word holds
    assert outcomes[0] >= 50 and outcomes[2] + outcomes[3] >= 20, outcomes


def multi_constant_perturbations(
    fam: DeformationFamily, rng: random.Random, count: int
) -> list[list[Perturbation]]:
    """count draws of 2 or 3 distinct chain constants source -> target (as
    many as the basis has, if fewer), each at a random order up to one past
    the family's, with random amounts."""
    basis = fam.basis
    chain = [
        (x, y)
        for x in range(len(basis))
        for y in range(len(basis))
        if basis.degree(y) == basis.degree(x) + 1
    ]
    amounts = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
    return [
        [
            Perturbation(
                rng.randint(0, fam.order + 1), basis.names[x], basis.names[y], rng.choice(amounts)
            )
            for x, y in rng.sample(chain, min(len(chain), rng.choice((2, 3))))
        ]
        for _ in range(count)
    ]


def test_multi_constant_perturbations_agree_with_the_walk_and_the_sh_check(
    docs, family_names, generated
):
    # the scattered witnesses equal the per-word loop's whole list, and the sh
    # identities fail first at the weight one past the shortest failing word
    inputs = [(name, docs[name].to_family(), 8, 3) for name in family_names]
    inputs.append(("endo2(x)Q[t]/t^2", generated["endo2(x)Q[t]/t^2"].to_family(), 4, 3))
    rng = random.Random(1717)
    outcomes = collections.Counter()
    for label, fam, count, max_len in inputs:
        for tweaks in multi_constant_perturbations(fam, rng, count):
            bad = with_constants(fam, tweaks)
            every = codifferential_reference(bad, max_len)
            for first in (False, True):
                got = check_codifferential(bad, max_len, first_violation=first)
                want = Verdict(every[:1] if first else every)
                assert got == want, (label, tweaks, first)
            sh = check_sh_leibniz(build_sh_structure(bad), max_const=max_len + 1)
            lowest = min((v.site[0] for v in sh.violations), default=None)
            assert lowest == (len(every[0].site) + 1 if every else None), (label, tweaks)
            high = min(t.order for t in tweaks) >= 1
            outcomes[high, len(every[0].site) if every else 0] += 1
    # failures at several lengths, and some from constants of delta_n, n >= 1, alone
    assert len({length for _, length in outcomes if length}) >= 2, outcomes
    assert sum(n for (high, length), n in outcomes.items() if high and length) >= 2, outcomes


def test_reachable_words_hold_every_nonzero_corestricted_square():
    # the certificate reads the corestriction of the square off the
    # constants, arity table by arity table through compose_tables, on the
    # words the composite enumeration reaches; it must equal the lift's on
    # every word, so those words hold every nonzero corestriction.  Random
    # brackets and deltas, neither Leibniz nor square zero, give nonzero
    # corestrictions on words that only a reordering row of _composite_terms
    # reaches
    basis = GradedBasis(("a", "b", "c", "d", "e"), (0, 1, 1, 2, -1))
    nonzero = 0
    for seed in range(4):
        rng = random.Random(seed)
        bracket = random_op(basis, 2, 0, rng, density=0.5)
        deltas = tuple(random_op(basis, 1, 1, rng) for _ in range(2))
        spec = build_codifferential(DeformationFamily(bracket, deltas))
        ops = spec.components
        scattered = compose_tables({}, ops, ops, 1, 3)
        assert set(scattered) <= {1, 2, 3}
        lift = functools.partial(evaluate_coderivation, spec)
        for length in range(1, 4):
            table = scattered.get(length, {})
            for word in index_tuples(basis, length):
                square = corestriction(extend_linearly(lift(word), lift, TensorElement))
                assert Element._trusted(basis, table.get(word, {})) == square, (seed, word)
                nonzero += not square.is_zero()
    assert nonzero > 50, nonzero


def count_evaluations(monkeypatch, basis: GradedBasis) -> collections.Counter:
    """Count evaluate_coderivation calls per word over basis, wherever they
    come from.  The parity-pattern proofs evaluate free operations over
    bases of their own, once per process, and are not counted."""
    calls = collections.Counter()

    def counted(spec, word):
        if spec.basis == basis:
            calls[word] += 1
        return evaluate_coderivation(spec, word)

    for module in (derived, coalgebra):
        monkeypatch.setattr(module, "evaluate_coderivation", counted, raising=False)
    return calls


def test_certified_codifferential_never_walks_every_word(generated, monkeypatch):
    fam = generated["endo2(x)Q[t]/t^2"].to_family()
    calls = count_evaluations(monkeypatch, fam.basis)
    assert_no_dense_api()
    assert check_codifferential(fam, max_len=3) == Verdict()
    assert not calls


def test_uncertified_lift_is_an_engine_error(generated, monkeypatch):
    fam = generated["endo2(x)Q[t]/t^2"].to_family()
    monkeypatch.setattr(coalgebra, "_coderivation_failures", lambda n, *args: every_pattern(n))
    with pytest.raises(EngineError):
        check_codifferential(fam, max_len=3)


def test_uncertified_square_is_an_engine_error(generated, monkeypatch):
    # the lift of partial certifies (odd parity), the lift of the degree-2
    # square's corestriction does not
    bad = perturbed_family(generated["endo2(x)Q[t]/t^2"], PRODUCT_TWEAK)
    real = coalgebra._coderivation_failures
    monkeypatch.setattr(
        coalgebra,
        "_coderivation_failures",
        lambda n, arity, parity: real(n, arity, parity) if parity == 1 else every_pattern(n),
    )
    with pytest.raises(EngineError):
        check_codifferential(bad, max_len=3)


def test_failing_codifferential_never_walks_every_word(generated, monkeypatch):
    # the witnesses are scattered from the lift of the square's
    # corestriction: no lift of partial and no walk over every word
    bad = perturbed_family(generated["endo2(x)Q[t]/t^2"], PRODUCT_TWEAK)
    want = Verdict(codifferential_reference(bad, 3))
    calls = count_evaluations(monkeypatch, bad.basis)
    assert_no_dense_api()
    for first in (False, True):
        got = check_codifferential(bad, max_len=3, first_violation=first)
        assert got == (Verdict(want.violations[:1]) if first else want), first
    assert len(want.violations) > 100
    assert not calls


def sh_residual_reference(structure: ShLeibnizStructure, xs: tuple[int, ...]) -> Element:
    """The weight-(len(xs) + 1) sh identity on the tuple xs, term by term as
    the check_sh_leibniz docstring writes it, from the reference unshuffles and
    anti-Koszul sign chi(sigma) and plain MultiOp.apply."""
    basis = structure.basis
    const = len(xs) + 1
    degrees = [basis.degree(b) for b in xs]
    args = [vector(basis, b) for b in xs]
    total = Element.zero(basis)
    for i in range(1, const):
        j = const - i
        if max(i, j) > structure.max_arity:
            continue
        li, lj = structure.ops[i - 1], structure.ops[j - 1]
        for k in range(j, const):
            for sigma in unshuffles(k - j, j - 1):
                front = [sigma(a) - 1 for a in range(1, k - j + 1)]
                back = [sigma(a) - 1 for a in range(k - j + 1, k)]
                exponent = (k + 1 - j) * (j - 1) + j * sum(degrees[a] for a in front)
                chi = sign_of_permutation(sigma) * koszul_sign(sigma, degrees[: k - 1])
                sign = chi * (-1 if exponent % 2 else 1)
                inner = apply(lj, [args[a] for a in back] + [args[k - 1]])
                outer = apply(li, [args[a] for a in front] + [inner] + args[k:])
                total = total + outer.scale(sign)
    return total


def random_op(
    basis: GradedBasis, arity: int, degree: int, rng: random.Random, density: float = 1.0
) -> MultiOp:
    """Small random integer constants, homogeneous of the given degree, on
    every tuple or, below density 1, on about that share of the tuples."""
    constants = {}
    for key in index_tuples(basis, arity):
        if density < 1 and rng.random() >= density:
            continue
        target = sum(basis.degree(b) for b in key) + degree
        constants[key] = {
            t: rng.randint(-2, 2) for t in range(len(basis)) if basis.degree(t) == target
        }
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
        for xs in index_tuples(basis, const - 1):
            site = (const,) + tuple(basis.names[b] for b in xs)
            expected = sh_residual_reference(structure, xs)
            assert engine.pop(site, Element.zero(basis)) == expected, site
            compared += 1
    assert compared == 84 and not engine
    assert not verdict.passed


def dense_check_sh_leibniz(
    structure: ShLeibnizStructure, max_const: int, first_violation: bool = False
) -> Verdict:
    """check_sh_leibniz as first written: the residual accumulated on every
    one of the dim^(Const-1) tuples of each weight."""
    sbasis = structure.basis
    violations: list[Violation] = []
    notes: list[str] = []
    for const in range(2, max_const + 1):
        pairs = [
            (i, const - i)
            for i in range(1, const)
            if max(i, const - i) <= structure.max_arity
        ]
        if not pairs:
            notes.append(f"Const={const} vacuous under truncation")
            continue
        for xs in index_tuples(sbasis, const - 1):
            parities = tuple(sbasis.degree(b) % 2 for b in xs)
            acc: dict = {}
            for i, j in pairs:
                li = structure.ops[i - 1].constants
                lj = structure.ops[j - 1].constants
                for k in range(j, const):
                    base_sign = -1 if ((k + 1 - j) * (j - 1)) % 2 else 1
                    pinned = xs[k - 1 : k]
                    suffix = xs[k:]
                    for first, second, eps, sgn, jumped in signed_unshuffles(
                        k - j, j - 1, parities[: k - 1]
                    ):
                        inner = lj.get(tuple(xs[a] for a in second) + pinned)
                        if inner is None:
                            continue
                        sign = eps * sgn * base_sign * (-1 if j % 2 and jumped else 1)
                        prefix = tuple(xs[a] for a in first)
                        for letter, c in inner.items():
                            image = li.get(prefix + (letter,) + suffix)
                            if image is None:
                                continue
                            for b, cb in image.items():
                                acc[b] = acc.get(b, 0) + sign * c * cb
            residual = Element._trusted(sbasis, acc)
            if not residual.is_zero():
                site = (const,) + tuple(sbasis.names[b] for b in xs)
                violations.append(Violation("sh-leibniz", site, residual))
                if first_violation:
                    return Verdict(violations, notes)
    return Verdict(violations, notes)


# a single constant of delta_1 added on endo2 (x) Q[t]/t^2
PRODUCT_TWEAK = Perturbation(1, "t_E01", "E00", 1)


def sh_oracle_inputs(docs, family_names, generated) -> list[tuple[str, ShLeibnizStructure, int]]:
    """(label, structure, max_const): the corpus families and their designated
    perturbations, the dimension-8 sum and product, a perturbed product, and
    seeded random structures with odd letters and sparse l_1, l_2, l_3."""
    inputs = []
    for name in family_names:
        doc = docs[name]
        inputs.append((name, build_sh_structure(doc.to_family()), 6))
        bad = perturbed_family(doc, perturbation(name))
        inputs.append((f"{name}+tweak", build_sh_structure(bad), 6))
    for label, doc in generated.items():
        inputs.append((label, build_sh_structure(doc.to_family()), 5))
    product = generated["endo2(x)Q[t]/t^2"]
    bad = perturbed_family(product, PRODUCT_TWEAK)
    inputs.append(("endo2(x)Q[t]/t^2+tweak", build_sh_structure(bad), 5))
    basis = GradedBasis(("a", "b", "c", "d", "e"), (0, 1, 1, 2, -1))
    for seed in range(4):
        rng = random.Random(seed)
        ops = tuple(random_op(basis, i, 2 - i, rng, density=0.3) for i in (1, 2, 3))
        inputs.append((f"random{seed}", ShLeibnizStructure(basis, ops), 5))
    return inputs


def test_sh_check_matches_its_dense_loop(docs, family_names, generated):
    witnesses = collections.Counter()
    for label, structure, max_const in sh_oracle_inputs(docs, family_names, generated):
        for first in (False, True):
            sparse = check_sh_leibniz(structure, max_const, first_violation=first)
            assert sparse == dense_check_sh_leibniz(structure, max_const, first), (label, first)
            if not first:
                witnesses.update((label, v.site[0]) for v in sparse.violations)
    assert witnesses["endo2(x)Q[t]/t^2+tweak", 5] > 0
    assert all(witnesses[f"{name}+tweak", 2] > 0 for name in family_names)
    # weight 4 holds l_2 . l_2^c, whose (1, 1)-unshuffle swaps two letters,
    # so a wrong permutation sign changes these residuals
    assert sum(witnesses[f"random{seed}", 4] for seed in range(4)) > 0


def test_sh_check_never_walks_every_tuple(generated):
    structure = build_sh_structure(generated["endo2+heis3w"].to_family())
    expected = dense_check_sh_leibniz(structure, 6)
    assert expected.passed

    assert_no_dense_api()
    assert check_sh_leibniz(structure, 6) == expected


def bracket_perturbations(fam: DeformationFamily, rng: random.Random, count: int):
    """A sample of single bracket constants {x, y} -> amount * t with
    |t| = |x| + |y|, amounts +-1 or +-2."""
    basis = fam.basis
    sites = [
        (x, y, t)
        for x, y, t in itertools.product(range(len(basis)), repeat=3)
        if basis.degree(t) == basis.degree(x) + basis.degree(y)
    ]
    for x, y, t in rng.sample(sites, count):
        amount = rng.choice((-2, -1, 1, 2))
        bump = MultiOp(basis, 2, 0, {(x, y): {t: amount}})
        yield (x, y, t, amount), DeformationFamily(fam.bracket + bump, fam.deltas)


def test_both_routes_match_their_oracles_on_random_bracket_perturbations(docs, family_names):
    outcomes = collections.Counter()
    for seed, name in enumerate(family_names):
        fam = docs[name].to_family()
        for tweak, bad in bracket_perturbations(fam, random.Random(1500 + seed), 6):
            structure = build_sh_structure(bad)
            every = codifferential_reference(bad, 3)
            for first in (False, True):
                sh = check_sh_leibniz(structure, 5, first_violation=first)
                assert sh == dense_check_sh_leibniz(structure, 5, first), (name, tweak, first)
                cod = check_codifferential(bad, 3, first_violation=first)
                want = Verdict(every[:1] if first else every)
                assert cod == want, (name, tweak, first)
            # both fail first at the same weight, Const = word length + 1
            sh_first = [v.site[0] for v in sh.violations if v.site[0] <= 4]
            assert sh_first == [len(v.site) + 1 for v in every[:1]], (name, tweak)
            # the shortest failing word length, 0 for a pass
            outcomes[len(every[0].site) if every else 0] += 1
    assert outcomes[0] >= 20 and outcomes[2] + outcomes[3] >= 5, outcomes


def test_vacuous_weights_are_noted_not_passed():
    fam = shipped.load_fixture("heis3w").to_family()
    truncated = DeformationFamily(fam.bracket, fam.deltas[:1])
    structure = build_sh_structure(truncated)
    verdict = check_sh_leibniz(structure, max_const=6)
    assert verdict.passed
    assert any("vacuous" in note for note in verdict.notes)


def test_sh_check_looks_only_at_the_weights_with_pairs(docs, monkeypatch):
    # Const has a pair (i, Const - i) of arities in 1..L exactly when
    # Const <= 2L; every heavier weight is noted vacuous without looking at
    # an operation, so a large bound costs no more than Const = 2L
    structure = build_sh_structure(docs["abelian3"].to_family())
    top = structure.max_arity
    calls = collections.Counter()
    real_terms = derived._composite_terms
    slot = ShLeibnizStructure.ops

    def ops(self):
        # the field's value, read through its slot descriptor, under a
        # class-level property that counts reads
        calls["ops"] += 1
        return slot.__get__(self)

    def terms(f, g):
        calls["composite"] += 1
        return real_terms(f, g)

    monkeypatch.setattr(ShLeibnizStructure, "ops", property(ops))
    monkeypatch.setattr(derived, "_composite_terms", terms)
    max_const = 2000
    verdict = check_sh_leibniz(structure, max_const)
    assert 0 < calls["ops"] <= max_const, calls
    # one composite per pair (i, j) with 1 <= i, j <= L
    assert calls["composite"] == top * top, calls
    vacuous = range(2 * top + 1, max_const + 1)
    assert verdict.notes == [f"Const={c} vacuous under truncation" for c in vacuous]
    assert verdict.passed and not verdict.violations


def test_sh_check_rejects_tiny_const():
    structure = build_sh_structure(shipped.load_fixture("heisab").to_family())
    with pytest.raises(MalformedInputError):
        check_sh_leibniz(structure, max_const=1)


def test_all_operations_skew_on_shifted_abelian_subalgebra():
    # heisab's abelian subalgebra a, a1 tensored with Q[t]/t^2: its span
    # with t_a, t_a1 is closed under every l_i, and l_i is skewsymmetric there
    product = shipped.tensor_dual_numbers(shipped.load_fixture("heisab"), "heisabxt")
    structure = build_sh_structure(product.to_family())
    sbasis = structure.basis
    sub = [sbasis.index(n) for n in ("a", "a1", "t_a", "t_a1")]
    for i in range(1, structure.max_arity + 1):
        op = structure.ops[i - 1]
        assert check_skewsymmetry(restrict(op, sub)).passed, i
        # the subspace is closed under every operation
        images = [apply_indices(op, key) for key in itertools.product(sub, repeat=i)]
        assert all(b in sub for image in images for b in image.coeffs), i
        if i <= 2:
            assert any(not image.is_zero() for image in images), i


def test_odd_diagonal_value_survives_skew_check():
    # l_2(s a, s a) = s a1 is nonzero yet compatible with graded symmetry
    # because s a sits in odd degree
    doc = shipped.load_fixture("heisab")
    structure = build_sh_structure(doc.to_family())
    sbasis = structure.basis
    ia = sbasis.index("a")
    assert apply_indices(structure.ops[1], (ia, ia)) == vector(sbasis, "a1")
    assert sbasis.degree(ia) % 2 == 1


def off_diagonal_pair_family() -> DeformationFamily:
    """Five-dimensional variant with two even generators feeding one odd one.

    Test-local on purpose: the shipped fixtures stay at four generators, and
    the off-diagonal symmetry of the induced binary operation needs a second
    even source."""
    basis = GradedBasis(("g0", "k0", "g1", "h", "w"), (0, 0, 1, 1, 2))
    g0, k0, g1, h = (basis.index(n) for n in ("g0", "k0", "g1", "h"))
    bracket = MultiOp(
        basis,
        2,
        0,
        {(h, g0): {g1: 1}, (h, k0): {g1: 1}, (g0, h): {g1: -1}, (k0, h): {g1: -1}},
    )
    delta1 = MultiOp(basis, 1, 1, {(g0,): {h: 1}, (k0,): {h: 1}})
    return DeformationFamily(bracket, (MultiOp.zero(basis, 1, 1), delta1))


def test_off_diagonal_symmetric_values():
    from shleibniz.gauge import check_deformation

    fam = off_diagonal_pair_family()
    assert check_deformation(fam) == []
    structure = build_sh_structure(fam)
    sbasis = structure.basis
    l2 = structure.ops[1]
    ig, ik = sbasis.index("g0"), sbasis.index("k0")
    sg1 = vector(sbasis, "g1")
    # both even sources land on the same odd element, in either order
    assert apply_indices(l2, (ig, ik)) == sg1
    assert apply_indices(l2, (ik, ig)) == sg1
    sub = [ig, ik, sbasis.index("g1")]
    assert check_skewsymmetry(restrict(l2, sub)).passed
    assert check_sh_leibniz(structure, max_const=4).passed


def test_key_lemma_on_fixture_derivations():
    doc = shipped.load_fixture("endo2")
    fam = doc.to_family()
    pool = [("delta_0", fam.delta(0)), ("delta_1", fam.delta(1))]
    verdict = check_key_lemma(fam.bracket, pool, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert verdict.passed and verdict.violations == []


def test_key_lemma_rejects_non_derivations():
    doc = shipped.load_fixture("heis3w")
    fam = doc.to_family()
    basis = fam.basis
    not_der = MultiOp(basis, 1, 1, {(basis.index("g1"),): {basis.index("w"): 1}})
    delta_0 = ("delta_0", fam.delta(0))
    # each member is named by the position of its first use: the head is
    # first, every other member second
    cases = [
        ([("D", not_der), delta_0], "first operation is not a derivation"),
        ([delta_0, ("D", not_der)], "second operation is not a derivation"),
        ([delta_0, ("bracket", fam.bracket)], "second operation must have arity 1"),
    ]
    for pool, message in cases:
        with pytest.raises(PreconditionError, match=message):
            check_key_lemma(fam.bracket, pool, [(2, 2)])
    with pytest.raises(MalformedInputError):
        check_key_lemma(fam.bracket, [delta_0], [(0, 1)])


def test_key_lemma_witnesses_are_the_per_key_differences():
    # random operations, so keys of either side alone and cancelling keys
    # both occur
    basis = GradedBasis(("a", "b", "c", "d", "e"), (0, 1, 1, 2, -1))
    rng = random.Random(1515)
    left, right = random_op(basis, 2, 1, rng, 0.5), random_op(basis, 1, 1, rng, 0.5)
    rhs = coalgebra.hom_bracket(left, right)
    for lhs in (random_op(basis, 2, 2, rng, 0.5), rhs, rhs + random_op(basis, 2, 2, rng, 0.2)):
        expected = [
            Violation("key-lemma", ("D", "E", 2, 1) + tuple(basis.names[b] for b in key), residual)
            for key in sorted(lhs.constants.keys() | rhs.constants.keys())
            if not (residual := apply_indices(lhs, key) - apply_indices(rhs, key)).is_zero()
        ]
        assert derived._key_lemma_residuals(lhs, left, right, ("D", "E", 2, 1)) == expected
        assert lhs is rhs or expected


@pytest.mark.parametrize("seed", [31, 32, 33, 34])
def test_key_lemma_matches_the_direct_route_on_non_derivations(monkeypatch, seed):
    # random maps are no derivations, so nearly every combination fails and
    # the mirrored combinations must reproduce the direct residuals, sign
    # and site, in the same order
    monkeypatch.setattr(derived, "_require_derivation", lambda label, d, bracket: None)
    rng = random.Random(seed)
    basis = GradedBasis(("a", "b", "c", "d"), (0, 1, 1, 2))
    bracket = random_op(basis, 2, 0, rng, 0.4)
    odd, even = random_op(basis, 1, 1, rng), random_op(basis, 1, 0, rng)
    pool = [("P", odd), ("Q", even), ("R", random_op(basis, 1, 1, rng)), ("P2", odd)]
    arities = list(itertools.product((1, 2, 3), repeat=2))
    for first in (False, True):
        verdict = check_key_lemma(bracket, pool, arities, first)
        assert verdict.violations == key_lemma_direct(bracket, pool, arities, first)
        assert not verdict.passed
    # the combinations whose mirror comes earlier, which are not computed
    combos = list(itertools.product([n for n, _ in pool], [n for n, _ in pool], arities))
    mirrored = {
        (n1, n2, i, j)
        for k, (n1, n2, (i, j)) in enumerate(combos)
        if (n2, n1, (j, i)) in combos[:k]
    }
    sites = [v.site[:4] for v in check_key_lemma(bracket, pool, arities).violations]
    assert sum(site in mirrored for site in sites) > 10
    assert any(site[0] == site[1] != "Q" and site[2] == site[3] for site in sites)
    assert not any(site[0] == site[1] == "Q" and site[2] == site[3] for site in sites)


def test_cohomology_differential_identity():
    for name in ("endo2", "heis3w"):
        fam = shipped.load_fixture(name).to_family()
        verdict = leibniz_cohomology_check(fam.bracket, fam.delta(0), i_max=2)
        assert verdict.passed, name


def test_cohomology_check_preconditions():
    fam = shipped.load_fixture("heis3w").to_family()
    basis = fam.basis
    not_der = MultiOp(basis, 1, 1, {(basis.index("g1"),): {basis.index("w"): 1}})
    with pytest.raises(PreconditionError, match="delta_1 is not a derivation of the bracket"):
        leibniz_cohomology_check(fam.bracket, not_der)
    with pytest.raises(PreconditionError):
        leibniz_cohomology_check(fam.bracket, fam.delta(0), derivations=[not_der])


def test_cohomology_check_refuses_a_delta_that_does_not_square_to_zero():
    # x -> y -> z in degrees 0, 1, 2: every map is a derivation of the zero
    # bracket, and this one squares to x -> z
    basis = GradedBasis(("x", "y", "z"), (0, 1, 2))
    chain = MultiOp(basis, 1, 1, {(0,): {1: 1}, (1,): {2: 1}})
    zero = MultiOp.zero(basis, 2, 0)
    with pytest.raises(PreconditionError, match="delta_1 does not square to zero"):
        leibniz_cohomology_check(zero, chain)
    # a delta failing both is refused as a non-derivation first: with
    # {x, x} = x, delta{x, x} = y while {delta x, x} + {x, delta x} = 0
    square = MultiOp(basis, 2, 0, {(0, 0): {0: 1}})
    with pytest.raises(PreconditionError, match="delta_1 is not a derivation of the bracket"):
        leibniz_cohomology_check(square, chain)


@pytest.mark.parametrize("seed", [1, 5])
def test_cohomology_witnesses_are_the_per_key_differences(monkeypatch, seed):
    # preconditions waived on random maps: delta_1 is no square-zero
    # derivation and D no derivation, so both rows fail, key by key
    monkeypatch.setattr(derived, "check_differential", lambda op, bracket: Verdict())
    monkeypatch.setattr(derived, "check_derivation", lambda op, bracket: [])
    rng = random.Random(seed)
    basis = GradedBasis(("a", "b", "c", "d"), (0, 1, 1, 2))
    bracket = random_op(basis, 2, 0, rng, 0.5)
    delta1 = random_op(basis, 1, 1, rng)
    pool = [random_op(basis, 1, 0, rng), random_op(basis, 1, 1, rng)]
    partial2 = n_i_d(bracket, delta1, 2)

    def witnesses(check, lhs, rhs, site):
        return [
            Violation(check, site + tuple(basis.names[b] for b in key), residual)
            for key in sorted(lhs.constants.keys() | rhs.constants.keys())
            if not (residual := apply_indices(lhs, key) - apply_indices(rhs, key)).is_zero()
        ]

    expected = []
    for label, d in enumerate(pool):
        for i in (1, 2):
            site = (f"D{label}", i)
            lhs = n_i_d(bracket, coalgebra.hom_bracket(delta1, d), i + 1)
            image = coalgebra.hom_bracket(partial2, n_i_d(bracket, d, i))
            expected += witnesses("cohomology-differential", lhs, image, site)
            square = coalgebra.hom_bracket(partial2, image)
            zero = MultiOp.zero(basis, i + 2, square.degree)
            expected += witnesses("cohomology-square", square, zero, site)
    verdict = leibniz_cohomology_check(bracket, delta1, i_max=2, derivations=pool)
    assert verdict.violations == expected
    assert {v.check for v in expected} == {"cohomology-differential", "cohomology-square"}
    assert not verdict.passed


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

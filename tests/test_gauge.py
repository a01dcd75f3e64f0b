"""Deformation validation, gauge action, and Maurer-Cartan elements."""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from shleibniz import coalgebra
from shleibniz import fixtures as shipped
from shleibniz import gauge as gauge_module
from shleibniz import multiop
from shleibniz.coalgebra import (
    CoderivationSpec,
    TensorElement,
    TensorPairElement,
    check_coderivation_axiom,
    comultiply,
    evaluate_coderivation,
    extend_linearly,
    hom_bracket,
)
from shleibniz.derived import (
    build_codifferential,
    build_sh_structure,
    check_codifferential,
    check_sh_leibniz,
)
from shleibniz.errors import (
    EngineError,
    MalformedInputError,
    MCRejectionError,
    PreconditionError,
)
from shleibniz.gauge import (
    GaugeFamily,
    McElement,
    adjoint_op,
    build_xi,
    check_deformation,
    check_gauge_equivalence,
    exp_xi,
    gauge_transform,
    mc_to_deformation,
)
from shleibniz.graded import Element, GradedBasis
from shleibniz.linalg import derivation_basis
from shleibniz.multiop import (
    DgLeibnizAlgebra,
    MultiOp,
    compose_tables,
    hom_tables,
    identity_op,
    n_i_d,
)
from shleibniz.results import Violation
from oracles import (
    Perturbation,
    apply,
    apply_indices,
    assert_no_dense_api,
    corestriction,
    every_pattern,
    exponential_direct,
    gauge_transform_direct,
    index_tuples,
    mc_direct,
    mc_element,
    perturbation,
    perturbed_family,
    vector,
    with_constants,
)


def test_check_deformation_passes_on_fixtures(docs, family_names):
    for name in family_names:
        assert check_deformation(docs[name].to_family()) == [], name


def test_check_deformation_rejects_every_perturbed_fixture(docs, family_names):
    for name in family_names:
        tweak = perturbation(name)
        bad = perturbed_family(docs[name], tweak)
        violations = check_deformation(bad)
        assert violations, name
        squares = [v for v in violations if v.check == "deformation-square"]
        assert squares, name
        assert any(v.site[0] == 2 * tweak.order or v.site[0] >= tweak.order
                   for v in squares), name


def test_check_deformation_flags_non_derivation():
    doc = shipped.load_fixture("heis3w")
    fam = doc.to_family()
    basis = fam.basis
    from shleibniz.derived import DeformationFamily

    bump = MultiOp(basis, 1, 1, {(basis.index("g1"),): {basis.index("w"): 1}})
    bad = DeformationFamily(fam.bracket, (fam.delta(0) + bump,) + fam.deltas[1:])
    checks = {v.check for v in check_deformation(bad)}
    assert "deformation-derivation" in checks


def test_gauge_family_validation():
    doc = shipped.load_fixture("endo2")
    bracket = doc.to_bracket()
    basis = bracket.basis
    not_der = MultiOp(basis, 1, 0, {(basis.index("E00"),): {basis.index("E11"): 1}})
    with pytest.raises(PreconditionError):
        GaugeFamily(bracket, (not_der,))
    wrong_degree = MultiOp(basis, 1, 1, {(basis.index("E00"),): {basis.index("E10"): 1}})
    with pytest.raises(MalformedInputError):
        GaugeFamily(bracket, (wrong_degree,))


def test_gauge_transform_first_orders_by_hand():
    # delta'_1 = delta_1 + [delta_0, xi_1]
    # delta'_2 = delta_2 + [delta_1, xi_1] + [delta_0, xi_2]
    #          + (1/2) [[delta_0, xi_1], xi_1]
    doc = shipped.load_fixture("endo2")
    fam = doc.to_family()
    gauge = doc.to_gauge()
    out = gauge_transform(fam, gauge)
    xi1, xi2 = gauge.xis[0], gauge.xis[1]
    d0, d1, d2 = fam.delta(0), fam.delta(1), fam.delta(2)
    assert out.delta(0) == d0
    assert out.delta(1) == d1 + hom_bracket(d0, xi1)
    want2 = (
        d2
        + hom_bracket(d1, xi1)
        + hom_bracket(d0, xi2)
        + hom_bracket(hom_bracket(d0, xi1), xi1).scale(Fraction(1, 2))
    )
    assert out.delta(2) == want2


def test_gauge_transform_preserves_validity(docs, family_names):
    for name in family_names:
        doc = docs[name]
        gauge = doc.to_gauge()
        if gauge is None:
            continue
        out = gauge_transform(doc.to_family(), gauge)
        assert check_deformation(out) == [], name


def test_gauge_transform_round_trip_is_exact():
    doc = shipped.load_fixture("endo2")
    fam = doc.to_family()
    gauge = doc.to_gauge()
    negated = GaugeFamily(gauge.bracket, tuple(xi.scale(-1) for xi in gauge.xis))
    assert gauge_transform(gauge_transform(fam, gauge), negated) == fam


def test_empty_gauge_acts_trivially():
    fam = shipped.load_fixture("heisab").to_family()
    identity = GaugeFamily(fam.bracket, ())
    assert gauge_transform(fam, identity) == fam


def test_gauge_transform_preconditions():
    fam = shipped.load_fixture("heisab").to_family()
    foreign = shipped.load_fixture("endo2").to_gauge()
    with pytest.raises(MalformedInputError):
        gauge_transform(fam, foreign)


def exact_form(op: MultiOp) -> list:
    """op's constants with the type of every scalar, letters sorted as a
    report renders them: two equal operations whose scalars are not in the
    same exact form differ here."""
    return [(k, [(z, type(c), c) for z, c in sorted(v.items())]) for k, v in op.constants.items()]


def test_gauge_transform_matches_the_fraction_weighted_series(docs, family_names, generated):
    # one factorial weight per step and one division at the end against a
    # Fraction per step: every shipped family, the dimension-8 sum and the
    # product, as shipped and extended to order 4 so that four steps are
    # live, under its own gauge and two random degree-0 gauges
    rng = random.Random(3401)
    cases = {**{name: docs[name] for name in family_names}, **generated}
    moved = 0
    for name, doc in cases.items():
        for fam in (doc.to_family(), doc.to_family().extended(4)):
            gauges = [random_gauge(fam.bracket, rng, rng.randint(1, 3)) for _ in range(2)]
            gauges += [doc.to_gauge()] if doc.to_gauge() is not None else []
            for gauge in gauges:
                got, want = gauge_transform(fam, gauge), gauge_transform_direct(fam, gauge)
                assert got == want, (name, fam.order)
                assert list(map(exact_form, got.deltas)) == list(map(exact_form, want.deltas))
                moved += got != fam
    assert moved >= 2 * len(cases), moved


def test_exponential_matches_the_fraction_weighted_sum(docs, family_names, generated):
    # bound! times the Fraction-weighted sum, for the steps the gauge check
    # takes: right composition by Xi from the identity and from partial, and
    # [-, Xi] from partial, at the least bound and past it
    rng = random.Random(3402)
    cases = {**{name: docs[name] for name in family_names}, **generated}
    for name, doc in cases.items():
        fam = doc.to_family().extended(3)
        xi = build_xi(random_gauge(fam.bracket, rng, 3))
        partial = dict(build_codifferential(fam).components)
        times_xi = lambda t: compose_tables({}, t, xi.components, 1, 4)
        commutator = lambda t: hom_tables({}, t, xi.components, 1, 4)
        identity = {1: identity_op(fam.basis)}
        for tables, step in ((identity, times_xi), (partial, times_xi), (partial, commutator)):
            want = {n: op for n, op in exponential_direct(tables, step).items() if not op.is_zero()}
            for bound in (3, 5):
                unit = Fraction(1, math.factorial(bound))
                got = gauge_module._exponential(tables, step, bound)
                got = {n: op.scale(unit) for n, op in got.items() if not op.is_zero()}
                assert got == want, (name, bound)


def test_exponential_past_its_bound_is_an_engine_error(docs):
    # pr Xi^3 is nonzero on the words of length 4 under endo2's gauge: a
    # bound below 3 would weight it by bound!/3!, which is no integer
    doc = docs["endo2"]
    xi = build_xi(doc.to_gauge())
    identity = {1: identity_op(doc.to_basis())}
    times_xi = lambda t: compose_tables({}, t, xi.components, 1, 4)
    assert set(gauge_module._exponential(identity, times_xi, 3)) == {1, 2, 3, 4}
    for bound in (0, 1, 2):
        with pytest.raises(EngineError, match=f"step {bound + 1} of an exponential bounded"):
            gauge_module._exponential(identity, times_xi, bound)


def test_exp_xi_matches_manual_series_on_three_letters():
    doc = shipped.load_fixture("endo2")
    gauge = doc.to_gauge()
    spec = build_xi(gauge)
    basis = gauge.basis
    word = tuple(basis.index(n) for n in ("E10", "E01", "E00"))
    base = TensorElement.from_word(basis, word)
    once = evaluate_coderivation(spec, word)

    def lift(te):
        return extend_linearly(te, lambda w: evaluate_coderivation(spec, w), TensorElement)

    twice = lift(once)
    # Xi shortens words, so on three letters the series stops after Xi^2
    assert lift(twice).is_zero()
    manual = base + once + twice.scale(Fraction(1, 2))
    assert exp_xi(spec, word) == manual


def test_exp_xi_inverse_on_all_short_words():
    doc = shipped.load_fixture("endo2")
    gauge = doc.to_gauge()
    spec = build_xi(gauge)
    neg = CoderivationSpec(
        spec.basis, spec.degree, {a: op.scale(-1) for a, op in spec.components.items()}
    )
    basis = gauge.basis
    for length in (1, 2, 3):
        for word in itertools.product(range(len(basis)), repeat=length):
            round_trip = extend_linearly(
                exp_xi(spec, word), lambda w: exp_xi(neg, w), TensorElement
            )
            assert round_trip == TensorElement.from_word(basis, word), word


def test_exp_xi_rejects_arity_one_components():
    fam = shipped.load_fixture("endo2").to_family()
    spec = CoderivationSpec(fam.basis, 1, {1: fam.delta(0)})
    with pytest.raises(PreconditionError):
        exp_xi(spec, (0,))


def morphism_residual(word, exp_plus, split) -> TensorPairElement:
    """Delta e^Xi - (e^Xi (x) e^Xi) Delta on one word, with no sign: the
    rule a degree-0 Xi obeys."""
    grouped = extend_linearly(exp_plus(word), split, TensorPairElement)
    acc: dict = {}
    for (w1, w2), c in split(word).terms.items():
        for w1p, c1 in exp_plus(w1).terms.items():
            for w2p, c2 in exp_plus(w2).terms.items():
                acc[w1p, w2p] = acc.get((w1p, w2p), Fraction(0)) + c * c1 * c2
    return grouped - TensorPairElement(grouped.basis, acc)


def inverse_residual(word, exp_plus, exp_minus) -> TensorElement:
    """e^{-Xi} e^Xi - 1 on one word."""
    round_trip = extend_linearly(exp_plus(word), exp_minus, TensorElement)
    return round_trip - TensorElement.from_word(round_trip.basis, word)


def test_exp_of_odd_coderivation_is_not_comultiplicative():
    # the sign-free group-like rule holds for the degree-0 gauge lifts but
    # must fail for an odd-degree coderivation once words reach length 3
    fam = shipped.load_fixture("endo2").to_family()
    basis = fam.basis
    p2 = n_i_d(fam.bracket, fam.delta(1), 2)
    spec = CoderivationSpec(basis, 1, {2: p2})
    exp_plus = functools.cache(lambda w: exp_xi(spec, w))
    split = functools.cache(lambda w: comultiply(basis, w))

    assert all(
        morphism_residual(w, exp_plus, split).is_zero()
        for w in itertools.product(range(len(basis)), repeat=2)
    )
    failures = [
        w
        for w in itertools.product(range(len(basis)), repeat=3)
        if not morphism_residual(w, exp_plus, split).is_zero()
    ]
    assert len(failures) == 24


def test_check_gauge_equivalence_on_fixture_pairs(docs, family_names):
    for name in family_names:
        doc = docs[name]
        gauge = doc.to_gauge()
        if gauge is None:
            continue
        verdict = check_gauge_equivalence(doc.to_family(), gauge, max_len=3)
        assert verdict.passed, name


def commutator_step(
    components: dict[int, MultiOp], xi_spec: CoderivationSpec, max_arity: int
) -> dict[int, MultiOp]:
    """One application of [-, Xi] to arity tables: the hom bracket of every
    pair of tables, summed as operations; zero tables are dropped."""
    out: dict[int, MultiOp] = {}
    for a, f in components.items():
        for b, x in xi_spec.components.items():
            r = a + b - 1
            if r <= max_arity:
                term = hom_bracket(f, x)
                out[r] = out[r] + term if r in out else term
    return {r: op for r, op in out.items() if not op.is_zero()}


# (basis, Xi's constants, max_len) -> the exponentials of Xi and -Xi, cached
# per word, and the law violations per word
_EXPONENTIAL_LAWS: dict = {}


def exponential_laws(xi_spec: CoderivationSpec, max_len: int):
    """exp_xi under Xi and under -Xi, each cached per word, and, per word of
    length <= max_len, the violations of the comultiplicativity and inverse
    laws of e^Xi evaluated on that word.  All of it depends on Xi and
    max_len alone, so it is built once per gauge and length and shared by
    every reference call on that gauge, whatever its delta."""
    frozen = tuple(
        (a, tuple(sorted((k, tuple(sorted(v.items()))) for k, v in op.constants.items())))
        for a, op in sorted(xi_spec.components.items())
    )
    cache_key = (xi_spec.basis, frozen, max_len)
    if cache_key in _EXPONENTIAL_LAWS:
        return _EXPONENTIAL_LAWS[cache_key]
    neg_xi = CoderivationSpec(
        xi_spec.basis, 0, {a: op.scale(-1) for a, op in xi_spec.components.items()}
    )
    basis = xi_spec.basis
    exp_plus = functools.cache(lambda w: exp_xi(xi_spec, w))
    exp_neg = functools.cache(lambda w: exp_xi(neg_xi, w))
    split = functools.cache(lambda w: comultiply(basis, w))
    laws = {}
    for word in (w for n in range(1, max_len + 1) for w in index_tuples(basis, n)):
        names = tuple(basis.names[i] for i in word)
        found = []
        residual = morphism_residual(word, exp_plus, split)
        if not residual.is_zero():
            found.append(Violation("gauge-comultiplicative", names, residual))
        round_trip = inverse_residual(word, exp_plus, exp_neg)
        if not round_trip.is_zero():
            found.append(Violation("gauge-exp-inverse", names, round_trip))
        laws[word] = found
    _EXPONENTIAL_LAWS[cache_key] = exp_plus, exp_neg, laws
    return exp_plus, exp_neg, laws


def first_of_each_tag(violations: list[Violation]) -> list[Violation]:
    """The first violation of each check tag, in list order: what a check
    keeps under first_violation."""
    heads: dict[str, Violation] = {}
    for v in violations:
        heads.setdefault(v.check, v)
    return list(heads.values())


def gauge_reference(fam, gauge, max_len: int, first_violation: bool = False) -> list[Violation]:
    """check_gauge_equivalence as first written: every word is walked, and
    each exponential, lift and comultiplication is evaluated on a word.  The
    laws of e^Xi are evaluated on every word once per gauge and length
    (exponential_laws), and the order expansion takes its own commutator
    step (commutator_step).  Under first_violation the walk stops at the
    first word with a violation and the expansion at its first differing
    arity, and the first violation of each tag is kept."""
    fam_x = fam.extended(max(fam.order, max_len - 1))
    partial = build_codifferential(fam_x)
    partial_prime = build_codifferential(gauge_module.gauge_transform(fam_x, gauge))
    xi_spec = gauge_module.build_xi(gauge)
    basis = fam.basis
    exp_plus, exp_neg, laws = exponential_laws(xi_spec, max_len)
    lift = functools.cache(lambda w: evaluate_coderivation(partial, w))

    violations = []
    for word in (w for n in range(1, max_len + 1) for w in index_tuples(basis, n)):
        names = tuple(basis.names[i] for i in word)
        lhs = evaluate_coderivation(partial_prime, word)
        image = extend_linearly(exp_plus(word), lift, TensorElement)
        rhs = extend_linearly(image, exp_neg, TensorElement)
        if lhs != rhs:
            violations.append(Violation("gauge-conjugation", names, lhs - rhs))
        violations += laws[word]
        if first_violation and violations:
            break
    max_arity = fam_x.order + 1
    expanded = dict(partial.components)
    current = dict(partial.components)
    p = 0
    while current:
        p += 1
        current = commutator_step(current, xi_spec, max_arity)
        for a, op in current.items():
            scaled = op.scale(Fraction(1, math.factorial(p)))
            expanded[a] = expanded[a] + scaled if a in expanded else scaled
    for a in range(1, max_arity + 1):
        zero = MultiOp.zero(basis, a, 1)
        if expanded.get(a, zero) != partial_prime.components.get(a, zero):
            detail = (
                f"arity-{a} component of exp([-, Xi]) partial "
                "differs from the transformed codifferential"
            )
            violations.append(Violation("gauge-order-expansion", (a,), None, detail))
            if first_violation:
                break
    return first_of_each_tag(violations) if first_violation else violations


def test_untransformed_family_fails_like_the_per_word_loop(monkeypatch):
    doc = shipped.load_fixture("endo2")
    fam, gauge = doc.to_family(), doc.to_gauge()
    monkeypatch.setattr(gauge_module, "gauge_transform", lambda fam, gauge, order=None: fam)
    found = {}
    for first in (False, True):
        got = check_gauge_equivalence(fam, gauge, max_len=3, first_violation=first).violations
        assert got == gauge_reference(fam, gauge, 3, first), first
        found[first] = got
    assert found[True] == first_of_each_tag(found[False])
    assert [v.check for v in found[True]] == ["gauge-conjugation", "gauge-order-expansion"]
    assert {v.check for v in found[False]} == {"gauge-conjugation", "gauge-order-expansion"}


def gauge_fixtures(docs):
    return [(name, doc) for name, doc in sorted(docs.items()) if doc.to_gauge() is not None]


def test_gauge_laws_are_proved_like_the_per_word_loop(docs):
    # Xi's lift certifies on every shipped gauge, and the verdicts equal the
    # reference's, which evaluates both laws on every word
    cases = [(name, doc, max_len) for name, doc in gauge_fixtures(docs) for max_len in (3, 4)]
    product = shipped.tensor_dual_numbers(docs["endo2"], "endo2xt")
    cases.append(("endo2xt", product, 3))
    for name, doc, max_len in cases:
        fam, gauge = doc.to_family(), doc.to_gauge()
        assert check_coderivation_axiom(build_xi(gauge), max_len).passed, (name, max_len)
        got = check_gauge_equivalence(fam, gauge, max_len).violations
        if max_len == 3:
            assert got == gauge_reference(fam, gauge, max_len), name
        assert got == [], (name, max_len)


def test_uncertified_xi_lift_is_an_engine_error(docs, monkeypatch):
    # only the degree-0 proofs fail: the lifts of partial and partial' are odd
    real = coalgebra._coderivation_failures
    monkeypatch.setattr(
        coalgebra,
        "_coderivation_failures",
        lambda n, arity, parity: real(n, arity, parity) if parity == 1 else every_pattern(n),
    )
    doc = docs["endo2"]
    with pytest.raises(EngineError, match="degree-0 lift"):
        check_gauge_equivalence(doc.to_family(), doc.to_gauge(), max_len=3)


def random_gauge(bracket: MultiOp, rng: random.Random, order: int) -> GaugeFamily:
    """xi_1, ..., xi_order, each a random rational combination of up to two
    degree-0 derivations of the bracket."""
    derivations = derivation_basis(bracket, [0])
    xis = []
    for _ in range(order):
        xi = MultiOp.zero(bracket.basis, 1, 0)
        for d in rng.sample(derivations, min(2, len(derivations))):
            xi = xi + d.scale(rng.choice((1, -1, 2, Fraction(1, 2))))
        xis.append(xi)
    return GaugeFamily(bracket, tuple(xis))


def with_random_constant(
    spec: CoderivationSpec, rng: random.Random, arities: tuple[int, ...]
) -> CoderivationSpec:
    """spec with one seeded constant added: a key of one of these arities
    sent to a basis letter of the degree spec's degree asks for."""
    basis = spec.basis
    choices = [
        (a, key, t)
        for a in arities
        for key in index_tuples(basis, a)
        for t in range(len(basis))
        if basis.degree(t) == sum(basis.degree(i) for i in key) + spec.degree
    ]
    a, key, t = rng.choice(choices)
    bump = MultiOp(basis, a, spec.degree, {key: {t: rng.choice((1, -1, Fraction(1, 2)))}})
    components = dict(spec.components)
    components[a] = components[a] + bump if a in components else bump
    return CoderivationSpec(basis, spec.degree, components)


def table_value(tables: dict[int, MultiOp], basis: GradedBasis, word) -> Element:
    """The value on one word of the map with these arity tables; an absent
    arity is zero."""
    op = tables.get(len(word))
    return apply_indices(op, word) if op is not None else Element.zero(basis)


def test_corestricted_defect_matches_the_walk_on_random_gauges(docs, family_names):
    # the scattered arity tables of pr G, G = partial e^Xi - e^Xi partial',
    # against the corestriction of G evaluated word by word, with partial'
    # the transformed family (G = 0), the untransformed one (G != 0 once Xi
    # moves words), and one seeded constant added to partial, Xi or partial';
    # and the tables F_k of pr e^Xi against exp_xi's single-letter terms
    rng, tweak_rng = random.Random(1701), random.Random(1702)
    nonzero = collections.Counter()
    failing = collections.Counter()
    for name in family_names:
        fam = docs[name].to_family().extended(3)
        basis = fam.basis
        gauge = random_gauge(fam.bracket, rng, rng.randint(1, 2))
        xi = build_xi(gauge)
        partial = build_codifferential(fam)
        right = build_codifferential(gauge_transform(fam, gauge))
        cases = [
            ("transformed", xi, partial, right),
            ("untransformed", xi, partial, build_codifferential(fam)),
        ]
        for _ in range(2):
            cases += [
                ("partial", xi, with_random_constant(partial, tweak_rng, (1, 2, 3, 4)), right),
                ("xi", with_random_constant(xi, tweak_rng, (2, 3, 4)), partial, right),
                ("partial'", xi, partial, with_random_constant(right, tweak_rng, (1, 2, 3, 4))),
            ]
        for kind, x, d, prime in cases:
            exp_plus = functools.cache(lambda w: exp_xi(x, w))
            lift = functools.cache(lambda w: evaluate_coderivation(d, w))
            lift_prime = functools.cache(lambda w: evaluate_coderivation(prime, w))
            # both come out weighted by 3! = (max_len - 1)!, pr G with scale 1
            tables = gauge_module._scattered_defect(d, prime, x, 4, 1)
            taylor = gauge_module._exponential(
                {1: identity_op(basis)}, lambda t: compose_tables({}, t, x.components, 1, 4), 3
            )
            for word in (w for n in range(1, 5) for w in index_tuples(basis, n)):
                head = corestriction(exp_plus(word))
                assert table_value(taylor, basis, word) == head.scale(6), (name, kind, word)
                g = extend_linearly(exp_plus(word), lift, TensorElement) - extend_linearly(
                    lift_prime(word), exp_plus, TensorElement
                )
                want = corestriction(g)
                assert table_value(tables, basis, word) == want.scale(6), (name, kind, word)
                nonzero[kind] += not want.is_zero()
            failing[kind] += bool(tables)
    # a constant added to partial or partial' shows in pr G at its own key;
    # one added to Xi can be killed by partial
    assert failing["transformed"] == 0 and failing["untransformed"] >= 2, failing
    assert failing["partial"] == failing["partial'"] == 10 and failing["xi"] >= 5, failing
    assert nonzero["untransformed"] >= 50, nonzero


def assert_matches_reference(fam, gauge, max_len: int, label) -> list[Violation]:
    """The gauge check's whole violation list against the reference's, for
    both first_violation values; under first_violation each sub-check keeps
    its first witness, so the list is the head of each tag of the full one."""
    want = gauge_reference(fam, gauge, max_len)
    for first in (False, True):
        got = check_gauge_equivalence(fam, gauge, max_len, first_violation=first).violations
        assert got == (first_of_each_tag(want) if first else want), (label, max_len, first)
    return want


def test_random_gauges_keep_every_family_a_deformation(docs, family_names, generated):
    # gauge closure: a deformation moved by a degree-0 gauge is again one,
    # so the sh identities, the codifferential square and the gauge
    # equivalence under a further random gauge pass on it wherever they
    # pass on the untransformed family; the family is extended first, as
    # check_gauge_equivalence extends before it transforms, so every
    # operation of weight <= max_const is transformed
    rng = random.Random(2901)
    max_const, max_len = 6, 4
    cases = {**{name: docs[name] for name in family_names}, **generated}
    moved = set()
    for name, doc in cases.items():
        fam = doc.to_family().extended(max_const - 2)
        gauges = [random_gauge(fam.bracket, rng, rng.randint(1, 3)) for _ in range(2)]
        transformed = [gauge_transform(fam, gauge) for gauge in gauges]
        if any(family != fam for family in transformed):
            moved.add(name)
        for family, further in zip([fam] + transformed, gauges[-1:] + gauges):
            assert check_sh_leibniz(build_sh_structure(family), max_const).passed, name
            assert check_codifferential(family, max_len).passed, name
            assert check_gauge_equivalence(family, further, max_len).passed, name
    # every family is moved by some gauge, so no check passes on a copy
    assert moved == set(cases), moved


def test_perturbed_families_fail_like_the_per_word_loop(docs):
    # every single constant source -> target added to delta_n, with a seeded
    # amount, on every shipped gauge: the witnesses are read off the lift of
    # partial' - exp([-, Xi]) partial, and the reference walks every word.
    # The defect is linear in delta, so the amount does not decide the verdict
    rng = random.Random(1704)
    failed = collections.Counter()
    for name, doc in gauge_fixtures(docs):
        fam, gauge = doc.to_family(), doc.to_gauge()
        basis = fam.basis
        tweaks = [
            Perturbation(n, basis.names[x], basis.names[y], rng.choice((1, -1, 2, Fraction(1, 2))))
            for n in range(fam.order + 1)
            for x in range(len(basis))
            for y in range(len(basis))
            if basis.degree(y) == basis.degree(x) + 1
        ]
        for tweak in tweaks:
            bad = with_constants(fam, [tweak])
            for max_len in (3, 4):
                if assert_matches_reference(bad, gauge, max_len, (name, tweak)):
                    failed[name, max_len] += 1
    assert failed == {("endo2", 3): 12, ("endo2", 4): 12, ("heis3w", 3): 1, ("heis3w", 4): 1}


def test_corrupted_xi_fails_like_the_per_word_loop(docs, monkeypatch):
    # one seeded constant of arity 2, 3 or 4 added to Xi, three per shipped
    # gauge; both sides read Xi from build_xi
    real = gauge_module.build_xi
    rng = random.Random(1705)
    failed = collections.Counter()
    for name, doc in gauge_fixtures(docs):
        fam, gauge = doc.to_family(), doc.to_gauge()
        for _ in range(3):
            xi = with_random_constant(real(gauge), rng, (2, 3, 4))
            monkeypatch.setattr(gauge_module, "build_xi", lambda gauge, xi=xi: xi)
            for max_len in (3, 4):
                failed[max_len] += bool(assert_matches_reference(fam, gauge, max_len, name))
    assert failed[3] >= 5 and failed[4] >= 8, failed


def test_routes_that_disagree_on_the_conjugation_are_an_engine_error(docs, monkeypatch):
    # pr G decides the verdict, the lift of partial' - exp([-, Xi]) partial
    # names the witnesses; a table on a passing input, or none on a failing
    # one, means the two routes disagree
    doc = docs["endo2"]
    fam, gauge = doc.to_family(), doc.to_gauge()
    bad = perturbed_family(doc, perturbation("endo2"))
    assert not check_gauge_equivalence(bad, gauge, 3).passed
    monkeypatch.setattr(gauge_module, "_scattered_defect", lambda *args: {1: fam.delta(0)})
    with pytest.raises(EngineError, match="disagree on the conjugation"):
        check_gauge_equivalence(fam, gauge, 3)
    monkeypatch.setattr(gauge_module, "_scattered_defect", lambda *args: {})
    with pytest.raises(EngineError, match="disagree on the conjugation"):
        check_gauge_equivalence(bad, gauge, 3)


def test_corrupted_transforms_fail_like_the_per_word_loop(docs, generated, monkeypatch):
    # one constant source -> target added to delta'_n: the witnesses are read
    # off the lift of partial' - exp([-, Xi]) partial and must be the walk's;
    # five corruptions per shipped gauge and two on the dimension-8 sum
    real = gauge_module.gauge_transform
    rng = random.Random(1703)
    failed = collections.Counter()
    cases = [(name, doc, 5) for name, doc in gauge_fixtures(docs)]
    cases.append(("endo2+heis3w", generated["endo2+heis3w"], 2))
    for name, doc, count in cases:
        fam, gauge = doc.to_family(), doc.to_gauge()
        right = real(fam.extended(max(fam.order, 2)), gauge)
        basis = fam.basis
        tweaks = [
            Perturbation(n, basis.names[x], basis.names[y], 1)
            for n in range(right.order + 1)
            for x in range(len(basis))
            for y in range(len(basis))
            if basis.degree(y) == basis.degree(x) + 1
        ]
        for tweak in rng.sample(tweaks, min(count, len(tweaks))):
            bad = with_constants(right, [tweak])
            monkeypatch.setattr(gauge_module, "gauge_transform", lambda fam, gauge, order=None: bad)
            failed[name] += bool(assert_matches_reference(fam, gauge, 3, (name, tweak)))
    assert failed.pop("endo2+heis3w") == 2 and sum(failed.values()) >= 10, failed


def test_rational_gauges_pass_and_fail_like_the_per_word_loop(docs):
    # endo2's gauge scaled by 1/3 is still a derivation and has no integer
    # constant, so every table of the check holds Fractions: the family
    # passes, and its designated perturbation fails with the walk's whole
    # violation list, whose values are not all integers
    doc = docs["endo2"]
    gauge = doc.to_gauge()
    third = GaugeFamily(gauge.bracket, tuple(xi.scale(Fraction(1, 3)) for xi in gauge.xis))
    scalars = [c for xi in third.xis for image in xi.constants.values() for c in image.values()]
    assert scalars and all(type(c) is Fraction for c in scalars)
    bad = perturbed_family(doc, perturbation("endo2"))
    for max_len in (3, 4):
        assert assert_matches_reference(doc.to_family(), third, max_len, "endo2") == []
        found = assert_matches_reference(bad, third, max_len, "perturbed endo2")
        values = [c for v in found if v.residual is not None for c in v.residual.coeffs.values()]
        assert any(type(c) is Fraction for c in values), max_len


def test_a_passing_gauge_check_composes_integer_tables_only(docs, monkeypatch):
    # every weight of the three series is an integer, so on integer
    # constants no table that reaches compose_into holds a Fraction: not
    # the operations composed, not the scale and not the accumulator
    real = multiop.compose_into
    calls = collections.Counter()

    def integral(acc, f, g, scale):
        real(acc, f, g, scale)
        tables = [f.constants, g.constants, acc]
        scalars = [c for table in tables for image in table.values() for c in image.values()]
        assert type(scale) is int and all(type(c) is int for c in scalars), (f, g)
        calls[f.arity, g.arity] += 1

    monkeypatch.setattr(multiop, "compose_into", integral)
    fixtures = gauge_fixtures(docs)
    for name, doc in fixtures:
        ops = [doc.to_bracket(), *doc.to_family().deltas, *doc.to_gauge().xis]
        scalars = [c for op in ops for image in op.constants.values() for c in image.values()]
        assert all(type(c) is int for c in scalars), name
        assert check_gauge_equivalence(doc.to_family(), doc.to_gauge(), 4).passed, name
    assert len(fixtures) >= 4 and sum(calls.values()) > 100, calls


def refuse_words(monkeypatch, bases) -> collections.Counter:
    """Check that no walk over basis tuples is left to call, and count the
    calls of exp_xi, of evaluate_coderivation and of the witness scatter on
    these bases; the certificates' generic words live over bases of their
    own."""
    assert_no_dense_api()
    calls = collections.Counter()
    for module, name in (
        (gauge_module, "exp_xi"),
        (gauge_module, "evaluate_coderivation"),
        (coalgebra, "evaluate_coderivation"),
        (coalgebra, "scattered_lift"),
    ):
        real = getattr(module, name)

        def counted(spec, arg, name=name, real=real):
            if spec.basis in bases:
                calls[name] += 1
            return real(spec, arg)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_certified_gauge_pass_evaluates_no_inverse_exponential(docs, monkeypatch):
    # a passing conjugation is decided from the constants: no exponential
    # and no lift is evaluated on any word, and no witness is scattered
    fixtures = gauge_fixtures(docs)
    calls = refuse_words(monkeypatch, [doc.to_basis() for _, doc in fixtures])
    for name, doc in fixtures:
        assert check_gauge_equivalence(doc.to_family(), doc.to_gauge(), max_len=4).passed, name
    assert calls == {}, calls


def random_degree_zero_spec(rng: random.Random) -> CoderivationSpec:
    """A degree-0 coderivation over a random basis of two or three letters,
    with rational constants on about half the keys of arity 2 and 3."""
    dim = rng.choice((2, 3))
    degrees = tuple(rng.choice((-1, 0, 1)) for _ in range(dim))
    basis = GradedBasis(tuple(f"x{i}" for i in range(dim)), degrees)
    components = {}
    for arity in rng.choice(((2,), (3,), (2, 3))):
        constants = {}
        for key in index_tuples(basis, arity):
            targets = [t for t in range(dim) if degrees[t] == sum(degrees[i] for i in key)]
            if targets and rng.random() < 0.5:
                coeffs = {t: rng.choice((1, -2, Fraction(1, 2), Fraction(-3, 4))) for t in targets}
                constants[key] = coeffs
        components[arity] = MultiOp(basis, arity, 0, constants)
    return CoderivationSpec(basis, 0, components)


def test_certified_gauge_laws_hold_on_random_coderivations():
    # every degree-0 lift certifies, and the two facts the proofs in the gauge
    # module rest on hold on every word of length <= 4
    rng = random.Random(20094)
    moved = 0
    for _ in range(8):
        spec = random_degree_zero_spec(rng)
        neg = CoderivationSpec(
            spec.basis, 0, {a: op.scale(-1) for a, op in spec.components.items()}
        )
        basis = spec.basis
        assert check_coderivation_axiom(spec, 4).passed
        exp_plus = functools.cache(lambda w: exp_xi(spec, w))
        exp_minus = functools.cache(lambda w: exp_xi(neg, w))
        split = functools.cache(lambda w: comultiply(basis, w))
        for word in (w for n in range(1, 5) for w in index_tuples(basis, n)):
            assert evaluate_coderivation(neg, word) == -evaluate_coderivation(spec, word), word
            assert morphism_residual(word, exp_plus, split).is_zero(), word
            assert inverse_residual(word, exp_plus, exp_minus).is_zero(), word
            moved += exp_plus(word) != TensorElement.from_word(basis, word)
    # e^Xi must move enough words that a vanishing residual says something
    assert moved >= 100, moved


def corrupted_endo2(monkeypatch):
    """endo2 with one constant added to delta'_1, fed to the gauge check
    through gauge_transform, so that the conjugation fails."""
    doc = shipped.load_fixture("endo2")
    fam, gauge = doc.to_family(), doc.to_gauge()
    real = gauge_module.gauge_transform
    tweak = Perturbation(1, "E01", "E00", 1)
    monkeypatch.setattr(
        gauge_module,
        "gauge_transform",
        lambda fam, gauge: with_constants(real(fam, gauge), [tweak]),
    )
    return fam, gauge


def failing_gauge_checks(docs, monkeypatch, max_len: int) -> collections.Counter:
    """Run the gauge check, with words refused, on endo2 with E01 -> E00
    added to delta_0 and on endo2 with the same constant added to delta'_1;
    both must fail the conjugation. Returns the calls on endo2's basis."""
    doc = docs["endo2"]
    calls = refuse_words(monkeypatch, [doc.to_basis()])
    bad = perturbed_family(doc, perturbation("endo2"))
    verdicts = [check_gauge_equivalence(bad, doc.to_gauge(), max_len=max_len)]
    verdicts.append(check_gauge_equivalence(*corrupted_endo2(monkeypatch), max_len=max_len))
    for verdict in verdicts:
        assert "gauge-conjugation" in {v.check for v in verdict.violations}
    return calls


def test_gauge_check_exponentiates_each_word_once(docs, monkeypatch):
    # the witnesses are read off partial' - exp([-, Xi]) partial, so no word's
    # e^Xi or e^-Xi is summed at all, let alone twice
    calls = failing_gauge_checks(docs, monkeypatch, max_len=3)
    assert calls["exp_xi"] == 0, calls


def test_gauge_check_lifts_xi_once_per_word(docs, monkeypatch):
    # no lift of Xi or of the difference is evaluated on a word: each check
    # scatters the difference's lift once
    calls = failing_gauge_checks(docs, monkeypatch, max_len=4)
    assert calls == {"scattered_lift": 2}, calls


def test_check_gauge_equivalence_rejects_tiny_scope():
    doc = shipped.load_fixture("endo2")
    with pytest.raises(MalformedInputError):
        check_gauge_equivalence(doc.to_family(), doc.to_gauge(), max_len=0)


def test_adjoint_op_values_and_validation():
    doc = shipped.load_fixture("quartic")
    bracket = doc.to_bracket()
    basis = bracket.basis
    ad_v = adjoint_op(bracket, vector(basis, "v"), 1)
    assert apply_indices(ad_v, (basis.index("v"),)) == vector(basis, "w")
    assert apply_indices(ad_v, (basis.index("u"),)) == vector(basis, "v").scale(-1)
    with pytest.raises(MalformedInputError):
        adjoint_op(bracket, vector(basis, "v"), 2)
    # an arity-1 operation or a bracket of nonzero degree is no bracket
    for bad in (MultiOp.zero(basis, 1, 0), MultiOp(basis, 2, 1, {(1, 0): {2: 1}})):
        with pytest.raises(MalformedInputError):
            adjoint_op(bad, vector(basis, "v"), 1)


def test_mc_element_validation():
    basis = shipped.load_fixture("quartic").to_basis()
    with pytest.raises(MalformedInputError):
        McElement(())
    with pytest.raises(MalformedInputError):
        McElement((vector(basis, "u"),))
    mc = McElement((vector(basis, "v"),))
    assert mc.order == 1
    assert mc.theta(1) == vector(basis, "v")
    assert mc.theta(2) is None


def test_mc_accepted_on_endo2_and_family_is_valid():
    doc = shipped.load_fixture("endo2")
    fam = doc.to_family()
    algebra = DgLeibnizAlgebra(doc.to_basis(), fam.bracket, fam.delta(0))
    induced = mc_to_deformation(algebra, mc_element("endo2"))
    assert induced.order == 1
    assert check_deformation(induced) == []
    theta = mc_element("endo2").theta(1)
    assert induced.delta(1) == adjoint_op(fam.bracket, theta, 1)


def test_mc_rejected_on_quartic_at_second_order():
    # theta_1 = v satisfies the linear term, but (1/2){v, v} = w/2 shows up
    # exactly at order 2, inside the doubled truncation window
    doc = shipped.load_fixture("quartic")
    bracket = doc.to_bracket()
    basis = bracket.basis
    algebra = DgLeibnizAlgebra(basis, bracket, MultiOp.zero(basis, 1, 1))
    with pytest.raises(MCRejectionError) as excinfo:
        mc_to_deformation(algebra, mc_element("quartic"))
    assert excinfo.value.order == 2
    assert excinfo.value.residual == vector(basis, "w").scale(Fraction(1, 2))


def test_mc_requires_skewsymmetric_bracket():
    doc = shipped.load_fixture("l2b")
    fam = doc.to_family()
    algebra_args = (doc.to_basis(), fam.bracket, fam.delta(0))
    algebra = DgLeibnizAlgebra(*algebra_args)
    theta = McElement((vector(fam.basis, "b"),))
    with pytest.raises(PreconditionError):
        mc_to_deformation(algebra, theta)


def cancelling_algebra() -> DgLeibnizAlgebra:
    """p and q odd, r of degree 2, {p, p} = r and d q = r: a dg Lie
    algebra on which theta = (p, -q/2) is Maurer-Cartan only because
    d theta_2 cancels the nonzero (1/2) {theta_1, theta_1}."""
    basis = GradedBasis(("p", "q", "r"), (1, 1, 2))
    bracket = MultiOp(basis, 2, 0, {(0, 0): {2: 1}})
    return DgLeibnizAlgebra(basis, bracket, MultiOp(basis, 1, 1, {(1,): {2: 1}}))


def mc_outcome(build, algebra: DgLeibnizAlgebra, mc: McElement):
    """The deltas with their key order, or the refusal's type, text, order
    and residual."""
    try:
        fam = build(algebra, mc)
    except PreconditionError as exc:
        return type(exc), str(exc), getattr(exc, "order", None), getattr(exc, "residual", None)
    return [(delta, list(delta.constants)) for delta in fam.deltas]


def test_maurer_cartan_matches_its_element_arithmetic():
    # random candidates over every fixture's degree-1 letters, with
    # Fraction coefficients and one to three orders, against the Element
    # arithmetic: accepted ones give equal deltas, rejected ones the same
    # MCRejectionError order and residual, l2b the same precondition
    rng = random.Random(3302)
    algebras = {}
    for name in shipped.fixture_names():
        doc = shipped.load_fixture(name)
        fam = doc.to_family()
        d = fam.delta(0) if fam is not None else MultiOp.zero(doc.to_basis(), 1, 1)
        algebras[name] = DgLeibnizAlgebra(doc.to_basis(), doc.to_bracket(), d)
    algebras["cancelling"] = cancelling_algebra()
    cases = []
    for name, algebra in sorted(algebras.items()):
        basis = algebra.basis
        odd = [b for b in range(len(basis)) if basis.degree(b) == 1]
        for _ in range(12):
            thetas = tuple(
                Element(basis, {b: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for b in odd})
                for _ in range(rng.randint(1, 3))
            )
            cases.append((name, McElement(thetas)))
    # with a and c nonzero: (a p, -a^2/2 q) passes, as d theta_2 = -a^2/2 r
    # cancels (1/2) {theta_1, theta_1} = a^2/2 r; adding c p to theta_2
    # fails at order 3 with a c r, and (0, c p) at order 4 with c^2/2 r
    p_, q_ = (vector(algebras["cancelling"].basis, n) for n in ("p", "q"))
    for _ in range(4):
        a, c = (Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)) for _ in range(2))
        for thetas in (
            (p_.scale(a), q_.scale(-a * a / 2)),
            (p_.scale(a), p_.scale(c) + q_.scale(-a * a / 2)),
            (Element(p_.basis, {}), p_.scale(c)),
        ):
            cases.append(("cancelling", McElement(thetas)))
    cases.append(("cancelling", McElement((p_, q_.scale(Fraction(-1, 2))))))
    accepted, rejected = collections.Counter(), collections.Counter()
    for name, mc in cases:
        algebra = algebras[name]
        got = mc_outcome(mc_to_deformation, algebra, mc)
        assert got == mc_outcome(mc_direct, algebra, mc), (name, mc.thetas)
        if type(got) is list:
            accepted[name] += 1
        else:
            rejected[got[0].__name__, got[2]] += 1
    assert accepted["cancelling"] >= 5
    assert len(accepted) >= 5 and sum(accepted.values()) >= 50, accepted
    assert rejected[("PreconditionError", None)] == 12, rejected
    assert {order for kind, order in rejected if kind == "MCRejectionError"} == {1, 2, 3, 4}
    # the quadratic term of (p, -q/2) is nonzero on its own
    cancelling = algebras["cancelling"]
    assert apply(cancelling.bracket, [p_, p_]) == vector(cancelling.basis, "r")
    fam = mc_to_deformation(cancelling, cases[-1][1])
    assert fam.deltas[1:] == (adjoint_op(cancelling.bracket, p_, 1), MultiOp.zero(p_.basis, 1, 1))


def test_a_theta_over_a_foreign_basis_is_refused():
    # the same names and degrees plus one letter: another basis, refused
    # before any of its letters is read, at the order it first appears
    doc = shipped.load_fixture("endo2")
    fam = doc.to_family()
    algebra = DgLeibnizAlgebra(doc.to_basis(), fam.bracket, fam.delta(0))
    basis = algebra.basis
    foreign = GradedBasis(basis.names + ("X",), basis.degrees + (1,))
    theta = Element(foreign, {foreign.index("X"): 1})
    text = "^argument lives over a foreign basis$"
    with pytest.raises(MalformedInputError, match=text):
        adjoint_op(fam.bracket, theta, 1)
    with pytest.raises(MalformedInputError, match=text):
        mc_to_deformation(algebra, McElement((theta,)))
    native = Element(basis, {basis.index("E10"): 1})
    with pytest.raises(MalformedInputError, match=text):
        mc_to_deformation(algebra, McElement((native, theta)))
    # an order that fails first is reported before a later foreign one
    cancelling = cancelling_algebra()
    q = Element(cancelling.basis, {cancelling.basis.index("q"): 1})
    with pytest.raises(MCRejectionError, match="order 1"):
        mc_to_deformation(cancelling, McElement((q, theta)))

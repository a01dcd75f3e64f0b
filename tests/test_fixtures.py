"""The shipped corpus: small, valid, and each one breakable on purpose."""

from __future__ import annotations

import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from shleibniz import fixtures as shipped
from shleibniz.document import parse_document, serialize_document
from shleibniz.gauge import check_deformation
from shleibniz.multiop import check_leibniz_identity
from oracles import (
    abelian_subalgebra,
    apply_indices,
    family_fixture_names,
    mc_element,
    perturbation,
    perturbed_family,
    vector,
)


def test_roster():
    names = shipped.fixture_names()
    assert len(names) == 6
    assert names == tuple(sorted(names))
    family = family_fixture_names()
    assert len(family) >= 5
    assert set(family) <= set(names)
    assert "quartic" in set(names) - set(family)


def test_fixtures_stay_small():
    for name in shipped.fixture_names():
        doc = shipped.load_fixture(name)
        assert len(doc.basis) <= 4, doc.name
        fam = doc.to_family()
        if fam is not None:
            assert fam.order <= 3, doc.name


def test_every_fixture_is_a_leibniz_algebra(docs):
    for name, doc in docs.items():
        assert check_leibniz_identity(doc.to_bracket()) == [], name


def test_every_family_fixture_is_square_zero(docs, family_names):
    for name in family_names:
        assert check_deformation(docs[name].to_family()) == [], name


def test_designated_perturbations_are_minimal_and_effective(docs, family_names):
    for name in family_names:
        tweak = perturbation(name)
        doc = docs[name]
        fam = doc.to_family()
        bad = perturbed_family(doc, tweak)
        assert bad.order == fam.order
        # exactly one order changed, by one basis-to-basis constant
        changed = [
            n for n in range(fam.order + 1) if bad.delta(n) != fam.delta(n)
        ]
        assert changed == [tweak.order], name
        diff = bad.delta(tweak.order) + fam.delta(tweak.order).scale(-1)
        basis = fam.basis
        src = basis.index(tweak.source)
        assert apply_indices(diff, (src,)) == vector(basis, tweak.target).scale(
            tweak.amount
        )
        assert check_deformation(bad), name


def test_unknown_names_raise():
    # lookup is by membership in the packaged roster, never by a path built
    # from the name
    for name in ("nope", "../pyproject", "endo2.alg"):
        with pytest.raises(KeyError):
            shipped.fixture_text(name)
    with pytest.raises(KeyError):
        shipped.load_fixture("nope")
    with pytest.raises(KeyError):
        perturbation("quartic")
    with pytest.raises(KeyError):
        mc_element("heisab")
    with pytest.raises(KeyError):
        abelian_subalgebra("endo2")


def test_mc_candidates_have_degree_one_components():
    for name in ("endo2", "quartic"):
        mc = mc_element(name)
        basis = shipped.load_fixture(name).to_basis()
        for n in range(1, mc.order + 1):
            theta = mc.theta(n)
            assert theta is not None
            assert theta.homogeneous_degree() == 1, name


def test_abelian_subalgebra_contract():
    names = abelian_subalgebra("heisab")
    doc = shipped.load_fixture("heisab")
    bracket = doc.to_bracket()
    basis = bracket.basis
    span = [basis.index(n) for n in names]
    # abelian: the original bracket vanishes on the span; that the span is
    # closed under the induced operations is acceptance criterion 07
    for pair in itertools.product(span, repeat=2):
        assert apply_indices(bracket, pair).is_zero()


def test_fixture_gauges_are_present_for_families(docs, family_names):
    for name in family_names:
        assert docs[name].to_gauge() is not None, name


def test_direct_sum_prefixes_and_pads():
    endo2, heis3w = shipped.load_fixture("endo2"), shipped.load_fixture("heis3w")
    doc = shipped.direct_sum([heis3w, endo2], ["p_", "q_"], "sum")
    assert len(doc.basis) == 8
    assert doc.basis[0] == ("p_g0", 0) and doc.basis[4] == ("q_E01", -1)
    assert len(doc.deltas) == 4 and len(doc.gauges) == 2
    # heis3w has orders 0..2 only, so its part of delta_3 is zero
    assert all(name.startswith("q_") for name, _ in doc.deltas[3])


def test_tensor_with_dual_numbers_multiplies_powers_of_t():
    doc = shipped.tensor_dual_numbers(shipped.load_fixture("heis3w"), "prod")
    bracket = {(a, b): terms for a, b, terms in doc.bracket}
    assert len(doc.basis) == 8
    assert [n for _, n in bracket[("g0", "t_h")]] == ["t_g1"]
    assert ("t_g0", "t_h") not in bracket  # t^2 = 0


def generated_inputs(docs, family_names):
    """Every ordered sum of two distinct family fixtures, and every family
    fixture tensored with Q[t]/t^2: dimension at most 8."""
    for left, right in itertools.permutations(family_names, 2):
        yield shipped.direct_sum([docs[left], docs[right]], ["l_", "r_"], f"{left}+{right}")
    for name in family_names:
        yield shipped.tensor_dual_numbers(docs[name], f"{name}xt")


def test_generated_inputs_are_valid_inputs(docs, family_names):
    for doc in generated_inputs(docs, family_names):
        assert len(doc.basis) <= 8, doc.name
        assert parse_document(serialize_document(doc)) == doc, doc.name
        assert check_leibniz_identity(doc.to_bracket()) == [], doc.name
        assert check_deformation(doc.to_family()) == [], doc.name


def load_bench_gen():
    """bench/gen.py, loaded read-only from its file: bench/ is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_generators_match_the_package(docs):
    # the benchmark's recipes: its two sums in every summand order, prefixed
    # from its letters, and its two products; equal documents serialise to
    # equal text, so the benchmark's reference digests carry over
    gen = load_bench_gen()
    letters = ("a", "b", "p", "q", "u", "v", "x", "y")
    rng = random.Random(0)
    for summands in (("endo2", "heis3w"), ("heis3w", "heisab", "l2b")):
        for order in itertools.permutations(summands):
            parts = [docs[s] for s in order]
            prefixes = [p + "_" for p in rng.sample(letters, len(order))]
            name = "+".join(order)
            assert shipped.direct_sum(parts, prefixes, name) == gen.direct_sum(parts, prefixes, name)
    for base in ("endo2", "heis3w"):
        name = f"{base}xt"
        assert shipped.tensor_dual_numbers(docs[base], name) == gen.tensor_dual_numbers(docs[base], name)

"""Exact nullspace solver and the derivation-space search built on it."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shleibniz import fixtures as shipped
from shleibniz.errors import MalformedInputError
from shleibniz.linalg import derivation_basis, nullspace
from shleibniz.coalgebra import hom_bracket
from shleibniz.multiop import check_derivation


def test_nullspace_rank_one_system():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    kernel = nullspace(rows, 2)
    assert kernel == [[Fraction(-2), Fraction(1)]]


def test_nullspace_full_rank_is_trivial():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert nullspace(rows, 2) == []


def test_nullspace_zero_matrix_gives_identity_pattern():
    kernel = nullspace([[Fraction(0)] * 3], 3)
    assert len(kernel) == 3
    for i, vec in enumerate(kernel):
        assert vec[i] == 1
        assert sum(1 for c in vec if c) == 1


def test_nullspace_rejects_ragged_input():
    with pytest.raises(MalformedInputError):
        nullspace([[Fraction(1)], [Fraction(1), Fraction(2)]], 2)


@st.composite
def small_matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=4))
    nrows = draw(st.integers(min_value=1, max_value=4))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    return rows, ncols


@given(small_matrices())
def test_nullspace_vectors_annihilate(data):
    rows, ncols = data
    for vec in nullspace(rows, ncols):
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@given(small_matrices())
def test_nullspace_dimension_matches_rank_deficit(data):
    rows, ncols = data
    kernel = nullspace(rows, ncols)
    # each kernel vector carries a coordinate where it alone is nonzero, so
    # the returned family is linearly independent by construction
    free_cols = set()
    for vec in kernel:
        lone = [i for i, c in enumerate(vec) if c == 1 and all(
            other[i] == 0 for other in kernel if other is not vec
        )]
        assert lone
        free_cols.update(lone)
    assert len(free_cols) >= len(kernel)


def test_derivation_basis_members_are_derivations():
    bracket = shipped.load_fixture("quartic").to_bracket()
    found = derivation_basis(bracket)
    assert found
    for op in found:
        assert check_derivation(op, bracket) == []


def test_derivation_basis_contains_inner_derivations():
    # ad u is a degree-0 derivation of the quartic bracket; it must lie in the
    # span of the degree-0 part of the solver output
    bracket = shipped.load_fixture("quartic").to_bracket()
    basis = bracket.basis
    ad_u = {
        (basis.index(src),): bracket.apply_indices((basis.index("u"), basis.index(src)))
        for src in ("u", "v", "w")
    }
    degree_zero = [op for op in derivation_basis(bracket, degrees=[0])]
    assert degree_zero
    # membership via the nullspace of the augmented system: if appending ad u
    # to the family increases the kernel of "linear combination = 0", ad u is
    # dependent on the family, hence in its span
    slots = [(b, c) for b in range(3) for c in range(3)
             if basis.degree(c) == basis.degree(b)]
    cols = []
    for op in degree_zero:
        cols.append([op.apply_indices((b,)).coeffs.get(c, Fraction(0)) for b, c in slots])
    target = [
        ad_u.get((b,)).coeffs.get(c, Fraction(0)) if (b,) in ad_u else Fraction(0)
        for b, c in slots
    ]
    rows = [[col[k] for col in cols] + [target[k]] for k in range(len(slots))]
    kernel = nullspace(rows, len(cols) + 1)
    assert any(vec[-1] for vec in kernel)


def test_derivation_basis_closed_under_commutator():
    bracket = shipped.load_fixture("endo2").to_bracket()
    found = derivation_basis(bracket, degrees=[0, 1])
    for a in found:
        for b in found:
            assert check_derivation(hom_bracket(a, b), bracket) == []


def test_derivation_basis_empty_degrees():
    bracket = shipped.load_fixture("endo2").to_bracket()
    assert derivation_basis(bracket, degrees=[9]) == []

"""Exact nullspace solver and the derivation-space search built on it."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shleibniz import fixtures as shipped
from shleibniz import linalg
from shleibniz.errors import EngineError, MalformedInputError
from shleibniz.linalg import derivation_basis, nullspace
from shleibniz.coalgebra import hom_bracket
from shleibniz.multiop import MultiOp, check_derivation, check_leibniz_identity
from oracles import apply_indices, assert_no_dense_api
from test_multiop import perturbed_bracket


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
        (basis.index(src),): apply_indices(bracket, (basis.index("u"), basis.index(src)))
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
        cols.append([apply_indices(op, (b,)).coeffs.get(c, Fraction(0)) for b, c in slots])
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


def test_derivation_basis_refuses_a_non_derivation_from_the_solver(monkeypatch):
    # the closing check raises rather than asserts, so python -O keeps it:
    # a kernel of every elementary map holds maps that are no derivations
    bracket = shipped.load_fixture("endo2").to_bracket()

    def every_unit(rows, ncols):
        return [[Fraction(int(k == j)) for k in range(ncols)] for j in range(ncols)]

    monkeypatch.setattr(linalg, "nullspace", every_unit)
    with pytest.raises(EngineError, match="solver produced a non-derivation"):
        derivation_basis(bracket, degrees=[0])


def dense_derivation_basis(bracket: MultiOp, degrees: Sequence[int] | None = None) -> list[MultiOp]:
    """The solver's dense system: one row per basis triple (x, y, t) and
    output letter, each of the three terms of the derivation rule read
    through apply_indices."""
    basis = bracket.basis
    n = len(basis)
    if degrees is None:
        degrees = sorted({basis.degree(c) - basis.degree(b) for b in range(n) for c in range(n)})
    out: list[MultiOp] = []
    for g in degrees:
        slots = [
            (b, c) for b in range(n) for c in range(n)
            if basis.degree(c) == basis.degree(b) + g
        ]
        if not slots:
            continue
        index = {s: k for k, s in enumerate(slots)}
        rows: list[list[Fraction]] = []
        for x in range(n):
            for y in range(n):
                sign = -1 if (basis.degree(x) * g) % 2 else 1
                for t in range(n):
                    row = [Fraction(0)] * len(slots)
                    # D{x,y}: route the bracket image through D
                    for u, beta in apply_indices(bracket, (x, y)).coeffs.items():
                        if (u, t) in index:
                            row[index[(u, t)]] += beta
                    # -{Dx, y}
                    for c in range(n):
                        if (x, c) in index:
                            row[index[(x, c)]] -= apply_indices(bracket, (c, y)).coeffs.get(
                                t, Fraction(0)
                            )
                    # -(-1)^(|x| g) {x, Dy}
                    for c in range(n):
                        if (y, c) in index:
                            row[index[(y, c)]] -= sign * apply_indices(bracket, (x, c)).coeffs.get(
                                t, Fraction(0)
                            )
                    if any(row):
                        rows.append(row)
        for vec in nullspace(rows, len(slots)):
            constants = {}
            for (b, c), k in index.items():
                if vec[k]:
                    constants.setdefault((b,), {})[c] = vec[k]
            op = MultiOp(basis, 1, g, constants)
            assert not check_derivation(op, bracket), "solver produced a non-derivation"
            out.append(op)
    return out


def test_derivation_basis_matches_its_dense_system(docs, generated):
    # the same operations in the same order: the nullspace depends on the
    # row space alone, so any system with the same rows gives the same basis
    rng = random.Random(23)
    cases = []
    for _, doc in sorted(docs.items()) + sorted(generated.items()):
        bracket = doc.to_bracket()
        cases += [bracket] + [perturbed_bracket(bracket, rng) for _ in range(2)]
    failing = 0
    for bracket in cases:
        assert derivation_basis(bracket) == dense_derivation_basis(bracket), bracket
        failing += bool(check_leibniz_identity(bracket))
    assert failing >= 8, failing


def test_derivation_basis_never_walks_every_triple(docs, generated):
    brackets = [doc.to_bracket() for _, doc in sorted(docs.items()) + sorted(generated.items())]
    expected = [dense_derivation_basis(bracket) for bracket in brackets]
    assert_no_dense_api()
    for bracket, want in zip(brackets, expected):
        assert derivation_basis(bracket) == want

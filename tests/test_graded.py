"""Sign conventions and the graded linear layer.

The Koszul sign is validated against two independent oracles: a bubble
sort accumulating one factor per adjacent swap, and an insertion sort
taking a different path through the symmetric group.  Both must agree
with the inversion-pair product used by the library.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shleibniz.coalgebra import TensorElement, TensorPairElement
from shleibniz.errors import MalformedInputError
from shleibniz.graded import (
    Element,
    GradedBasis,
    Permutation,
    Shift,
    exact,
    format_element,
    koszul_sign,
    layer_sign,
    shifted_degrees,
    sign_of_permutation,
    signed_unshuffles,
    unshuffles,
)
from shleibniz.multiop import MultiOp
from oracles import apply_layer, suspension_factor, vector

DEGREES = (-2, -1, 0, 1, 2, 3)


def koszul_by_bubble_sort(images: tuple[int, ...], degrees: tuple[int, ...]) -> int:
    """Sort the arrangement back to identity by adjacent swaps.

    Each swap of symbols with original positions p, q contributes
    (-1)^(deg_p * deg_q); the product is path-independent.
    """
    arr = list(images)
    sign = 1
    for stop in range(len(arr) - 1, 0, -1):
        for k in range(stop):
            if arr[k] > arr[k + 1]:
                sign *= (-1) ** (degrees[arr[k] - 1] * degrees[arr[k + 1] - 1])
                arr[k], arr[k + 1] = arr[k + 1], arr[k]
    return sign


def koszul_by_insertion_sort(images: tuple[int, ...], degrees: tuple[int, ...]) -> int:
    arr = list(images)
    sign = 1
    for k in range(1, len(arr)):
        pos = k
        while pos > 0 and arr[pos - 1] > arr[pos]:
            sign *= (-1) ** (degrees[arr[pos - 1] - 1] * degrees[arr[pos] - 1])
            arr[pos - 1], arr[pos] = arr[pos], arr[pos - 1]
            pos -= 1
    return sign


def perms(n: int):
    return (Permutation(images) for images in itertools.permutations(range(1, n + 1)))


def test_koszul_matches_both_sort_oracles_exhaustively():
    for n in (2, 3, 4):
        for perm in perms(n):
            for degrees in itertools.product((-1, 0, 1, 2), repeat=n):
                expected = koszul_by_bubble_sort(perm.images, degrees)
                assert koszul_by_insertion_sort(perm.images, degrees) == expected
                assert koszul_sign(perm, degrees) == expected


def test_koszul_hand_values():
    swap = Permutation((2, 1))
    # swapping two odd symbols costs a sign, even-anything costs none
    assert koszul_sign(swap, (1, 1)) == -1
    assert koszul_sign(swap, (1, 3)) == -1
    assert koszul_sign(swap, (0, 5)) == 1
    assert koszul_sign(swap, (2, 1)) == 1
    cycle = Permutation((2, 3, 1))
    # inversions of (2,3,1): pairs (2,1) and (3,1)
    assert koszul_sign(cycle, (1, 1, 1)) == 1
    assert koszul_sign(cycle, (1, 0, 1)) == -1


def test_sign_of_permutation_is_inversion_parity():
    for n in (2, 3, 4):
        for perm in perms(n):
            inversions = sum(
                1
                for a in range(n)
                for b in range(a + 1, n)
                if perm.images[a] > perm.images[b]
            )
            assert sign_of_permutation(perm) == (-1) ** inversions


def test_koszul_with_all_even_degrees_is_one():
    for perm in perms(4):
        assert koszul_sign(perm, (0, 2, 0, 2)) == 1


def test_koszul_with_all_odd_degrees_is_permutation_sign():
    for perm in perms(4):
        assert koszul_sign(perm, (1, 1, 3, 1)) == sign_of_permutation(perm)


@given(
    images=st.permutations(tuple(range(1, 6))),
    degrees=st.tuples(*([st.sampled_from(DEGREES)] * 5)),
)
def test_koszul_oracle_property(images, degrees):
    perm = Permutation(tuple(images))
    assert koszul_sign(perm, degrees) == koszul_by_bubble_sort(tuple(images), degrees)


def brute_force_unshuffles(p: int, q: int) -> list[tuple[int, ...]]:
    out = []
    for images in itertools.permutations(range(1, p + q + 1)):
        if all(images[k] < images[k + 1] for k in range(p - 1)) and all(
            images[k] < images[k + 1] for k in range(p, p + q - 1)
        ):
            out.append(images)
    return out


def test_unshuffles_match_brute_force_filter():
    for p in range(0, 4):
        for q in range(0, 4):
            got = [perm.images for perm in unshuffles(p, q)]
            assert got == sorted(brute_force_unshuffles(p, q))
            assert len(got) == math.comb(p + q, p)


@given(p=st.integers(0, 4), q=st.integers(0, 4))
def test_unshuffle_count(p, q):
    assert len(unshuffles(p, q)) == math.comb(p + q, p)


def test_unshuffles_are_lexicographic():
    images = [perm.images for perm in unshuffles(2, 2)]
    assert images == sorted(images)


def test_signed_unshuffles_match_reference_signs():
    # degrees of both parities and several sizes: the table is keyed by parity
    for n in range(7):
        for parities in itertools.product((0, 1), repeat=n):
            degrees = tuple(par - 2 * pos for pos, par in enumerate(parities))
            for p in range(n + 1):
                rows = signed_unshuffles(p, n - p, parities)
                perms = unshuffles(p, n - p)
                assert len(rows) == len(perms)
                for (first, second, eps, sgn, jumped), sigma in zip(rows, perms):
                    assert first + second == tuple(i - 1 for i in sigma.images)
                    assert eps == koszul_sign(sigma, degrees)
                    assert sgn == sign_of_permutation(sigma)
                    assert jumped == sum(degrees[i] for i in first) % 2


# --- the graded tensor layer ---


def test_two_suspensions_anticommute():
    # (1 (x) s)(s (x) 1) = s (x) s = -(s (x) 1)(1 (x) s)
    for a in (-1, 0, 1, 2):
        for b in (-1, 0, 1, 2):
            first = layer_sign((1, 0), (a, b)) * layer_sign((0, 1), (a + 1, b))
            second = layer_sign((0, 1), (a, b)) * layer_sign((1, 0), (a, b + 1))
            assert first == -second


def test_layer_sign_jump_rule():
    # the factor in slot j picks up the degrees of all arguments before it,
    # so for two slots the sign is (-1)^(|A_2| * |v_1|)
    assert layer_sign((1,), (7,)) == 1
    assert layer_sign((0, 1), (1, 4)) == -1
    assert layer_sign((0, 1), (2, 4)) == 1
    assert layer_sign((1, 1), (1, 1)) == -1
    assert layer_sign((1, 1), (0, 1)) == 1
    assert layer_sign((1, 2, 1), (1, 1, 0)) == 1


def test_iterated_suspension_round_trip_sign():
    # lowering after raising i slots costs (-1)^(i(i-1)/2)
    basis = GradedBasis(("p", "q"), (0, 1))
    up = suspension_factor(basis, Shift.RAISE)
    raised = shifted_degrees(basis, Shift.RAISE)
    down = suspension_factor(raised, Shift.LOWER)
    for i in (1, 2, 3, 4):
        for letters in itertools.product(range(2), repeat=i):
            slots = [
                (Element(basis, {k: Fraction(1)}), basis.degrees[k]) for k in letters
            ]
            total = 1
            for slot in range(i):
                factors = [up if j == slot else (0, None) for j in range(i)]
                sign, slots = apply_layer(factors, slots)
                total *= sign
            for slot in range(i):
                factors = [down if j == slot else (0, None) for j in range(i)]
                sign, slots = apply_layer(factors, slots)
                total *= sign
            assert total == (-1) ** (i * (i - 1) // 2)
            for (elt, deg), k in zip(slots, letters):
                assert elt == Element(basis, {k: Fraction(1)})
                assert deg == basis.degrees[k]


# --- elements and bases ---


def test_basis_rejects_duplicates_and_mismatched_lengths():
    with pytest.raises(MalformedInputError):
        GradedBasis(("x", "x"), (0, 1))
    with pytest.raises(MalformedInputError):
        GradedBasis(("x", "y"), (0,))


def test_shifted_degrees_keeps_names():
    basis = GradedBasis(("x", "y"), (0, 3))
    up = shifted_degrees(basis, Shift.RAISE)
    assert up.names == basis.names
    assert up.degrees == (1, 4)
    assert shifted_degrees(up, Shift.LOWER) == basis


def test_element_arithmetic_and_homogeneity():
    basis = GradedBasis(("x", "y", "z"), (0, 1, 1))
    x = vector(basis, "x")
    y = vector(basis, "y")
    z = vector(basis, "z")
    assert (x + x).items() == [(0, Fraction(2))]
    assert (y - y).is_zero()
    assert (y + z).homogeneous_degree() == 1
    with pytest.raises(MalformedInputError):
        (x + y).homogeneous_degree()
    assert x.homogeneous_degree() == 0
    assert Element(basis, {}).homogeneous_degree() is None


def test_coefficients_are_stored_as_exact_scalars():
    basis = GradedBasis(("x", "y", "z"), (0, 1, 1))
    elt = Element(basis, {0: Fraction(4, 2), 1: Fraction(-4, 6), 2: 1})
    assert [(type(c), c) for _, c in elt.items()] == [
        (int, 2), (Fraction, Fraction(-2, 3)), (int, 1)
    ]
    assert [type(c) for _, c in elt.scale(Fraction(3, 2)).items()] == [int, int, Fraction]
    assert exact(Fraction(-6, 3)) == -2 and type(exact(Fraction(-6, 3))) is int
    assert exact(7) == 7 and exact(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [0.1, 1.0, "1", "1/2", Decimal("0.5"), True, None, 1j])
def test_inexact_coefficients_are_refused(bad):
    basis = GradedBasis(("x", "y"), (0, 1))
    kind = type(bad).__name__
    with pytest.raises(MalformedInputError, match=rf"coefficient of 1 is a {kind}\b"):
        Element(basis, {0: 1, 1: bad})
    with pytest.raises(MalformedInputError, match=rf"coefficient of \(0, 1\) is a {kind}\b"):
        TensorElement(basis, {(0, 1): bad})
    with pytest.raises(MalformedInputError, match=rf"coefficient of \(\(0,\), \(1,\)\) is a {kind}"):
        TensorPairElement(basis, {((0,), (1,)): bad})
    with pytest.raises(MalformedInputError, match=rf"scalar is a {kind}\b"):
        vector(basis, "x").scale(bad)
    with pytest.raises(MalformedInputError, match=rf"scalar is a {kind}\b"):
        bad * vector(basis, "x")
    op = MultiOp(basis, 1, 1, {(0,): {basis.index("y"): 1}})
    with pytest.raises(MalformedInputError, match=rf"scalar is a {kind}\b"):
        op.scale(bad)
    with pytest.raises(MalformedInputError, match=rf"coefficient of 1 is a {kind}\b"):
        MultiOp(basis, 1, 1, {(0,): {1: bad}})


@given(
    coeffs=st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=3,
        max_size=3,
    ),
    scalar=st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_element_scaling_distributes(coeffs, scalar):
    basis = GradedBasis(("x", "y", "z"), (0, 1, 2))
    elt = Element(basis, {k: c for k, c in enumerate(coeffs)})
    assert elt.scale(scalar) + elt.scale(scalar) == elt.scale(2 * scalar)
    assert (elt + elt).scale(scalar) == elt.scale(2 * scalar)


def test_format_element_is_stable():
    basis = GradedBasis(("g1", "h", "w"), (1, 1, 2))
    elt = Element(
        basis, {0: Fraction(1, 2), 1: Fraction(1), 2: Fraction(-2)}
    )
    assert format_element(elt) == "1/2 g1 + h - 2 w"
    assert format_element(Element(basis, {})) == "0"
    assert format_element(Element(basis, {1: Fraction(-1)})) == "-h"

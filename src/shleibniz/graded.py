"""Graded vector spaces over the rationals: bases, Koszul signs, unshuffles.

Everything downstream works with a finite homogeneous basis of an integer-graded
vector space V = (+) V_n and exact rational coefficients.  The sign conventions
are fixed once here and consumed everywhere else:

* Koszul rule for moving graded symbols past each other: exchanging adjacent
  symbols of degrees p and q costs (-1)^(p*q).  The Koszul sign eps(sigma) of a
  permutation acting on symbols of given degrees is the product of these costs
  over the inversions of sigma.
* The anti-Koszul sign chi(sigma) = sgn(sigma) * eps(sigma).
* Applying a tensor product of homogeneous operators to homogeneous arguments,
  (A_1 (x) ... (x) A_n)(v_1 (x) ... (x) v_n) picks up
  (-1)^(sum_j |A_j| * (|v_1| + ... + |v_{j-1}|)); see ``layer_sign``.

The formal suspension s raises every degree by one; its tensor powers are
ordinary operator layers under the rule above, so s(i) and s^{-1}(i) need no
special casing and s^{-1}(i) s(i) = (-1)^(i(i-1)/2) falls out of ``layer_sign``.

Two pieces are shared by every layer above: ``signed_unshuffles``, the one
cached table of unshuffles with their signs that the comultiplication, the
coderivation lifts and the sh identities all loop over; and ``SparseVector``,
the one implementation of sparse exact vector arithmetic behind ``Element``
here and the tensor elements of the coalgebra.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import MalformedInputError


@dataclass(frozen=True)
class GradedBasis:
    """Ordered homogeneous basis with integer degrees."""

    names: tuple[str, ...]
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.degrees):
            raise MalformedInputError(
                f"basis has {len(self.names)} names but {len(self.degrees)} degrees"
            )
        if len(set(self.names)) != len(self.names):
            raise MalformedInputError("basis names must be distinct")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MalformedInputError(f"unknown basis name {name!r}") from None

    def degree(self, index: int) -> int:
        return self.degrees[index]

    def vector(self, key: int | str) -> "Element":
        index = self.index(key) if isinstance(key, str) else key
        return Element(self, {index: 1})

    def index_tuples(self, length: int) -> Iterator[tuple[int, ...]]:
        """All tuples of basis indices of the given length, lexicographic."""
        return itertools.product(range(len(self)), repeat=length)


class Shift(Enum):
    """Formal degree shift: RAISE is the suspension s, LOWER its inverse."""

    RAISE = 1
    LOWER = -1


def shifted_degrees(basis: GradedBasis, shift: Shift) -> GradedBasis:
    """Same names, every degree moved by +1 (RAISE) or -1 (LOWER)."""
    return GradedBasis(basis.names, tuple(d + shift.value for d in basis.degrees))


def _letter_name(basis: GradedBasis, index: int) -> str:
    return basis.names[index]


class SparseVector:
    """Sparse vector over a GradedBasis: keys mapped to Fraction coefficients.

    Immutable by convention; all operations return fresh vectors of the same
    class.  Zero coefficients are never stored.  Subclasses fix the kind of
    key (``_check_key``) and the order ``items`` lists them in (``_order``).
    """

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: GradedBasis, coeffs: Mapping | None = None):
        clean: dict = {}
        if coeffs:
            check = self._check_key
            for key, c in coeffs.items():
                key = check(basis, key)
                c = Fraction(c)
                if c:
                    clean[key] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", clean)

    @staticmethod
    def _check_key(basis: GradedBasis, key):
        """Validated, normalised key; raises MalformedInputError."""
        raise NotImplementedError

    @staticmethod
    def _order(key):
        return key

    _render_key = staticmethod(_letter_name)

    @classmethod
    def _trusted(cls, basis: GradedBasis, coeffs: Mapping):
        """Vector from keys and Fraction values already known to be valid.

        For arithmetic results and engine accumulators: zeros are dropped,
        keys and coefficients are taken as they are.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "basis", basis)
        object.__setattr__(out, "coeffs", {k: c for k, c in coeffs.items() if c})
        return out

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, basis: GradedBasis):
        return cls._trusted(basis, {})

    @property
    def terms(self) -> dict:
        """The coefficients, under the name the tensor coalgebra uses."""
        return self.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> list:
        return sorted(self.coeffs.items(), key=lambda kv: self._order(kv[0]))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.basis == other.basis and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.basis, tuple(self.items())))

    def _combine(self, other: "SparseVector", negate: bool):
        if self.basis != other.basis:
            raise MalformedInputError("vectors live over different bases")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            if negate:
                c = -c
            out[k] = out[k] + c if k in out else c
        return self._trusted(self.basis, out)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return self._trusted(self.basis, {k: -c for k, c in self.coeffs.items()})

    def scale(self, scalar: Fraction | int):
        scalar = Fraction(scalar)
        return self._trusted(self.basis, {k: scalar * c for k, c in self.coeffs.items()})

    def __rmul__(self, scalar: Fraction | int):
        return self.scale(scalar)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_element(self, self._render_key)})"


class Element(SparseVector):
    """Sparse vector of V, keyed by basis index."""

    __slots__ = ()

    @staticmethod
    def _check_key(basis: GradedBasis, key: int) -> int:
        if not 0 <= key < len(basis):
            raise MalformedInputError(f"basis index {key} out of range")
        return key

    def homogeneous_degree(self) -> int | None:
        """Common degree of the support, None for zero, error if mixed."""
        degs = {self.basis.degree(i) for i in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise MalformedInputError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def reshape(self, basis: GradedBasis) -> "Element":
        """Same coefficients viewed over another basis of equal length.

        Used for the suspension: names are preserved, degrees move.
        """
        if len(basis) != len(self.basis):
            raise MalformedInputError("reshape target has different dimension")
        return Element._trusted(basis, self.coeffs)


def format_terms(terms: Iterable[tuple[str, Fraction]]) -> str:
    """Join (name, coefficient) pairs as e.g. '1/2 g1 + h - 2 w'; no pairs render as '0'."""
    parts: list[str] = []
    for name, c in terms:
        mag = abs(c)
        body = name if mag == 1 else f"{mag} {name}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def format_element(
    vec: SparseVector, render_key: Callable[[GradedBasis, object], str] = _letter_name
) -> str:
    """Render deterministically, e.g. '1/2 g1 + h - 2 w'; zero renders as '0'.

    render_key names one key; the default names a basis letter.
    """
    return format_terms((render_key(vec.basis, key), c) for key, c in vec.items())


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1, ..., n} stored as the tuple (sigma(1), ..., sigma(n))."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise MalformedInputError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inversions(self) -> list[tuple[int, int]]:
        """Pairs (a, b) with a < b and sigma(a) > sigma(b), positions 1-based."""
        n = self.size
        return [
            (a, b)
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
            if self(a) > self(b)
        ]


def sign_of_permutation(perm: Permutation) -> int:
    return -1 if len(perm.inversions()) % 2 else 1


def koszul_sign(perm: Permutation, degrees: Sequence[int]) -> int:
    """Koszul sign eps(sigma) for symbols x_1..x_n of the given degrees.

    degrees[i-1] is the degree of x_i in the unpermuted order; each inversion
    (a, b) of sigma contributes (-1)^(|x_sigma(a)| * |x_sigma(b)|).
    """
    if len(degrees) != perm.size:
        raise MalformedInputError("degree list does not match permutation size")
    exponent = 0
    for a, b in perm.inversions():
        exponent += degrees[perm(a) - 1] * degrees[perm(b) - 1]
    return -1 if exponent % 2 else 1


def anti_koszul_sign(perm: Permutation, degrees: Sequence[int]) -> int:
    """chi(sigma) = sgn(sigma) * eps(sigma)."""
    return sign_of_permutation(perm) * koszul_sign(perm, degrees)


def unshuffles(p: int, q: int) -> list[Permutation]:
    """All (p, q)-unshuffles of S_{p+q}: sigma(1)<...<sigma(p), sigma(p+1)<...<sigma(p+q).

    Returned in lexicographic order of the first block; there are C(p+q, p).
    """
    if p < 0 or q < 0:
        raise MalformedInputError("unshuffle block sizes must be nonnegative")
    n = p + q
    out: list[Permutation] = []
    universe = range(1, n + 1)
    for first in itertools.combinations(universe, p):
        rest = tuple(i for i in universe if i not in first)
        out.append(Permutation(first + rest))
    return out


# (first positions, second positions, koszul sign, permutation sign,
#  parity of the first block's degrees); positions are 0-based
UnshuffleRow = tuple[tuple[int, ...], tuple[int, ...], int, int, int]


@functools.cache
def signed_unshuffles(p: int, q: int, parities: tuple[int, ...]) -> tuple[UnshuffleRow, ...]:
    """The (p, q)-unshuffles with their signs, for symbols of the given degree parities.

    Every sign the coalgebra and the sh identities need depends on degrees
    only through their parities, so one table per (p, q, parities) serves
    every word.  Rows follow the order of ``unshuffles``; the reference
    ``unshuffles``, ``koszul_sign`` and ``sign_of_permutation`` build them.
    """
    if len(parities) != p + q:
        raise MalformedInputError("parity tuple does not match the unshuffle size")
    rows = []
    for sigma in unshuffles(p, q):
        first = tuple(sigma(a) - 1 for a in range(1, p + 1))
        second = tuple(sigma(a) - 1 for a in range(p + 1, p + q + 1))
        jumped = sum(parities[i] for i in first) % 2
        rows.append(
            (first, second, koszul_sign(sigma, parities), sign_of_permutation(sigma), jumped)
        )
    return tuple(rows)


# A layer factor is (degree, fn); fn None means the identity.  fn must be a
# linear map homogeneous of exactly that degree for the sign to be meaningful.
LayerFactor = tuple[int, Callable[[Element], Element] | None]


def layer_sign(op_degrees: Sequence[int], arg_degrees: Sequence[int]) -> int:
    """Koszul sign of (A_1 (x) ... (x) A_n) hitting homogeneous v_1 (x) ... (x) v_n.

    Each A_j must jump over v_1..v_{j-1}: sign (-1)^(sum_j |A_j|*(d_1+...+d_{j-1})).
    """
    if len(op_degrees) != len(arg_degrees):
        raise MalformedInputError("operator layer and argument tuple differ in length")
    exponent = 0
    prefix = 0
    for opdeg, argdeg in zip(op_degrees, arg_degrees):
        exponent += opdeg * prefix
        prefix += argdeg
    return -1 if exponent % 2 else 1


def apply_layer(
    factors: Sequence[LayerFactor], args: Sequence[tuple[Element, int]]
) -> tuple[int, list[tuple[Element, int]]]:
    """Apply one tensor layer to a tuple of homogeneous slots.

    Each slot is (element, formal degree); the formal degree is tracked even
    when the element is zero so later layers still see consistent signs.
    Returns (sign, new slots).
    """
    if len(factors) != len(args):
        raise MalformedInputError("layer width does not match argument count")
    sign = layer_sign([d for d, _ in factors], [deg for _, deg in args])
    out: list[tuple[Element, int]] = []
    for (fdeg, fn), (elt, deg) in zip(factors, args):
        out.append((fn(elt) if fn is not None else elt, deg + fdeg))
    return sign, out


def suspension_factor(src: GradedBasis, shift: Shift) -> LayerFactor:
    """The shift s (or s^{-1}) as a layer factor from the given source basis."""
    target = shifted_degrees(src, shift)
    return (shift.value, lambda e: e.reshape(target))

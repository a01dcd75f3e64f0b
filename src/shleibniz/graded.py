"""Graded vector spaces over the rationals: bases, Koszul signs, unshuffles.

Everything downstream works with a finite homogeneous basis of an integer-graded
vector space V = (+) V_n and exact scalars: every stored coefficient is an
``int`` when it is integral and a ``Fraction`` with denominator > 1 otherwise
(``exact``), never a float.  The sign conventions are fixed once here and
consumed everywhere else:

* Koszul rule for moving graded symbols past each other: exchanging adjacent
  symbols of degrees p and q costs (-1)^(p*q).  The Koszul sign eps(sigma) of a
  permutation acting on symbols of given degrees is the product of these costs
  over the inversions of sigma.
* The anti-Koszul sign chi(sigma) = sgn(sigma) * eps(sigma).
* Applying a tensor product of homogeneous operators to homogeneous arguments,
  (A_1 (x) ... (x) A_n)(v_1 (x) ... (x) v_n) picks up
  (-1)^(sum_j |A_j| * (|v_1| + ... + |v_{j-1}|)); see ``layer_sign``.

The formal suspension s raises every degree by one (``shifted_degrees``);
its tensor powers are ordinary operator layers under the rule above, so s(i)
and s^{-1}(i) need no special casing and s^{-1}(i) s(i) = (-1)^(i(i-1)/2)
falls out of ``layer_sign``.  Degrees are plain ints, so every parity is 0
or 1, and ``is_letter`` is the one test of a basis index, a letter.

Three pieces are shared by every layer above: ``signed_unshuffles``, the one
cached table of unshuffles with their signs, read off the sign polynomials
of ``unshuffle_forms``; ``placements``, the one loop placing letters among a
constant's letters by those rows, from which every composite and every lift
is scattered (a composite term with a single placing reads its row straight
off the same table, ``_placement_table``); and ``SparseVector``, the one
sparse exact arithmetic behind ``Element`` and the coalgebra's tensor
elements.  ``Element`` is the vector type at the edges (witnesses, and the
components and residuals of a Maurer-Cartan element); an operation stores
its images as plain coefficient dicts in the canonical form of ``exact``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import MalformedInputError
from .record import Record


class GradedBasis(Record):
    """Ordered homogeneous basis with integer degrees."""

    __slots__ = ("names", "degrees", "_positions")

    def __init__(self, names: tuple[str, ...], degrees: tuple[int, ...]):
        if len(names) != len(degrees):
            raise MalformedInputError(f"basis has {len(names)} names but {len(degrees)} degrees")
        if not all(type(name) is str for name in names):
            raise MalformedInputError(f"basis names {names!r} are not all strings")
        if not all(type(d) is int for d in degrees):
            raise MalformedInputError(f"basis degrees {degrees!r} are not all ints")
        positions = {name: k for k, name in enumerate(names)}
        if len(positions) != len(names):
            raise MalformedInputError("basis names must be distinct")
        self._assign(names, degrees, positions)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise MalformedInputError(f"unknown basis name {name!r}") from None

    def degree(self, index: int) -> int:
        return self.degrees[index]


def shifted_degrees(basis: GradedBasis) -> GradedBasis:
    """The basis of the suspension: same names, every degree raised by one."""
    return GradedBasis(basis.names, tuple(d + 1 for d in basis.degrees))


def is_letter(x: object, dim: int) -> bool:
    """Whether x is a plain int (not a bool) in range(dim), a basis index."""
    return type(x) is int and 0 <= x < dim


def _letter_name(basis: GradedBasis, index: int) -> str:
    return basis.names[index]


Scalar = int | Fraction  # an exact scalar, in the canonical form ``exact`` gives


def exact(c: object, label: str = "scalar") -> Scalar:
    """c in canonical exact form: an int if integral, else a Fraction; other types raise."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    raise MalformedInputError(f"{label} is a {type(c).__name__}, not an int or a Fraction")


class SparseVector(Record):
    """Sparse vector over a GradedBasis: keys mapped to exact scalars.

    Immutable; all operations return fresh vectors of the same class.  Zero
    coefficients are never stored.  Subclasses fix the kind of key
    (``_check_key``) and the order ``items`` lists them in (``_order``).
    """

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: GradedBasis, coeffs: Mapping | None = None):
        clean: dict = {}
        if coeffs:
            check = self._check_key
            for key, c in coeffs.items():
                key = check(basis, key)
                c = c if type(c) is int else exact(c, f"coefficient of {key!r}")
                if c:
                    clean[key] = c
        self._assign(basis, clean)

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
        """Vector from valid keys and exact scalars, for arithmetic results.

        For arithmetic results and engine accumulators: zeros are dropped and
        keys are taken as they are; an integral Fraction, such as
        Fraction(1, 2) * 2, is stored as an int.
        """
        out = object.__new__(cls)
        out._assign(basis, {k: c if type(c) is int else exact(c) for k, c in coeffs.items() if c})
        return out

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

    def scale(self, scalar: Scalar):
        scalar = exact(scalar)
        return self._trusted(self.basis, {k: scalar * c for k, c in self.coeffs.items()})

    def __rmul__(self, scalar: Scalar):
        return self.scale(scalar)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_element(self, self._render_key)})"


class Element(SparseVector):
    """Sparse vector of V, keyed by basis index."""

    __slots__ = ()

    @staticmethod
    def _check_key(basis: GradedBasis, key: int) -> int:
        if not is_letter(key, len(basis)):
            raise MalformedInputError(f"basis index {key!r} out of range")
        return key

    def homogeneous_degree(self) -> int | None:
        """Common degree of the support, None for zero, error if mixed."""
        degs = {self.basis.degree(i) for i in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise MalformedInputError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()


def format_terms(terms: Iterable[tuple[str, Scalar]]) -> str:
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


class Permutation(Record):
    """Permutation of {1, ..., n} stored as the tuple (sigma(1), ..., sigma(n))."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise MalformedInputError(f"not a permutation of 1..{n}: {images}")
        self._assign(images)

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


# (first positions, second positions, Koszul exponent, permutation sign);
# positions are 0-based, and the exponent is a tuple of monomials, each a
# tuple of at most two symbol positions
FormRow = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...], int]

# (first positions, second positions, koszul sign, permutation sign,
#  parity of the first block's degrees); positions are 0-based
UnshuffleRow = tuple[tuple[int, ...], tuple[int, ...], int, int, int]


@functools.cache
def unshuffle_forms(p: int, q: int) -> tuple[FormRow, ...]:
    """The (p, q)-unshuffles with their Koszul signs as polynomials over F_2.

    On symbols of degree parities y, a row's Koszul sign is (-1)^e, where e
    sums the product of y over each monomial of the row's exponent; every
    inversion of the unshuffle contributes the monomial (a, b) of the two
    symbols it exchanges.  This is the one sign source: signed_unshuffles
    evaluates it on concrete parities, and the coalgebra's parity-pattern
    certificates substitute parity forms into it.  Rows follow the order of
    ``unshuffles``.
    """
    if p < 0 or q < 0:
        raise MalformedInputError("unshuffle block sizes must be nonnegative")
    rows = []
    for sigma in unshuffles(p, q):
        first = tuple(sigma(a) - 1 for a in range(1, p + 1))
        second = tuple(sigma(a) - 1 for a in range(p + 1, p + q + 1))
        exponent = tuple((sigma(b) - 1, sigma(a) - 1) for a, b in sigma.inversions())
        rows.append((first, second, exponent, sign_of_permutation(sigma)))
    return tuple(rows)


@functools.cache
def signed_unshuffles(p: int, q: int, parities: tuple[int, ...]) -> tuple[UnshuffleRow, ...]:
    """The (p, q)-unshuffles with their signs, for symbols of the given degree parities.

    Every sign the coalgebra and the sh identities need depends on degrees
    only through their parities, so one table per (p, q, parities) serves
    every word.  The Koszul signs are those of ``unshuffle_forms`` evaluated
    on the parities; the reference ``koszul_sign`` agrees with them.
    """
    if len(parities) != p + q:
        raise MalformedInputError("parity tuple does not match the unshuffle size")
    rows = []
    for first, second, exponent, sgn in unshuffle_forms(p, q):
        odd = sum(math.prod(parities[a] for a in mono) for mono in exponent) % 2
        jumped = sum(parities[i] for i in first) % 2
        rows.append((first, second, -1 if odd else 1, sgn, jumped))
    return tuple(rows)


@functools.cache
def _placement_table(p: int, q: int, parities: tuple[int, ...]) -> tuple:
    """Per (p, q)-unshuffle row, the gather order, merged[j] = sources[order[j]],
    and the row signed for the parities of merged, given those of the sources."""
    rows = signed_unshuffles(p, q, (0,) * (p + q))
    orders = [tuple(sorted(range(p + q), key=(a + b).__getitem__)) for a, b, *_ in rows]
    return tuple(
        (order, signed_unshuffles(p, q, tuple(parities[s] for s in order))[r])
        for r, order in enumerate(orders)
    )


def placements(free: tuple, head: tuple, parity: Sequence[int]) -> Iterator[tuple]:
    """(merged, row) for every placing of the letters free among head, both
    in order: row is the unshuffle row with free as its first block, signed
    for the parities of merged, where letter x has parity[x]."""
    sources = free + head
    table = _placement_table(len(free), len(head), tuple([parity[x] for x in sources]))
    for order, row in table:
        yield tuple([sources[s] for s in order]), row


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


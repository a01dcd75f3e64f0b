"""Multilinear operations on a graded basis and the Leibniz-algebra checks.

A MultiOp is a degree-homogeneous multilinear map V^(x catimes i) -> V given by sparse
structure constants on basis tuples.  Plain application never introduces Koszul
signs; every sign in this package is written explicitly at the call site where
the convention demands it.

The bracket convention is left Leibniz:

    {x, {y, z}} = {{x, y}, z} + (-1)^(|x||y|) {y, {x, z}}

and a degree-d operator D is a derivation when

    D{x, y} = {Dx, y} + (-1)^(|x| |D|) {x, Dy}.

N_i denotes the left-nested bracket N_i(x_1, ..., x_i) =
{...{{x_1, x_2}, x_3}..., x_i}, with N_1 the identity, and N_i D feeds D into
the leftmost slot only: (N_i D)(x_1, ..., x_i) = N_i(D x_1, x_2, ..., x_i).
``n_i_d`` is the one evaluator of this nested insertion.  It builds N_i D from
the nonzero constants of D by the recurrence

    N_i D(x_1, ..., x_i) = {N_{i-1} D(x_1, ..., x_{i-1}), x_i},

keeping only nonzero images; ``nary_bracket`` is the case D = id, and the
derived brackets, the codifferential, the gauge coderivation and the key
lemma all read their operations from it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import MalformedInputError, PreconditionError
from .graded import Element, GradedBasis
from .results import Verdict, Violation


class MultiOp:
    """Sparse structure constants for a homogeneous multilinear operation.

    constants maps index tuples (length == arity) to image Elements; absent
    tuples map to zero.  Every stored image must be homogeneous of degree
    sum(input degrees) + degree, so the operation is homogeneous as a map.
    """

    __slots__ = ("basis", "arity", "degree", "constants")

    def __init__(
        self,
        basis: GradedBasis,
        arity: int,
        degree: int,
        constants: Mapping[tuple[int, ...], Element] | None = None,
    ):
        if arity < 1:
            raise MalformedInputError(f"arity must be >= 1, got {arity}")
        clean: dict[tuple[int, ...], Element] = {}
        if constants:
            for key, image in constants.items():
                if len(key) != arity:
                    raise MalformedInputError(f"constant key {key} does not have arity {arity}")
                if any(not 0 <= i < len(basis) for i in key):
                    raise MalformedInputError(f"constant key {key} has an index out of range")
                if image.basis != basis:
                    raise MalformedInputError("constant image lives over a foreign basis")
                if image.is_zero():
                    continue
                want = sum(basis.degree(i) for i in key) + degree
                got = image.homogeneous_degree()
                if got != want:
                    raise MalformedInputError(
                        f"image of {key} has degree {got}, expected {want} "
                        f"(operation degree {degree})"
                    )
                clean[key] = image
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "constants", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiOp is immutable")

    @staticmethod
    def zero(basis: GradedBasis, arity: int, degree: int) -> "MultiOp":
        return MultiOp(basis, arity, degree, None)

    @staticmethod
    def from_function(
        basis: GradedBasis,
        arity: int,
        degree: int,
        fn: Callable[[tuple[int, ...]], Element],
    ) -> "MultiOp":
        """Tabulate fn on every basis tuple; fn may return zero elements."""
        constants = {key: fn(key) for key in basis.index_tuples(arity)}
        return MultiOp(basis, arity, degree, constants)

    def is_zero(self) -> bool:
        return not self.constants

    def apply(self, args: Sequence[Element]) -> Element:
        """Multilinear evaluation, no signs."""
        if len(args) != self.arity:
            raise MalformedInputError(f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if a.basis != self.basis:
                raise MalformedInputError("argument lives over a foreign basis")
        acc: dict[int, Fraction] = {}
        self._accumulate(args, 0, (), Fraction(1), acc)
        return Element._trusted(self.basis, acc)

    def _accumulate(
        self,
        args: Sequence[Element],
        pos: int,
        key: tuple[int, ...],
        coeff: Fraction,
        acc: dict[int, Fraction],
    ) -> None:
        if pos == self.arity:
            image = self.constants.get(key)
            if image is not None:
                for i, c in image.coeffs.items():
                    acc[i] = acc.get(i, Fraction(0)) + coeff * c
            return
        for i, c in args[pos].coeffs.items():
            self._accumulate(args, pos + 1, key + (i,), coeff * c, acc)

    def __call__(self, *args: Element) -> Element:
        return self.apply(args)

    def apply_indices(self, key: tuple[int, ...]) -> Element:
        """Evaluation on a basis tuple, the common fast path."""
        image = self.constants.get(key)
        return image if image is not None else Element.zero(self.basis)

    def _require_compatible(self, other: "MultiOp") -> None:
        if (self.basis, self.arity, self.degree) != (other.basis, other.arity, other.degree):
            raise MalformedInputError("operations differ in basis, arity, or degree")

    def __add__(self, other: "MultiOp") -> "MultiOp":
        self._require_compatible(other)
        keys = set(self.constants) | set(other.constants)
        zero = Element.zero(self.basis)
        return MultiOp(
            self.basis,
            self.arity,
            self.degree,
            {
                k: self.constants.get(k, zero) + other.constants.get(k, zero)
                for k in keys
            },
        )

    def __sub__(self, other: "MultiOp") -> "MultiOp":
        return self + (-other)

    def __neg__(self) -> "MultiOp":
        return self.scale(-1)

    def scale(self, scalar: Fraction | int) -> "MultiOp":
        return MultiOp(
            self.basis,
            self.arity,
            self.degree,
            {k: v.scale(scalar) for k, v in self.constants.items()},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiOp):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.arity == other.arity
            and self.degree == other.degree
            and self.constants == other.constants
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.arity, self.degree, tuple(sorted(
            (k, tuple(v.items())) for k, v in self.constants.items()
        ))))

    def __repr__(self) -> str:
        return f"MultiOp(arity={self.arity}, degree={self.degree}, {len(self.constants)} constants)"


def identity_op(basis: GradedBasis) -> MultiOp:
    return MultiOp.from_function(basis, 1, 0, lambda key: basis.vector(key[0]))


def compose_unary(outer: MultiOp, inner: MultiOp) -> MultiOp:
    """outer . inner for arity-1 operations."""
    if outer.arity != 1 or inner.arity != 1:
        raise MalformedInputError("compose_unary needs arity-1 operations")
    if outer.basis != inner.basis:
        raise MalformedInputError("operations live over different bases")
    return MultiOp.from_function(
        inner.basis,
        1,
        outer.degree + inner.degree,
        lambda key: outer.apply([inner.apply_indices(key)]),
    )


def commutator(a: MultiOp, b: MultiOp) -> MultiOp:
    """Graded commutator [a, b] = a.b - (-1)^(|a||b|) b.a of arity-1 operations."""
    sign = -1 if (a.degree * b.degree) % 2 else 1
    return compose_unary(a, b) - compose_unary(b, a).scale(sign)


def _names(basis: GradedBasis, key: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(basis.names[i] for i in key)


def check_leibniz_identity(bracket: MultiOp) -> list[Violation]:
    """Left Leibniz identity on every basis triple; residual = LHS - RHS."""
    if bracket.arity != 2:
        raise MalformedInputError("bracket must have arity 2")
    basis = bracket.basis
    out: list[Violation] = []
    for x, y, z in basis.index_tuples(3):
        lhs = bracket.apply([basis.vector(x), bracket.apply_indices((y, z))])
        first = bracket.apply([bracket.apply_indices((x, y)), basis.vector(z)])
        sign = -1 if (basis.degree(x) * basis.degree(y)) % 2 else 1
        second = bracket.apply([basis.vector(y), bracket.apply_indices((x, z))]).scale(sign)
        residual = lhs - first - second
        if not residual.is_zero():
            out.append(Violation("leibniz-identity", _names(basis, (x, y, z)), residual))
    return out


def check_derivation(op: MultiOp, bracket: MultiOp) -> list[Violation]:
    """Graded derivation rule for an arity-1 op of any degree."""
    if op.arity != 1:
        raise MalformedInputError("derivation check needs an arity-1 operation")
    if bracket.arity != 2:
        raise MalformedInputError("bracket must have arity 2")
    if op.basis != bracket.basis:
        raise MalformedInputError("operation and bracket live over different bases")
    basis = bracket.basis
    out: list[Violation] = []
    for x, y in basis.index_tuples(2):
        lhs = op.apply([bracket.apply_indices((x, y))])
        first = bracket.apply([op.apply_indices((x,)), basis.vector(y)])
        sign = -1 if (basis.degree(x) * op.degree) % 2 else 1
        second = bracket.apply([basis.vector(x), op.apply_indices((y,))]).scale(sign)
        residual = lhs - first - second
        if not residual.is_zero():
            out.append(Violation("derivation", _names(basis, (x, y)), residual))
    return out


def check_differential(op: MultiOp, bracket: MultiOp) -> Verdict:
    """Degree +1, derivation, and square zero on every basis vector."""
    violations: list[Violation] = []
    if op.degree != 1:
        violations.append(
            Violation("differential-degree", (), None, f"degree is {op.degree}, expected 1")
        )
    else:
        violations.extend(check_derivation(op, bracket))
        for i in range(len(op.basis)):
            square = op.apply([op.apply_indices((i,))])
            if not square.is_zero():
                violations.append(
                    Violation("differential-square", _names(op.basis, (i,)), square)
                )
    return Verdict.from_violations(violations)


def nary_bracket(bracket: MultiOp, i: int) -> MultiOp:
    """Left-nested N_i, the nested insertion of the identity; N_1 is the identity."""
    return n_i_d(bracket, identity_op(bracket.basis), i)


def n_i_d(bracket: MultiOp, op: MultiOp, i: int) -> MultiOp:
    """N_i with op in the leftmost slot: (x_1, ..., x_i) |-> N_i(op x_1, x_2, ..., x_i).

    Built from op.constants by the recurrence
    N_i D(x_1, ..., x_i) = {N_{i-1} D(x_1, ..., x_{i-1}), x_i}: each level
    brackets the nonzero images of the previous one on the right with every
    basis vector and keeps the nonzero results, so tuples whose leftmost
    letter op kills are never visited.  No Koszul sign: op acts on the first
    tensor factor, jumping over nothing.
    """
    if op.arity != 1:
        raise MalformedInputError("n_i_d needs an arity-1 operation")
    if i < 1:
        raise MalformedInputError("nested bracket needs i >= 1")
    if bracket.arity != 2:
        raise MalformedInputError("bracket must have arity 2")
    basis = bracket.basis
    if op.basis != basis:
        raise MalformedInputError("operation and bracket live over different bases")
    vectors = [basis.vector(x) for x in range(len(basis))]
    level = dict(sorted(op.constants.items()))
    for _ in range(i - 1):
        longer: dict[tuple[int, ...], Element] = {}
        for key, image in level.items():
            for x, vector in enumerate(vectors):
                value = bracket.apply([image, vector])
                if not value.is_zero():
                    longer[key + (x,)] = value
        level = longer
    return MultiOp(basis, i, op.degree, level)


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
        for key in basis.index_tuples(n + 2):
            a, b = key[0], key[1]
            ys = key[2:]
            lhs = big.apply_indices(key)
            sign_ab = -1 if (basis.degree(a) * basis.degree(b)) % 2 else 1
            rhs = bracket.apply(
                [basis.vector(b), small.apply_indices((a,) + ys)]
            ).scale(-sign_ab)
            prefix = 0
            for pos in range(n):
                inner = bracket.apply_indices((b, ys[pos]))
                args = [basis.vector(a)]
                args += [basis.vector(j) for j in ys[:pos]]
                args.append(inner)
                args += [basis.vector(j) for j in ys[pos + 1 :]]
                sign = -1 if (bracket.basis.degree(b) * prefix) % 2 else 1
                rhs = rhs + small.apply(args).scale(sign)
                prefix += basis.degree(ys[pos])
            residual = lhs - rhs
            if not residual.is_zero():
                violations.append(
                    Violation("rearrangement", (n,) + _names(basis, key), residual)
                )
    return Verdict.from_violations(violations)


def check_skewsymmetry(op: MultiOp, indices: Sequence[int] | None = None) -> Verdict:
    """Graded skewsymmetry under adjacent transpositions, optionally on a sub-basis.

    For each tuple and each adjacent pair (p, p+1), the residual is
    op(..., x_{p+1}, x_p, ...) + (-1)^(|x_p||x_{p+1}|) op(..., x_p, x_{p+1}, ...);
    all of them vanish exactly when op is graded skewsymmetric, since adjacent
    transpositions generate the symmetric group.
    """
    basis = op.basis
    pool = tuple(indices) if indices is not None else tuple(range(len(basis)))
    if any(not 0 <= i < len(basis) for i in pool):
        raise MalformedInputError("sub-basis index out of range")
    violations: list[Violation] = []
    for key in itertools.product(pool, repeat=op.arity):
        for p in range(op.arity - 1):
            swapped = key[:p] + (key[p + 1], key[p]) + key[p + 2 :]
            sign = -1 if (basis.degree(key[p]) * basis.degree(key[p + 1])) % 2 else 1
            residual = op.apply_indices(swapped) + op.apply_indices(key).scale(sign)
            if not residual.is_zero():
                violations.append(
                    Violation("skewsymmetry", _names(basis, key) + (f"swap@{p + 1}",), residual)
                )
    return Verdict.from_violations(violations)


class LeibnizAlgebra:
    """A graded basis with a degree-0 bracket satisfying the left Leibniz identity.

    Construction validates the identity exhaustively; use raw MultiOps to work
    with candidate brackets that may fail.
    """

    __slots__ = ("basis", "bracket")

    def __init__(self, basis: GradedBasis, bracket: MultiOp):
        if bracket.basis != basis:
            raise MalformedInputError("bracket lives over a foreign basis")
        if bracket.arity != 2 or bracket.degree != 0:
            raise MalformedInputError("bracket must have arity 2 and degree 0")
        bad = check_leibniz_identity(bracket)
        if bad:
            site = bad[0].site
            raise PreconditionError(
                f"Leibniz identity fails on {site} (and {len(bad) - 1} more triples)"
            )
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "bracket", bracket)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LeibnizAlgebra is immutable")


class DgLeibnizAlgebra(LeibnizAlgebra):
    """Leibniz algebra with a square-zero degree +1 derivation."""

    __slots__ = ("differential",)

    def __init__(self, basis: GradedBasis, bracket: MultiOp, differential: MultiOp):
        super().__init__(basis, bracket)
        verdict = check_differential(differential, bracket)
        if not verdict.passed:
            first = verdict.violations[0]
            raise PreconditionError(f"not a differential: {first.check} at {first.site}")
        object.__setattr__(self, "differential", differential)

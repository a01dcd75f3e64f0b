"""Higher derived brackets from a truncated deformation of the differential.

A deformation family is a polynomial differential delta_t = delta_0 + t delta_1
+ ... + t^m delta_m with every coefficient an arity-1, degree +1 operation; the
square-zero condition order by order reads

    sum_{i+j=n} delta_i delta_j = 0.

Writing s for the suspension and N_i for the left-nested bracket, the family
induces operations on the shifted space sV:

    l_i := (-1)^((i-1)(i-2)/2) s . N_i . s^{-1}(i) . (s delta_{i-1} s^{-1} (x) 1^(i-1)),

an arity-i operation of degree 2-i.  Two independent evaluation routes are
implemented and asserted against each other on every basis tuple:

* route (a) runs the displayed composite through the signed tensor-layer
  evaluator, letting the Koszul rule produce every sign;
* route (b) uses the worked-out closed form
      l_i(s x_1, ..., s x_i) = (-1)^e s N_i(delta_{i-1} x_1, x_2, ..., x_i),
  where e sums the degrees |x_j| over j < i with i - j odd.

The collection (l_1, ..., l_{m+1}) is a strong homotopy Leibniz structure when
the family is square zero; the identity checked at each weight Const is

    sum_{i+j=Const} sum_{k=j}^{i+j-1} sum_{sigma} chi(sigma)
        (-1)^((k+1-j)(j-1)) (-1)^(j (|x_sigma(1)| + ... + |x_sigma(k-j)|))
        l_i(x_sigma(1), ..., x_sigma(k-j),
            l_j(x_sigma(k-j+1), ..., x_sigma(k-1), x_k), x_{k+1}, ..., x_{i+j-1}) = 0,

with sigma running over the (k-j, j-1)-unshuffles of S_{k-1}, so the argument
x_k is pinned.  Equivalently, the coderivation with components
partial_i = N_i(delta_{i-1} (x) 1^(i-1)) squares to zero on the tensor
coalgebra; both formulations are exposed and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coalgebra import CoderivationSpec, evaluate_coderivation, evaluate_on_tensor
from .errors import EngineError, MalformedInputError, PreconditionError
from .graded import (
    Element,
    GradedBasis,
    Shift,
    apply_layer,
    shifted_degrees,
    signed_unshuffles,
    suspension_factor,
)
from .multiop import MultiOp, check_derivation, commutator, compose_unary, n_i_d, nary_bracket
from .results import Verdict, Violation


@dataclass(frozen=True)
class DeformationFamily:
    """Bracket plus the coefficients delta_0, ..., delta_m of the deformation."""

    bracket: MultiOp
    deltas: tuple[MultiOp, ...]

    def __post_init__(self) -> None:
        if self.bracket.arity != 2 or self.bracket.degree != 0:
            raise MalformedInputError("bracket must have arity 2 and degree 0")
        if not self.deltas:
            raise MalformedInputError("a deformation family needs at least delta_0")
        for n, d in enumerate(self.deltas):
            if d.basis != self.bracket.basis:
                raise MalformedInputError(f"delta_{n} lives over a foreign basis")
            if d.arity != 1 or d.degree != 1:
                raise MalformedInputError(f"delta_{n} must have arity 1 and degree +1")

    @property
    def basis(self) -> GradedBasis:
        return self.bracket.basis

    @property
    def order(self) -> int:
        return len(self.deltas) - 1

    def delta(self, n: int) -> MultiOp:
        """delta_n, zero beyond the stored order."""
        if n < 0:
            raise MalformedInputError("delta order must be nonnegative")
        if n <= self.order:
            return self.deltas[n]
        return MultiOp.zero(self.basis, 1, 1)

    def extended(self, order: int) -> "DeformationFamily":
        """Same family padded with zero deltas up to the requested order."""
        if order <= self.order:
            return self
        zero = MultiOp.zero(self.basis, 1, 1)
        return DeformationFamily(self.bracket, self.deltas + (zero,) * (order - self.order))


@dataclass(frozen=True)
class ShLeibnizStructure:
    """Operations l_1, ..., l_L on the shifted basis; arities beyond L are zero."""

    basis: GradedBasis
    ops: tuple[MultiOp, ...]

    def __post_init__(self) -> None:
        for k, op in enumerate(self.ops):
            i = k + 1
            if op.basis != self.basis:
                raise MalformedInputError(f"l_{i} lives over a foreign basis")
            if op.arity != i or op.degree != 2 - i:
                raise MalformedInputError(
                    f"l_{i} must have arity {i} and degree {2 - i}, "
                    f"got arity {op.arity} degree {op.degree}"
                )

    @property
    def max_arity(self) -> int:
        return len(self.ops)

    def op(self, i: int) -> MultiOp | None:
        """l_i, or None when the truncation makes it zero."""
        if 1 <= i <= len(self.ops):
            return self.ops[i - 1]
        return None


def _require_deformation_slot(delta: MultiOp) -> None:
    if delta.arity != 1 or delta.degree != 1:
        raise MalformedInputError("delta must have arity 1 and degree +1")


def derived_bracket_tensor(bracket: MultiOp, delta: MultiOp, i: int) -> MultiOp:
    """Route (a): evaluate the defining composite with the layer evaluator."""
    _require_deformation_slot(delta)
    if i < 1:
        raise MalformedInputError("arity must be >= 1")
    basis = bracket.basis
    sbasis = shifted_degrees(basis, Shift.RAISE)
    nested = nary_bracket(bracket, i)
    up = suspension_factor(basis, Shift.RAISE)
    down = suspension_factor(sbasis, Shift.LOWER)
    prefactor = -1 if (((i - 1) * (i - 2)) // 2) % 2 else 1

    def s_delta_s_inv(e: Element) -> Element:
        lowered = e.reshape(basis)
        return delta.apply([lowered]).reshape(sbasis)

    def fn(key: tuple[int, ...]) -> Element:
        slots = [(sbasis.vector(b), sbasis.degree(b)) for b in key]
        first_layer = [(1, s_delta_s_inv)] + [(0, None)] * (i - 1)
        sign1, slots = apply_layer(first_layer, slots)
        sign2, slots = apply_layer([down] * i, slots)
        value = nested.apply([elt for elt, _ in slots])
        sign3, lifted = apply_layer([up], [(value, value.homogeneous_degree() or 0)])
        return lifted[0][0].scale(prefactor * sign1 * sign2 * sign3)

    return MultiOp.from_function(sbasis, i, 2 - i, fn)


def derived_bracket_explicit(bracket: MultiOp, delta: MultiOp, i: int) -> MultiOp:
    """Route (b): closed form with the parity-split sign, on the nonzero N_i(delta (x) 1)."""
    _require_deformation_slot(delta)
    basis = bracket.basis
    sbasis = shifted_degrees(basis, Shift.RAISE)
    constants = {}
    for key, image in n_i_d(bracket, delta, i).constants.items():
        exponent = sum(basis.degree(key[j - 1]) for j in range(1, i) if (i - j) % 2)
        constants[key] = image.reshape(sbasis).scale(-1 if exponent % 2 else 1)
    return MultiOp(sbasis, i, 2 - i, constants)


def derived_bracket(bracket: MultiOp, delta: MultiOp, i: int) -> MultiOp:
    """The derived arity-i operation; both routes are computed and compared."""
    via_tensor = derived_bracket_tensor(bracket, delta, i)
    via_explicit = derived_bracket_explicit(bracket, delta, i)
    if via_tensor != via_explicit:
        raise EngineError(
            f"derived bracket routes disagree at arity {i}; "
            "the sign conventions are inconsistent"
        )
    return via_explicit


def build_sh_structure(fam: DeformationFamily) -> ShLeibnizStructure:
    """l_i from delta_{i-1} for i = 1, ..., order + 1."""
    sbasis = shifted_degrees(fam.basis, Shift.RAISE)
    ops = tuple(
        derived_bracket(fam.bracket, fam.deltas[i - 1], i) for i in range(1, fam.order + 2)
    )
    return ShLeibnizStructure(sbasis, ops)


def partial_i(bracket: MultiOp, delta: MultiOp, i: int) -> MultiOp:
    """The unshifted coderivation component N_i(delta (x) 1^(i-1)).

    Cross-checked against conjugating l_i by suspensions:
    partial_i = s^{-1} . l_i . s(i), where s(i) carries the Koszul sign of the
    suspension layer.
    """
    direct = n_i_d(bracket, delta, i)
    basis = bracket.basis
    sbasis = shifted_degrees(basis, Shift.RAISE)
    l_i = derived_bracket(bracket, delta, i)
    up = suspension_factor(basis, Shift.RAISE)

    def via_shift(key: tuple[int, ...]) -> Element:
        slots = [(basis.vector(b), basis.degree(b)) for b in key]
        sign, slots = apply_layer([up] * i, slots)
        value = l_i.apply([elt for elt, _ in slots])
        return value.reshape(basis).scale(sign)

    mirrored = MultiOp.from_function(basis, i, 1, via_shift)
    if mirrored != direct:
        raise EngineError(
            f"partial_{i} routes disagree; the suspension bookkeeping is inconsistent"
        )
    return direct


def build_codifferential(fam: DeformationFamily) -> CoderivationSpec:
    """Coderivation with components partial_i = N_i(delta_{i-1} (x) 1^(i-1))."""
    components = {
        i: n_i_d(fam.bracket, fam.deltas[i - 1], i) for i in range(1, fam.order + 2)
    }
    return CoderivationSpec(fam.basis, 1, components)


def check_sh_leibniz(
    structure: ShLeibnizStructure, max_const: int, first_violation: bool = False
) -> Verdict:
    """The strong homotopy Leibniz identities for 2 <= Const <= max_const.

    Truncation-vacuous weights (every (i, j) term missing an operation) are
    reported in the notes rather than silently passing.
    """
    if max_const < 2:
        raise MalformedInputError("max_const must be >= 2")
    sbasis = structure.basis
    violations: list[Violation] = []
    notes: list[str] = []
    for const in range(2, max_const + 1):
        pairs = [
            (i, const - i)
            for i in range(1, const)
            if structure.op(i) is not None and structure.op(const - i) is not None
        ]
        if not pairs:
            notes.append(f"Const={const} vacuous under truncation")
            continue
        width = const - 1
        for xs in sbasis.index_tuples(width):
            parities = tuple(sbasis.degree(b) % 2 for b in xs)
            acc: dict[int, Fraction] = {}
            for i, j in pairs:
                li = structure.op(i).constants
                lj = structure.op(j).constants
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
                        for letter, c in inner.coeffs.items():
                            image = li.get(prefix + (letter,) + suffix)
                            if image is None:
                                continue
                            for b, cb in image.coeffs.items():
                                term = sign * c * cb
                                acc[b] = acc[b] + term if b in acc else term
            residual = Element._trusted(sbasis, acc)
            if not residual.is_zero():
                violations.append(
                    Violation(
                        "sh-leibniz",
                        (const,) + tuple(sbasis.names[b] for b in xs),
                        residual,
                    )
                )
                if first_violation:
                    return Verdict(False, violations, notes)
    return Verdict.from_violations(violations, notes)


def check_codifferential(fam: DeformationFamily, max_len: int, first_violation: bool = False) -> Verdict:
    """partial . partial = 0 on every word of length <= max_len.

    Equivalent to check_sh_leibniz with max_const = max_len + 1 on the same
    family: the square of the codifferential on words of length n collects
    exactly the weight-(n + 1) identities.
    """
    if max_len < 1:
        raise MalformedInputError("max_len must be >= 1")
    spec = build_codifferential(fam)
    basis = fam.basis
    violations: list[Violation] = []
    for length in range(1, max_len + 1):
        for word in basis.index_tuples(length):
            once = evaluate_coderivation(spec, word)
            twice = evaluate_on_tensor(spec, once)
            if not twice.is_zero():
                violations.append(
                    Violation(
                        "codifferential-square",
                        tuple(basis.names[i] for i in word),
                        twice,
                    )
                )
                if first_violation:
                    return Verdict(False, violations)
    return Verdict.from_violations(violations)


def check_key_lemma(
    bracket: MultiOp, d1: MultiOp, d2: MultiOp, i: int, j: int
) -> Verdict:
    """N_{i+j-1}([D, D']) = (N_i D, N_j D') for derivations D, D'.

    The left side feeds the graded commutator into the leftmost slot; the
    right side is the hom bracket of the two nested operations.  Non-derivation
    inputs are a precondition error.
    """
    from .coalgebra import hom_bracket

    if i < 1 or j < 1:
        raise MalformedInputError("arities must be >= 1")
    for label, d in (("first", d1), ("second", d2)):
        if d.arity != 1:
            raise PreconditionError(f"{label} operation must have arity 1")
        if check_derivation(d, bracket):
            raise PreconditionError(f"{label} operation is not a derivation of the bracket")
    lhs = n_i_d(bracket, commutator(d1, d2), i + j - 1)
    rhs = hom_bracket(n_i_d(bracket, d1, i), n_i_d(bracket, d2, j))
    violations: list[Violation] = []
    basis = bracket.basis
    for key in basis.index_tuples(i + j - 1):
        residual = lhs.apply_indices(key) - rhs.apply_indices(key)
        if not residual.is_zero():
            violations.append(
                Violation(
                    "key-lemma",
                    (i, j) + tuple(basis.names[b] for b in key),
                    residual,
                )
            )
    return Verdict.from_violations(violations)


def leibniz_cohomology_check(
    bracket: MultiOp,
    delta1: MultiOp,
    i_max: int = 3,
    derivations: Sequence[MultiOp] | None = None,
) -> Verdict:
    """The complex carrying the trivial deformation delta_t = t delta_1.

    Preconditions: delta1 is a square-zero degree +1 derivation.  For every
    derivation D in the spanning set and i <= i_max the differential
    b = (partial_2, -) satisfies

        b(N_i D) = N_{i+1}([delta_1, D])        and        b(b(N_i D)) = 0,

    so b restricts to the subspaces N_i Der(V) and squares to zero there.
    When derivations is None a spanning set of Der(V) is computed exactly.
    """
    from .coalgebra import hom_bracket
    from .linalg import derivation_basis

    _require_deformation_slot(delta1)
    if check_derivation(delta1, bracket):
        raise PreconditionError("delta_1 is not a derivation of the bracket")
    if not compose_unary(delta1, delta1).is_zero():
        raise PreconditionError("delta_1 does not square to zero")
    if derivations is None:
        derivations = derivation_basis(bracket)
    else:
        for d in derivations:
            if check_derivation(d, bracket):
                raise PreconditionError("supplied operation is not a derivation")
    partial2 = n_i_d(bracket, delta1, 2)
    violations: list[Violation] = []
    for label, d in enumerate(derivations):
        for i in range(1, i_max + 1):
            image = hom_bracket(partial2, n_i_d(bracket, d, i))
            expected = n_i_d(bracket, commutator(delta1, d), i + 1)
            if image != expected:
                violations.append(
                    Violation(
                        "cohomology-differential",
                        (f"D{label}", i),
                        None,
                        "b(N_i D) differs from N_{i+1}([delta_1, D])",
                    )
                )
            square = hom_bracket(partial2, image)
            if not square.is_zero():
                violations.append(
                    Violation(
                        "cohomology-square",
                        (f"D{label}", i),
                        None,
                        "b(b(N_i D)) is nonzero",
                    )
                )
    return Verdict.from_violations(violations)

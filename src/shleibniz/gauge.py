"""Deformation validation, Maurer-Cartan elements, and gauge equivalence.

A gauge family is a collection xi_1, ..., xi_m of degree-0 derivations; it acts
on a deformation family delta_t order by order through the terminating series

    delta'_n = delta_n + sum_{i+j=n} [delta_i, xi_j]
             + (1/2!) sum_{i+j+k=n} [[delta_i, xi_j], xi_k] + ...

(every xi carries order >= 1, so only finitely many terms reach order n).  On
the tensor coalgebra the same data exponentiates: with

    Xi = sum_j N_{j+1}(xi_j (x) 1^j)   lifted as a coderivation,

the transformed codifferential is the conjugate partial' = e^{-Xi} partial e^{Xi},
the exponential e^{Xi} is comultiplicative, and expanding exp([-, Xi]) order by
order reproduces delta'_n component-wise.  All three formulations are checked
exactly on finite scopes.

Two laws of the exponential are proved, not walked.  Xi has degree 0 and
components of arity >= 2, and coalgebra.check_coderivation_axiom proves its
lift a coderivation up to the word length:

* Delta e^{Xi} = (e^{Xi} (x) e^{Xi}) Delta.  The certificate gives
  Delta Xi = (Xi (x) 1 + 1 (x) Xi) Delta on every word of length <= L, with
  no sign since |Xi| = 0; Xi shortens words, so by induction
  Delta Xi^p = sum_k C(p, k) (Xi^k (x) Xi^{p-k}) Delta, and summing with
  1/p! gives the law.
* e^{Xi} e^{-Xi} = 1.  The lift is linear in the constants, so the lift of
  -Xi is minus the lift of Xi term by term, and the product of the two
  terminating series is sum_n (Xi - Xi)^n / n! = 1.

The conjugation is proved from a corestriction when it holds.  Once the
lifts of partial and partial' are proved coderivations up to L as well,
G = partial e^{Xi} - e^{Xi} partial' satisfies

    Delta G = (G (x) e^{Xi} + e^{Xi} (x) G) Delta,

with no sign since |e^{Xi}| = 0.  G never lengthens a word, so by induction
on the length, with Delta injective on words of length >= 2, G vanishes on
the words of length <= L exactly when its corestriction pr G does.  And
partial' - e^{-Xi} partial e^{Xi} = -e^{-Xi} G with e^{-Xi} invertible, so
the conjugation holds on exactly the words where G vanishes.  On a word w,
pr G(w) is the sum of c partial_{|v|}(v) over the terms c v of e^{Xi}(w),
read off the constants, minus the sum of c pr e^{Xi}(u) over the terms c u
of partial'(w); neither e^{-Xi} nor a lift of partial is evaluated.  This is
the sh Leibniz morphism equation partial F = F partial' for F = e^{Xi}, and
it uses no hom_bracket, so it stays independent of the order expansion.  If
pr G vanishes on every word the conjugation passes; otherwise every word is
walked and the witnesses are the walk's, since -e^{-Xi} G(w) can be nonzero
on a word where pr G is zero.

A Maurer-Cartan element theta_t = t theta_1 + ... + t^m theta_m of a dg Lie
algebra (delta_0 theta_n + (1/2) sum_{p+q=n} {theta_p, theta_q} = 0 for
n <= m) induces the family delta_n = {theta_n, -}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .coalgebra import (
    CoderivationSpec,
    TensorElement,
    Word,
    check_coderivation_axiom,
    evaluate_coderivation,
    extend_linearly,
    hom_bracket,
)
from .derived import DeformationFamily, build_codifferential
from .errors import (
    GaugeDerivationError,
    MalformedInputError,
    MCRejectionError,
    PreconditionError,
)
from .graded import Element, GradedBasis, Scalar
from .multiop import (
    DgLeibnizAlgebra,
    MultiOp,
    check_derivation,
    check_skewsymmetry,
    compose_unary,
    n_i_d,
)
from .results import Verdict, Violation


@dataclass(frozen=True)
class GaugeFamily:
    """xi_1, ..., xi_m: degree-0 derivations of the bracket, orders 1 and up."""

    bracket: MultiOp
    xis: tuple[MultiOp, ...]

    def __post_init__(self) -> None:
        for k, xi in enumerate(self.xis):
            order = k + 1
            if xi.basis != self.bracket.basis:
                raise MalformedInputError(f"xi_{order} lives over a foreign basis")
            if xi.arity != 1 or xi.degree != 0:
                raise MalformedInputError(f"xi_{order} must have arity 1 and degree 0")
            if check_derivation(xi, self.bracket):
                raise GaugeDerivationError(order)

    @property
    def basis(self) -> GradedBasis:
        return self.bracket.basis

    @property
    def order(self) -> int:
        return len(self.xis)


@dataclass(frozen=True)
class McElement:
    """theta_1, ..., theta_m: the orders of a candidate Maurer-Cartan element."""

    thetas: tuple[Element, ...]

    def __post_init__(self) -> None:
        if not self.thetas:
            raise MalformedInputError("a Maurer-Cartan element needs at least theta_1")
        for k, theta in enumerate(self.thetas):
            deg = theta.homogeneous_degree()
            if deg is not None and deg != 1:
                raise MalformedInputError(f"theta_{k + 1} must be homogeneous of degree 1")

    @property
    def order(self) -> int:
        return len(self.thetas)

    def theta(self, n: int) -> Element | None:
        """Order-n component, None beyond the truncation (meaning zero)."""
        if 1 <= n <= len(self.thetas):
            return self.thetas[n - 1]
        return None


def check_deformation(fam: DeformationFamily) -> list[Violation]:
    """Derivation rule for every delta_i and the square-zero residual for n <= m.

    The residual at order n is sum_{i+j=n} delta_i delta_j applied to each
    basis vector.  Orders beyond m are outside the truncation contract and are
    not checked here.
    """
    violations: list[Violation] = []
    for i, delta in enumerate(fam.deltas):
        for v in check_derivation(delta, fam.bracket):
            violations.append(Violation("deformation-derivation", (i,) + v.site, v.residual))
    for n in range(fam.order + 1):
        residual_op = MultiOp.zero(fam.basis, 1, 2)
        for i in range(n + 1):
            if i <= fam.order and n - i <= fam.order:
                residual_op = residual_op + compose_unary(fam.deltas[i], fam.deltas[n - i])
        for b in range(len(fam.basis)):
            r = residual_op.apply_indices((b,))
            if not r.is_zero():
                violations.append(
                    Violation("deformation-square", (n, fam.basis.names[b]), r)
                )
    return violations


def adjoint_op(bracket: MultiOp, elt: Element, degree: int) -> MultiOp:
    """{elt, -} as an arity-1 operation; degree must match elt when nonzero."""
    got = elt.homogeneous_degree()
    if got is not None and got != degree:
        raise MalformedInputError(f"element has degree {got}, expected {degree}")
    basis = bracket.basis
    return MultiOp.from_function(
        basis, 1, degree, lambda key: bracket.apply([elt, basis.vector(key[0])])
    )


def mc_to_deformation(algebra: DgLeibnizAlgebra, mc: McElement) -> DeformationFamily:
    """delta_n = {theta_n, -} after validating the Maurer-Cartan equation.

    Preconditions: the bracket is graded skewsymmetric (a dg Lie algebra) and
    delta_0 theta_n + (1/2) sum_{p+q=n} {theta_p, theta_q} vanishes at every
    order.  A truncated element has theta_n = 0 beyond its last component,
    so the quadratic terms still contribute up to twice the truncation order
    and the equation is vacuous after that; the first failing order raises
    MCRejectionError.
    """
    bracket = algebra.bracket
    if not check_skewsymmetry(bracket).passed:
        raise PreconditionError("bracket is not graded skewsymmetric (need a dg Lie algebra)")
    half = Fraction(1, 2)
    for n in range(1, 2 * mc.order + 1):
        theta_n = mc.theta(n)
        residual = (
            algebra.differential.apply([theta_n])
            if theta_n is not None
            else Element(algebra.basis, {})
        )
        for p in range(1, n):
            left, right = mc.theta(p), mc.theta(n - p)
            if left is None or right is None:
                continue
            residual = residual + bracket.apply([left, right]).scale(half)
        if not residual.is_zero():
            raise MCRejectionError(n, residual)
    deltas = [algebra.differential]
    deltas += [adjoint_op(bracket, theta, 1) for theta in mc.thetas]
    return DeformationFamily(bracket, tuple(deltas))


def gauge_transform(fam: DeformationFamily, gauge: GaugeFamily) -> DeformationFamily:
    """Apply the nested-commutator series, truncated at order(fam); extend
    the family first to transform to a higher order.  The series in p
    terminates on its own since the p-th term carries order >= p.
    """
    if gauge.bracket != fam.bracket:
        raise MalformedInputError("gauge and family belong to different brackets")
    zero = MultiOp.zero(fam.basis, 1, 1)
    current: list[MultiOp] = list(fam.deltas)
    total: list[MultiOp] = list(current)
    for p in range(1, fam.order + 1):
        nxt: list[MultiOp] = [zero] * (fam.order + 1)
        for n in range(fam.order + 1):
            acc = zero
            for b in range(1, n + 1):
                if b <= gauge.order and not current[n - b].is_zero():
                    acc = acc + hom_bracket(current[n - b], gauge.xis[b - 1])
            nxt[n] = acc
        current = nxt
        coeff = Fraction(1, math.factorial(p))
        total = [t + c.scale(coeff) for t, c in zip(total, current)]
        if all(c.is_zero() for c in current):
            break
    return DeformationFamily(fam.bracket, tuple(total))


def build_xi(gauge: GaugeFamily) -> CoderivationSpec:
    """Xi = sum_j N_{j+1}(xi_j (x) 1^j) as a degree-0 coderivation spec."""
    components = {
        j + 1: n_i_d(gauge.bracket, gauge.xis[j - 1], j + 1)
        for j in range(1, gauge.order + 1)
    }
    return CoderivationSpec(gauge.basis, 0, components)


def exp_xi(spec: CoderivationSpec, word: Word) -> TensorElement:
    """e^(spec) applied to one word; finite because every component shortens words.

    Requires every component arity >= 2 (an arity-1 component would make the
    exponential an infinite series).
    """
    return _series(_powers(spec, word, lambda w: evaluate_coderivation(spec, w)), 1)


def _powers(
    spec: CoderivationSpec, word: Word, lift: Callable[[Word], TensorElement]
) -> list[TensorElement]:
    """The nonzero terms spec^p(word)/p! for p = 0, 1, ..., with the lift of
    spec on one word given by lift, so a caller can share one table of lifts
    across the powers and across words."""
    low = spec.min_arity()
    if low is not None and low < 2:
        raise PreconditionError("exponential needs all component arities >= 2")
    term = TensorElement.from_word(spec.basis, word)
    terms = []
    p = 0
    while not term.is_zero():
        terms.append(term)
        p += 1
        term = extend_linearly(term, lift, TensorElement).scale(Fraction(1, p))
    return terms


def _series(terms: list[TensorElement], sign: int) -> TensorElement:
    """The sum of sign^p terms[p]: e^{spec} for sign 1 and e^{-spec} for
    sign -1, since the lift of -spec is minus the lift of spec."""
    total = terms[0]
    for p, term in enumerate(terms[1:], 1):
        total = total - term if sign < 0 and p % 2 else total + term
    return total


def _hom_commutator_step(
    components: dict[int, MultiOp], xi_spec: CoderivationSpec, max_arity: int
) -> dict[int, MultiOp]:
    """One application of [-, Xi] to an arity-indexed operator family."""
    out: dict[int, MultiOp] = {}
    for a, f in components.items():
        for b, x in xi_spec.components.items():
            r = a + b - 1
            if r > max_arity or f.is_zero():
                continue
            term = hom_bracket(f, x)
            out[r] = out[r] + term if r in out else term
    return out


def _corestricted_defect(
    partial: CoderivationSpec,
    exp_plus: Callable[[Word], TensorElement],
    lift_prime: Callable[[Word], TensorElement],
) -> Callable[[Word], dict[int, Scalar]]:
    """pr G on one word, G = partial e^{Xi} - e^{Xi} partial', as a
    coefficient dict: partial_{|v|}(v) off the constants for each term v of
    e^{Xi}(w), minus pr e^{Xi}(u) for each term u of partial'(w)."""
    ops = partial.components
    # pr e^{Xi}(u), the single-letter terms of the exponential of u
    head = functools.cache(
        lambda u: [(v[0], c) for v, c in exp_plus(u).terms.items() if len(v) == 1]
    )

    def defect(word: Word) -> dict[int, Scalar]:
        acc: dict[int, Scalar] = {}
        for v, c in exp_plus(word).terms.items():
            op = ops.get(len(v))
            image = op.constants.get(v) if op is not None else None
            if image is not None:
                for z, cz in image.coeffs.items():
                    acc[z] = acc.get(z, 0) + c * cz
        for u, c in lift_prime(word).terms.items():
            for z, cz in head(u):
                acc[z] = acc.get(z, 0) - c * cz
        return acc

    return defect


def check_gauge_equivalence(
    fam: DeformationFamily,
    gauge: GaugeFamily,
    max_len: int = 4,
    first_violation: bool = False,
) -> Verdict:
    """Three formulations of the gauge action, compared exactly.

    The family is first extended by zero deltas to order max_len - 1 so that
    every transformed order acting on words of length <= max_len is present;
    components of arity a only touch words of length >= a, which makes the
    finite comparison exact.  Sub-checks:

    * conjugation: partial' = e^{-Xi} partial e^{Xi} on words of length <= max_len;
    * order expansion: exp([-, Xi]) applied to partial reproduces the
      nested-commutator series component by component in arity;
    * comultiplicativity and invertibility of e^{Xi}, proved from Xi's
      coderivation certificate (see the module docstring) on no word.

    The conjugation is first decided from pr G, as the module docstring
    argues, and walked only when pr G is nonzero somewhere.  Each word's
    e^{Xi}, e^{-Xi}, partial and partial' are computed at most once per
    call: every word they are needed on is no longer than the word being
    checked.  Both exponentials of a word are summed from one list of its
    terms Xi^p(w)/p!, with signs +1 and (-1)^p, and every power draws from
    one table of Xi lifts, so each word is lifted at most once.
    """
    if max_len < 1:
        raise MalformedInputError("max_len must be >= 1")
    fam_x = fam.extended(max(fam.order, max_len - 1))
    transformed = gauge_transform(fam_x, gauge)
    partial = build_codifferential(fam_x)
    partial_prime = build_codifferential(transformed)
    xi_spec = build_xi(gauge)
    for spec in (xi_spec, partial, partial_prime):
        check_coderivation_axiom(spec, max_len)
    basis = fam.basis
    xi_lift = functools.cache(lambda word: evaluate_coderivation(xi_spec, word))
    powers = functools.cache(lambda word: _powers(xi_spec, word, xi_lift))
    exp_plus = functools.cache(lambda word: _series(powers(word), 1))
    exp_minus = functools.cache(lambda word: _series(powers(word), -1))
    lift = functools.cache(lambda word: evaluate_coderivation(partial, word))
    lift_prime = functools.cache(lambda word: evaluate_coderivation(partial_prime, word))
    violations: list[Violation] = []

    def bail() -> bool:
        return first_violation and bool(violations)

    def every_word():
        return (word for length in range(1, max_len + 1) for word in basis.index_tuples(length))

    defect = _corestricted_defect(partial, exp_plus, lift_prime)
    if any(any(defect(word).values()) for word in every_word()):
        for word in every_word():
            lhs = lift_prime(word)
            rhs = extend_linearly(
                extend_linearly(exp_plus(word), lift, TensorElement), exp_minus, TensorElement
            )
            if lhs != rhs:
                names = tuple(basis.names[i] for i in word)
                violations.append(Violation("gauge-conjugation", names, lhs - rhs))
                if bail():
                    return Verdict(False, violations)

    # exp([-, Xi]) on the codifferential, arity by arity
    max_arity = fam_x.order + 1
    expanded: dict[int, MultiOp] = dict(partial.components)
    current: dict[int, MultiOp] = dict(partial.components)
    p = 0
    while current:
        p += 1
        current = _hom_commutator_step(current, xi_spec, max_arity)
        coeff = Fraction(1, math.factorial(p))
        for a, op in current.items():
            scaled = op.scale(coeff)
            expanded[a] = expanded[a] + scaled if a in expanded else scaled
    for a in range(1, max_arity + 1):
        zero = MultiOp.zero(basis, a, 1)
        got = expanded.get(a, zero)
        want = partial_prime.components.get(a, zero)
        if got != want:
            violations.append(
                Violation(
                    "gauge-order-expansion",
                    (a,),
                    None,
                    f"arity-{a} component of exp([-, Xi]) partial "
                    "differs from the transformed codifferential",
                )
            )
            if bail():
                return Verdict(False, violations)
    return Verdict.from_violations(violations)

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
the conjugation holds on exactly the words where G vanishes.

pr G is scattered from the constants, arity by arity.  For any linear map X
of T(V), pr(X Xi) on V^{(x) n} is the sum over the arities a of Xi of
(pr X)|_{n-a+1} . Xi_a^c: one multiop.compose_tables call scatters every
such pair of arity tables.  Repeated steps from the components of partial,
and from the identity of V, give the tables of pr(partial Xi^p)/p! and of
pr Xi^p/p!, whose sum over p is F = pr e^{Xi}; both stop, since Xi shortens
words.  Then

    pr G|_n = sum_p pr(partial Xi^p)|_n / p! - sum_{k+j-1=n} F_k . partial'_j^c,

the sh Leibniz morphism equation partial F = F partial' for F = e^{Xi},
whose last sum is one more compose_tables call on small tables: no word is
evaluated, and neither e^{-Xi} nor any lift.  If every table of pr G is
zero the conjugation passes.

A failing conjugation is witnessed by a lift.  e^{-Xi} partial e^{Xi} is a
coderivation up to L, as partial is one and e^{Xi} is comultiplicative.  It
is sum_p (1/p!) ad^p partial with ad Y = [Y, Xi], whose corestriction is
the hom bracket (pr Y, Xi) = pr Y . Xi^c - Xi . (pr Y)^c since |Xi| = 0:
one multiop.hom_tables call per step.  So its own is
E = exp([-, Xi]) partial, the order expansion's tables, and
partial' - e^{-Xi} partial e^{Xi} is the lift D^c of D = partial' - E on
arities <= L.  e^{Xi} D^c = -G: pr G vanishes exactly
when D does, and a disagreement raises EngineError.  When pr G is nonzero,
coalgebra.lift_witnesses scatters the words w with D^c(w) nonzero from D's
constants, as derived.check_codifferential does for the square of partial,
and no word is walked.

Every series is summed on integer tables.  A series that stops after at
most b steps is summed with step p weighted by the integer b!/p!: the sum
is b! times the series, no 1/p! is taken, and integer constants stay
integers.  delta' stops after m = order(family) steps, as step p carries
order >= p, so gauge_transform sums M delta' with M = m! and divides by M
once.  The check scales it back and builds M partial' from M delta', the
lift being linear; the order expansion raises the arity by one or more
per step, from 1 up to at most m + 1, so it stops after m steps and gives
M E.  On the words of length <= L the two exponentials of pr G stop after
L - 1 steps, and pr(partial Xi^p) is weighted by M as well, so their
tables are (L - 1)! M pr G.  A multiple by a nonzero integer is zero
exactly when the table is, so the verdicts and the EngineError
cross-check are unchanged, and M D = M partial' - M E is divided by M only
once it is nonzero, before the lift: the witness values are exactly D's.
A nonzero step past its bound is an EngineError, never a truncation.

A Maurer-Cartan element theta_t = t theta_1 + ... + t^m theta_m of a dg Lie
algebra (delta_0 theta_n + (1/2) sum_{p+q=n} {theta_p, theta_q} = 0 for
n <= m) induces the family delta_n = {theta_n, -}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping

from .coalgebra import (
    CoderivationSpec,
    TensorElement,
    Word,
    check_coderivation_axiom,
    evaluate_coderivation,
    extend_linearly,
    lift_witnesses,
)
from .derived import DeformationFamily, build_codifferential
from .errors import (
    EngineError,
    GaugeDerivationError,
    MalformedInputError,
    MCRejectionError,
    PreconditionError,
)
from .graded import Element, GradedBasis, Scalar
from .multiop import (
    DgLeibnizAlgebra,
    MultiOp,
    _by_left,
    _residuals,
    check_derivation,
    check_skewsymmetry,
    compose_into,
    compose_tables,
    hom_tables,
    identity_op,
    n_i_d,
    op_from_terms,
)
from .record import Record
from .results import Verdict, Violation


class GaugeFamily(Record):
    """xi_1, ..., xi_m: degree-0 derivations of the bracket, orders 1 and up."""

    __slots__ = ("bracket", "xis")

    def __init__(self, bracket: MultiOp, xis: tuple[MultiOp, ...]):
        for k, xi in enumerate(xis):
            order = k + 1
            if xi.basis != bracket.basis:
                raise MalformedInputError(f"xi_{order} lives over a foreign basis")
            if xi.arity != 1 or xi.degree != 0:
                raise MalformedInputError(f"xi_{order} must have arity 1 and degree 0")
            if check_derivation(xi, bracket):
                raise GaugeDerivationError(order)
        self._assign(bracket, xis)

    @property
    def basis(self) -> GradedBasis:
        return self.bracket.basis

    @property
    def order(self) -> int:
        return len(self.xis)


class McElement(Record):
    """theta_1, ..., theta_m: the orders of a candidate Maurer-Cartan element."""

    __slots__ = ("thetas",)

    def __init__(self, thetas: tuple[Element, ...]):
        if not thetas:
            raise MalformedInputError("a Maurer-Cartan element needs at least theta_1")
        for k, theta in enumerate(thetas):
            deg = theta.homogeneous_degree()
            if deg is not None and deg != 1:
                raise MalformedInputError(f"theta_{k + 1} must be homogeneous of degree 1")
        self._assign(thetas)

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

    The residual at order n is sum_{i+j=n} delta_i delta_j on each basis
    vector, scattered from the constants by compose_into.  Orders beyond m
    are outside the truncation contract and are not checked here.
    """
    violations: list[Violation] = []
    for i, delta in enumerate(fam.deltas):
        for v in check_derivation(delta, fam.bracket):
            violations.append(Violation("deformation-derivation", (i,) + v.site, v.residual))
    for n in range(fam.order + 1):
        acc: dict[Word, dict[int, Scalar]] = {}
        for i in range(n + 1):
            compose_into(acc, fam.deltas[i], fam.deltas[n - i], 1)
        violations += _residuals("deformation-square", fam.basis, acc, (n,))
    return violations


def adjoint_op(bracket: MultiOp, elt: Element, degree: int) -> MultiOp:
    """{elt, -} as an arity-1 operation; degree must match elt when nonzero.

    Read off the constants: elt's coefficients contracted with the bracket's
    left multiplications, as _by_left gives them."""
    got = elt.homogeneous_degree()
    if got is not None and got != degree:
        raise MalformedInputError(f"element has degree {got}, expected {degree}")
    if bracket.arity != 2 or bracket.degree != 0:
        raise MalformedInputError("bracket must have arity 2 and degree 0")
    if elt.basis != bracket.basis:
        raise MalformedInputError("argument lives over a foreign basis")
    by_left = _by_left(bracket)
    acc: dict[Word, dict[int, Scalar]] = {}
    for x, c in elt.coeffs.items():
        for y, image in by_left.get(x, ()):
            out = acc.setdefault((y,), {})
            for z, cz in image.items():
                out[z] = out.get(z, 0) + c * cz
    return op_from_terms(bracket.basis, 1, degree, acc)


def mc_to_deformation(algebra: DgLeibnizAlgebra, mc: McElement) -> DeformationFamily:
    """delta_n = {theta_n, -} after validating the Maurer-Cartan equation.

    Preconditions: the bracket is graded skewsymmetric (a dg Lie algebra) and
    delta_0 theta_n + (1/2) sum_{p+q=n} {theta_p, theta_q} vanishes at every
    order.  A truncated element has theta_n = 0 beyond its last component,
    so the quadratic terms still contribute up to twice the truncation order
    and the equation is vacuous after that; the first failing order raises
    MCRejectionError.  Each order's residual is summed as one coefficient
    dict, read off the constants of delta_0 and of the adjoints {theta_p, -},
    which are the deltas.
    """
    bracket = algebra.bracket
    if not check_skewsymmetry(bracket).passed:
        raise PreconditionError("bracket is not graded skewsymmetric (need a dg Lie algebra)")
    half = Fraction(1, 2)
    deltas = [algebra.differential]
    for n in range(1, 2 * mc.order + 1):
        residual: dict[int, Scalar] = {}
        if n <= mc.order:
            deltas.append(adjoint_op(bracket, mc.theta(n), 1))
            _apply_into(residual, algebra.differential, mc.theta(n), 1)
        for p in range(max(1, n - mc.order), min(n, mc.order + 1)):
            _apply_into(residual, deltas[p], mc.theta(n - p), half)
        if any(residual.values()):
            raise MCRejectionError(n, Element._trusted(algebra.basis, residual))
    return DeformationFamily(bracket, tuple(deltas))


def _apply_into(acc: dict[int, Scalar], op: MultiOp, elt: Element, scale: Scalar) -> None:
    """Add scale * op(elt) into acc, for an arity-1 op over elt's basis."""
    for x, c in elt.coeffs.items():
        for z, cz in op.constants.get((x,), {}).items():
            acc[z] = acc.get(z, 0) + scale * c * cz


def gauge_transform(fam: DeformationFamily, gauge: GaugeFamily) -> DeformationFamily:
    """Apply the nested-commutator series, truncated at order(fam); extend
    the family first to transform to a higher order.  The series in p
    terminates on its own since the p-th term carries order >= p, so p <=
    order(fam): step p is added into one coefficient dict per order with
    the integer weight M/p!, M = order(fam)!, and the sums are divided by M
    once at the end.
    """
    if gauge.bracket != fam.bracket:
        raise MalformedInputError("gauge and family belong to different brackets")
    scale = math.factorial(fam.order)
    current: list[MultiOp] = list(fam.deltas)
    sums: list[dict[Word, dict[int, Scalar]]] = [{} for _ in current]
    for total, delta in zip(sums, current):
        _add_into(total, delta.constants, scale)
    weight = scale
    for p in range(1, fam.order + 1):
        weight //= p
        nxt: list[MultiOp] = []
        for n, total in enumerate(sums):
            # sum_b [delta_{n-b}, xi_b] into one table, wrapped once
            acc: dict[int, dict[Word, dict[int, Scalar]]] = {}
            for b, xi in enumerate(gauge.xis[:n], start=1):
                hom_tables(acc, {1: current[n - b]}, {1: xi}, 1, 1)
            nxt.append(op_from_terms(fam.basis, 1, 1, acc.get(1, {})))
            _add_into(total, nxt[-1].constants, weight)
        current = nxt
        if all(c.is_zero() for c in current):
            break
    unit = Fraction(1, scale)
    deltas = tuple(op_from_terms(fam.basis, 1, 1, total).scale(unit) for total in sums)
    return DeformationFamily(fam.bracket, deltas)


def _add_into(
    acc: dict[Word, dict[int, Scalar]], constants: Mapping[Word, dict[int, Scalar]], weight: Scalar
) -> None:
    """Add weight times these coefficient dicts into acc, key by key."""
    for key, image in constants.items():
        out = acc.setdefault(key, {})
        for z, c in image.items():
            out[z] = out.get(z, 0) + weight * c


def build_xi(gauge: GaugeFamily) -> CoderivationSpec:
    """Xi = sum_j N_{j+1}(xi_j (x) 1^j) as a degree-0 coderivation spec."""
    components = {
        j + 1: n_i_d(gauge.bracket, gauge.xis[j - 1], j + 1)
        for j in range(1, gauge.order + 1)
    }
    return CoderivationSpec(gauge.basis, 0, components)


def exp_xi(spec: CoderivationSpec, word: Word) -> TensorElement:
    """e^(spec) applied to one word: the sum of the terms spec^p(word)/p!,
    each the lift of the one before scaled by 1/p, up to the first zero
    term, which comes because every component shortens words.

    Requires every component arity >= 2 (an arity-1 component would make the
    exponential an infinite series).
    """
    if any(a < 2 for a in spec.components):
        raise PreconditionError("exponential needs all component arities >= 2")
    term = total = TensorElement.from_word(spec.basis, word)
    p = 0
    while not term.is_zero():
        p += 1
        term = extend_linearly(
            term, lambda w: evaluate_coderivation(spec, w), TensorElement
        ).scale(Fraction(1, p))
        total = total + term
    return total


def _exponential(
    tables: dict[int, MultiOp], step: Callable[[dict[int, MultiOp]], dict[int, dict]], bound: int
) -> dict[int, MultiOp]:
    """bound! sum_p step^p(tables)/p!, for a step by Xi that is linear in the
    arity tables and returns their images as coefficient dicts per arity:
    [-, Xi] through hom_tables, or right composition through compose_tables.
    Step p is taken of the tables of step p - 1 and added straight into one
    coefficient dict per arity with the integer weight bound!/p!, so integer
    inputs stay integers; only the next step's tables are wrapped, and the
    sums once at the end.  The steps stop since the arities of Xi are >= 2,
    and a nonzero step past bound, whose weight would not be an integer,
    is an EngineError."""
    if not tables:
        return {}
    some = next(iter(tables.values()))  # Xi has degree 0
    basis, degree = some.basis, some.degree
    weight = math.factorial(bound)
    sums: dict[int, dict[Word, dict[int, Scalar]]] = {}
    p = 0
    while tables:
        for n, op in tables.items():
            _add_into(sums.setdefault(n, {}), op.constants, weight)
        p += 1
        ops = (op_from_terms(basis, n, degree, terms) for n, terms in step(tables).items())
        tables = {op.arity: op for op in ops if not op.is_zero()}
        if tables and p > bound:
            raise EngineError(f"step {p} of an exponential bounded by {bound} steps is nonzero")
        weight //= p
    return {n: op_from_terms(basis, n, degree, terms) for n, terms in sums.items()}


def _scattered_defect(
    partial: CoderivationSpec,
    partial_prime: CoderivationSpec,
    xi_spec: CoderivationSpec,
    max_len: int,
    scale: int,
) -> dict[int, MultiOp]:
    """The nonzero arity tables of (max_len - 1)! scale pr G on the words of
    length <= max_len, G = partial e^{Xi} - e^{Xi} partial' for
    partial_prime = scale partial', scattered from the constants as the
    module docstring sets out.  Both exponentials take max_len - 1 steps
    at most, as each lengthens the key by one or more."""
    basis = partial.basis

    def times_xi(tables: dict[int, MultiOp]) -> dict[int, dict]:
        # pr(X Xi) on the words of length n: sum_a (pr X)|_{n-a+1} . Xi_a^c
        return compose_tables({}, tables, xi_spec.components, 1, max_len)

    ops = {a: op for a, op in partial.components.items() if a <= max_len}
    acc: dict[int, dict[Word, dict[int, Scalar]]] = {}
    for n, op in _exponential(ops, times_xi, max_len - 1).items():
        _add_into(acc.setdefault(n, {}), op.constants, scale)
    # F_k = pr e^{Xi} on V^{(x) k}, then minus every F_k . partial'_j^c
    taylor = _exponential({1: identity_op(basis)}, times_xi, max_len - 1)
    compose_tables(acc, taylor, partial_prime.components, -1, max_len)
    tables = {n: op_from_terms(basis, n, 1, terms) for n, terms in acc.items()}
    return {n: op for n, op in tables.items() if not op.is_zero()}


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

    * conjugation: partial' = e^{-Xi} partial e^{Xi} on words of length
      <= max_len, decided from the arity tables of pr G and witnessed by the
      lift of partial' - exp([-, Xi]) partial;
    * order expansion: exp([-, Xi]) applied to partial reproduces the
      nested-commutator series component by component in arity;
    * comultiplicativity and invertibility of e^{Xi}, proved from Xi's
      coderivation certificate.

    All three are read off the constants as the module docstring sets out;
    no word is evaluated, whether the check passes or fails.  Under
    first_violation each sub-check keeps its first witness.
    """
    if max_len < 1:
        raise MalformedInputError("max_len must be >= 1")
    fam_x = fam.extended(max(fam.order, max_len - 1))
    partial = build_codifferential(fam_x)
    # M = order! clears every 1/p! below: partial' is built as M partial'
    # from M delta', and the order expansion gives M exp([-, Xi]) partial
    scale = math.factorial(fam_x.order)
    transformed = gauge_transform(fam_x, gauge)
    partial_prime = build_codifferential(
        DeformationFamily(fam.bracket, tuple(d.scale(scale) for d in transformed.deltas))
    )
    xi_spec = build_xi(gauge)
    for spec in (xi_spec, partial, partial_prime):
        check_coderivation_axiom(spec, max_len)
    basis = fam.basis
    max_arity = fam_x.order + 1
    expanded = _exponential(
        dict(partial.components),
        lambda t: hom_tables({}, t, xi_spec.components, 1, max_arity),
        fam_x.order,
    )
    # M partial' - M exp([-, Xi]) partial, arity by arity, zero arities dropped
    acc: dict[int, dict[Word, dict[int, Scalar]]] = {}
    for sign, tables in ((1, partial_prime.components), (-1, expanded)):
        for a, op in tables.items():
            if a <= max_arity:
                _add_into(acc.setdefault(a, {}), op.constants, sign)
    ops = (op_from_terms(basis, a, 1, acc[a]) for a in sorted(acc))
    difference = {op.arity: op for op in ops if not op.is_zero()}
    # divided by M only when nonzero, so the witness values are D's own
    unit = Fraction(1, scale)
    defect = {a: d.scale(unit) for a, d in difference.items() if a <= max_len}
    scattered = _scattered_defect(partial, partial_prime, xi_spec, max_len, scale)
    if bool(scattered) != bool(defect):
        raise EngineError(
            f"the morphism equation and exp([-, Xi]) disagree on the conjugation "
            f"up to length {max_len}; the sign conventions are inconsistent"
        )
    violations = lift_witnesses(
        CoderivationSpec(basis, 1, defect), max_len, "gauge-conjugation", first_violation
    )
    detail = "component of exp([-, Xi]) partial differs from the transformed codifferential"
    expansion = [
        Violation("gauge-order-expansion", (a,), None, f"arity-{a} {detail}") for a in difference
    ]
    return Verdict.from_violations(violations + (expansion[:1] if first_violation else expansion))

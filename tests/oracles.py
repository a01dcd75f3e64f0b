"""Oracles and fixture helpers shared by the test modules.

None of this is reached by a command: the dense evaluation path (basis
vectors, every basis tuple, an operation applied to elements, tabulation,
skewsymmetry walked tuple by tuple and the Maurer-Cartan equation summed
in Element arithmetic), the gauge series weighted by a Fraction per step,
the suspension as explicit tensor layers, the lift of an operation split
by summand, the parity-pattern certificates proved one pattern at a time,
the restriction of an operation to a sub-basis, the key lemma decided one
combination at a time, and the designated perturbations, Maurer-Cartan
candidates and abelian subalgebra of the shipped corpus.

Every fixture that carries a deformation family also carries a designated
single-constant perturbation, chosen so that adding that one constant to
the named delta component breaks the square-zero ladder with a residual
that both verification routes detect.  The perturbations all target the
order-0 component along a degree chain d -> d+1 -> d+2, because an order-0
residual is the arity-one component of the squared codifferential and is
therefore visible no matter how degenerate the bracket is; residuals at
higher order can be annihilated by a bracket with a short top degree.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from shleibniz import coalgebra, graded
from shleibniz import fixtures as shipped
from shleibniz.coalgebra import (
    CoderivationSpec,
    TensorElement,
    TensorPairElement,
    Word,
    _lift_terms,
    comultiply,
    evaluate_coderivation,
    extend_linearly,
)
from shleibniz.derived import DeformationFamily
from shleibniz.document import AlgebraDocument, serialize_document
from shleibniz.errors import MalformedInputError, MCRejectionError, PreconditionError
from shleibniz.gauge import GaugeFamily, McElement
from shleibniz.graded import Element, GradedBasis, Scalar, Shift, layer_sign, shifted_degrees
from shleibniz.multiop import DgLeibnizAlgebra, MultiOp, hom_tables, n_i_d, op_from_terms
from shleibniz.results import Verdict, Violation

# --- the dense evaluation path: one basis tuple, one element at a time ---

# what MultiOp and GradedBasis no longer carry: no engine check can walk
# every basis tuple or evaluate an operation on elements through them
DENSE_API = (
    (GradedBasis, "index_tuples"),
    (GradedBasis, "vector"),
    (MultiOp, "apply"),
    (MultiOp, "_accumulate"),
    (MultiOp, "apply_indices"),
    (MultiOp, "from_function"),
)


def assert_no_dense_api() -> None:
    present = [f"{cls.__name__}.{name}" for cls, name in DENSE_API if hasattr(cls, name)]
    assert present == [], present


def vector(basis: GradedBasis, key: int | str) -> Element:
    """The basis vector of a letter, by index or by name."""
    return Element(basis, {basis.index(key) if isinstance(key, str) else key: 1})


def index_tuples(basis: GradedBasis, length: int) -> Iterator[tuple[int, ...]]:
    """All tuples of basis indices of the given length, lexicographic."""
    return itertools.product(range(len(basis)), repeat=length)


def apply_indices(op: MultiOp, key: tuple[int, ...]) -> Element:
    """op on one basis tuple."""
    return Element._trusted(op.basis, op.constants.get(key, {}))


def apply(op: MultiOp, args: Sequence[Element]) -> Element:
    """Multilinear evaluation, no signs: op on every tuple of letters, one
    from each argument, times the product of their coefficients."""
    if len(args) != op.arity:
        raise MalformedInputError(f"expected {op.arity} arguments, got {len(args)}")
    for a in args:
        if a.basis != op.basis:
            raise MalformedInputError("argument lives over a foreign basis")
    acc: dict[int, Scalar] = {}
    for terms in itertools.product(*(a.coeffs.items() for a in args)):
        coeff = math.prod(c for _, c in terms)
        for z, cz in op.constants.get(tuple(b for b, _ in terms), {}).items():
            acc[z] = acc.get(z, 0) + coeff * cz
    return Element._trusted(op.basis, acc)


def tabulate(
    basis: GradedBasis, arity: int, degree: int, fn: Callable[[tuple[int, ...]], Element]
) -> MultiOp:
    """The operation with image fn(key) on every basis tuple; fn may return
    zero elements, and must return them over basis."""
    constants = {}
    for key in index_tuples(basis, arity):
        image = fn(key)
        if image.basis != basis:
            raise MalformedInputError("constant image lives over a foreign basis")
        constants[key] = dict(image.coeffs)
    return MultiOp(basis, arity, degree, constants)


def skewsymmetry_walk(op: MultiOp) -> Verdict:
    """check_skewsymmetry as first written: the residual
    op(..., x_{p+1}, x_p, ...) + (-1)^(|x_p||x_{p+1}|) op(..., x_p, x_{p+1}, ...)
    on every one of the dim^arity basis tuples and every adjacent pair."""
    basis = op.basis
    violations: list[Violation] = []
    for key in index_tuples(basis, op.arity):
        for p in range(op.arity - 1):
            swapped = key[:p] + (key[p + 1], key[p]) + key[p + 2 :]
            sign = -1 if (basis.degree(key[p]) * basis.degree(key[p + 1])) % 2 else 1
            residual = apply_indices(op, swapped) + apply_indices(op, key).scale(sign)
            if not residual.is_zero():
                names = tuple(basis.names[i] for i in key)
                violations.append(Violation("skewsymmetry", names + (f"swap@{p + 1}",), residual))
    return Verdict.from_violations(violations)


def adjoint_direct(bracket: MultiOp, elt: Element, degree: int) -> MultiOp:
    """{elt, -} tabulated on every letter through apply."""
    got = elt.homogeneous_degree()
    if got is not None and got != degree:
        raise MalformedInputError(f"element has degree {got}, expected {degree}")
    basis = bracket.basis
    return tabulate(basis, 1, degree, lambda key: apply(bracket, [elt, vector(basis, key[0])]))


def mc_direct(algebra: DgLeibnizAlgebra, mc: McElement) -> DeformationFamily:
    """mc_to_deformation as first written: skewsymmetry walked tuple by
    tuple, the residual delta_0 theta_n + (1/2) sum_{p+q=n} {theta_p, theta_q}
    summed in Element arithmetic through apply, and each {theta_n, -}
    tabulated on every letter."""
    bracket = algebra.bracket
    if not skewsymmetry_walk(bracket).passed:
        raise PreconditionError("bracket is not graded skewsymmetric (need a dg Lie algebra)")
    half = Fraction(1, 2)
    for n in range(1, 2 * mc.order + 1):
        theta_n = mc.theta(n)
        residual = (
            apply(algebra.differential, [theta_n])
            if theta_n is not None
            else Element(algebra.basis, {})
        )
        for p in range(1, n):
            left, right = mc.theta(p), mc.theta(n - p)
            if left is None or right is None:
                continue
            residual = residual + apply(bracket, [left, right]).scale(half)
        if not residual.is_zero():
            raise MCRejectionError(n, residual)
    deltas = [algebra.differential]
    deltas += [adjoint_direct(bracket, theta, 1) for theta in mc.thetas]
    return DeformationFamily(bracket, tuple(deltas))


# --- the gauge series with a Fraction weight per step ---


def gauge_transform_direct(fam: DeformationFamily, gauge: GaugeFamily) -> DeformationFamily:
    """gauge_transform as first written: step p of the nested-commutator
    series is scaled by 1/p! and added to the running sum as a whole
    operation, order by order."""
    if gauge.bracket != fam.bracket:
        raise MalformedInputError("gauge and family belong to different brackets")
    current: list[MultiOp] = list(fam.deltas)
    total: list[MultiOp] = list(current)
    for p in range(1, fam.order + 1):
        nxt: list[MultiOp] = []
        for n in range(fam.order + 1):
            acc: dict = {}
            for b, xi in enumerate(gauge.xis[:n], start=1):
                hom_tables(acc, {1: current[n - b]}, {1: xi}, 1, 1)
            nxt.append(op_from_terms(fam.basis, 1, 1, acc.get(1, {})))
        current = nxt
        coeff = Fraction(1, math.factorial(p))
        total = [t + c.scale(coeff) for t, c in zip(total, current)]
        if all(c.is_zero() for c in current):
            break
    return DeformationFamily(fam.bracket, tuple(total))


def exponential_direct(
    tables: dict[int, MultiOp], step: Callable[[dict[int, MultiOp]], dict[int, dict]]
) -> dict[int, MultiOp]:
    """sum_p step^p(tables)/p! as gauge._exponential first summed it: each
    step's tables are wrapped, scaled by 1/p! and added to the total as
    whole operations, until a step is zero."""
    total = dict(tables)
    p = 0
    while tables:
        p += 1
        some = next(iter(tables.values()))
        images = step(tables).items()
        ops = (op_from_terms(some.basis, n, some.degree, terms) for n, terms in images)
        tables = {op.arity: op for op in ops if not op.is_zero()}
        weight = Fraction(1, math.factorial(p))
        for n, op in tables.items():
            share = op.scale(weight)
            total[n] = total[n] + share if n in total else share
    return total


# --- the suspension as tensor layers ---

# A layer factor is (degree, fn); fn None means the identity.  fn must be a
# linear map homogeneous of exactly that degree for the sign to be meaningful.
LayerFactor = tuple[int, Callable[[Element], Element] | None]


def reshape(elt: Element, basis: GradedBasis) -> Element:
    """The same coefficients over another basis of equal length: for the
    suspension, names are kept and degrees move."""
    return Element(basis, elt.coeffs)


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
    return (shift.value, lambda e: reshape(e, target))


# --- the lift of one operation, summand by summand ---


def decompose_k(op: MultiOp, k: int, basis: GradedBasis, word: Word) -> TensorElement:
    """The k-th summand of the lift of op applied to one word.

    Nonzero only for arity(op) <= k <= len(word); the summands over all k add
    up to the full lift.
    """
    if k < op.arity or k > len(word):
        return TensorElement.zero(basis)
    parities = tuple(basis.degree(i) % 2 for i in word)
    acc: dict[Word, Scalar] = {}
    for w, c in _lift_terms(op, word, parities, k):
        acc[w] = acc.get(w, 0) + c
    return TensorElement(basis, acc)


def word_degree(basis: GradedBasis, word: Word) -> int:
    return sum(basis.degree(i) for i in word)


# --- the parity-pattern certificates, one generic word per pattern ---


def every_pattern(n: int) -> frozenset[tuple[int, ...]]:
    """Every parity pattern of length n: the failing set of a proof that
    refuses the whole length."""
    return frozenset(itertools.product((0, 1), repeat=n))


def _position_names(n: int) -> tuple[str, ...]:
    return tuple(f"p{j}" for j in range(n))


@functools.cache
def dual_leibniz_certified(pattern: tuple[int, ...]) -> bool:
    """Whether (1 (x) Delta) Delta - (Delta (x) 1) Delta - ((12) (x) 1)(Delta (x) 1) Delta
    vanishes on the generic word of this parity pattern, distinct position
    letters p_j of degree pattern[j]."""
    basis = GradedBasis(_position_names(len(pattern)), pattern)
    split = functools.cache(lambda word: comultiply(basis, word).terms)
    diff: dict[tuple[Word, Word, Word], Scalar] = {}
    for (w1, w2), c in split(tuple(range(len(pattern)))).items():
        for (w21, w22), c2 in split(w2).items():
            key = (w1, w21, w22)
            diff[key] = diff.get(key, 0) + c * c2
        for (w11, w12), c1 in split(w1).items():
            # (Delta (x) 1) Delta, then the same with factors swapped
            key = (w11, w12, w2)
            diff[key] = diff.get(key, 0) - c * c1
            swap = -1 if (word_degree(basis, w11) * word_degree(basis, w12)) % 2 else 1
            skey = (w12, w11, w2)
            diff[skey] = diff.get(skey, 0) - swap * c * c1
    return not any(diff.values())


@functools.cache
def coderivation_certified(pattern: tuple[int, ...], arities: tuple[int, ...], parity: int) -> bool:
    """Whether the lift D of free operations of these arities and degree
    parity satisfies Delta D = (D (x) 1) Delta + (1 (x) D) Delta on the
    generic word of this pattern.

    The free arity-a operation sends each increasing a-tuple S of position
    letters to its own letter f_S of degree parity + sum(pattern[S]).
    """
    n = len(pattern)
    keys = [key for a in arities for key in itertools.combinations(range(n), a)]
    names = _position_names(n) + tuple("f" + ".".join(map(str, key)) for key in keys)
    degrees = pattern + tuple(parity + sum(pattern[j] for j in key) for key in keys)
    basis = GradedBasis(names, degrees)
    constants: dict[int, dict[Word, dict[int, Scalar]]] = {a: {} for a in arities}
    for letter, key in enumerate(keys, start=n):
        constants[len(key)][key] = {letter: 1}
    spec = CoderivationSpec(
        basis, parity, {a: MultiOp(basis, a, parity, c) for a, c in constants.items()}
    )
    lift = functools.cache(lambda word: evaluate_coderivation(spec, word))
    split = functools.cache(lambda word: comultiply(basis, word))
    word = tuple(range(n))
    lhs = extend_linearly(lift(word), split, TensorPairElement)
    acc: dict[tuple[Word, Word], Scalar] = {}
    for (w1, w2), c in split(word).terms.items():
        for w1p, c1 in lift(w1).terms.items():
            key = (w1p, w2)
            acc[key] = acc.get(key, 0) + c * c1
        jump = -1 if (parity * word_degree(basis, w1)) % 2 else 1
        for w2p, c2 in lift(w2).terms.items():
            key = (w1, w2p)
            acc[key] = acc.get(key, 0) + jump * c * c2
    return (lhs - TensorPairElement._trusted(basis, acc)).is_zero()


# every cache that holds a sign, a signed row or a verdict read off one; a
# test that mutates the sign source clears them all around it
SIGN_CACHES = (
    graded.signed_unshuffles,
    graded._placement_table,
    coalgebra._dual_leibniz_failures,
    coalgebra._coderivation_failures,
    dual_leibniz_certified,
    coderivation_certified,
)


def corestriction(te: TensorElement) -> Element:
    """Project onto the single-letter words."""
    return Element(te.basis, {w[0]: c for w, c in te.terms.items() if len(w) == 1})


def restrict(op: MultiOp, indices: Sequence[int]) -> MultiOp:
    """op with only the constants whose keys lie in the sub-basis.  A check
    read off the constants, such as check_skewsymmetry, then sees op on the
    sub-basis tuples and zero on every other tuple."""
    pool = set(indices)
    kept = {key: dict(image) for key, image in op.constants.items() if pool.issuperset(key)}
    return MultiOp(op.basis, op.arity, op.degree, kept)


# --- the key lemma, one combination at a time ---


def key_lemma_direct(
    bracket: MultiOp,
    pool: Sequence[tuple[str, MultiOp]],
    arities: Sequence[tuple[int, int]],
    first_violation: bool = False,
) -> list[Violation]:
    """The witnesses of N_{i+j-1}([D, D']) = (N_i D, N_j D') with every
    combination (D, D', (i, j)) built and compared on its own, in that
    order: no mirror is reused and no diagonal skipped.  Each residual is
    the difference of the two sides read key by key; the members are not
    checked to be derivations."""
    found: list[Violation] = []
    for (name1, d1), (name2, d2), (i, j) in itertools.product(pool, pool, arities):
        lhs = n_i_d(bracket, coalgebra.hom_bracket(d1, d2), i + j - 1)
        rhs = coalgebra.hom_bracket(n_i_d(bracket, d1, i), n_i_d(bracket, d2, j))
        for key in sorted(lhs.constants.keys() | rhs.constants.keys()):
            residual = apply_indices(lhs, key) - apply_indices(rhs, key)
            if not residual.is_zero():
                names = tuple(bracket.basis.names[b] for b in key)
                found.append(Violation("key-lemma", (name1, name2, i, j) + names, residual))
        if first_violation and found:
            return found[:1]
    return found


# --- designated inputs of the shipped corpus ---


@dataclass(frozen=True)
class Perturbation:
    """One structure constant added to one delta component."""

    order: int
    source: str
    target: str
    amount: Scalar


# designed so that (delta_0 + tweak)^2 is nonzero on some generator,
# except endo2 where the chain runs through the existing delta_0
PERTURBATIONS = {
    "l2b": Perturbation(0, "b", "w", 1),
    "abelian3": Perturbation(0, "x1", "x2", 1),
    "endo2": Perturbation(0, "E01", "E00", 1),
    "heisab": Perturbation(0, "a1", "w", 1),
    "heis3w": Perturbation(0, "h", "w", 1),
}


def family_fixture_names() -> tuple[str, ...]:
    """Fixtures shipping a deformation family, in sorted order."""
    return tuple(n for n in shipped.fixture_names() if shipped.load_fixture(n).deltas)


def perturbation(name: str) -> Perturbation:
    if name not in PERTURBATIONS:
        raise KeyError(f"fixture {name!r} has no designated perturbation")
    return PERTURBATIONS[name]


def perturbed_family(doc: AlgebraDocument, tweak: Perturbation) -> DeformationFamily:
    """Family with ``tweak.amount * (source -> target)`` added at one order."""
    fam = doc.to_family()
    if fam is None:
        raise ValueError(f"document {doc.name!r} has no deformation family")
    return with_constants(fam, [tweak])


def perturbed_text(name: str, doc: AlgebraDocument | None = None) -> str:
    """The fixture's document (or ``doc``) with its designated perturbation written in."""
    doc = shipped.load_fixture(name) if doc is None else doc
    tweak = perturbation(name)
    entries = {src: dict((g, c) for c, g in terms) for src, terms in doc.deltas[tweak.order]}
    image = entries.setdefault(tweak.source, {})
    image[tweak.target] = image.get(tweak.target, Fraction(0)) + tweak.amount
    order = tuple(
        (src, tuple((c, g) for g, c in entries[src].items() if c))
        for src, _ in doc.basis
        if any(entries.get(src, {}).values())
    )
    deltas = doc.deltas[: tweak.order] + (order,) + doc.deltas[tweak.order + 1 :]
    return serialize_document(
        AlgebraDocument(doc.basis, doc.bracket, deltas, doc.gauges, doc.metadata)
    )


def with_constants(fam: DeformationFamily, tweaks: Sequence[Perturbation]) -> DeformationFamily:
    """Family with every ``amount * (source -> target)`` added at its order,
    padded with zero orders up to the highest one."""
    basis = fam.basis
    deltas = list(fam.extended(max([fam.order] + [t.order for t in tweaks])).deltas)
    for tweak in tweaks:
        image = {basis.index(tweak.target): tweak.amount}
        bump = MultiOp(basis, 1, 1, {(basis.index(tweak.source),): image})
        deltas[tweak.order] = deltas[tweak.order] + bump
    return DeformationFamily(fam.bracket, tuple(deltas))


def mc_element(name: str) -> McElement:
    """Maurer-Cartan candidates: accepted on endo2, rejected on quartic."""
    basis = shipped.load_fixture(name).to_basis()
    if name == "endo2":
        theta = Element(basis, {basis.index("E10"): 1})
    elif name == "quartic":
        theta = Element(basis, {basis.index("v"): 1})
    else:
        raise KeyError(f"fixture {name!r} has no Maurer-Cartan candidate")
    return McElement((theta,))


def abelian_subalgebra(name: str) -> tuple[str, ...]:
    """Generators of the abelian, derived-bracket-closed subalgebra."""
    if name != "heisab":
        raise KeyError(f"fixture {name!r} has no designated abelian subalgebra")
    return ("a", "a1")

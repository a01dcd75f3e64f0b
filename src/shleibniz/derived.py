"""Higher derived brackets from a truncated deformation of the differential.

A deformation family is a polynomial differential delta_t = delta_0 + t delta_1
+ ... + t^m delta_m with every coefficient an arity-1, degree +1 operation; the
square-zero condition order by order reads

    sum_{i+j=n} delta_i delta_j = 0.

Writing s for the suspension and N_i for the left-nested bracket, the family
induces operations on the shifted space sV:

    l_i := (-1)^((i-1)(i-2)/2) s . N_i . s^{-1}(i) . (s delta_{i-1} s^{-1} (x) 1^(i-1)),

an arity-i operation of degree 2-i.  Two independent evaluation routes are
implemented and their structure constants asserted equal:

* route (a) runs the displayed composite one tensor layer at a time, in one
  pass over coefficient dicts read off the constants of delta_{i-1} and N_i,
  letting the Koszul rule produce every sign: each layer's sign is
  layer_sign of its operator degrees against the degrees of the slots it
  hits, and the two layers after the first are signed once per constant of
  N_i.  It evaluates the composite only on the tuples (x_1, x_2, ..., x_i)
  where some letter y of delta_{i-1} x_1 starts a nonzero constant
  (y, x_2, ..., x_i) of N_i; by multilinearity the composite is exactly zero
  on every other tuple.  build_sh_structure reads N_1, ..., N_{m+1} off one
  run of the nested-bracket recurrence on the identity (nary_brackets);
* route (b) uses the worked-out closed form
      l_i(s x_1, ..., s x_i) = (-1)^e s N_i(delta_{i-1} x_1, x_2, ..., x_i),
  where e sums the degrees |x_j| over j < i with i - j odd, on the nonzero
  constants of N_i(delta_{i-1} (x) 1).

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

Both checks are scattered from the constants.  The (i, j) term of the
identity is the composite l_i . l_j^c, and on a word of length n the
corestriction of partial . partial is the sum of partial_m . partial_j^c
over m + j - 1 = n.  multiop._composite_terms enumerates the terms of a
composite f . g^c: a key fk of f, a letter z at position p of fk with
coefficient c in g(gk) for a key gk of g, and the signed unshuffle row
placing fk[:p] among gk[:-1].  Each term adds +-c f(fk) to the one tuple it
lands on, so every other tuple has a zero residual, and the accumulated
tuples, sorted, give the witnesses in the order of a walk over every tuple.
Each check reads its own sign off the row: check_sh_leibniz the sign above
with k = p + j, chi(sigma) (-1)^((p+1)(j-1) + j * jumped) for the shifted
parities on sV, and multiop.compose_into the lift's signs on V.

check_codifferential reads its verdict off two certificates and walks no
word.  partial is odd, so where it is a coderivation, partial . partial =
1/2 [partial, partial] is one too: in Delta partial partial the cross terms
partial (x) partial cancel by the Koszul sign.  A coderivation D is fixed by
its corestriction on the words of length <= L: if pr D vanishes there, then
by induction on the length Delta D(w) = (D (x) 1 + 1 (x) D) Delta(w) is
zero, and Delta is injective on words of length >= 2.  So once
check_coderivation_axiom proves the lift of partial up to L,
partial . partial is the lift Q^c of its corestriction Q, the sum of
partial_m . partial_j^c over m + j - 1 = n on the words of length n, which
multiop.compose_tables scatters arity by arity.  If Q vanishes, the
check passes.  Otherwise the lift of Q, of degree 2, is proved the same
way, and the witnesses partial(partial(w)) = Q^c(w) are scattered from Q's
constants by coalgebra.lift_witnesses, in the order of a walk over every
word.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from .coalgebra import CoderivationSpec, check_coderivation_axiom, hom_bracket, lift_witnesses
from .errors import EngineError, MalformedInputError, PreconditionError
from .graded import GradedBasis, Scalar, Shift, layer_sign, shifted_degrees
from .multiop import (
    MultiOp,
    _composite_terms,
    _residuals,
    check_derivation,
    check_differential,
    compose_tables,
    hom_tables,
    n_i_d,
    nary_bracket,
    nary_brackets,
    op_from_terms,
)
from .record import Record
from .results import Verdict, Violation


class DeformationFamily(Record):
    """Bracket plus the coefficients delta_0, ..., delta_m of the deformation."""

    __slots__ = ("bracket", "deltas")

    def __init__(self, bracket: MultiOp, deltas: tuple[MultiOp, ...]):
        if bracket.arity != 2 or bracket.degree != 0:
            raise MalformedInputError("bracket must have arity 2 and degree 0")
        if not deltas:
            raise MalformedInputError("a deformation family needs at least delta_0")
        for n, d in enumerate(deltas):
            if d.basis != bracket.basis:
                raise MalformedInputError(f"delta_{n} lives over a foreign basis")
            if d.arity != 1 or d.degree != 1:
                raise MalformedInputError(f"delta_{n} must have arity 1 and degree +1")
        self._assign(bracket, deltas)

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


class ShLeibnizStructure(Record):
    """Operations l_1, ..., l_L on the shifted basis; arities beyond L are zero."""

    __slots__ = ("basis", "ops")

    def __init__(self, basis: GradedBasis, ops: tuple[MultiOp, ...]):
        for k, op in enumerate(ops):
            i = k + 1
            if op.basis != basis:
                raise MalformedInputError(f"l_{i} lives over a foreign basis")
            if op.arity != i or op.degree != 2 - i:
                raise MalformedInputError(
                    f"l_{i} must have arity {i} and degree {2 - i}, "
                    f"got arity {op.arity} degree {op.degree}"
                )
        self._assign(basis, ops)

    @property
    def max_arity(self) -> int:
        return len(self.ops)


def _require_deformation_slot(delta: MultiOp) -> None:
    if delta.arity != 1 or delta.degree != 1:
        raise MalformedInputError("delta must have arity 1 and degree +1")


def derived_bracket_tensor(
    bracket: MultiOp, delta: MultiOp, i: int, nested: MultiOp | None = None
) -> MultiOp:
    """Route (a): the defining composite as one signed layer pass.

    The composite is multilinear and starts with delta on x_1, so its value on
    (x_1, ..., x_i) is zero unless some letter y of delta x_1 starts a nonzero
    constant (y, x_2, ..., x_i) of N_i.  Only those tuples get a term, and
    each layer acts on coefficient dicts read off the constants: delta x_1
    off delta, then N_i(y, x_2, ..., x_i) off N_i for each letter y.  N_i is
    nested when given (build_sh_structure passes the N_i of nary_brackets)
    and nary_bracket(bracket, i) otherwise.  Every layer's sign is
    layer_sign of its operator degrees against the shifted degrees of the
    slots it hits: s delta s^{-1} (x) 1 on (x_1, ..., x_i), s^{-1}(i) on
    (y, x_2, ..., x_i) and s on the value.  The last two depend on the
    constant (y, x_2, ..., x_i) alone, so they are taken once per constant;
    the first and the last give +1 identically, since one operator jumps
    nothing.
    """
    _require_deformation_slot(delta)
    if i < 1:
        raise MalformedInputError("arity must be >= 1")
    basis = bracket.basis
    if delta.basis != basis:
        raise MalformedInputError("operation and bracket live over different bases")
    if nested is None:
        nested = nary_bracket(bracket, i)
    sbasis = shifted_degrees(basis, Shift.RAISE)
    sdeg = sbasis.degrees
    prefactor = -1 if (((i - 1) * (i - 2)) // 2) % 2 else 1
    first, down = (1,) + (0,) * (i - 1), (-1,) * i
    # tails[y] lists (x_2, ..., x_i), their shifted degrees, N_i(y, x_2, ..., x_i)
    # and the signs of the s^{-1}(i) and s layers on that constant, for each
    # letter y of an image of delta
    reached = {y for image in delta.constants.values() for y in image}
    tails: dict[int, list[tuple[tuple[int, ...], tuple[int, ...], dict[int, Scalar], int]]] = {}
    for key, image in nested.constants.items():
        if key[0] not in reached:
            continue
        rest = key[1:]
        degrees = tuple(sdeg[b] for b in rest)
        lowered = (sdeg[key[0]],) + degrees
        sign = prefactor * layer_sign(down, lowered) * layer_sign((1,), (sum(lowered) - i,))
        tails.setdefault(key[0], []).append((rest, degrees, image, sign))
    acc: dict[tuple[int, ...], dict[int, Scalar]] = {}
    for (x,), image in delta.constants.items():
        for y, c in image.items():
            for rest, degrees, nested_image, sign in tails.get(y, ()):
                coeff = sign * layer_sign(first, (sdeg[x],) + degrees) * c
                out = acc.setdefault((x,) + rest, {})
                for z, cz in nested_image.items():
                    out[z] = out.get(z, 0) + coeff * cz
    return op_from_terms(sbasis, i, 2 - i, acc)


def derived_bracket_explicit(bracket: MultiOp, delta: MultiOp, i: int) -> MultiOp:
    """Route (b): closed form with the parity-split sign, on the nonzero N_i(delta (x) 1)."""
    _require_deformation_slot(delta)
    basis = bracket.basis
    acc = {}
    for key, image in n_i_d(bracket, delta, i).constants.items():
        exponent = sum(basis.degree(key[j - 1]) for j in range(1, i) if (i - j) % 2)
        acc[key] = {b: -c if exponent % 2 else c for b, c in image.items()}
    return op_from_terms(shifted_degrees(basis, Shift.RAISE), i, 2 - i, acc)


def derived_bracket(
    bracket: MultiOp, delta: MultiOp, i: int, nested: MultiOp | None = None
) -> MultiOp:
    """The derived arity-i operation; both routes are computed and compared.
    nested, when given, is N_i for route (a)."""
    via_tensor = derived_bracket_tensor(bracket, delta, i, nested)
    via_explicit = derived_bracket_explicit(bracket, delta, i)
    if via_tensor != via_explicit:
        raise EngineError(
            f"derived bracket routes disagree at arity {i}; "
            "the sign conventions are inconsistent"
        )
    return via_explicit


def build_sh_structure(fam: DeformationFamily) -> ShLeibnizStructure:
    """l_i from delta_{i-1} for i = 1, ..., order + 1; route (a) reads every
    N_i off one run of the recurrence on the identity."""
    sbasis = shifted_degrees(fam.basis, Shift.RAISE)
    nested = nary_brackets(fam.bracket, fam.order + 1)
    ops = tuple(
        derived_bracket(fam.bracket, delta, i, nested[i - 1])
        for i, delta in enumerate(fam.deltas, 1)
    )
    return ShLeibnizStructure(sbasis, ops)


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

    Each weight is scattered from the constants of its pairs (i, j) into one
    accumulator, as the module docstring argues, and the nonzero residuals
    come out in lexicographic tuple order.  Truncation-vacuous weights
    (every (i, j) term missing an operation) are reported in the notes
    rather than silently passing; a weight with pairs but no reachable tuple
    is a pass over zero live tuples.
    """
    if max_const < 2:
        raise MalformedInputError("max_const must be >= 2")
    sbasis, ops = structure.basis, structure.ops
    top = structure.max_arity
    violations: list[Violation] = []
    notes: list[str] = []
    for const in range(2, max_const + 1):
        # the pairs (i, const - i) with both arities in 1..top
        pairs = range(max(1, const - top), min(const - 1, top) + 1)
        if not pairs:
            notes.append(f"Const={const} vacuous under truncation")
            continue
        acc: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for i in pairs:
            j = const - i
            li, lj = ops[i - 1], ops[j - 1]
            for fk, p, c, (_, _, eps, sgn, jumped), key in _composite_terms(li, lj):
                odd = ((p + 1) * (j - 1) + j * jumped) % 2
                coeff = -eps * sgn * c if odd else eps * sgn * c
                out = acc.setdefault(key, {})
                for b, cb in li.constants[fk].items():
                    out[b] = out.get(b, 0) + coeff * cb
        found = _residuals("sh-leibniz", sbasis, acc, (const,))
        if first_violation and found:
            return Verdict(False, found[:1], notes)
        violations.extend(found)
    return Verdict.from_violations(violations, notes)


def check_codifferential(fam: DeformationFamily, max_len: int, first_violation: bool = False) -> Verdict:
    """partial . partial = 0 on every word of length <= max_len.

    Equivalent to check_sh_leibniz with max_const = max_len + 1 on the same
    family: the square of the codifferential on words of length n collects
    exactly the weight-(n + 1) identities.

    Decided from the corestriction Q of the square, as the module docstring
    argues: the check passes when Q vanishes, and otherwise every word w
    with partial(partial(w)) = Q^c(w) nonzero is a witness, shortest first
    and lexicographically within a length (lift_witnesses).  No word is walked.
    """
    if max_len < 1:
        raise MalformedInputError("max_len must be >= 1")
    spec = build_codifferential(fam)
    check_coderivation_axiom(spec, max_len)
    basis, ops = fam.basis, spec.components
    tables = compose_tables({}, ops, ops, 1, max_len)
    square = CoderivationSpec(
        basis, 2, {a: op_from_terms(basis, a, 2, terms) for a, terms in tables.items()}
    )
    return Verdict.from_violations(
        lift_witnesses(square, max_len, "codifferential-square", first_violation)
    )


def check_key_lemma(
    bracket: MultiOp,
    derivations: Sequence[tuple[str, MultiOp]],
    arities: Sequence[tuple[int, int]],
    first_violation: bool = False,
) -> Verdict:
    """N_{i+j-1}([D, D']) = (N_i D, N_j D') for every ordered pair (D, D')
    of the named derivations and every pair (i, j) of arities.

    The left side feeds the graded commutator into the leftmost slot; the
    right side is the hom bracket of the two nested operations.  The
    combinations run in (D, D', (i, j)) order, each witness's site led by
    the two names.  A member that is not a derivation is a precondition
    error, raised under the position, first or second, of its first use:
    the pool's head is first in the first combination and every other member
    is first used second.  Each member is validated once.  Under
    first_violation only the first witness is kept.

    Half the combinations are read off the other half.  The graded
    commutator and the hom bracket are both graded antisymmetric, and N_i D
    has the degree of D since the bracket has degree 0, so key by key the
    residual r(D, D', i, j) = N_{i+j-1}([D, D']) - (N_i D, N_j D') obeys

        r(D', D, j, i) = -(-1)^(|D||D'|) r(D, D', i, j).

    A combination whose mirror (D', D, j, i) is already decided takes its
    mirror's witnesses on the same keys, the residuals so signed and the
    site led by its own names and arities; r(D, D, i, i) vanishes
    identically when |D| is even.  So does every r(D, D', 1, 1): N_1 is the
    identity, so its left side is the table of hom_bracket(D, D'), and the
    hom bracket (N_1 D, N_1 D') = (D, D') it subtracts is the same
    hom_tables call on the same operations, so the residual is that table
    minus itself.  So only the first of each mirror pair off these is
    computed, and N_i D, [D, D'] and N_a([D, D']) are built once each for
    those alone.  A mirror fails exactly when its source does, so the first
    failing combination is always a computed one.
    """
    if any(i < 1 or j < 1 for i, j in arities):
        raise MalformedInputError("arities must be >= 1")
    for n, (_, d) in enumerate(derivations):
        _require_derivation("second" if n else "first", d, bracket)
    ops = [d for _, d in derivations]
    nested = functools.cache(lambda n, i: n_i_d(bracket, ops[n], i))
    commuted = functools.cache(lambda n1, n2: hom_bracket(ops[n1], ops[n2]))
    nested_commuted = functools.cache(lambda n1, n2, a: n_i_d(bracket, commuted(n1, n2), a))
    members = list(enumerate(name for name, _ in derivations))
    decided: dict[tuple[int, int, int, int], list[Violation]] = {}
    violations: list[Violation] = []
    for (n1, name1), (n2, name2), (i, j) in itertools.product(members, members, arities):
        site = (name1, name2, i, j)
        mirror = decided.get((n2, n1, j, i))
        if mirror is not None:
            odd = ops[n1].degree * ops[n2].degree % 2
            found = [
                Violation(v.check, site + v.site[4:], v.residual if odd else -v.residual)
                for v in mirror
            ]
        elif (i, j) == (1, 1) or (n1 == n2 and i == j and ops[n1].degree % 2 == 0):
            found = []
        else:
            found = _key_lemma_residuals(
                nested_commuted(n1, n2, i + j - 1), nested(n1, i), nested(n2, j), site
            )
        decided[n1, n2, i, j] = found
        violations += found
        if first_violation and violations:
            return Verdict(False, violations[:1])
    return Verdict.from_violations(violations)


def _require_derivation(label: str, d: MultiOp, bracket: MultiOp) -> None:
    """The key lemma's precondition on one input, named by its position."""
    if d.arity != 1:
        raise PreconditionError(f"{label} operation must have arity 1")
    if check_derivation(d, bracket):
        raise PreconditionError(f"{label} operation is not a derivation of the bracket")


def _key_lemma_residuals(
    lhs: MultiOp, left: MultiOp, right: MultiOp, site: tuple, check: str = "key-lemma"
) -> list[Violation]:
    """The witnesses of lhs = (left, right): the residual lhs - (left, right),
    read off hom_tables, on each key where it is nonzero, each site the
    given one followed by the key.  The key lemma compares
    N_{i+j-1}([D, D']) with (N_i D, N_j D')."""
    n = lhs.arity
    acc = {n: {key: dict(image) for key, image in lhs.constants.items()}}
    hom_tables(acc, {left.arity: left}, {right.arity: right}, -1, n)
    return _residuals(check, lhs.basis, acc[n], site)


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

    The first row is the key lemma for (delta_1, D) at arities (2, i), as
    partial_2 = N_2 delta_1, and both rows are read off hom_tables key by
    key: the witnesses of cohomology-differential carry the residual
    N_{i+1}([delta_1, D]) - b(N_i D), those of cohomology-square the value
    b(b(N_i D)), each site (D<label>, i) followed by the key.
    """
    from .linalg import derivation_basis

    _require_deformation_slot(delta1)
    failed = {v.check for v in check_differential(delta1, bracket).violations}
    if "derivation" in failed:
        raise PreconditionError("delta_1 is not a derivation of the bracket")
    if failed:
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
        bracketed = hom_bracket(delta1, d)
        for i in range(1, i_max + 1):
            site = (f"D{label}", i)
            nested = n_i_d(bracket, d, i)
            violations += _key_lemma_residuals(
                n_i_d(bracket, bracketed, i + 1), partial2, nested, site, "cohomology-differential"
            )
            image = hom_bracket(partial2, nested)
            square = hom_tables({}, {2: partial2}, {i + 1: image}, 1, i + 2)[i + 2]
            violations += _residuals("cohomology-square", bracket.basis, square, site)
    return Verdict.from_violations(violations)

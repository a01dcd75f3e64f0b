"""The cofree dual-Leibniz coalgebra on a graded basis and coderivation lifts.

Words are nonempty tuples of basis letters spanning T(V) = V + V^(x)2 + ...
The comultiplication takes unshuffles of all but the last letter,

    Delta(x_1, ..., x_{n+1}) =
        sum_{i=1}^{n} sum_{sigma in (i, n-i)-unshuffles of S_n} eps(sigma)
            (x_sigma(1), ..., x_sigma(i)) (x) (x_sigma(i+1), ..., x_sigma(n), x_{n+1}),

with Delta = 0 on single letters, and satisfies the dual Leibniz axiom

    (1 (x) Delta) Delta = (Delta (x) 1) Delta + ((12) (x) 1) (Delta (x) 1) Delta,

where (12) swaps tensor factors with the Koszul sign.

An arity-i operation f lifts to the coderivation f^c characterised by
Delta f^c = (f^c (x) 1) Delta + (1 (x) f^c) Delta together with corestriction
f; on a word of length n it acts by

    f^c(x_1, ..., x_n) = sum_{k=i}^{n} sum_{sigma in (k-i, i-1)-unshuffles of S_{k-1}}
        eps(sigma) (-1)^(|f|(|x_sigma(1)|+...+|x_sigma(k-i)|))
        (x_sigma(1), ..., x_sigma(k-i), f(x_sigma(k-i+1), ..., x_sigma(k-1), x_k),
         x_{k+1}, ..., x_n),

so the letter x_k feeding the last slot of f is never permuted and every word
produced by a k < n term still ends in x_n.  The bracket of operations is

    (f, g) = f . g^c - (-1)^(|f||g|) g . f^c,

computed by corestricting the composite.  g^c feeds f only through a letter
z of some g(gk), so f meets its key fk, with z at position p, only on the
keys that interleave fk[:p] with gk[:-1], then carry gk[-1] and fk[p+1:].
Each such term adds +-c f(fk) to its key, where c is the coefficient of z in
g(gk) and the sign is that of the lift's unshuffle row.  hom_bracket scatters
both composites this way straight from the constants of f and g through
multiop.hom_tables, which holds the bracket's sign, and evaluates no lift;
it is exactly zero on every key no term reaches.

scattered_lift reads a whole lift off the constants one length at a time:
on a word w of length n it is the n-th summand plus the lift on w[:-1]
followed by w[-1], and a key gk of the arity-i component feeds the n-th
summand on exactly the words placing n - i free letters among gk[:-1]
(graded.placements) before gk[-1].  lift_witnesses names those words as the
witnesses of the failing checks whose residual is a proved lift, in derived
and in gauge, and stops at the first under first_violation.

The dual Leibniz axiom and the coderivation axiom of a lift are proved for
every word through parity patterns.  For a parity tuple P of length n, the
generic word (p_0, ..., p_{n-1}) consists of distinct position letters with
degrees P.  For the lift, each component op is replaced by the free
operation of its arity, which sends every increasing tuple S of position
letters to its own letter f_S of degree |op| + sum P[S]; those are the only
keys the lift feeds it on subwords of the generic word.  The substitution
p_j -> x_{w_j}, f_S -> op(x_{w_S}) preserves parities, because every image
of a MultiOp is homogeneous.  So it commutes with comultiply and with the
lift, and it maps the generic residual of P onto the residual on any
concrete word w of pattern P.  A zero generic residual therefore proves all
dim^n words of its pattern.

The residual splits by arity.  It is linear in the lift, and each of its
terms carries exactly one free letter f_S, whose size |S| is the arity of
the component that made it, so terms of different arities never share a
key.  The residual of a set of components is therefore zero on P exactly
when the residual of each arity alone is, and a lift's failing patterns
are the union of those of its arities.

All 2^n patterns of one length are proved at once.  Give p_j the parity
variable x_j, so that f_S has the affine parity |op| + sum_{j in S} x_j.
Every sign in comultiply, in the lift and in the swap of tensor factors is
(-1)^q for a polynomial q over F_2 of degree <= 2 in the x_j: a Koszul sign
sums products of two parities over the inversions of its unshuffle, read
off graded.unshuffle_forms, the table every concrete sign is evaluated
from, and a jump or a swap multiplies two parity sums.  The terms of the
generic residual, with their keys and their polynomials, are the same for
every P; only the values q(P) depend on it.  The builders stream the terms,
splitting or lifting each subword once, and _failing_patterns sums them in
one flat table by (key, q), into integers C_q; on each key the residual of P
is sum_q C_q (-1)^(q(P)): substituting P commutes with the summing.  If every
C_q is zero, every pattern of length n is proved.  Otherwise the surviving
sums are grouped by key and evaluated exactly on every pattern, and the
patterns on which some key is nonzero fail; nothing else is decided per
pattern.  The residual is summed once per (length, arity, parity), or per
length for dual Leibniz, and its failing patterns are cached for the
process, so one sum serves every lift with a component of that arity and
parity.  A pattern shorter than a component's arity needs no proof for it:
that component lifts to zero on its words.

Both axioms are theorems for every operation, so every generic residual
vanishes unless the sign conventions are inconsistent.  One rule serves
every certificate: a pattern that fails its proof is an engine error.
check_dual_leibniz and check_coderivation_axiom read the failing set of each
length, keep the patterns over the parities present in the basis and raise
EngineError naming the least of them; when none is left, which is every
correct run, they pass without visiting a pattern or evaluating a word.  The
codifferential in derived and the gauge maps in gauge rely on their lifts
being coderivations, and obtain that from check_coderivation_axiom.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator, Mapping

from . import graded
from .errors import EngineError, MalformedInputError
from .graded import (
    GradedBasis,
    Scalar,
    SparseVector,
    placements,
    signed_unshuffles,
)
from .multiop import MultiOp, hom_tables, op_from_terms
from .record import Record
from .results import Verdict, Violation

Word = tuple[int, ...]


def format_word(basis: GradedBasis, word: Word) -> str:
    return "(" + ",".join(basis.names[i] for i in word) + ")"


def _check_word(basis: GradedBasis, word: Word) -> Word:
    if len(word) < 1:
        raise MalformedInputError("words must have at least one letter")
    if any(not 0 <= i < len(basis) for i in word):
        raise MalformedInputError(f"word {word} has a letter out of range")
    return tuple(word)


def format_pair(basis: GradedBasis, key: tuple[Word, Word]) -> str:
    return f"{format_word(basis, key[0])}(x){format_word(basis, key[1])}"


class TensorElement(SparseVector):
    """Sparse element of T(V): map from words to exact scalars."""

    __slots__ = ()
    _check_key = staticmethod(_check_word)
    _render_key = staticmethod(format_word)

    @staticmethod
    def _order(word: Word):
        return (len(word), word)

    @staticmethod
    def from_word(basis: GradedBasis, word: Word) -> "TensorElement":
        return TensorElement(basis, {tuple(word): 1})


class TensorPairElement(SparseVector):
    """Sparse element of T(V) (x) T(V)."""

    __slots__ = ()
    _render_key = staticmethod(format_pair)

    @staticmethod
    def _check_key(basis: GradedBasis, key: tuple[Word, Word]) -> tuple[Word, Word]:
        left, right = key
        return (_check_word(basis, left), _check_word(basis, right))

    @staticmethod
    def _order(key: tuple[Word, Word]):
        return (len(key[0]), len(key[1]), key)


def comultiply(basis: GradedBasis, word: Word) -> TensorPairElement:
    """Comultiplication of one word; zero on single letters."""
    n = len(word) - 1
    if n < 0:
        raise MalformedInputError("cannot comultiply the empty word")
    parities = tuple(basis.degree(i) % 2 for i in word[:n])
    last = word[n:]
    acc: dict[tuple[Word, Word], int] = {}
    for i in range(1, n + 1):
        for first, second, eps, _, _ in signed_unshuffles(i, n - i, parities):
            key = (tuple(word[a] for a in first), tuple(word[a] for a in second) + last)
            acc[key] = acc.get(key, 0) + eps
    return TensorPairElement._trusted(basis, acc)


def extend_linearly(te: TensorElement, image: Callable[[Word], SparseVector], cls: type):
    """The sum of c * image(word) over the terms of te, as a cls vector.

    One accumulator for all words, so the cost is linear in the terms.
    """
    acc: dict = {}
    for word, c in te.terms.items():
        value = image(word)
        if value.basis != te.basis:
            raise MalformedInputError("vectors live over different bases")
        for key, cw in value.coeffs.items():
            term = c * cw
            acc[key] = acc[key] + term if key in acc else term
    return cls._trusted(te.basis, acc)


def _prove(
    basis: GradedBasis,
    max_len: int,
    failures: Callable[[int], frozenset[tuple[int, ...]]],
    claim: str,
) -> Verdict:
    """Pass when failures(length) holds no pattern over the parities present
    in the basis, for every length <= max_len; otherwise raise EngineError
    naming the least such pattern, the first in itertools.product order."""
    present = {d % 2 for d in basis.degrees}
    for length in range(1, max_len + 1):
        failing = [pattern for pattern in failures(length) if present.issuperset(pattern)]
        if failing:
            raise EngineError(
                f"{claim} fails on the generic word of parity pattern {min(failing)}; "
                "the sign conventions are inconsistent"
            )
    return Verdict(True, [])


# Polynomials over F_2 in the parities x_0, ..., x_{n-1} of the generic
# word's position letters.  An affine form is an int with bit 0 for the
# constant and bit j + 1 for x_j.  A form of degree <= 2 is an int with one
# bit per monomial, _monomial(u, v) for the product of affine bits u and v:
# bit 0 is the constant, and x_j x_j = x_j.


def _monomial(u: int, v: int) -> int:
    u, v = min(u, v), max(u, v)
    return v * (v + 1) // 2 + (0 if u == v else u)


@functools.cache
def _times(a: int, b: int) -> int:
    """The product of two affine forms."""
    q = 0
    for u in range(a.bit_length()):
        if a >> u & 1:
            for v in range(b.bit_length()):
                if b >> v & 1:
                    q ^= 1 << _monomial(u, v)
    return q


def _sum(forms: list[int], word: Word) -> int:
    """The affine parity of a word: the sum of its letters' forms."""
    total = 0
    for x in word:
        total ^= forms[x]
    return total


def _exponent(monomials: tuple[tuple[int, ...], ...], symbols: list[int]) -> int:
    """A row's Koszul exponent with the affine forms symbols substituted;
    a monomial of fewer than two symbols is padded with the constant 1, and
    one of more, which no inversion gives, is refused."""
    q = 0
    for mono in monomials:
        if len(mono) > 2:
            raise EngineError(
                f"monomial {mono} of more than two symbols in a Koszul sign; "
                "the sign conventions are inconsistent"
            )
        factors = [symbols[a] for a in mono] + [1, 1]
        q ^= _times(factors[0], factors[1])
    return q


def _split(word: Word, forms: list[int]) -> Iterator[tuple[tuple[Word, Word], int]]:
    """comultiply on one word of the generic alphabet, as terms (key, q)
    standing for (-1)^q key."""
    n = len(word) - 1
    symbols = [forms[x] for x in word[:n]]
    for i in range(1, n + 1):
        for first, second, monomials, _ in graded.unshuffle_forms(i, n - i):
            key = (tuple(word[a] for a in first), tuple(word[a] for a in second) + word[n:])
            yield key, _exponent(monomials, symbols)


def _failing_patterns(n: int, terms: Iterator[tuple]) -> frozenset[tuple[int, ...]]:
    """The parity patterns of length n on which the sum of the terms
    (key, q, c), each c (-1)^q key, is nonzero; the constant of q goes into
    the sign, and only keys with a nonzero sum C_q are evaluated."""
    sums: dict = {}
    for key, q, c in terms:
        group = (key, q & ~1)
        sums[group] = sums.get(group, 0) + (-c if q & 1 else c)
    live: dict = {}
    for (key, q), c in sums.items():
        if c:
            live.setdefault(key, []).append((q, c))
    failing = []
    if live:
        for pattern in itertools.product((0, 1), repeat=n):
            ones = [0] + [j + 1 for j, x in enumerate(pattern) if x]
            point = 0
            for u in ones:
                for v in ones:
                    point |= 1 << _monomial(u, v)
            values = (
                sum(-c if (q & point).bit_count() & 1 else c for q, c in group)
                for group in live.values()
            )
            if any(values):
                failing.append(pattern)
    return frozenset(failing)


def _dual_leibniz_residual(n: int) -> Iterator[tuple]:
    """The terms (key, q, c) of (1 (x) Delta) Delta - (Delta (x) 1) Delta
    - ((12) (x) 1)(Delta (x) 1) Delta on the generic word of length n."""
    forms = [1 << (j + 1) for j in range(n)]
    for (w1, w2), q in _split(tuple(range(n)), forms):
        for (w21, w22), q2 in _split(w2, forms):
            yield (w1, w21, w22), q ^ q2, 1
        for (w11, w12), q1 in _split(w1, forms):
            # (Delta (x) 1) Delta, then the same with factors swapped
            yield (w11, w12, w2), q ^ q1, -1
            swap = _times(_sum(forms, w11), _sum(forms, w12))
            yield (w12, w11, w2), q ^ q1 ^ swap, -1


@functools.cache
def _dual_leibniz_failures(n: int) -> frozenset[tuple[int, ...]]:
    return _failing_patterns(n, _dual_leibniz_residual(n))


def check_dual_leibniz(basis: GradedBasis, max_len: int) -> Verdict:
    """Dual Leibniz coassociativity on every word of length <= max_len,
    proved per parity pattern as the module docstring argues."""
    return _prove(basis, max_len, _dual_leibniz_failures, "the dual Leibniz axiom")


class CoderivationSpec(Record):
    """A coderivation of T(V) described by its corestriction components.

    components[i] is the arity-i operation whose lift contributes; all
    components share one degree.  The induced map on a word of length n sums
    the lifts of every component of arity <= n.
    """

    __slots__ = ("basis", "degree", "components")

    def __init__(self, basis: GradedBasis, degree: int, components: Mapping[int, MultiOp]):
        frozen: dict[int, MultiOp] = {}
        for arity, op in components.items():
            if op.arity != arity:
                raise MalformedInputError(f"component at key {arity} has arity {op.arity}")
            if op.degree != degree:
                raise MalformedInputError(
                    f"component of arity {arity} has degree {op.degree}, spec says {degree}"
                )
            if op.basis != basis:
                raise MalformedInputError("component lives over a foreign basis")
            if not op.is_zero():
                frozen[arity] = op
        self._assign(basis, degree, frozen)

    def arities(self) -> list[int]:
        return sorted(self.components)


def lift_coderivation(op: MultiOp) -> CoderivationSpec:
    """The unique coderivation extending a single operation."""
    return CoderivationSpec(op.basis, op.degree, {op.arity: op})


def _lift_terms(
    op: MultiOp, word: Word, parities: tuple[int, ...], k: int
) -> Iterator[tuple[Word, Scalar]]:
    """Terms of the k-th summand of op's lift on one word."""
    i = op.arity
    pinned = word[k - 1 : k]
    suffix = word[k:]
    odd = op.degree % 2
    for first, second, eps, _, jumped in signed_unshuffles(k - i, i - 1, parities[: k - 1]):
        image = op.constants.get(tuple(word[a] for a in second) + pinned)
        if image is None:
            continue
        sign = -eps if odd and jumped else eps
        prefix = tuple(word[a] for a in first)
        for letter, c in image.items():
            yield prefix + (letter,) + suffix, sign * c


def evaluate_coderivation(spec: CoderivationSpec, word: Word) -> TensorElement:
    """Apply the coderivation described by spec to one word."""
    n = len(word)
    basis = spec.basis
    parities = tuple(basis.degree(i) % 2 for i in word)
    acc: dict[Word, Scalar] = {}
    for i, op in spec.components.items():
        if i > n:
            continue
        for k in range(i, n + 1):
            for w, c in _lift_terms(op, word, parities, k):
                acc[w] = acc[w] + c if w in acc else c
    return TensorElement._trusted(basis, acc)


def scattered_lift(spec: CoderivationSpec, max_len: int) -> Iterator[tuple[Word, TensorElement]]:
    """The nonzero values of spec's lift on the words of length <= max_len,
    yielded in (length, word) order; a length is built once the one before
    it has been consumed.

    The k-th summand depends on the first k letters alone and carries the
    rest, so on a word w of length n the lift is the lift on w[:-1] followed
    by w[-1], plus the n-th summand: a key gk of the arity-i component feeds
    it on exactly the words placing n - i free letters among gk[:-1] and
    ending in gk[-1], and each letter z of op(gk) adds +-c (free letters, z)
    with the placing row's sign.  No word without a term is visited, and
    words whose terms cancel are dropped.
    """
    basis = spec.basis
    letters = range(len(basis))
    parity = [d % 2 for d in basis.degrees]
    odd = spec.degree % 2
    shorter: dict[Word, dict[Word, Scalar]] = {}
    for n in range(1, max_len + 1):
        acc = {
            prefix + (a,): {w + (a,): c for w, c in terms.items()}
            for prefix, terms in shorter.items()
            for a in letters
        }
        for i, op in spec.components.items():
            if i > n:
                continue
            for gk, image in op.constants.items():
                head, pinned = gk[:-1], gk[-1:]
                for free in itertools.product(letters, repeat=n - i):
                    for merged, (_, _, eps, _, jumped) in placements(free, head, parity):
                        sign = -eps if odd and jumped else eps
                        out = acc.setdefault(merged + pinned, {})
                        for z, c in image.items():
                            key = free + (z,)
                            out[key] = out.get(key, 0) + sign * c
        shorter = {}
        for word in sorted(acc):
            value = TensorElement._trusted(basis, acc.pop(word))
            if not value.is_zero():
                shorter[word] = value.coeffs
                yield word, value


def lift_witnesses(
    spec: CoderivationSpec, max_len: int, check: str, first_violation: bool = False
) -> list[Violation]:
    """Every word of length <= max_len on which spec's lift is nonzero, as a
    violation of check carrying the value, in scattered_lift's order; only
    the first, and no longer word, under first_violation.  The lift is
    proved a coderivation on the lengths the witnesses rest on: up to
    max_len for the full list, whose completeness needs every length, or
    when there is no witness; up to the witness's length for a lone one."""
    if not spec.components:
        return []
    values = scattered_lift(spec, max_len)
    reach = max_len
    if first_violation:
        values = list(itertools.islice(values, 1))
        reach = len(values[0][0]) if values else max_len
    check_coderivation_axiom(spec, reach)
    names = spec.basis.names
    return [Violation(check, tuple(names[i] for i in word), value) for word, value in values]


def _lift(
    word: Word, forms: list[int], free: Mapping[Word, int], arity: int, parity: int
) -> Iterator[tuple[Word, int]]:
    """The lift of the free operation of this arity on one subword of the
    generic word, as terms (word, q) standing for (-1)^q word; free maps
    each key to its letter."""
    symbols = [forms[x] for x in word]
    for k in range(arity, len(word) + 1):
        pinned, suffix = word[k - 1 : k], word[k:]
        for first, second, monomials, _ in graded.unshuffle_forms(k - arity, arity - 1):
            prefix = tuple(word[a] for a in first)
            q = _exponent(monomials, symbols)
            if parity:
                q ^= _times(_sum(forms, prefix), 1)
            letter = free[tuple(word[a] for a in second) + pinned]
            yield prefix + (letter,) + suffix, q


def _coderivation_residual(n: int, arity: int, parity: int) -> Iterator[tuple]:
    """The terms (key, q, c) of Delta D - (D (x) 1) Delta - (1 (x) D) Delta
    on the generic word of length n, for the lift D of the free operation
    of this arity and degree parity.

    The free operation sends each increasing arity-tuple S of position
    letters to its own letter f_S of parity parity + sum(x_j, j in S).
    Those are the only keys the lift feeds it on subwords of the generic
    word.
    """
    keys = list(itertools.combinations(range(n), arity))
    forms = [1 << (j + 1) for j in range(n)]
    forms += [parity | sum(1 << (j + 1) for j in key) for key in keys]
    free = {key: letter for letter, key in enumerate(keys, start=n)}
    word = tuple(range(n))
    for w, q in _lift(word, forms, free, arity, parity):
        for key, q2 in _split(w, forms):
            yield key, q ^ q2, 1
    for (w1, w2), q in _split(word, forms):
        for w1p, q1 in _lift(w1, forms, free, arity, parity):
            yield (w1p, w2), q ^ q1, -1
        jump = _times(_sum(forms, w1), 1) if parity else 0
        for w2p, q2 in _lift(w2, forms, free, arity, parity):
            yield (w1, w2p), q ^ q2 ^ jump, -1


@functools.cache
def _coderivation_failures(n: int, arity: int, parity: int) -> frozenset[tuple[int, ...]]:
    return _failing_patterns(n, _coderivation_residual(n, arity, parity))


def check_coderivation_axiom(spec: CoderivationSpec, max_len: int) -> Verdict:
    """Delta D = (D (x) 1) Delta + (1 (x) D) Delta for the lift D of spec on
    every word of length <= max_len, proved per parity pattern as the module
    docstring argues: each component is swapped for the free operation of
    its arity, and a length's failing patterns are the union of
    _coderivation_failures over the component arities that fit in it."""
    arities, parity = spec.arities(), spec.degree % 2

    def failures(n: int) -> frozenset[tuple[int, ...]]:
        # a component longer than n lifts to zero on the words of length n
        return frozenset().union(
            *(_coderivation_failures(n, a, parity) for a in arities if a <= n)
        )

    claim = f"the coderivation axiom of the degree-{spec.degree} lift of arities {arities}"
    return _prove(spec.basis, max_len, failures, claim)


def hom_bracket(f: MultiOp, g: MultiOp) -> MultiOp:
    """(f, g) = f . g^c - (-1)^(|f||g|) g . f^c, an operation of arity i+j-1.

    Both composites are scattered from the constants of f and g by
    multiop.hom_tables: no lift is evaluated, and only the keys reachable
    from (f, g) or (g, f) ever get a term.  Keys come out in lexicographic
    order.  On arity-1 operations it is the graded commutator
    f . g - (-1)^(|f||g|) g . f.
    """
    if f.basis != g.basis:
        raise MalformedInputError("operations live over different bases")
    arity = f.arity + g.arity - 1
    acc = hom_tables({}, {f.arity: f}, {g.arity: g}, 1, arity)[arity]
    return op_from_terms(f.basis, arity, f.degree + g.degree, acc)

"""Multilinear operations on a graded basis and the Leibniz-algebra checks.

A MultiOp is a degree-homogeneous multilinear map V^(x catimes i) -> V given by sparse
structure constants on basis tuples.  Plain application never introduces Koszul
signs; every sign in this package is written explicitly at the call site where
the convention demands it.

The bracket convention is left Leibniz:

    {x, {y, z}} = {{x, y}, z} + (-1)^(|x||y|) {y, {x, z}}

and a degree-d operator D is a derivation when

    D{x, y} = {Dx, y} + (-1)^(|x| |D|) {x, Dy}.

The hom bracket (F, G) = F . G^c - (-1)^(|F||G|) G . F^c of two arity
tables is written once, in hom_tables, as two compose_tables calls; the
hom bracket of coalgebra, the key lemma and the gauge series all read it
from there.  The derivation rule is its arity-2 case (D, b) = D . b^c -
b . D^c with the bracket b (as |b| = 0), read off by _derivation_residuals.
The Leibniz identity says that every left multiplication ad_x = {x, -} is a
derivation, so check_leibniz_identity, check_derivation and the derivation
solver (linalg.derivation_basis) all go through it.

N_i denotes the left-nested bracket N_i(x_1, ..., x_i) =
{...{{x_1, x_2}, x_3}..., x_i}, with N_1 the identity, and N_i D feeds D into
the leftmost slot only: (N_i D)(x_1, ..., x_i) = N_i(D x_1, x_2, ..., x_i).
``_nested_levels`` is the one evaluator of this nested insertion.  It builds
N_1 D, N_2 D, ... from the nonzero constants of D by the recurrence

    N_i D(x_1, ..., x_i) = {N_{i-1} D(x_1, ..., x_{i-1}), x_i},

keeping only nonzero images.  ``n_i_d`` keeps its level i, and
``nary_bracket`` is the case D = id; the codifferential, route (b) of the
derived brackets, the gauge coderivation and the key lemma read their
operations from n_i_d.  ``nary_brackets`` keeps every level up to i of one
run on the identity, and route (a) of the derived brackets reads each N_i
from it.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .errors import MalformedInputError, PreconditionError
from .graded import (
    Element, GradedBasis, Scalar, UnshuffleRow, _placement_table, exact, is_letter, placements
)
from .record import Immutable, Record
from .results import Verdict, Violation


class MultiOp(Record):
    """Sparse structure constants for a homogeneous multilinear operation.

    constants maps index tuples (length == arity) to images, each a nonzero
    coefficient dict {letter: scalar} in canonical exact form, the format
    every kernel accumulates and every check reads; absent tuples map to
    zero.  Every image is homogeneous of degree sum(input degrees) + degree,
    so the operation is homogeneous as a map.  The constructor is the one
    validator: it takes plain coefficient dicts, as a parsed document gives
    them, and checks all of this in one pass per image over its coefficients
    and basis.degrees, with the checks and texts of Element's own
    constructor for the letters and scalars.  Operations the engine computes
    from valid ones are built by op_from_terms, which checks nothing.
    """

    # the first four are set on construction, _positions on first use
    __slots__ = ("basis", "arity", "degree", "constants", "_positions")
    __hash__ = None  # constants is a dict

    def __init__(
        self,
        basis: GradedBasis,
        arity: int,
        degree: int,
        constants: Mapping[tuple[int, ...], dict[int, Scalar]] | None = None,
    ):
        if arity < 1:
            raise MalformedInputError(f"arity must be >= 1, got {arity}")
        degrees = basis.degrees
        dim = len(degrees)
        clean: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for key, image in (constants or {}).items():
            if type(key) is not tuple or len(key) != arity:
                raise MalformedInputError(f"constant key {key!r} does not have arity {arity}")
            for x in key:
                if not is_letter(x, dim):
                    raise MalformedInputError(f"constant key {key!r} has an index out of range")
            if not isinstance(image, dict):
                raise MalformedInputError(f"image of {key!r} is not a coefficient dict")
            coeffs = {}
            for b, c in image.items():
                if not is_letter(b, dim):
                    raise MalformedInputError(f"basis index {b!r} out of range")
                if type(c) is not int:
                    c = exact(c, f"coefficient of {b!r}")
                if c:
                    coeffs[b] = c
            got = {degrees[b] for b in coeffs}
            if len(got) > 1:
                raise MalformedInputError(f"element is not homogeneous: degrees {sorted(got)}")
            if got:
                want = sum([degrees[i] for i in key]) + degree
                if want not in got:
                    raise MalformedInputError(
                        f"image of {key} has degree {got.pop()}, expected {want} "
                        f"(operation degree {degree})"
                    )
                clean[key] = coeffs
        self._assign(basis, arity, degree, clean)

    @staticmethod
    def zero(basis: GradedBasis, arity: int, degree: int) -> "MultiOp":
        return MultiOp(basis, arity, degree, None)

    def is_zero(self) -> bool:
        return not self.constants

    def letter_positions(self) -> dict[int, list[tuple]]:
        """Per letter z, every (key, p, key[:p], parities of key[:p],
        key[p + 1:]) with key[p] == z among the keys of the constants, in
        key order; built once, as the operation is immutable."""
        try:
            return self._positions
        except AttributeError:
            parity = [d % 2 for d in self.basis.degrees]
            positions: dict[int, list[tuple]] = {}
            for key in self.constants:
                for p, z in enumerate(key):
                    head = key[:p]
                    entry = (key, p, head, tuple([parity[x] for x in head]), key[p + 1 :])
                    positions.setdefault(z, []).append(entry)
            object.__setattr__(self, "_positions", positions)
            return positions

    def _require_compatible(self, other: "MultiOp") -> None:
        if (self.basis, self.arity, self.degree) != (other.basis, other.arity, other.degree):
            raise MalformedInputError("operations differ in basis, arity, or degree")

    def __add__(self, other: "MultiOp") -> "MultiOp":
        self._require_compatible(other)
        acc: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for op in (self, other):
            for k, v in op.constants.items():
                out = acc.setdefault(k, {})
                for b, c in v.items():
                    out[b] = out.get(b, 0) + c
        return op_from_terms(self.basis, self.arity, self.degree, acc)

    def scale(self, scalar: Scalar) -> "MultiOp":
        scalar = exact(scalar)
        images = {k: {b: scalar * c for b, c in v.items()} for k, v in self.constants.items()}
        return op_from_terms(self.basis, self.arity, self.degree, images)

    def __repr__(self) -> str:
        return f"MultiOp(arity={self.arity}, degree={self.degree}, {len(self.constants)} constants)"


def identity_op(basis: GradedBasis) -> MultiOp:
    return op_from_terms(basis, 1, 0, {(b,): {b: 1} for b in range(len(basis))})


def _names(basis: GradedBasis, key: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(basis.names[i] for i in key)


def _by_left(bracket: MultiOp) -> dict[int, list[tuple[int, dict[int, Scalar]]]]:
    """The nonzero constants {x, y} of the bracket indexed by the left letter
    x, as (y, image): the left multiplication ad_x = {x, -} on each y."""
    by_left: dict[int, list[tuple[int, dict[int, Scalar]]]] = {}
    for (x, y), image in bracket.constants.items():
        by_left.setdefault(x, []).append((y, image))
    return by_left


def _images(
    acc: Mapping[tuple[int, ...], Mapping[int, Scalar]]
) -> dict[tuple[int, ...], dict[int, Scalar]]:
    """The accumulated coefficient dicts in canonical exact form, keys in
    lexicographic order, with zero coefficients and zero images dropped."""
    images = {}
    for key in sorted(acc):
        image = {b: c if type(c) is int else exact(c) for b, c in acc[key].items() if c}
        if image:
            images[key] = image
    return images


def _residuals(
    check: str,
    basis: GradedBasis,
    acc: Mapping[tuple[int, ...], Mapping[int, Scalar]],
    prefix: tuple = (),
    suffix: tuple = (),
) -> list[Violation]:
    """The nonzero accumulated residuals as violations, keys in lexicographic
    order, each site the prefix, the key's names and the suffix."""
    return [
        Violation(check, prefix + _names(basis, key) + suffix, Element._trusted(basis, residual))
        for key, residual in _images(acc).items()
    ]


def check_leibniz_identity(bracket: MultiOp) -> list[Violation]:
    """Left Leibniz identity on every basis triple; residual = LHS - RHS.

    The identity says that every left multiplication is a derivation: the
    residual {x, {y, z}} - {{x, y}, z} - (-1)^(|x||y|) {y, {x, z}} on
    (x, y, z) is the derivation rule's residual of ad_x = {x, -}, of degree
    |x|, on (y, z).  Each nonzero ad_x is read off the constants and its
    residuals (_derivation_residuals) are reported with the site prefix x,
    so they come out in lexicographic triple order; a letter x with
    ad_x = 0 has none.
    """
    if bracket.arity != 2:
        raise MalformedInputError("bracket must have arity 2")
    basis = bracket.basis
    out: list[Violation] = []
    for x, row in sorted(_by_left(bracket).items()):
        ad_x = op_from_terms(basis, 1, basis.degree(x), {(y,): image for y, image in row})
        acc = _derivation_residuals(ad_x, bracket)
        out += _residuals("leibniz-identity", basis, acc, (basis.names[x],))
    return out


def check_derivation(op: MultiOp, bracket: MultiOp) -> list[Violation]:
    """Graded derivation rule for an arity-1 op of any degree: the residuals
    of _derivation_residuals, in lexicographic pair order."""
    if op.arity != 1:
        raise MalformedInputError("derivation check needs an arity-1 operation")
    if bracket.arity != 2:
        raise MalformedInputError("bracket must have arity 2")
    if op.basis != bracket.basis:
        raise MalformedInputError("operation and bracket live over different bases")
    return _residuals("derivation", bracket.basis, _derivation_residuals(op, bracket))


def check_differential(op: MultiOp, bracket: MultiOp) -> Verdict:
    """Degree +1, derivation, and square zero on every basis vector, the
    square scattered from the constants by compose_into."""
    violations: list[Violation] = []
    if op.degree != 1:
        violations.append(Violation("differential-degree", ()))
    else:
        violations.extend(check_derivation(op, bracket))
        acc: dict[tuple[int, ...], dict[int, Scalar]] = {}
        compose_into(acc, op, op, 1)
        violations.extend(_residuals("differential-square", op.basis, acc))
    return Verdict(violations)


def nary_bracket(bracket: MultiOp, i: int) -> MultiOp:
    """Left-nested N_i, the nested insertion of the identity; N_1 is the
    identity.  nary_brackets gives N_1, ..., N_i at the cost of N_i alone."""
    return n_i_d(bracket, identity_op(bracket.basis), i)


def nary_brackets(bracket: MultiOp, top: int) -> tuple[MultiOp, ...]:
    """N_1, ..., N_top, every level of one run of the recurrence on the
    identity; the i-th is nary_bracket(bracket, i)."""
    levels = _nested_levels(bracket, identity_op(bracket.basis), top)
    return tuple(op_from_terms(bracket.basis, i, 0, level) for i, level in enumerate(levels, 1))


def n_i_d(bracket: MultiOp, op: MultiOp, i: int) -> MultiOp:
    """N_i with op in the leftmost slot: (x_1, ..., x_i) |-> N_i(op x_1, x_2, ..., x_i).

    Level i of _nested_levels, the only one made an operation, by
    op_from_terms.  No Koszul sign: op acts on the first tensor factor,
    jumping over nothing.
    """
    *_, last = _nested_levels(bracket, op, i)
    return op_from_terms(bracket.basis, i, op.degree, last)


def _nested_levels(
    bracket: MultiOp, op: MultiOp, top: int
) -> Iterator[dict[tuple[int, ...], dict[int, Scalar]]]:
    """The constants of N_1 op, ..., N_top op, one level at a time, by the
    recurrence N_i D(x_1, ..., x_i) = {N_{i-1} D(x_1, ..., x_{i-1}), x_i}.

    Each level brackets the nonzero images of the previous one on the right
    with every basis vector and keeps the nonzero results, so tuples whose
    leftmost letter op kills are never visited.  The images are coefficient
    dicts read against the bracket's constants {y, x}, keys ascending.
    """
    if op.arity != 1:
        raise MalformedInputError("n_i_d needs an arity-1 operation")
    if top < 1:
        raise MalformedInputError("nested bracket needs i >= 1")
    if bracket.arity != 2:
        raise MalformedInputError("bracket must have arity 2")
    if op.basis != bracket.basis:
        raise MalformedInputError("operation and bracket live over different bases")
    by_left = _by_left(bracket)
    level = dict(sorted(op.constants.items()))
    yield level
    for _ in range(top - 1):
        longer: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for key, coeffs in level.items():
            by_x: dict[int, dict[int, Scalar]] = {}
            for y, c in coeffs.items():
                for x, image in by_left.get(y, ()):
                    acc = by_x.setdefault(x, {})
                    for z, cz in image.items():
                        acc[z] = acc.get(z, 0) + c * cz
            for x in sorted(by_x):
                value = {z: c for z, c in by_x[x].items() if c}
                if value:
                    longer[key + (x,)] = value
        level = longer
        yield level


def _composite_terms(
    f: MultiOp, g: MultiOp
) -> Iterator[tuple[tuple[int, ...], int, Scalar, UnshuffleRow, tuple[int, ...]]]:
    """Every term (fk, p, c, row, key) of the composite f . g^c.

    The lift g^c replaces gk[:-1], interleaved with the letters before
    gk[-1], and gk[-1] itself by a letter z of g(gk), for a key gk of g.  So
    f reaches its key fk, with z at position p, only from the key
    merged + gk[-1:] + fk[p + 1:], where merged places fk[:p] among gk[:-1].
    c is the coefficient of z in g(gk), and merged and row are one placing
    of graded.placements(fk[:p], gk[:-1], ...): row is the signed
    (p, |gk| - 1) unshuffle row for the parities of merged.  When p = 0 or
    gk[:-1] is empty there is one placing, and its row is read straight off
    the same table, graded._placement_table: the (0, |gk| - 1) row is
    pinned once per key gk.  Terms carry no sign: each caller reads its own
    off the row, compose_into the lift's and check_sh_leibniz the sh
    identity's.
    """
    parity = [d % 2 for d in f.basis.degrees]
    around = f.letter_positions()
    for gk, image in g.constants.items():
        head, last = gk[:-1], gk[-1:]
        pinned = _placement_table(0, len(head), tuple([parity[x] for x in head]))[0][1]
        for z, c in image.items():
            for fk, p, free, free_parity, tail in around.get(z, ()):
                if not p:
                    yield fk, p, c, pinned, head + last + tail
                elif not head:
                    yield fk, p, c, _placement_table(p, 0, free_parity)[0][1], free + last + tail
                else:
                    suffix = last + tail
                    for merged, row in placements(free, head, parity):
                        yield fk, p, c, row, merged + suffix


def compose_into(
    acc: dict[tuple[int, ...], dict[int, Scalar]], f: MultiOp, g: MultiOp, scale: Scalar
) -> None:
    """Add scale * (f . g^c) to acc, a map from keys to coefficient dicts.

    Scattered from the constants: each term of _composite_terms adds
    +-c * f(fk) to its key, inline.  The sign is the Koszul sign eps of its
    unshuffle row times (-1)^(|g| |fk[:p]|), the row's jump parity.
    """
    odd = g.degree % 2
    constants = f.constants
    for fk, _, c, row, key in _composite_terms(f, g):
        coeff = (-row[2] if odd and row[4] else row[2]) * scale * c
        out = acc.setdefault(key, {})
        for b, cb in constants[fk].items():
            out[b] = out.get(b, 0) + coeff * cb


def _derivation_residuals(
    op: MultiOp, bracket: MultiOp
) -> dict[tuple[int, ...], dict[int, Scalar]]:
    """The residual D{x, y} - {Dx, y} - (-1)^(|x||D|) {x, Dy} of the
    derivation rule for the arity-1 op D, as a coefficient dict per pair.

    It is the arity-2 hom bracket (D, b) = D . b^c - b . D^c (as |b| = 0),
    read off hom_tables: on a pair the lift b^c is b itself, and D^c is
    Dx (x) y + (-1)^(|x||D|) x (x) Dy.  Only pairs that are keys of the
    bracket or hold a key of D get an entry, and entries may cancel to zero.
    """
    return hom_tables({}, {1: op}, {2: bracket}, 1, 2)[2]


_Tables = dict[int, dict[tuple[int, ...], dict[int, Scalar]]]


def compose_tables(
    acc: _Tables,
    fs: Mapping[int, MultiOp],
    gs: Mapping[int, MultiOp],
    scale: Scalar,
    max_arity: int,
) -> _Tables:
    """Add scale * (f_m . g_j^c) into acc[m + j - 1] through compose_into,
    for every pair of arity tables with m + j - 1 <= max_arity, and return
    acc, a map from arities to coefficient dicts per key.  This is the arity
    rule of composites: on the words of length n, the corestriction of
    F . G^c is the sum of f_m . g_j^c over m + j - 1 = n."""
    for m, f in fs.items():
        for j, g in gs.items():
            if m + j - 1 <= max_arity:
                compose_into(acc.setdefault(m + j - 1, {}), f, g, scale)
    return acc


def hom_tables(
    acc: _Tables,
    fs: Mapping[int, MultiOp],
    gs: Mapping[int, MultiOp],
    scale: Scalar,
    max_arity: int,
) -> _Tables:
    """Add scale * (F . G^c - (-1)^(|F||G|) G . F^c) into acc arity by
    arity, for homogeneous arity tables F and G, and return acc: the hom
    bracket (F, G), the corestriction of the commutator [F^c, G^c], as two
    compose_tables calls.  This is the one place its sign is written."""
    odd = any(f.degree * g.degree % 2 for f in fs.values() for g in gs.values())
    compose_tables(acc, fs, gs, scale, max_arity)
    return compose_tables(acc, gs, fs, scale if odd else -scale, max_arity)


def op_from_terms(
    basis: GradedBasis, arity: int, degree: int, acc: Mapping[tuple[int, ...], Mapping[int, Scalar]]
) -> MultiOp:
    """The operation with these coefficient dicts as images, keys ascending.

    The one trusted path for operations the engine computes: keys, scalars
    and image degrees come out of valid operations, so MultiOp's checks are
    not re-run.  Zero coefficients and empty images are dropped, and every
    scalar is put in canonical exact form.
    """
    op = object.__new__(MultiOp)
    op._assign(basis, arity, degree, _images(acc))
    return op


def check_skewsymmetry(op: MultiOp) -> Verdict:
    """Graded skewsymmetry under adjacent transpositions, read off the constants.

    For a basis tuple and an adjacent pair (p, p+1), the residual is
    op(..., x_{p+1}, x_p, ...) + (-1)^(|x_p||x_{p+1}|) op(..., x_p, x_{p+1}, ...);
    all of them vanish exactly when op is graded skewsymmetric, since adjacent
    transpositions generate the symmetric group.  A residual can be nonzero
    only when the tuple or its swap is a key of the constants, so only those
    (tuple, p) are tested, sorted: the violations come out in lexicographic
    tuple order, then by p.
    """
    basis, constants = op.basis, op.constants
    parity = [d % 2 for d in basis.degrees]

    def swap(key: tuple[int, ...], p: int) -> tuple[int, ...]:
        return key[:p] + (key[p + 1], key[p]) + key[p + 2 :]

    sites = {(k, p) for key in constants for p in range(op.arity - 1) for k in (key, swap(key, p))}
    violations: list[Violation] = []
    for key, p in sorted(sites):
        residual = dict(constants.get(swap(key, p), {}))
        sign = -1 if parity[key[p]] and parity[key[p + 1]] else 1
        for b, c in constants.get(key, {}).items():
            residual[b] = residual.get(b, 0) + sign * c
        violations += _residuals("skewsymmetry", basis, {key: residual}, (), (f"swap@{p + 1}",))
    return Verdict(violations)


class LeibnizAlgebra(Immutable):
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
        self._assign(basis, bracket)


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

"""Tiny exact linear algebra over the rationals.

Only what the derivation-space solver needs: reduced row echelon form and a
nullspace basis.  Matrices are dense lists of Fraction rows; the systems here
have at most a few dozen unknowns.  The solver's columns are the residuals of
the derivation rule on elementary maps e_b |-> e_c, scattered from the
bracket's constants (multiop._derivation_residuals), so only rows some
column reaches are built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import EngineError, MalformedInputError
from .multiop import MultiOp, _derivation_residuals, check_derivation, op_from_terms


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the kernel of the matrix, one vector per free column."""
    mat = [[Fraction(c) for c in row] for row in rows]
    for row in mat:
        if len(row) != ncols:
            raise MalformedInputError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [c * inv for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            vec[p] = -mat[row_idx][f]
        basis.append(vec)
    return basis


def derivation_basis(bracket: MultiOp, degrees: Sequence[int] | None = None) -> list[MultiOp]:
    """Spanning set of the homogeneous derivations of the bracket.

    Solves the graded derivation rule degree by degree; when degrees is None
    every operator degree that admits a nonzero homogeneous arity-1 map is
    tried.  The rule is linear in D, so the column of the unknown (b, c), the
    coefficient of e_c in D e_b, is the residual table of the elementary map
    e_b |-> e_c (_derivation_residuals), one row per pair and output letter
    it reaches.  Results come back as MultiOps, each verified by
    check_derivation.
    """
    basis = bracket.basis
    n = len(basis)
    if degrees is None:
        degrees = sorted({basis.degree(c) - basis.degree(b) for b in range(n) for c in range(n)})
    out: list[MultiOp] = []
    for g in degrees:
        slots = [
            (b, c) for b in range(n) for c in range(n)
            if basis.degree(c) == basis.degree(b) + g
        ]
        rows: dict[tuple[int, int, int], list[Fraction]] = {}
        for k, (b, c) in enumerate(slots):
            unit = op_from_terms(basis, 1, g, {(b,): {c: 1}})
            for (x, y), image in _derivation_residuals(unit, bracket).items():
                for t, coeff in image.items():
                    if coeff:
                        rows.setdefault((x, y, t), [Fraction(0)] * len(slots))[k] = coeff
        for vec in nullspace(list(rows.values()), len(slots)):
            constants = {}
            for (b, c), coeff in zip(slots, vec):
                if coeff:
                    constants.setdefault((b,), {})[c] = coeff
            op = op_from_terms(basis, 1, g, constants)
            if check_derivation(op, bracket):
                raise EngineError("solver produced a non-derivation")
            out.append(op)
    return out

"""Tiny exact linear algebra over the rationals.

Only what the derivation-space solver needs: reduced row echelon form and a
nullspace basis.  Matrices are dense lists of Fraction rows; the systems here
have at most a few dozen unknowns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import MalformedInputError
from .graded import Element
from .multiop import MultiOp, check_derivation


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
    tried.  Results come back as MultiOps, each verified by check_derivation.
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
        if not slots:
            continue
        index = {s: k for k, s in enumerate(slots)}
        rows: list[list[Fraction]] = []
        for x in range(n):
            for y in range(n):
                sign = -1 if (basis.degree(x) * g) % 2 else 1
                for t in range(n):
                    row = [Fraction(0)] * len(slots)
                    # D{x,y}: route the bracket image through D
                    for u, beta in bracket.apply_indices((x, y)).coeffs.items():
                        if (u, t) in index:
                            row[index[(u, t)]] += beta
                    # -{Dx, y}
                    for c in range(n):
                        if (x, c) in index:
                            row[index[(x, c)]] -= bracket.apply_indices((c, y)).coeffs.get(
                                t, Fraction(0)
                            )
                    # -(-1)^(|x| g) {x, Dy}
                    for c in range(n):
                        if (y, c) in index:
                            row[index[(y, c)]] -= sign * bracket.apply_indices((x, c)).coeffs.get(
                                t, Fraction(0)
                            )
                    if any(row):
                        rows.append(row)
        for vec in nullspace(rows, len(slots)):
            constants = {}
            for (b, c), k in index.items():
                if vec[k]:
                    constants.setdefault((b,), {})[c] = vec[k]
            op = MultiOp(
                basis, 1, g,
                {key: Element(basis, coeffs) for key, coeffs in constants.items()},
            )
            assert not check_derivation(op, bracket), "solver produced a non-derivation"
            out.append(op)
    return out

"""Small exact linear algebra over the rationals."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple


def rref(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    # Fractions, so that 1 / pivot below stays exact on int rows
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: List[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def kernel_basis(rows: List[List[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Basis of the null space of the matrix (rows act on column vectors)."""
    if not rows:
        return [[Fraction(i == j) for i in range(ncols)] for j in range(ncols)]
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(v)
    return basis


class Subspace:
    """Row space with exact membership tests and reduction."""

    def __init__(self, vectors: List[List[Fraction]], ncols: int):
        self.ncols = ncols
        rows = [v for v in vectors if any(v)]
        self.mat, self.pivots = rref(rows) if rows else ([], [])

    def reduce(self, v: List[Fraction]) -> List[Fraction]:
        out = [Fraction(x) for x in v]
        for r, pc in enumerate(self.pivots):
            if out[pc]:
                f = out[pc]
                out = [a - f * b for a, b in zip(out, self.mat[r])]
        return out

    @property
    def dim(self) -> int:
        return len(self.pivots)

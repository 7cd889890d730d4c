"""Gauss-Jordan reference for rank and decoding: a row-by-row reduction
with first-nonzero pivoting and row swaps, independent of the batched
column-major kernel ``rlnc.independent_rows``. Its ranks and solutions
are the ones the kernel and ``destination_decode`` must reproduce."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nfcsim.field import FieldSpec


class RankDeficient(Exception):
    """A linear system has rank below the number of unknowns."""

    def __init__(self, rank: int, needed: int):
        super().__init__(f"rank {rank} < {needed} unknowns")
        self.rank = rank
        self.needed = needed


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a full-rank solve: the rank and the unique solution."""

    rank: int
    solution: np.ndarray  # (unknowns, payload columns)


def row_reduce(
    field: FieldSpec, a: np.ndarray, b: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, list[int]]:
    """Gauss-Jordan reduction with deterministic first-nonzero pivoting.

    Returns the reduced copy of ``a``, the correspondingly transformed
    ``b``, and the pivot column list (its length is the rank).
    """
    a = np.array(a, dtype=field.dtype, copy=True)
    b = None if b is None else np.array(b, dtype=field.dtype, copy=True)
    n_rows, n_cols = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, n_rows):
            if a[r, col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != row:
            a[[row, pivot_row]] = a[[pivot_row, row]]
            if b is not None:
                b[[row, pivot_row]] = b[[pivot_row, row]]
        inv = field.inv_arrays(a[row, col])
        a[row] = field.mul_arrays(inv, a[row])
        if b is not None:
            b[row] = field.mul_arrays(inv, b[row])
        factors = a[:, col].copy()
        factors[row] = 0
        hit = factors != 0
        if hit.any():
            a[hit] ^= field.mul_arrays(factors[hit, None], a[row])
            if b is not None:
                b[hit] ^= field.mul_arrays(factors[hit, None], b[row])
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return a, b, pivots


def matrix_rank(field: FieldSpec, a: np.ndarray) -> int:
    _, _, pivots = row_reduce(field, a)
    return len(pivots)


def gaussian_solve(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> SolveResult:
    """Solve a X = b over the field.

    a is (N', N) and b is (N', L): N' collected equations in N unknowns
    with L payload columns. Raises RankDeficient when rank < N, carrying
    the achieved rank.
    """
    a = field.validate_array(a)
    b = field.validate_array(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError("a must be (N', N) and b (N', L) with matching row counts")
    _, reduced_b, pivots = row_reduce(field, a, b)
    rank = len(pivots)
    n = a.shape[1]
    if rank < n:
        raise RankDeficient(rank, n)
    # Full column rank: pivots land on columns 0..n-1 in order, so the
    # first n transformed rows are the solution.
    return SolveResult(rank=rank, solution=reduced_b[:n].copy())

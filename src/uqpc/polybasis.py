"""Legendre basis on [-1, 1]^d under the uniform probability measure.

Multi-index bookkeeping, tensor-product basis evaluation, norms, and
Gauss-Legendre quadrature. All expectations here are against the uniform
probability density on [-1, 1] (i.e. dx/2 per coordinate), so the
univariate norms are E[P_n^2] = 1/(2n + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterator

import numpy as np

__all__ = [
    "MultiIndexBasis",
    "basis_count",
    "eval_basis_matrix",
    "gauss_legendre_rule",
    "legendre_table",
    "total_degree_multi_indices",
]


def legendre_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Evaluate P_0, ..., P_{n_max} at the points x by the three-term recurrence.

    Returns an array of shape (len(x), n_max + 1); column n holds P_n(x),
    normalized so that P_n(1) = 1. The array is the transposed view of a
    degree-major table, so ``.T`` holds each degree in one contiguous row.
    """
    x = np.asarray(x, dtype=float)
    table = np.empty((n_max + 1, x.size))
    table[0] = 1.0
    if n_max >= 1:
        table[1] = x
    # P_{k+1} = ((2k + 1) x P_k - k P_{k-1}) / (k + 1), evaluated in place
    # in that order, so no degree allocates temporaries.
    scratch = np.empty(x.size)
    for k in range(1, n_max):
        row = table[k + 1]
        np.multiply(x, 2 * k + 1, out=row)
        row *= table[k]
        row -= np.multiply(table[k - 1], k, out=scratch)
        row /= k + 1
    return table.T


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Nonnegative integer tuples summing to `total`, descending lexicographic.
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def basis_count(d: int, n0: int) -> int:
    """Number of multi-indices of total degree <= n0 in d variables."""
    return comb(n0 + d, d)


@dataclass(frozen=True, eq=False)
class MultiIndexBasis:
    """Total-degree multi-index set with precomputed norms.

    ``indices`` has shape (n_terms, dimension); row 0 is the all-zeros
    (mean) term and the rest follow in graded order, descending
    lexicographic within each grade. ``norms`` holds the squared norms
    b_k = prod_i 1/(2 k_i + 1) > 0 of the tensor Legendre terms.
    """

    dimension: int
    total_degree: int
    indices: np.ndarray
    norms: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]

    @cached_property
    def split(self) -> tuple[MultiIndexBasis, np.ndarray, np.ndarray]:
        """Terms grouped by their head, the degrees of the first d - 1 variables.

        Returns (head, row, last). Term k is head term ``row[k]`` times
        P_{last[k]} of the last variable. ``head`` is the basis of the heads,
        the same set and order as total_degree_multi_indices(d - 1, n0); at
        d = 1 it has 0 variables and one term, the empty head of norm 1,
        which every term shares. Computed once per basis.
        """
        last = self.indices[:, -1]
        first = np.flatnonzero(last == 0)
        heads = self.indices[first, :-1]
        position = {h: r for r, h in enumerate(map(tuple, heads.tolist()))}
        row = np.array([position[h] for h in map(tuple, self.indices[:, :-1].tolist())])
        head = MultiIndexBasis(self.dimension - 1, self.total_degree, heads, self.norms[first])
        return head, row, last

    @cached_property
    def head_runs(self) -> tuple[list[tuple[int, int, int]], np.ndarray]:
        """The terms as runs of heads that share a degree (see split).

        In graded order the heads of total degree g are consecutive rows
        lo:hi of ``head``, and each pairs with exactly the degrees
        0 .. n0 - g of the last variable. Returns (runs, order) with one
        (lo, hi, n0 - g + 1) per degree g. Laying out each run's head x
        last-degree products row by row, one run after another, term k is
        entry ``order[k]``. Computed once per basis.
        """
        head, row, last = self.split
        n0 = self.total_degree
        degree = head.indices.sum(axis=1)
        lo = np.searchsorted(degree, np.arange(n0 + 2))
        width = n0 + 1 - np.arange(n0 + 1)
        offset = np.concatenate(([0], np.cumsum((lo[1:] - lo[:-1]) * width)))
        g = degree[row]
        order = offset[g] + (row - lo[g]) * width[g] + last
        runs = [(int(lo[k]), int(lo[k + 1]), int(width[k]))
                for k in range(n0 + 1) if lo[k + 1] > lo[k]]
        return runs, order

    @cached_property
    def sobol_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The terms grouped by the set of variables they have nonzero degree in.

        Returns (labels, flags). Term k belongs to group ``labels[k]``, with
        groups numbered 0, 1, ... in order of first appearance; the mean
        term, which has no variables, is labelled -1. ``flags[g]`` marks the
        variables of group g. Computed once per basis.
        """
        active = self.indices != 0
        first: dict[bytes, int] = {}
        for k, row in enumerate(active):
            if row.any():
                first.setdefault(row.tobytes(), k)
        group = {key: g for g, key in enumerate(first)}
        labels = np.array([group.get(row.tobytes(), -1) for row in active])
        return labels, active[list(first.values())]


def total_degree_multi_indices(d: int, n0: int) -> MultiIndexBasis:
    """All multi-indices with total degree <= n0, in deterministic order.

    The count is (n0 + d)! / (n0! d!). Ordering is graded (degree 0 first),
    descending lexicographic within a grade, so e.g. for d=2, n0=2:
    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n0 < 0:
        raise ValueError(f"total degree must be >= 0, got {n0}")
    rows: list[tuple[int, ...]] = []
    for grade in range(n0 + 1):
        rows.extend(_compositions(grade, d))
    indices = np.array(rows, dtype=int)
    norms = 1.0 / np.prod(2.0 * indices + 1.0, axis=1)
    return MultiIndexBasis(dimension=d, total_degree=n0, indices=indices, norms=norms)


def eval_basis_matrix(
    basis: MultiIndexBasis, xis: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate the basis at many points; returns shape (n_points, n_terms).

    Entry (i, k) is prod_j P_{k_j}(xis[i, j]), with k_j the degrees of term k.
    Like legendre_table, the result is the transposed view of a degree-major
    array: ``.T`` holds each term in one contiguous row. The rows are written
    into ``out`` when given, a C-ordered float64 array of shape
    (n_terms, n_points), and allocated otherwise. The values do not depend
    on ``out``. A 0-variable basis (the head of a d = 1 split) has the one
    term 1.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != basis.dimension:
        raise ValueError(
            f"samples have shape {xis.shape}, expected (n, {basis.dimension})"
        )
    n = xis.shape[0]
    shape = (len(basis), n)
    rows = np.empty(shape) if out is None else out
    # `out` must take the rows as they are gathered: float64, C-ordered, one
    # row per term.
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.shape == shape
            and rows.flags.c_contiguous and rows.flags.writeable):
        raise ValueError(
            f"out must be a writeable C-ordered float64 array of shape {shape}, got "
            f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}"
        )
    if basis.dimension == 0:
        rows.fill(1.0)
        return rows.T
    n_max = int(basis.indices.max(initial=0))
    # One recurrence over every variable: table[k, j] holds P_k(xis[:, j]).
    table = legendre_table(n_max, xis.T.ravel()).T.reshape(n_max + 1, basis.dimension, n)
    # Gather whole degree rows of each variable's table. mode="clip" writes
    # straight into the target; the default mode buffers through a copy.
    np.take(table[:, 0], basis.indices[:, 0], axis=0, out=rows, mode="clip")
    # Each further variable is multiplied in n_max + 1 term rows at a time,
    # so its gathered factors are no larger than one variable's table.
    step = n_max + 1
    factor = np.empty((min(step, len(basis)), n))
    for j in range(1, basis.dimension):
        for lo in range(0, len(basis), step):
            part = rows[lo : lo + step]
            gathered = factor[: len(part)]
            np.take(table[:, j], basis.indices[lo : lo + step, j], axis=0, out=gathered, mode="clip")
            part *= gathered
    return rows.T


def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule with probability-normalized weights.

    Weights sum to 1, so the rule integrates against the uniform density
    on [-1, 1]; it is exact for polynomials of degree <= 2n - 1.
    """
    if n < 1:
        raise ValueError(f"rule size must be >= 1, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights / 2.0


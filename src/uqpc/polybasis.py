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
    for k in range(1, n_max):
        table[k + 1] = ((2 * k + 1) * x * table[k] - k * table[k - 1]) / (k + 1)
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
    def split(self) -> tuple[MultiIndexBasis | None, np.ndarray, np.ndarray]:
        """Terms grouped by their head, the degrees of the first d - 1 variables.

        Returns (head, row, last). Term k is head term ``row[k]`` times
        P_{last[k]} of the last variable. ``head`` is the basis of the heads,
        the same set and order as total_degree_multi_indices(d - 1, n0), or
        None at d = 1, where every term has the one empty head. Computed once
        per basis.
        """
        last = self.indices[:, -1]
        first = np.flatnonzero(last == 0)
        heads = self.indices[first, :-1]
        position = {h: r for r, h in enumerate(map(tuple, heads.tolist()))}
        row = np.array([position[h] for h in map(tuple, self.indices[:, :-1].tolist())])
        head = None
        if self.dimension > 1:
            head = MultiIndexBasis(self.dimension - 1, self.total_degree, heads, self.norms[first])
        return head, row, last


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


def eval_basis_matrix(basis: MultiIndexBasis, xis: np.ndarray) -> np.ndarray:
    """Evaluate the basis at many points; returns shape (n_points, n_terms).

    Entry (i, k) is prod_j P_{k_j}(xis[i, j]), with k_j the degrees of term k.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != basis.dimension:
        raise ValueError(
            f"samples have shape {xis.shape}, expected (n, {basis.dimension})"
        )
    n_max = int(basis.indices.max(initial=0))
    # np.take keeps the gathered factors C-ordered; table[:, idx] would be
    # F-ordered, and the layout changes the last bits of later BLAS products.
    out = np.take(legendre_table(n_max, xis[:, 0]), basis.indices[:, 0], axis=1)
    for j in range(1, basis.dimension):
        out *= np.take(legendre_table(n_max, xis[:, j]), basis.indices[:, j], axis=1)
    return out


def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule with probability-normalized weights.

    Weights sum to 1, so the rule integrates against the uniform density
    on [-1, 1]; it is exact for polynomials of degree <= 2n - 1.
    """
    if n < 1:
        raise ValueError(f"rule size must be >= 1, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights / 2.0


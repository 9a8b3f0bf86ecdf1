import math

import numpy as np
import pytest

from uqpc.polybasis import (
    basis_count,
    eval_basis_matrix,
    gauss_legendre_rule,
    legendre_table,
    total_degree_multi_indices,
)


def test_legendre_low_degrees():
    table = legendre_table(2, np.array([0.77, -0.3, 0.5]))
    assert table[0, 0] == 1.0
    assert table[1, 1] == -0.3
    # P_2(x) = (3x^2 - 1)/2
    assert table[2, 2] == pytest.approx(-0.125, abs=1e-15)


def test_legendre_normalization_at_one():
    assert legendre_table(20, np.ones(1))[0] == pytest.approx(np.ones(21), abs=1e-12)


def test_legendre_bounded_on_interval():
    x = np.linspace(-1.0, 1.0, 401)
    table = legendre_table(20, x)
    assert np.all(np.abs(table) <= 1.0 + 1e-12)


def test_legendre_table_matches_legvander(rng):
    x = rng.uniform(-1.0, 1.0, 7)
    table = legendre_table(5, x)
    assert table == pytest.approx(np.polynomial.legendre.legvander(x, 5), abs=1e-14)


def test_multi_index_counts():
    assert len(total_degree_multi_indices(1, 0)) == 1
    assert len(total_degree_multi_indices(3, 6)) == 84
    for d, n0 in ((1, 5), (2, 4), (4, 3)):
        assert len(total_degree_multi_indices(d, n0)) == basis_count(d, n0)
        assert basis_count(d, n0) == math.comb(n0 + d, d)


def test_multi_index_order_d2_n2():
    basis = total_degree_multi_indices(2, 2)
    expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert [tuple(row) for row in basis.indices] == expected


def test_grade_sizes():
    # Number of exact-degree-n0 indices is C(n0+d-1, d-1).
    for d, n0 in ((2, 3), (3, 4)):
        full = len(total_degree_multi_indices(d, n0))
        below = len(total_degree_multi_indices(d, n0 - 1))
        assert full - below == math.comb(n0 + d - 1, d - 1)


def test_multi_index_validation():
    with pytest.raises(ValueError):
        total_degree_multi_indices(0, 2)
    with pytest.raises(ValueError):
        total_degree_multi_indices(2, -1)


def test_norms():
    basis = total_degree_multi_indices(3, 4)
    rows = [tuple(row) for row in basis.indices]
    assert basis.norms[rows.index((0, 0, 0))] == 1.0
    assert basis.norms[rows.index((1, 2, 0))] == pytest.approx(1.0 / 15.0, abs=1e-15)
    expected = [math.prod(1.0 / (2 * k + 1) for k in row) for row in rows]
    assert basis.norms == pytest.approx(expected, abs=1e-15)
    assert total_degree_multi_indices(1, 6).norms[6] == pytest.approx(1.0 / 13.0, abs=1e-15)


def test_eval_basis_values():
    basis = total_degree_multi_indices(2, 3)
    assert eval_basis_matrix(basis, np.ones((1, 2)))[0] == pytest.approx(
        np.ones(len(basis)), abs=1e-12
    )
    # term with index (1, 2) at xi = (0.5, 0.5): P_1(0.5) * P_2(0.5)
    k = [tuple(row) for row in basis.indices].index((1, 2))
    psi = eval_basis_matrix(basis, np.array([[0.5, 0.5]]))
    assert psi.shape == (1, len(basis))
    assert psi[0, k] == pytest.approx(-0.0625, abs=1e-15)


@pytest.mark.parametrize("d, n0", [(1, 5), (3, 5), (10, 3)])
def test_eval_basis_matrix_is_exact_product(d, n0, rng):
    # Bit for bit the plain left-to-right product over the variables, also
    # where a variable's factors are multiplied in several slices of n0 + 1
    # term rows (56 terms at d = 3, 286 at d = 10).
    basis = total_degree_multi_indices(d, n0)
    xis = rng.uniform(-1.0, 1.0, size=(300, d))
    psi = eval_basis_matrix(basis, xis)
    # The transposed view of degree-major rows, as legendre_table returns.
    assert psi.T.flags.c_contiguous
    ref = np.ones((300, len(basis)))
    for j in range(d):
        ref = ref * legendre_table(n0, xis[:, j])[:, basis.indices[:, j]]
    assert np.array_equal(psi, ref)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_basis_split_into_heads(d):
    for n0 in range(6):
        basis = total_degree_multi_indices(d, n0)
        head, row, last = basis.split
        assert basis.split is basis.split  # computed once per basis
        assert np.array_equal(last, basis.indices[:, -1])
        assert (head.dimension, head.total_degree) == (d - 1, n0)
        if d == 1:
            # The one empty head, of norm 1, which every term shares.
            assert head.indices.shape == (1, 0)
            assert head.norms.tolist() == [1.0]
            assert np.all(row == 0)
        else:
            ref = total_degree_multi_indices(d - 1, n0)
            assert np.array_equal(head.indices, ref.indices)
            assert np.array_equal(head.norms, ref.norms)
        assert np.array_equal(head.indices[row], basis.indices[:, :-1])
        assert np.array_equal(row[last == 0], np.arange(len(head)))


def test_empty_head_evaluates_to_ones():
    # The head of a d = 1 basis has no variables; its one term is 1 at
    # every point, allocated or written into `out`.
    head = total_degree_multi_indices(1, 4).split[0]
    psi = eval_basis_matrix(head, np.empty((7, 0)))
    assert psi.shape == (7, 1)
    assert np.all(psi == 1.0)
    out = np.full((1, 7), np.nan)
    assert np.all(eval_basis_matrix(head, np.empty((7, 0)), out) == 1.0)
    assert np.all(out == 1.0)
    with pytest.raises(ValueError):
        eval_basis_matrix(head, np.empty((7, 1)))


@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_head_runs_cover_each_term_once(d):
    # Laying out each run's (head, last degree) pairs one run after another,
    # entry order[k] is the pair of term k, and every pair is a term.
    for n0 in range(5):
        basis = total_degree_multi_indices(d, n0)
        _, row, last = basis.split
        runs, order = basis.head_runs
        assert basis.head_runs is basis.head_runs
        pairs = [(h, j) for lo, hi, k in runs for h in range(lo, hi) for j in range(k)]
        assert len(pairs) == len(basis)
        assert [pairs[i] for i in order] == list(zip(row.tolist(), last.tolist()))


def test_sobol_groups_by_first_appearance():
    # d=2, n0=2: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2).
    basis = total_degree_multi_indices(2, 2)
    labels, flags = basis.sobol_groups
    assert basis.sobol_groups is basis.sobol_groups
    assert labels.tolist() == [-1, 0, 1, 0, 2, 1]
    assert flags.tolist() == [[True, False], [False, True], [True, True]]
    for d, n0 in ((1, 4), (3, 6), (10, 3)):
        basis = total_degree_multi_indices(d, n0)
        labels, flags = basis.sobol_groups
        active = basis.indices != 0
        assert labels[0] == -1 and (labels[1:] >= 0).all()
        assert np.array_equal(flags[labels[1:]], active[1:])
        firsts = [labels.tolist().index(g) for g in range(len(flags))]
        assert firsts == sorted(firsts)
        assert len({row.tobytes() for row in flags}) == len(flags)


def test_legendre_table_degree_major(rng):
    x = rng.uniform(-1.0, 1.0, 50)
    table = legendre_table(4, x)
    assert table.shape == (50, 5)
    assert table.T.flags.c_contiguous


@pytest.mark.parametrize("d", [1, 2, 3])
def test_eval_basis_matrix_into_buffers(d, rng):
    # Given `out`, the values are the default path's bit for bit, as the
    # transposed view of `out`; a reused `out` keeps nothing of the last call.
    basis = total_degree_multi_indices(d, 4)
    out = np.full((len(basis), 70), np.nan)
    for _ in range(2):
        xis = rng.uniform(-1.0, 1.0, size=(70, d))
        psi = eval_basis_matrix(basis, xis, out)
        assert psi.base is out
        assert psi.shape == (70, len(basis))
        assert np.array_equal(psi, eval_basis_matrix(basis, xis))


def test_eval_basis_matrix_rejects_bad_buffers():
    basis = total_degree_multi_indices(3, 2)
    xis = np.zeros((5, 3))
    good = np.empty((len(basis), 5))
    frozen = np.empty_like(good)
    frozen.flags.writeable = False
    bad = [
        np.empty((5, len(basis))),  # the returned (n_points, n_terms) shape
        np.empty((len(basis), 5), dtype=np.float32),
        np.empty((len(basis), 5), order="F"),
        np.empty((len(basis), 10))[:, ::2],
        frozen,
        good.tolist(),
    ]
    for buffer in bad:
        with pytest.raises(ValueError):
            eval_basis_matrix(basis, xis, buffer)
    eval_basis_matrix(basis, xis, good)


def test_eval_basis_dimension_check():
    basis = total_degree_multi_indices(2, 1)
    with pytest.raises(ValueError):
        eval_basis_matrix(basis, np.zeros(2))
    with pytest.raises(ValueError):
        eval_basis_matrix(basis, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        eval_basis_matrix(basis, np.zeros((4, 3)))


def test_gauss_rule_small():
    nodes, weights = gauss_legendre_rule(1)
    assert nodes == pytest.approx([0.0], abs=1e-15)
    assert weights == pytest.approx([1.0], abs=1e-15)
    nodes, weights = gauss_legendre_rule(2)
    assert sorted(nodes) == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-15)
    # E[x^2] = 1/3 under the uniform density, exact for the 2-point rule
    assert float(weights @ nodes**2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        gauss_legendre_rule(0)


def test_gauss_rule_polynomial_exactness():
    nodes, weights = gauss_legendre_rule(5)
    for p in range(10):  # exact through degree 2*5 - 1
        exact = 1.0 / (p + 1) if p % 2 == 0 else 0.0
        assert float(weights @ nodes**p) == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("d,n0", [(1, 6), (2, 4), (3, 3)])
def test_orthogonality(d, n0, tensor_rule):
    basis = total_degree_multi_indices(d, n0)
    nodes, weights = tensor_rule(d, n0 + 1)
    psi = eval_basis_matrix(basis, nodes)
    gram = psi.T @ (weights[:, None] * psi)
    assert gram == pytest.approx(np.diag(basis.norms), abs=1e-12)

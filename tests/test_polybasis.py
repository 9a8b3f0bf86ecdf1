import math

import numpy as np
import pytest

from uqpc.polybasis import (
    basis_count,
    basis_norm,
    eval_basis,
    eval_basis_matrix,
    eval_legendre,
    gauss_legendre_rule,
    legendre_table,
    tensor_gauss_rule,
    total_degree_multi_indices,
)


def test_legendre_low_degrees():
    assert eval_legendre(0, 0.77) == 1.0
    assert eval_legendre(1, -0.3) == -0.3
    # P_2(x) = (3x^2 - 1)/2
    assert eval_legendre(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_legendre_normalization_at_one():
    assert all(eval_legendre(n, 1.0) == pytest.approx(1.0, abs=1e-12) for n in range(21))


def test_legendre_bounded_on_interval():
    x = np.linspace(-1.0, 1.0, 401)
    table = legendre_table(20, x)
    assert np.all(np.abs(table) <= 1.0 + 1e-12)


def test_legendre_table_matches_scalar(rng):
    x = rng.uniform(-1.0, 1.0, 7)
    table = legendre_table(5, x)
    for i, xi in enumerate(x):
        for n in range(6):
            assert table[i, n] == pytest.approx(eval_legendre(n, xi), abs=1e-14)


def test_legendre_rejects_negative_degree():
    with pytest.raises(ValueError):
        eval_legendre(-1, 0.0)


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
    assert basis_norm([0, 0, 0]) == 1.0
    assert basis_norm([1, 2, 0]) == pytest.approx(1.0 / 15.0, abs=1e-15)
    assert basis_norm([6]) == pytest.approx(1.0 / 13.0, abs=1e-15)
    basis = total_degree_multi_indices(3, 4)
    expected = [basis_norm(row) for row in basis.indices]
    assert basis.norms == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        basis_norm([1, -1])


def test_eval_basis_values():
    basis = total_degree_multi_indices(2, 3)
    assert eval_basis(basis, np.ones(2)) == pytest.approx(np.ones(len(basis)), abs=1e-12)
    # term with index (1, 2) at xi = (0.5, 0.5): P_1(0.5) * P_2(0.5)
    k = [tuple(row) for row in basis.indices].index((1, 2))
    assert eval_basis(basis, np.array([0.5, 0.5]))[k] == pytest.approx(-0.0625, abs=1e-15)


def test_eval_basis_matrix_is_exact_product(rng):
    basis = total_degree_multi_indices(3, 5)
    xis = rng.uniform(-1.0, 1.0, size=(300, 3))
    psi = eval_basis_matrix(basis, xis)
    assert psi.flags.c_contiguous
    ref = np.ones((300, len(basis)))
    for j in range(3):
        ref = ref * legendre_table(5, xis[:, j])[:, basis.indices[:, j]]
    assert np.array_equal(psi, ref)


def test_eval_basis_dimension_check():
    basis = total_degree_multi_indices(2, 1)
    with pytest.raises(ValueError):
        eval_basis(basis, np.zeros(3))
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


def test_tensor_rule_weights_and_shape():
    nodes, weights = tensor_gauss_rule(3, 4)
    assert nodes.shape == (64, 3)
    assert weights.shape == (64,)
    assert float(weights.sum()) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("d,n0", [(1, 6), (2, 4), (3, 3)])
def test_orthogonality(d, n0):
    basis = total_degree_multi_indices(d, n0)
    nodes, weights = tensor_gauss_rule(d, n0 + 1)
    psi = eval_basis_matrix(basis, nodes)
    gram = psi.T @ (weights[:, None] * psi)
    assert gram == pytest.approx(np.diag(basis.norms), abs=1e-12)

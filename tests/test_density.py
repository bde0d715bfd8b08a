import numpy as np
import pytest

from vqebench.errors import DimensionError
from vqebench.qsim import pauli_string_matrix

from oracles import (
    basis_state,
    check_density,
    embed_operator,
    partial_trace,
    pure_state,
    purity,
)


def test_basis_state():
    rho = basis_state(2, 2)
    assert rho.shape == (4, 4)
    assert rho[2, 2] == 1.0
    assert np.trace(rho) == pytest.approx(1.0)


def test_basis_state_range():
    with pytest.raises(DimensionError):
        basis_state(4, 2)


def test_pure_state_normalizes():
    rho = pure_state([1.0, 1.0])
    assert np.allclose(rho, 0.5 * np.ones((2, 2)))
    assert purity(rho) == pytest.approx(1.0)


def test_check_density_accepts_mixed():
    check_density(np.eye(4) / 4.0)


def test_check_density_rejects_bad_trace():
    with pytest.raises(DimensionError):
        check_density(np.eye(2))


def test_check_density_rejects_non_hermitian():
    rho = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(DimensionError):
        check_density(rho)


def test_embed_matches_kron_on_adjacent_qubits():
    x = pauli_string_matrix("X")
    assert np.allclose(embed_operator(x, (0,), 2), pauli_string_matrix("XI"))
    assert np.allclose(embed_operator(x, (1,), 2), pauli_string_matrix("IX"))


def test_embed_reversed_qubit_order():
    # XY placed on (qubit 1, qubit 0) equals Y on qubit 0 and X on qubit 1
    xy = np.kron(pauli_string_matrix("X"), pauli_string_matrix("Y"))
    assert np.allclose(embed_operator(xy, (1, 0), 2), pauli_string_matrix("YX"))


def test_embed_nonadjacent():
    zz = pauli_string_matrix("ZZ")
    assert np.allclose(embed_operator(zz, (0, 2), 3), pauli_string_matrix("ZIZ"))


def test_partial_trace_product_state():
    rho_a = pure_state([1.0, 0.0])
    rho_b = np.eye(2) / 2.0
    rho = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(rho, (0,), 2), rho_a)
    assert np.allclose(partial_trace(rho, (1,), 2), rho_b)


def test_partial_trace_bell_state_marginals():
    bell = pure_state([1.0, 0.0, 0.0, 1.0])
    for q in (0, 1):
        assert np.allclose(partial_trace(bell, (q,), 2), np.eye(2) / 2.0)

import numpy as np
import pytest

from vqebench.errors import DimensionError, ParameterDomainError
from vqebench.qsim import PauliSum, parse_hamiltonian, pauli_string_matrix


def test_single_qubit_matrices():
    z = pauli_string_matrix("Z")
    assert np.allclose(z, np.diag([1, -1]))
    x = pauli_string_matrix("X")
    assert np.allclose(x, [[0, 1], [1, 0]])


def test_qubit_zero_is_most_significant():
    # ZI acts as Z on qubit 0 = the MSB of the basis index
    zi = pauli_string_matrix("ZI")
    assert np.allclose(np.diag(zi), [1, 1, -1, -1])
    iz = pauli_string_matrix("IZ")
    assert np.allclose(np.diag(iz), [1, -1, 1, -1])


def test_to_matrix_is_hermitian():
    h = PauliSum.from_terms([(0.5, "XY"), (-0.25, "ZZ"), (1.0, "II")])
    mat = h.to_matrix()
    assert np.allclose(mat, mat.conj().T)


def test_duplicate_terms_merge():
    h = PauliSum.from_terms([(1.0, "Z"), (0.5, "Z"), (0.25, "X")])
    assert len(h.terms) == 2
    assert dict((s, c) for c, s in h.terms)["Z"] == pytest.approx(1.5)


def test_parse_hamiltonian_comments_and_blanks():
    h = parse_hamiltonian("# header\n\n-1.0 ZI  # inline\n0.5 XX\n")
    assert h.n_qubits == 2
    assert len(h.terms) == 2


def test_parse_rejects_bad_lines():
    with pytest.raises(ParameterDomainError):
        parse_hamiltonian("1.0\n")
    with pytest.raises(ParameterDomainError):
        parse_hamiltonian("abc ZI\n")
    with pytest.raises(ParameterDomainError):
        parse_hamiltonian("1.0 ZQ\n")


def test_mixed_lengths_rejected():
    with pytest.raises(DimensionError):
        PauliSum.from_terms([(1.0, "Z"), (1.0, "ZZ")])


def test_empty_rejected():
    with pytest.raises(ParameterDomainError):
        PauliSum.from_terms([])


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ParameterDomainError):
        PauliSum.from_terms([(float("nan"), "Z")])


def test_merged_coefficient_that_overflows_rejected():
    # each coefficient is finite, their sum is not
    with pytest.raises(ParameterDomainError, match="ZI sum to inf"):
        PauliSum.from_terms([(1e308, "ZI"), (-1.0, "IZ"), (1e308, "ZI")])
    with pytest.raises(ParameterDomainError, match="sum to -inf"):
        parse_hamiltonian("-1e308 Z\n-1e308 Z\n")
    assert PauliSum.from_terms([(1e308, "Z"), (-1e308, "Z")]).terms == ((0.0, "Z"),)


def test_energy_bound_that_overflows_rejected():
    # each merged coefficient is finite, but the energies reach 2e308
    with pytest.raises(ParameterDomainError, match=r"energy bound 2·Σ\|c\|"):
        PauliSum.from_terms([(1e308, "ZI"), (1e308, "IZ")])
    with pytest.raises(ParameterDomainError, match="is inf"):
        parse_hamiltonian("4.5e307 ZZ\n-4.5e307 XX\n")  # 2·Σ|c| = 1.8e308
    assert PauliSum.from_terms([(4e307, "ZZ"), (-4e307, "XX")]).n_qubits == 2

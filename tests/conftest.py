"""Shared fixtures: the bundled two-qubit toy problem."""
import numpy as np
import pytest

from vqebench.ensemble import EnsembleContext, reference_energies
from vqebench.harness import toy_problem_paths
from vqebench.qsim import EstimatorSpec, load_circuit, load_hamiltonian


@pytest.fixture(scope="session")
def toy_hamiltonian():
    ham_path, _ = toy_problem_paths()
    return load_hamiltonian(ham_path)


@pytest.fixture(scope="session")
def toy_circuit():
    _, circ_path = toy_problem_paths()
    return load_circuit(circ_path)


@pytest.fixture(scope="session")
def toy_reference(toy_hamiltonian):
    return reference_energies(toy_hamiltonian)


@pytest.fixture()
def toy_ctx(toy_hamiltonian, toy_circuit):
    return EnsembleContext(
        hamiltonian=toy_hamiltonian,
        ansatz=toy_circuit,
        phi_a=0,
        phi_b=1,
        estimator=EstimatorSpec(),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)

"""Few-qubit density-matrix simulation: gates, channels, estimators."""
from .channels import damp, depolarize
from .circuits import Circuit, Gate, load_circuit, parse_circuit
from .noise import NoiseModel, NoiseRule
from .pauli import PauliSum, load_hamiltonian, parse_hamiltonian, pauli_string_matrix
from .simulate import (
    EstimatorSpec,
    evolve_circuit,
    expectation,
    expectation_exact,
    expectation_shots,
)

__all__ = [
    "Circuit",
    "EstimatorSpec",
    "Gate",
    "NoiseModel",
    "NoiseRule",
    "PauliSum",
    "damp",
    "depolarize",
    "evolve_circuit",
    "expectation",
    "expectation_exact",
    "expectation_shots",
    "load_circuit",
    "load_hamiltonian",
    "parse_circuit",
    "parse_hamiltonian",
    "pauli_string_matrix",
]

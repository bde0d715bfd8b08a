"""Few-qubit simulation on Pauli vectors: gates, channels, estimators."""
from .circuits import Circuit, Gate, load_circuit, parse_circuit
from .noise import NoiseRule, damp, depolarize
from .pauli import (
    PauliSum,
    load_hamiltonian,
    parse_hamiltonian,
    pauli_index,
    pauli_string_matrix,
    to_pauli,
)
from .simulate import (
    EstimatorSpec,
    Readout,
    Schedule,
    compile_circuit,
    compile_readout,
    evolve_circuit,
    expectation,
    expectation_exact,
    expectation_shots,
)

__all__ = [
    "Circuit",
    "EstimatorSpec",
    "Gate",
    "NoiseRule",
    "PauliSum",
    "Readout",
    "Schedule",
    "compile_circuit",
    "compile_readout",
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
    "pauli_index",
    "pauli_string_matrix",
    "to_pauli",
]

"""Few-qubit density-matrix simulation: gates, channels, estimators."""
from .channels import (
    KrausChannel,
    kraus_amplitude_damping,
    kraus_depolarizing,
    kraus_phase_damping,
    kraus_thermal_relaxation,
)
from .circuits import Circuit, Gate, load_circuit, parse_circuit
from .density import basis_state, embed_operator, partial_trace, purity
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
    "KrausChannel",
    "NoiseModel",
    "NoiseRule",
    "PauliSum",
    "basis_state",
    "embed_operator",
    "evolve_circuit",
    "expectation",
    "expectation_exact",
    "expectation_shots",
    "kraus_amplitude_damping",
    "kraus_depolarizing",
    "kraus_phase_damping",
    "kraus_thermal_relaxation",
    "load_circuit",
    "load_hamiltonian",
    "parse_circuit",
    "parse_hamiltonian",
    "partial_trace",
    "pauli_string_matrix",
    "purity",
]

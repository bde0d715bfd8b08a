"""Few-qubit simulation on Pauli vectors: gates, channels, estimators."""
from .. import _exports

__getattr__, __all__ = _exports(__name__, {
    "circuits": ("Circuit", "Gate", "load_circuit", "parse_circuit"),
    "noise": ("EstimatorSpec", "NoiseRule", "damp", "depolarize"),
    "pauli": (
        "PauliSum",
        "load_hamiltonian",
        "parse_hamiltonian",
        "pauli_index",
        "pauli_string_matrix",
        "to_pauli",
    ),
    "simulate": (
        "Readout",
        "Schedule",
        "compile_circuit",
        "compile_readout",
        "evolve_circuit",
        "expectation",
        "expectation_exact",
        "expectation_shots",
    ),
})

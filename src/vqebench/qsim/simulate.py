"""Noisy density-matrix circuit evolution and expectation estimators."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError, ParameterDomainError
from .channels import kraus_sum
from .circuits import Circuit, rotation
from .density import embed_operator, n_qubits_of
from .noise import NoiseModel
from .pauli import PauliSum

_IMAG_RESIDUE_TOL = 1e-9

# Rotations taking each Pauli's eigenbasis to the computational basis:
# P = U^dag Z U, so measuring P amounts to applying U and reading out Z.
_SQRT2 = np.sqrt(2.0)
_BASIS_ROTATIONS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,  # H
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / _SQRT2,  # H S^dag
}


@dataclass(frozen=True)
class EstimatorSpec:
    """How expectations are measured: exactly or with n_m shots, with
    an optional noise model attached to state preparation."""

    mode: str = "exact"  # "exact" or "shots"
    n_m: int | None = None
    noise: NoiseModel | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "shots"):
            raise ParameterDomainError(f"unknown estimator mode {self.mode!r}")
        if self.mode == "shots" and (self.n_m is None or self.n_m < 1):
            raise ParameterDomainError(f"shot count must be >= 1, got {self.n_m}")


def evolve_circuit(
    rho0: np.ndarray,
    circuit: Circuit,
    theta: np.ndarray,
    noise: NoiseModel | None = None,
) -> np.ndarray:
    """Apply the circuit's gates in order, inserting noise channels after
    each gate matched by the noise model."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.n_params,):
        raise DimensionError(
            f"expected {circuit.n_params} parameters, got shape {theta.shape}"
        )
    n = n_qubits_of(rho0)
    if n != circuit.n_qubits:
        raise DimensionError(
            f"state has {n} qubits but circuit expects {circuit.n_qubits}"
        )
    rho = rho0
    for param_index, op, channels in _schedule(circuit, noise):
        if param_index is not None:
            op = rotation(float(theta[param_index]), op)
        rho = kraus_sum(rho, (op,))
        for kraus in channels:
            rho = kraus_sum(rho, kraus)
    return rho


@functools.lru_cache(maxsize=64)
def _schedule(circuit: Circuit, noise: NoiseModel | None) -> tuple:
    """Per gate, in the full space: its parameter index, its unitary (a
    rotation's Pauli generator instead) and the Kraus operators of each channel
    attached after it.  maxsize covers the catalog's noise models for a circuit."""
    n = circuit.n_qubits
    steps = []
    for gate in circuit.gates:
        local = gate.unitary() if gate.param_index is None else gate.generator()
        applications = () if noise is None else noise.applications_for(gate)
        channels = tuple(
            tuple(embed_operator(op, qubits, n) for op in channel.operators)
            for channel, qubits in applications
        )
        steps.append((gate.param_index, embed_operator(local, gate.qubits, n), channels))
    return tuple(steps)


def expectation_exact(rho: np.ndarray, hamiltonian: PauliSum) -> float:
    """Tr(rho H), discarding the (tiny) imaginary roundoff residue."""
    if rho.shape[0] != hamiltonian.dim:
        raise DimensionError(
            f"state dimension {rho.shape[0]} != Hamiltonian dimension {hamiltonian.dim}"
        )
    value = complex(np.trace(rho @ hamiltonian.to_matrix()))
    if abs(value.imag) > _IMAG_RESIDUE_TOL:
        raise DimensionError(f"expectation has non-negligible imaginary part {value.imag}")
    return value.real


def expectation_shots(
    rho: np.ndarray,
    hamiltonian: PauliSum,
    n_m: int,
    rng: np.random.Generator,
) -> float:
    """Shot-based estimate: each non-identity Pauli term is measured with n_m
    samples in its own eigenbasis; identity terms contribute exactly."""
    if n_m < 1:
        raise ParameterDomainError(f"shot count must be >= 1, got {n_m}")
    if rho.shape[0] != hamiltonian.dim:
        raise DimensionError(
            f"state dimension {rho.shape[0]} != Hamiltonian dimension {hamiltonian.dim}"
        )
    n = hamiltonian.n_qubits
    total = 0.0
    for coeff, string in hamiltonian:
        if set(string) == {"I"}:
            total += coeff
            continue
        rotated = rho
        for q, c in enumerate(string):
            if c in _BASIS_ROTATIONS:
                u = embed_operator(_BASIS_ROTATIONS[c], (q,), n)
                rotated = kraus_sum(rotated, (u,))
        probs = np.real(np.diag(rotated)).clip(min=0.0)
        probs = probs / probs.sum()
        # eigenvalue of outcome b: product of (-1)^bit over non-identity qubits
        signs = np.ones(hamiltonian.dim)
        for q, c in enumerate(string):
            if c != "I":
                bit = (np.arange(hamiltonian.dim) >> (n - 1 - q)) & 1
                signs *= 1.0 - 2.0 * bit
        outcomes = rng.choice(hamiltonian.dim, size=n_m, p=probs)
        total += coeff * float(np.mean(signs[outcomes]))
    return total


def expectation(
    rho: np.ndarray,
    hamiltonian: PauliSum,
    spec: EstimatorSpec,
    rng: np.random.Generator | None = None,
) -> float:
    """Expectation under an estimator spec (rng required in shots mode)."""
    if spec.mode == "exact":
        return expectation_exact(rho, hamiltonian)
    if rng is None:
        raise ParameterDomainError("shot-based estimation requires an rng")
    return expectation_shots(rho, hamiltonian, spec.n_m, rng)

"""Noisy density-matrix circuit evolution and expectation estimators."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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
    each gate matched by the noise model.  rho0 is one density matrix or a
    (k, d, d) stack of them, evolved together."""
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


class _Readout(NamedTuple):
    """What measuring a Hamiltonian needs that does not depend on the state."""

    matrix: np.ndarray  # the dense Hamiltonian
    terms: tuple  # per term, in order: (coeff, its row below; None: identity, exact)
    coeffs: np.ndarray  # (T,) coefficients of the measured (non-identity) terms
    bases: np.ndarray  # (T,) index into `rotations` of each measured term's basis
    rotations: tuple  # per distinct basis: its embedded rotations, in qubit order
    signs: np.ndarray  # (T, d) eigenvalue of each outcome, per measured term


@functools.lru_cache(maxsize=16)
def _readout(hamiltonian: PauliSum) -> _Readout:
    """The Hamiltonian's readout, built once; measured terms that share a
    basis share its rotations."""
    n, d = hamiltonian.n_qubits, hamiltonian.dim
    bits = (np.arange(d)[:, None] >> (n - 1 - np.arange(n))) & 1
    bases: dict[tuple, int] = {}
    terms, coeffs, basis_of, signs = [], [], [], []
    for coeff, string in hamiltonian:
        if set(string) == {"I"}:
            terms.append((coeff, None))
            continue
        key = tuple((c, q) for q, c in enumerate(string) if c in _BASIS_ROTATIONS)
        terms.append((coeff, len(coeffs)))
        coeffs.append(coeff)
        basis_of.append(bases.setdefault(key, len(bases)))
        # eigenvalue of outcome b: product of (-1)^bit over non-identity qubits
        measured = [q for q, c in enumerate(string) if c != "I"]
        signs.append(np.prod(1.0 - 2.0 * bits[:, measured], axis=1))
    return _Readout(
        matrix=hamiltonian.to_matrix(),
        terms=tuple(terms),
        coeffs=np.array(coeffs, dtype=float),
        bases=np.array(basis_of, dtype=np.intp),
        rotations=tuple(tuple(_basis_rotation(c, q, n) for c, q in key) for key in bases),
        signs=np.array(signs, dtype=float).reshape(len(coeffs), d),
    )


@functools.lru_cache(maxsize=16)
def _basis_rotation(basis: str, qubit: int, n: int) -> np.ndarray:
    """The X or Y readout rotation on one qubit, in the full space; maxsize
    holds both bases on every qubit of the largest supported state (8)."""
    return embed_operator(_BASIS_ROTATIONS[basis], (qubit,), n)


def _check_state(rho: np.ndarray, hamiltonian: PauliSum) -> None:
    d = hamiltonian.dim
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
        raise DimensionError(
            f"state shape {rho.shape} does not match Hamiltonian dimension {d}"
        )


def expectation_exact(rho: np.ndarray, hamiltonian: PauliSum) -> float | np.ndarray:
    """Tr(rho H), discarding the (tiny) imaginary roundoff residue; one value
    per state for a (k, d, d) stack."""
    _check_state(rho, hamiltonian)
    values = np.trace(rho @ _readout(hamiltonian).matrix, axis1=-2, axis2=-1)
    residue = np.max(np.abs(values.imag))
    if residue > _IMAG_RESIDUE_TOL:
        raise DimensionError(f"expectation has non-negligible imaginary part {residue}")
    return values.real if rho.ndim == 3 else float(values.real)


def expectation_shots(
    rho: np.ndarray,
    hamiltonian: PauliSum,
    n_m: int,
    rng: np.random.Generator,
) -> float | np.ndarray:
    """Shot-based estimate: each non-identity Pauli term is measured with n_m
    samples in its own eigenbasis; identity terms contribute exactly.

    For a (k, d, d) stack, one value per state.  The draws are those of
    `rng.choice(d, size=n_m, p=probs)` per state and term, in that order, so
    the random stream and the estimates match measuring the states one at a
    time.  A state with non-finite outcome probabilities gives NaN.
    """
    if n_m < 1:
        raise ParameterDomainError(f"shot count must be >= 1, got {n_m}")
    _check_state(rho, hamiltonian)
    plan = _readout(hamiltonian)
    states = rho if rho.ndim == 3 else rho[None]
    k, d = len(states), hamiltonian.dim
    # Generator.choice: cdf = p.cumsum(); cdf /= cdf[-1]; searchsorted(cdf,
    # random(n_m), "right").  Sorting the draws instead counts how many fall
    # below each cdf entry, at a cost that does not grow with d; a leading
    # 0.0 entry, below which no draw falls, makes the counts one difference.
    draws = rng.random((k, len(plan.coeffs), n_m))
    draws.sort(axis=-1)
    cdfs = np.zeros((len(plan.rotations), k, d + 1))
    for b, rotations in enumerate(plan.rotations):
        rotated = states
        for u in rotations:
            rotated = kraus_sum(rotated, (u,))
        probs = np.real(np.diagonal(rotated, axis1=1, axis2=2)).clip(min=0.0)
        with np.errstate(invalid="ignore"):  # 0/0 for a zero-trace state
            probs = probs / probs.sum(axis=1, keepdims=True)
        cdf = probs.cumsum(axis=1)
        cdfs[b, :, 1:] = cdf / cdf[:, -1:]
    cdf = cdfs[plan.bases].transpose(1, 0, 2)  # (k, T, d + 1)
    below = np.empty(cdf.shape, dtype=np.int64)
    for s, t in np.ndindex(*cdf.shape[:2]):
        below[s, t] = draws[s, t].searchsorted(cdf[s, t], side="left")
    counts = below[..., 1:] - below[..., :-1]
    # integer sums of +-1 outcomes: exact, so equal to the mean of the draws
    estimates = plan.coeffs * ((counts * plan.signs).sum(axis=-1) / n_m)
    estimates[np.isnan(cdf[..., -1])] = np.nan
    total = np.zeros(k)
    for coeff, t in plan.terms:
        total = total + (coeff if t is None else estimates[:, t])
    return total if rho.ndim == 3 else float(total[0])


def expectation(
    rho: np.ndarray,
    hamiltonian: PauliSum,
    spec: EstimatorSpec,
    rng: np.random.Generator | None = None,
) -> float | np.ndarray:
    """Expectation under an estimator spec (rng required in shots mode); one
    value per state for a (k, d, d) stack."""
    if spec.mode == "exact":
        return expectation_exact(rho, hamiltonian)
    if rng is None:
        raise ParameterDomainError("shot-based estimation requires an rng")
    return expectation_shots(rho, hamiltonian, spec.n_m, rng)

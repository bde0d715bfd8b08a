"""Noisy density-matrix circuit evolution and expectation estimators."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from ..errors import DimensionError, ParameterDomainError
from .channels import kraus_sum
from .circuits import Circuit, rotation
from .density import embed_operator, n_qubits_of
from .noise import NoiseModel
from .pauli import PauliSum, pauli_string_matrix

_IMAG_RESIDUE_TOL = 1e-9


@dataclass(frozen=True)
class EstimatorSpec:
    """How expectations are measured: exactly when n_m is None, else with
    n_m shots per term; noise is an optional noise model attached to state
    preparation."""

    n_m: int | None = None
    noise: NoiseModel | None = None

    def __post_init__(self):
        if self.n_m is not None and (
            not isinstance(self.n_m, Integral) or isinstance(self.n_m, bool) or self.n_m < 1
        ):
            raise ParameterDomainError(f"shot count must be an integer >= 1, got {self.n_m!r}")

    @property
    def mode(self) -> str:
        """The estimator kind that n_m implies: "exact" or "shots"."""
        return "exact" if self.n_m is None else "shots"


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
    """What measuring a Hamiltonian needs that does not depend on the state.
    A Pauli string P has one nonzero entry per row i, at column i XOR the mask
    of its X/Y positions, so <P> = sum_i phases[i] * rho[flips[i], i]."""

    matrix: np.ndarray  # the dense Hamiltonian
    constant: float  # the identity terms' coefficients, summed
    coeffs: np.ndarray  # (T,) coefficients of the measured (non-identity) terms
    flips: np.ndarray  # (T, d) column of each row's nonzero entry
    phases: np.ndarray  # (T, d) that entry


@functools.lru_cache(maxsize=16)
def _readout(hamiltonian: PauliSum) -> _Readout:
    """The Hamiltonian's readout, built once."""
    n, d = hamiltonian.n_qubits, hamiltonian.dim
    rows = np.arange(d)
    constant, coeffs, flips, phases = 0.0, [], [], []
    for coeff, string in hamiltonian:
        if set(string) == {"I"}:
            constant += coeff
            continue
        flip = rows ^ sum(1 << (n - 1 - q) for q, c in enumerate(string) if c in "XY")
        coeffs.append(coeff)
        flips.append(flip)
        phases.append(pauli_string_matrix(string)[rows, flip])
    return _Readout(
        matrix=hamiltonian.to_matrix(),
        constant=constant,
        coeffs=np.array(coeffs, dtype=float),
        flips=np.array(flips, dtype=np.intp).reshape(len(coeffs), d),
        phases=np.array(phases, dtype=complex).reshape(len(coeffs), d),
    )


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
    """Shot-based estimate: each non-identity Pauli term P is measured with
    n_m shots, X ~ Binomial(n_m, (1 + <P>) / 2) of them +1, and estimated as
    2X/n_m - 1; identity terms contribute exactly.  One value per state for a
    (k, d, d) stack, whose one `rng.binomial` call draws what measuring its
    states one at a time would.  A state with non-finite probabilities (NaN
    entries, zero trace) gives NaN and draws nothing."""
    if n_m < 1:
        raise ParameterDomainError(f"shot count must be >= 1, got {n_m}")
    _check_state(rho, hamiltonian)
    plan = _readout(hamiltonian)
    states = rho if rho.ndim == 3 else rho[None]
    paulis = (states[:, plan.flips, np.arange(hamiltonian.dim)] * plan.phases).sum(axis=-1)
    traces = np.trace(states, axis1=1, axis2=2).real
    with np.errstate(divide="ignore", invalid="ignore"):  # x/0 for a zero-trace state
        p_plus = (1.0 + paulis.real / traces[:, None]) / 2.0
    lost = ~np.isfinite(p_plus)
    counts = rng.binomial(n_m, np.where(lost, 0.0, p_plus).clip(0.0, 1.0))
    estimates = np.where(lost, np.nan, 2.0 * counts / n_m - 1.0)
    total = plan.constant + (estimates * plan.coeffs).sum(axis=-1)
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

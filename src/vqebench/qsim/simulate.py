"""Noisy density-matrix circuit evolution and expectation estimators."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import DimensionError, ParameterDomainError, is_count
from .circuits import Circuit
from .noise import NoiseModel
from .pauli import PauliSum, pauli_string_matrix


@dataclass(frozen=True)
class EstimatorSpec:
    """How expectations are measured: exactly when n_m is None, else with
    n_m shots per term; noise is an optional noise model attached to state
    preparation."""

    n_m: int | None = None
    noise: NoiseModel | None = None

    def __post_init__(self):
        if self.n_m is not None and not is_count(self.n_m):
            raise ParameterDomainError(
                f"shot count must be an integer from 1 to 2**63 - 1, got {self.n_m!r}"
            )

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
    each gate matched by the noise model.  rho0 is a (k, d, d) stack of
    density matrices and theta an (m, p) stack of parameter vectors; the
    result is (m, k, d, d), slice j the whole of rho0 evolved under row j."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != circuit.n_params:
        raise DimensionError(
            f"expected an (m, {circuit.n_params}) parameter stack, got shape {theta.shape}"
        )
    d = 2**circuit.n_qubits
    if rho0.ndim != 3 or rho0.shape[1:] != (d, d):
        raise DimensionError(
            f"expected a (k, {d}, {d}) state stack for the circuit's"
            f" {circuit.n_qubits} qubits, got shape {rho0.shape}"
        )
    # exp(-i theta/2 P) = cos(theta/2) I - i sin(theta/2) P, one (d, d)
    # rotation per row at each rotation gate, shaped (m, 1, d, d) to
    # broadcast over rho0.  Only the current gate's rotations are live, so
    # memory stays a few copies of the evolved stack.
    half = theta.T[:, :, None, None, None] / 2.0
    cosines, i_sines = np.cos(half), 1j * np.sin(half)
    plan = _schedule(circuit, noise)
    rho = rho0
    for param_index, op, channels in plan.steps:
        if param_index is not None:
            op = cosines[param_index] * plan.identity - i_sines[param_index] * op
        rho = op @ rho @ op.conj().swapaxes(-1, -2)
        for channel in channels:
            rho = channel(rho)
    if rho.ndim == 3:  # no rotation gate has added the m axis
        rho = np.repeat(rho[None], len(theta), axis=0)
    return rho


class _Schedule(NamedTuple):
    """What evolving a circuit under a noise model needs that does not
    depend on theta."""

    identity: np.ndarray  # (d, d)
    # per gate: its parameter index, its operator (a fixed gate's unitary, a
    # rotation's Pauli generator) and the channel maps attached after it
    steps: tuple


@functools.lru_cache(maxsize=64)
def _schedule(circuit: Circuit, noise: NoiseModel | None) -> _Schedule:
    """The circuit's schedule, built once.  maxsize covers the catalog's
    noise models for a circuit."""
    n = circuit.n_qubits
    steps = []
    for gate in circuit.gates:
        channels = () if noise is None else noise.channels(gate)
        steps.append((gate.param_index, gate.operator(n), channels))
    return _Schedule(identity=np.eye(2**n, dtype=complex), steps=tuple(steps))


class _Readout(NamedTuple):
    """What measuring a Hamiltonian needs that does not depend on the state.
    A Pauli string P has one nonzero entry per row i, at column i XOR the mask
    of its X/Y positions, so <P> = sum_i phases[i] * rho[flips[i], i]."""

    constant: float  # the identity terms' coefficients, summed
    coeffs: np.ndarray  # (T,) coefficients of the measured (non-identity) terms
    flips: np.ndarray  # (T, d) column of each row's nonzero entry
    phases: np.ndarray  # (T, d) that entry
    rows: np.ndarray  # (d,) the row index i


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
        constant=constant,
        coeffs=np.array(coeffs, dtype=float),
        flips=np.array(flips, dtype=np.intp).reshape(len(coeffs), d),
        phases=np.array(phases, dtype=complex).reshape(len(coeffs), d),
        rows=rows,
    )


def _read_terms(rho: np.ndarray, hamiltonian: PauliSum):
    """The readout, and per state of a (k, d, d) stack Re Tr(rho) and each
    measured term's Re Tr(P rho), (k,) and (k, T)."""
    d = hamiltonian.dim
    if rho.ndim != 3 or rho.shape[1:] != (d, d):
        raise DimensionError(
            f"expected a (k, {d}, {d}) state stack for the Hamiltonian, got shape {rho.shape}"
        )
    plan = _readout(hamiltonian)
    # The gather comes back with the stack axis innermost, so numpy's sum over
    # d would change order with k; C-ordered, a stack reads as its stacks of one do.
    gathered = np.ascontiguousarray(rho[:, plan.flips, plan.rows])
    paulis = (gathered * plan.phases).sum(axis=-1).real
    return plan, np.trace(rho, axis1=1, axis2=2).real, paulis


def expectation_exact(rho: np.ndarray, hamiltonian: PauliSum) -> np.ndarray:
    """Re Tr(rho H) = constant * Tr(rho) + sum_t c_t Re Tr(P_t rho), read from
    the Hamiltonian's readout table: one value per state of a (k, d, d)
    stack, equal bit for bit to that state read as a stack of one."""
    plan, traces, paulis = _read_terms(rho, hamiltonian)
    return plan.constant * traces + (paulis * plan.coeffs).sum(axis=-1)


def expectation_shots(
    rho: np.ndarray,
    hamiltonian: PauliSum,
    n_m: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Shot-based estimate, one value per state of a (k, d, d) stack: each
    non-identity Pauli term P is measured with n_m shots, X ~ Binomial(n_m,
    (1 + <P>) / 2) of them +1, and estimated as 2X/n_m - 1; identity terms
    contribute exactly.  The one `rng.binomial` call draws what measuring
    the states as stacks of one in turn would.  A state with non-finite
    probabilities (NaN entries, zero trace) gives NaN and draws nothing."""
    if n_m < 1:
        raise ParameterDomainError(f"shot count must be >= 1, got {n_m}")
    plan, traces, paulis = _read_terms(rho, hamiltonian)
    with np.errstate(divide="ignore", invalid="ignore"):  # x/0 for a zero-trace state
        p_plus = (1.0 + paulis / traces[:, None]) / 2.0
    lost = ~np.isfinite(p_plus)
    counts = rng.binomial(n_m, np.where(lost, 0.0, p_plus).clip(0.0, 1.0))
    estimates = np.where(lost, np.nan, 2.0 * counts / n_m - 1.0)
    return plan.constant + (estimates * plan.coeffs).sum(axis=-1)


def expectation(
    rho: np.ndarray,
    hamiltonian: PauliSum,
    spec: EstimatorSpec,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Expectation under an estimator spec (rng required in shots mode), one
    value per state of a (k, d, d) stack."""
    if spec.mode == "exact":
        return expectation_exact(rho, hamiltonian)
    if rng is None:
        raise ParameterDomainError("shot-based estimation requires an rng")
    return expectation_shots(rho, hamiltonian, spec.n_m, rng)

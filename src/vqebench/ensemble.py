"""State-averaged ensemble cost over two orthonormal initial states,
post-optimization eigenstate resolution, and the dense-diagonalization
reference oracle."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError, ParameterDomainError, is_integer
from .qsim import (
    Circuit,
    EstimatorSpec,
    PauliSum,
    Readout,
    Schedule,
    compile_circuit,
    compile_readout,
    evolve_circuit,
    expectation,
    expectation_exact,
    to_pauli,
)

MAX_REFERENCE_QUBITS = 8


@dataclass(frozen=True)
class EnsembleContext:
    """Everything needed to evaluate the two-state ensemble cost."""

    hamiltonian: PauliSum
    ansatz: Circuit
    phi_a: int
    phi_b: int
    estimator: EstimatorSpec

    def __post_init__(self):
        dim = self.hamiltonian.dim
        if self.hamiltonian.n_qubits != self.ansatz.n_qubits:
            raise DimensionError(
                f"Hamiltonian has {self.hamiltonian.n_qubits} qubits, "
                f"ansatz {self.ansatz.n_qubits}"
            )
        # the simulator keeps each gate's tables over the 4^n Pauli strings,
        # 1 MiB per fixed gate and 1.6 MiB per rotation at 8 qubits
        if self.ansatz.n_qubits > MAX_REFERENCE_QUBITS:
            raise CapacityError(
                f"the Pauli-vector simulator supports at most {MAX_REFERENCE_QUBITS} qubits,"
                f" got {self.ansatz.n_qubits}"
            )
        for idx in (self.phi_a, self.phi_b):
            if not is_integer(idx):
                raise ParameterDomainError(f"basis index must be an integer, got {idx!r}")
            if not 0 <= idx < dim:
                raise ParameterDomainError(f"basis index {idx} out of range for dim {dim}")
        if self.phi_a == self.phi_b:
            raise ParameterDomainError("the two initial states must be orthogonal")

    @functools.cached_property
    def schedule(self) -> Schedule:
        """The ansatz compiled under the estimator's noise rules, built once
        per context."""
        return compile_circuit(self.ansatz, self.estimator.noise)

    @functools.cached_property
    def readout(self) -> Readout:
        """The Hamiltonian's readout, built once per context."""
        return compile_readout(self.hamiltonian)

    @functools.cached_property
    def preparations(self) -> np.ndarray:
        """The ensemble's initial operators as one read-only (4, 4^n) stack
        of Pauli vectors, built once per context: |a><a| and |b><b|, then the
        Hermitian parts of |a><b|, (|a><b| + |b><a|)/2 and (|a><b| - |b><a|)/(2i)."""
        dim, a, b = self.hamiltonian.dim, self.phi_a, self.phi_b
        stack = np.zeros((4, dim, dim), dtype=complex)
        stack[0, a, a] = stack[1, b, b] = 1.0
        stack[2, a, b] = stack[2, b, a] = 0.5
        stack[3, a, b], stack[3, b, a] = -0.5j, 0.5j
        paulis = to_pauli(stack)
        paulis.flags.writeable = False
        return paulis


@dataclass(frozen=True)
class ReferencePair:
    """The two lowest exact eigenvalues."""

    e0: float
    e1: float


def sa_cost(theta, ctx: EnsembleContext, rng: np.random.Generator | None = None) -> np.ndarray:
    """Sum of the Hamiltonian expectations over the two evolved states, one
    cost per row of an (m, p) parameter stack.  The 2m states are evolved
    and measured as one stack ordered [theta_0 a, theta_0 b, theta_1 a, ...],
    so the shots drawn are those of m calls on stacks of one."""
    initial = ctx.preparations[:2]
    states = evolve_circuit(initial, ctx.schedule, theta)
    pairs = expectation(states.reshape(-1, initial.shape[1]), ctx.readout, ctx.estimator, rng)
    pairs = pairs.reshape(-1, 2)
    return 0.0 + pairs[:, 0] + pairs[:, 1]


def resolve_states(theta, ctx: EnsembleContext) -> tuple[float, float]:
    """Eigenvalues of the 2x2 Hamiltonian block spanned by the two states
    evolved under one parameter vector, sorted ascending.

    Expectations are taken exactly; the estimator's noise rules still apply
    to state preparation.  The cross term z = Tr(H E(|a><b|)) is read from
    the last two preparations, which give Re z and Im z.
    """
    initial = ctx.preparations
    states = evolve_circuit(initial, ctx.schedule, np.asarray(theta)[None])
    m_aa, m_bb, re_z, im_z = expectation_exact(states[0], ctx.readout)
    block = np.array([[m_aa, re_z - 1j * im_z], [re_z + 1j * im_z, m_bb]])
    e0, e1 = np.linalg.eigvalsh(block)
    return float(e0), float(e1)


def reference_energies(hamiltonian: PauliSum) -> ReferencePair:
    """Two smallest eigenvalues of the densely constructed Hamiltonian."""
    if hamiltonian.n_qubits > MAX_REFERENCE_QUBITS:
        raise CapacityError(
            f"dense diagonalization supports at most {MAX_REFERENCE_QUBITS} qubits"
        )
    eigs = np.linalg.eigvalsh(hamiltonian.to_matrix())
    return ReferencePair(e0=float(eigs[0]), e1=float(eigs[1]))

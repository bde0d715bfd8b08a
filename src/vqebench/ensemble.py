"""State-averaged ensemble cost over two orthonormal initial states,
post-optimization eigenstate resolution, and the dense-diagonalization
reference oracle."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError, ParameterDomainError
from .qsim import (
    Circuit,
    EstimatorSpec,
    PauliSum,
    basis_state,
    evolve_circuit,
    expectation,
    expectation_exact,
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
        # the simulator keeps every embedded 2^n x 2^n operator of the ansatz
        if self.ansatz.n_qubits > MAX_REFERENCE_QUBITS:
            raise CapacityError(
                f"dense simulation supports at most {MAX_REFERENCE_QUBITS} qubits"
            )
        for idx in (self.phi_a, self.phi_b):
            if not 0 <= idx < dim:
                raise ParameterDomainError(f"basis index {idx} out of range for dim {dim}")
        if self.phi_a == self.phi_b:
            raise ParameterDomainError("the two initial states must be orthogonal")
        if self.estimator.noise is not None:  # a channel that cannot attach to a gate fails here
            for gate in self.ansatz.gates:
                list(self.estimator.noise.applications_for(gate))


@dataclass(frozen=True)
class ReferencePair:
    """Two lowest exact eigenvalues and their sum."""

    e0: float
    e1: float

    @property
    def e_sa(self) -> float:
        return self.e0 + self.e1


def sa_cost(theta, ctx: EnsembleContext, rng: np.random.Generator | None = None) -> float:
    """Sum of the Hamiltonian expectations over the two evolved states,
    evolved and measured as one stack."""
    n = ctx.ansatz.n_qubits
    initial = np.stack([basis_state(ctx.phi_a, n), basis_state(ctx.phi_b, n)])
    rhos = evolve_circuit(initial, ctx.ansatz, theta, ctx.estimator.noise)
    e_a, e_b = expectation(rhos, ctx.hamiltonian, ctx.estimator, rng)
    return float(0.0 + e_a + e_b)


def resolve_states(theta, ctx: EnsembleContext) -> tuple[float, float]:
    """Eigenvalues of the 2x2 Hamiltonian block spanned by the two evolved
    states, sorted ascending.

    Expectations are taken exactly; the estimator's noise model still applies
    to state preparation.  The cross term z = Tr(H E(|a><b|)) is read from
    the Hermitian parts of |a><b|, (|a><b| + |b><a|)/2 and
    (|a><b| - |b><a|)/(2i), which give Re z and Im z; they are evolved with
    |a><a| and |b><b| as one stack.
    """
    a, b = ctx.phi_a, ctx.phi_b
    initial = np.zeros((4, ctx.hamiltonian.dim, ctx.hamiltonian.dim), dtype=complex)
    initial[0, a, a] = initial[1, b, b] = 1.0
    initial[2, a, b] = initial[2, b, a] = 0.5
    initial[3, a, b], initial[3, b, a] = -0.5j, 0.5j
    rhos = evolve_circuit(initial, ctx.ansatz, theta, ctx.estimator.noise)
    m_aa, m_bb, re_z, im_z = expectation_exact(rhos, ctx.hamiltonian)
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

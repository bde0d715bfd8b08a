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
    pure_state,
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
    to state preparation.  The cross term is recovered from two auxiliary
    superposition preparations via the polarization identity; all four
    preparations are evolved as one stack.
    """
    n = ctx.ansatz.n_qubits
    e_a = np.zeros(2 ** n)
    e_b = np.zeros(2 ** n)
    e_a[ctx.phi_a] = 1.0
    e_b[ctx.phi_b] = 1.0
    preparations = (e_a, e_b, (e_a + e_b) / np.sqrt(2.0), e_a.astype(complex) + 1j * e_b)
    initial = np.stack([pure_state(vec) for vec in preparations])
    rhos = evolve_circuit(initial, ctx.ansatz, theta, ctx.estimator.noise)
    m_aa, m_bb, plus, imag = expectation_exact(rhos, ctx.hamiltonian)

    re_ab = plus - 0.5 * (m_aa + m_bb)
    im_ab = 0.5 * (m_aa + m_bb) - imag
    block = np.array([[m_aa, re_ab + 1j * im_ab], [re_ab - 1j * im_ab, m_bb]])
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

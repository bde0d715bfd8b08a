"""Reference helpers the tests check the simulator against: a state
vector's density matrix, the density-matrix invariants, and a channel
applied one embedded Kraus operator at a time."""
import numpy as np

from vqebench.errors import DimensionError
from vqebench.qsim import embed_operator
from vqebench.qsim.channels import KrausChannel, kraus_sum
from vqebench.qsim.density import n_qubits_of

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGVAL_TOL = 1e-9


def pure_state(vec) -> np.ndarray:
    """Density matrix of a (normalized) state vector."""
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def check_density(rho: np.ndarray) -> None:
    """Raise if rho violates the density-matrix invariants."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise DimensionError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise DimensionError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -EIGVAL_TOL:
        raise DimensionError("density matrix has a negative eigenvalue beyond roundoff")


def apply_channel(rho: np.ndarray, channel: KrausChannel, qubits) -> np.ndarray:
    """Apply a channel on the given qubits of rho (other qubits untouched)."""
    qubits = list(qubits)
    if len(qubits) != channel.arity:
        raise DimensionError(
            f"channel arity {channel.arity} does not match {len(qubits)} target qubits"
        )
    n = n_qubits_of(rho)
    return kraus_sum(rho, [embed_operator(op, qubits, n) for op in channel.operators])

"""Reference helpers the tests check the program against: basis and
state-vector density matrices, each gate's local unitary or Pauli generator
written out entry by entry, an operator embedded on a qubit subset by
permuting tensor axes (a builder independent of the program's Pauli-sum
gates), the density-matrix invariants, purity and partial trace, a rotation
gate's unitary, the noise channels as Kraus sets applied one embedded
operator at a time, and a prediction ellipse's Mahalanobis distance and
coverage."""
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from vqebench.errors import DimensionError, InvalidChannelError, ParameterDomainError
from vqebench.qsim import pauli_string_matrix

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGVAL_TOL = 1e-9
TRACE_PRESERVATION_TOL = 1e-10


def basis_state(index: int, n_qubits: int) -> np.ndarray:
    """Density matrix |index><index| in the computational basis."""
    dim = 2 ** n_qubits
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for {n_qubits} qubits")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


def n_qubits_of(rho: np.ndarray) -> int:
    """Qubit count of a density matrix or of a (k, d, d) stack of them."""
    dim = rho.shape[-1]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


def embed_operator(op: np.ndarray, qubits, n_qubits: int) -> np.ndarray:
    """Embed an operator acting on `qubits` into the full 2^n space by
    permuting tensor axes.  `op` acts on len(qubits) qubits, its tensor slots
    ordered as listed."""
    k = len(qubits)
    if op.shape != (2 ** k, 2 ** k):
        raise DimensionError(f"operator shape {op.shape} does not match {k} qubits")
    if len(set(qubits)) != k or any(not 0 <= q < n_qubits for q in qubits):
        raise DimensionError(f"bad qubit list {qubits} for {n_qubits} qubits")
    rest = [q for q in range(n_qubits) if q not in qubits]
    full = np.kron(op, np.eye(2 ** (n_qubits - k), dtype=complex))
    # Axis i of the tensor currently holds (list(qubits)+rest)[i]; permute so
    # that axis q holds qubit q, for rows and columns alike.
    order = list(qubits) + rest
    perm = [order.index(q) for q in range(n_qubits)]
    t = full.reshape((2,) * (2 * n_qubits))
    t = t.transpose(perm + [n_qubits + p for p in perm])
    return np.ascontiguousarray(t.reshape(2 ** n_qubits, 2 ** n_qubits))


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


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def partial_trace(rho: np.ndarray, keep, n_qubits: int) -> np.ndarray:
    """Reduced density matrix over the `keep` qubits (in the given order)."""
    keep = list(keep)
    t = rho.reshape((2,) * (2 * n_qubits))
    traced = [q for q in range(n_qubits) if q not in keep]
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    # remaining axes are the kept qubits in increasing order
    kept_sorted = sorted(keep)
    perm = [kept_sorted.index(q) for q in keep]
    k = len(keep)
    t = t.transpose(perm + [k + p for p in perm])
    return t.reshape(2 ** k, 2 ** k)


#: The Paulis and each fixed gate's unitary on its own qubits, written out
#: entry by entry (cx: control first).
REF_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}
REF_FIXED_UNITARIES = {
    "x": REF_PAULI["X"],
    "y": REF_PAULI["Y"],
    "z": REF_PAULI["Z"],
    "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
}


def ref_generator(gate) -> np.ndarray:
    """A rotation gate's Pauli generator on its own qubits, as listed."""
    string = gate.pauli_string if gate.kind == "prot" else gate.kind[1]
    generator = np.array([[1.0]])
    for c in string.upper():
        generator = np.kron(generator, REF_PAULI[c])
    return generator.astype(complex)


def rotation(theta: float, generator: np.ndarray) -> np.ndarray:
    """exp(-i theta/2 P) = cos(theta/2) I - i sin(theta/2) P for a Pauli string P."""
    half = theta / 2.0
    identity = np.eye(len(generator), dtype=complex)
    return math.cos(half) * identity - 1j * math.sin(half) * generator


# --- the channels as Kraus sets ----------------------------------------------

@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map rho -> sum_i E_i rho E_i^dag."""

    operators: tuple[np.ndarray, ...]
    arity: int

    def __post_init__(self):
        d = 2 ** self.arity
        acc = np.zeros((d, d), dtype=complex)
        for op in self.operators:
            if op.shape != (d, d):
                raise DimensionError(f"Kraus operator shape {op.shape}, expected {(d, d)}")
            acc += op.conj().T @ op
        if np.max(np.abs(acc - np.eye(d))) > TRACE_PRESERVATION_TOL:
            raise InvalidChannelError("Kraus operators do not sum to identity (not CPTP)")


def kraus_phase_damping(lam: float) -> KrausChannel:
    """Dephasing channel: off-diagonals shrink by sqrt(1 - lam)."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterDomainError(f"dephasing probability {lam} outside [0, 1]")
    e0 = np.diag([1.0, math.sqrt(1.0 - lam)]).astype(complex)
    e1 = np.diag([0.0, math.sqrt(lam)]).astype(complex)
    return KrausChannel((e0, e1), arity=1)


def kraus_depolarizing(p: float, arity: int = 1) -> KrausChannel:
    """Depolarizing channel E(rho) = (1-p) rho + (p/d) I as a Pauli twirl
    over all 4^arity Pauli strings."""
    if not 0.0 <= p <= 1.0:
        raise ParameterDomainError(f"depolarizing probability {p} outside [0, 1]")
    n_paulis = 4 ** arity
    ops = []
    for labels in product("IXYZ", repeat=arity):
        if all(c == "I" for c in labels):
            weight = 1.0 - p + p / n_paulis
        else:
            weight = p / n_paulis
        ops.append(math.sqrt(weight) * pauli_string_matrix("".join(labels)))
    return KrausChannel(tuple(ops), arity=arity)


def kraus_amplitude_damping(gamma: float) -> KrausChannel:
    """Energy relaxation toward |0> with decay probability gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ParameterDomainError(f"damping probability {gamma} outside [0, 1]")
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    e1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((e0, e1), arity=1)


def kraus_thermal_relaxation(t_g: float, t1: float, t2: float) -> KrausChannel:
    """Combined T1/T2 relaxation over a gate of duration t_g (same time units).

    Composition of amplitude damping (gamma = 1 - e^{-t/T1}) with extra pure
    dephasing chosen so the total off-diagonal factor is e^{-t/T2}.  The
    construction requires T2 <= 2*T1; equilibrium is the ground state.
    """
    if t_g <= 0 or t1 <= 0 or t2 <= 0:
        raise ParameterDomainError("t_g, T1 and T2 must all be positive")
    if t2 > 2.0 * t1:
        raise InvalidChannelError(f"T2={t2} exceeds 2*T1={2 * t1}; no valid Kraus set")
    gamma = 1.0 - math.exp(-t_g / t1)
    # total coherence factor e^{-t/T2} = sqrt(1-gamma) * sqrt(1-lam_phi)
    residual = math.exp(-t_g / t2 + t_g / (2.0 * t1))
    lam_phi = 1.0 - min(1.0, residual) ** 2
    amp = kraus_amplitude_damping(gamma)
    deph = kraus_phase_damping(lam_phi)
    ops = []
    for pd_op in deph.operators:
        for ad_op in amp.operators:
            op = pd_op @ ad_op
            if np.max(np.abs(op)) > 0.0:
                ops.append(op)
    return KrausChannel(tuple(ops), arity=1)


def kraus_sum(rho: np.ndarray, ops) -> np.ndarray:
    """sum_i E_i rho E_i^dag for full-space operators E_i; rho may be a
    (k, d, d) stack of states."""
    return sum(op @ rho @ op.conj().T for op in ops)


def apply_channel(rho: np.ndarray, channel: KrausChannel, qubits) -> np.ndarray:
    """Apply a channel on the given qubits of rho (other qubits untouched)."""
    qubits = list(qubits)
    if len(qubits) != channel.arity:
        raise DimensionError(
            f"channel arity {channel.arity} does not match {len(qubits)} target qubits"
        )
    n = n_qubits_of(rho)
    return kraus_sum(rho, [embed_operator(op, qubits, n) for op in channel.operators])


def mahalanobis_sq(ellipse, points: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance of each point from the ellipse's mean."""
    diff = np.atleast_2d(points) - ellipse.mu
    sol = np.linalg.solve(ellipse.sigma, diff.T)
    return np.einsum("ij,ji->i", diff, sol)


def ellipse_contains(ellipse, points: np.ndarray) -> np.ndarray:
    """Which points lie inside the 95% prediction ellipse."""
    return mahalanobis_sq(ellipse, points) <= ellipse.d95_sq

"""Kraus channels: phase damping, depolarizing, thermal relaxation."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ..errors import DimensionError, InvalidChannelError, ParameterDomainError
from .pauli import pauli_string_matrix

TRACE_PRESERVATION_TOL = 1e-10


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
    """Depolarizing channel E(rho) = (1-p) rho + (p/d) I as a Pauli twirl."""
    if not 0.0 <= p <= 1.0:
        raise ParameterDomainError(f"depolarizing probability {p} outside [0, 1]")
    if arity not in (1, 2):
        raise ParameterDomainError(f"depolarizing arity must be 1 or 2, got {arity}")
    d = 2 ** arity
    n_paulis = d * d
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

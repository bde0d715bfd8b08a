"""Noise channels in closed form on a density matrix or a (k, d, d) stack.

Both maps work on a view of rho whose axes split each row and column index
around one qubit's bit, so every 2x2 block of that qubit is addressed at once
(Nielsen & Chuang 8.3; Wood, Biamonte & Cory, arXiv:1111.6950).
"""
from __future__ import annotations

import numpy as np


def _blocks(rho: np.ndarray, qubit: int) -> np.ndarray:
    """rho as (k, 2^q, 2, 2^(n-q-1), 2^q, 2, 2^(n-q-1)): axes 2 and 5 are
    the row and column bit of qubit q (qubit 0 is the most significant)."""
    above = 2 ** qubit
    below = rho.shape[-1] // (2 * above)
    return rho.reshape(-1, above, 2, below, above, 2, below)


def damp(rho: np.ndarray, qubit: int, gamma: float, coherence: float) -> np.ndarray:
    """Amplitude damping by gamma toward |0> with the qubit's off-diagonal
    blocks scaled by coherence: b00 += gamma b11, b11 *= 1 - gamma,
    b01, b10 *= coherence.  Phase damping is gamma = 0, coherence =
    sqrt(1 - lam); thermal relaxation over t is gamma = 1 - e^(-t/T1),
    coherence = e^(-t/T2)."""
    out = rho.copy()
    b = _blocks(out, qubit)
    b[:, :, 0, :, :, 0] += gamma * b[:, :, 1, :, :, 1]
    b[:, :, 1, :, :, 1] *= 1.0 - gamma
    b[:, :, 0, :, :, 1] *= coherence
    b[:, :, 1, :, :, 0] *= coherence
    return out


def depolarize(rho: np.ndarray, qubits, p: float) -> np.ndarray:
    """(1 - p) rho + p Tr_Q(rho) (x) I / 2^k on the k qubits Q.  The
    maximally mixed part replaces one qubit at a time by I/2."""
    mixed = rho
    for qubit in qubits:
        b = _blocks(mixed, qubit)
        replaced = np.zeros_like(b)
        replaced[:, :, 0, :, :, 0] = replaced[:, :, 1, :, :, 1] = 0.5 * (
            b[:, :, 0, :, :, 0] + b[:, :, 1, :, :, 1]
        )
        mixed = replaced.reshape(rho.shape)
    return (1.0 - p) * rho + p * mixed

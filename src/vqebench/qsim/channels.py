"""Noise channels as Pauli transfer matrices on Pauli vectors r_P = Tr(P rho).

Every catalog channel is diagonal in the Pauli basis, except that amplitude
damping also feeds the string with I at its qubit into the same string with
Z there (Greenbaum, arXiv:1509.02921; Nielsen & Chuang 8.3).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .pauli import pauli_digits


class Channel(NamedTuple):
    """r -> s + feed * s[source] with s = scale * r; source and feed are
    None for a diagonal channel."""

    scale: np.ndarray  # (4^n,)
    source: np.ndarray | None  # (4^n,) intp
    feed: np.ndarray | None  # (4^n,), 0 where a string takes no feed


def damp(n_qubits: int, qubit: int, gamma: float, coherence: float) -> Channel:
    """Amplitude damping by gamma toward |0> with the qubit's coherences
    scaled by coherence: X and Y at the qubit scale by coherence, Z by
    1 - gamma, and Z gains gamma times I, which the scaling leaves as it
    is.  Phase damping is gamma = 0, coherence = sqrt(1 - lam); thermal
    relaxation over t is gamma = 1 - e^(-t/T1), coherence = e^(-t/T2)."""
    digits = pauli_digits(n_qubits, qubit)
    scale = np.array([1.0, coherence, coherence, 1.0 - gamma])[digits]
    if not gamma:
        return Channel(scale, None, None)
    source = np.arange(4**n_qubits) & ~(3 << 2 * (n_qubits - 1 - qubit))
    return Channel(scale, source, np.where(digits == 3, gamma, 0.0))


def depolarize(n_qubits: int, qubits, p: float) -> Channel:
    """(1 - p) rho + p Tr_Q(rho) (x) I / 2^k on the k qubits Q: every string
    that is not the identity on Q scales by 1 - p."""
    touched = np.logical_or.reduce([pauli_digits(n_qubits, q) != 0 for q in qubits])
    return Channel(np.where(touched, 1.0 - p, 1.0), None, None)

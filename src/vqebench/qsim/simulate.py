"""Noisy circuit evolution and expectation estimators on Pauli vectors.

A state is its real Pauli vector r_P = Tr(P rho) over the 4^n Pauli
strings, indexed as in `pauli.PAULI_DIGITS`.  Every gate is a product of
rotations exp(-i theta/2 P) (`Gate.rotations`), and a rotation mixes each
string that anticommutes with P with one partner string.  A fixed gate
turns by quarter turns, each a signed permutation of r, so the gate is one
signed permutation, their composition (a Clifford gate: Aaronson &
Gottesman, Phys. Rev. A 70, 052328, 2004).  The channels scale r, damping
adding one Z <- I term.  A circuit under a tuple of noise rules and a
Hamiltonian are each compiled into index tables, anew on every call;
`EnsembleContext` keeps its own.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import DimensionError, ParameterDomainError
from .circuits import Circuit, Gate
from .noise import Channel, EstimatorSpec, NoiseRule
from .pauli import PauliSum, pauli_digits, pauli_index


class _Step(NamedTuple):
    """One gate and the channels after it, over the 4^n Pauli strings.  A
    fixed gate maps r to weight * r[source].  A rotation maps r to
    r * scale * (cos(theta) where turned, else 1) + sin(theta) weight *
    r[source]: a string Q that anticommutes with P turns toward its partner
    source = i P Q, whose sign weight carries (0 where Q commutes).  The
    channels' scalings are folded into weight and scale; tail holds the
    damping feeds and any scaling that cannot move before them."""

    param_index: int | None
    source: np.ndarray  # (4^n,) intp
    weight: np.ndarray  # (4^n,)
    turned: np.ndarray | None  # (4^n,) bool, rotations only
    scale: np.ndarray | None  # (4^n,), rotations only
    tail: tuple[Channel, ...]  # scale None when folded


class Schedule(NamedTuple):
    """A circuit under its noise rules, compiled: what evolving it needs that
    does not depend on theta."""

    n_qubits: int
    n_params: int
    steps: tuple[_Step, ...]


#: PHASE[a, b] = k where sigma_a sigma_b = i^k sigma_(a XOR b), I, X, Y, Z = 0..3
_PHASE = np.array([[0, 0, 0, 0], [0, 0, 1, 3], [0, 3, 0, 1], [0, 1, 3, 0]])


def _rotation_tables(string: str, qubits, n: int):
    """exp(-i theta/2 P) for the Pauli string P on the qubits, over n qubits:
    (partner, sign, turned), a string Q that anticommutes with P (turned)
    turning toward its partner i P Q = sign (P XOR Q)."""
    # P Q = i^phase (P XOR Q), and R^dag Q R = cos(theta) Q + sin(theta) i P Q
    # for a Q that anticommutes with P, which an odd phase marks; there
    # i P Q = i^(1 + phase) (P XOR Q) = (phase - 2) (P XOR Q)
    digits = [(q, pauli_index(c)) for q, c in zip(qubits, string)]
    phase = sum(_PHASE[g, pauli_digits(n, q)] for q, g in digits) % 4
    turned = phase % 2 == 1
    partner = np.arange(4**n) ^ sum(g << 2 * (n - 1 - q) for q, g in digits)
    return partner, np.where(turned, phase - 2.0, 0.0), turned


def _gate_tables(gate: Gate, n: int):
    """The gate's (source, weight, turned) over n qubits, before noise.  A
    fixed gate composes its quarter turns, each a signed permutation: after
    r -> weight * r[source], a turn with tables (s, w) gives source[s] and
    w * weight[s], every weight exactly +-1."""
    if gate.param_index is not None:
        [(string, _)] = gate.rotations()
        return _rotation_tables(string, gate.qubits, n)
    index = np.arange(4**n)
    source, weight = index, np.ones(4**n)
    for string, k in gate.rotations():
        partner, sign, turned = _rotation_tables(string, gate.qubits, n)
        cos, sin = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]
        step_source = np.where(turned, partner, index) if sin else index
        step_weight = np.where(turned, cos + sin * sign, 1.0)
        source, weight = source[step_source], step_weight * weight[step_source]
    return source, weight, None


def _commutes_with_feed(scale: np.ndarray, channel: Channel) -> bool:
    """Whether a scaling commutes with a channel's feed: it scales each
    string that takes a feed as the string that feeds it."""
    return bool(np.all((scale == scale[channel.source]) | (channel.feed == 0)))


def compile_circuit(circuit: Circuit, noise: tuple[NoiseRule, ...] = ()) -> Schedule:
    """The circuit's schedule under the noise rules.  After each gate come
    the channels of every rule whose gates hold the gate's kind, rule by
    rule: the one place where rules are matched to gates."""
    n = circuit.n_qubits
    steps = []
    for gate in circuit.gates:
        source, weight, turned = _gate_tables(gate, n)
        folded, tail = np.ones(4**n), []
        matching = [rule for rule in noise if gate.kind in rule.gates]
        for channel in [c for rule in matching for c in rule.channels(gate, n)]:
            if all(_commutes_with_feed(channel.scale, c) for c in tail if c.feed is not None):
                folded = folded * channel.scale
                channel = channel._replace(scale=None)
            if channel.scale is not None or channel.feed is not None:
                tail.append(channel)
        scale = None if turned is None else folded
        steps.append(_Step(gate.param_index, source, weight * folded, turned, scale, tuple(tail)))
    return Schedule(n, circuit.n_params, tuple(steps))


def evolve_circuit(r0: np.ndarray, schedule: Schedule, theta: np.ndarray) -> np.ndarray:
    """Apply the compiled circuit's gates in order, each followed by its
    noise channels.  r0 is a (k, 4^n) stack of Pauli vectors and theta an
    (m, p) stack of parameter vectors; the result is (m, k, 4^n), slice j
    the whole of r0 evolved under row j.  A non-finite theta gives NaN
    states."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != schedule.n_params:
        raise DimensionError(
            f"expected an (m, {schedule.n_params}) parameter stack, got shape {theta.shape}"
        )
    size = 4**schedule.n_qubits
    if r0.ndim != 2 or r0.shape[1] != size:
        raise DimensionError(
            f"expected a (k, {size}) Pauli-vector stack for the circuit's"
            f" {schedule.n_qubits} qubits, got shape {r0.shape}"
        )
    # one (m, 1, 1) factor per parameter, broadcast over the stack; each
    # rotation builds its own (m, 1, 4^n) weights, so memory stays a few
    # copies of the evolved stack however many rotations there are
    with np.errstate(invalid="ignore"):
        cosines, sines = np.cos(theta.T[:, :, None, None]), np.sin(theta.T[:, :, None, None])
    r = r0
    for step in schedule.steps:
        if step.param_index is None:
            r = r.take(step.source, axis=-1) * step.weight
        else:
            j = step.param_index
            r = r * (np.where(step.turned, cosines[j], 1.0) * step.scale) + (
                r.take(step.source, axis=-1) * step.weight * sines[j]
            )
        for scale, source, feed in step.tail:
            if scale is not None:
                r = r * scale
            if feed is not None:
                r = r + r.take(source, axis=-1) * feed
    if r.ndim == 2:  # no rotation gate has added the m axis
        r = np.repeat(r[None], len(theta), axis=0)
    return r


class Readout(NamedTuple):
    """What measuring a Hamiltonian needs that does not depend on the state."""

    index: np.ndarray  # (T,) Pauli-vector indices of the measured (non-identity) terms
    weights: np.ndarray  # (4^n,) each string's coefficient, the identity's at 0


def compile_readout(hamiltonian: PauliSum) -> Readout:
    """The Hamiltonian's readout.  `PauliSum` merges repeated strings, so
    each index holds one coefficient."""
    index = np.array([pauli_index(string) for _, string in hamiltonian], dtype=np.intp)
    weights = np.zeros(4**hamiltonian.n_qubits)
    weights[index] = [coeff for coeff, _ in hamiltonian]
    return Readout(index[index != 0], weights)


def _check_states(r: np.ndarray, readout: Readout) -> None:
    size = len(readout.weights)
    if r.ndim != 2 or r.shape[1] != size:
        raise DimensionError(
            f"expected a (k, {size}) Pauli-vector stack for the Hamiltonian, got shape {r.shape}"
        )


def expectation_exact(r: np.ndarray, readout: Readout) -> np.ndarray:
    """Tr(rho H) = constant * Tr(rho) + sum_t c_t Tr(P_t rho): one value per
    state of a (k, 4^n) stack.  Each row is summed on its own, in one order,
    so it equals that state read as a stack of one bit for bit."""
    _check_states(r, readout)
    return (r * readout.weights).sum(axis=-1)


def expectation_shots(
    r: np.ndarray,
    readout: Readout,
    n_m: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Shot-based estimate, one value per state of a (k, 4^n) stack: each
    non-identity Pauli term P is measured with n_m shots, X ~ Binomial(n_m,
    (1 + <P>) / 2) of them +1, and estimated as 2X/n_m - 1; identity terms
    contribute exactly.  The one `rng.binomial` call draws what measuring
    the states as stacks of one in turn would.  A state with non-finite
    probabilities (NaN entries, zero trace) gives NaN and draws nothing."""
    if n_m < 1:
        raise ParameterDomainError(f"shot count must be >= 1, got {n_m}")
    _check_states(r, readout)
    with np.errstate(divide="ignore", invalid="ignore"):  # x/0 for a zero-trace state
        p_plus = (1.0 + r.take(readout.index, axis=1) / r[:, :1]) / 2.0
    lost = ~np.isfinite(p_plus)
    counts = rng.binomial(n_m, np.where(lost, 0.0, p_plus).clip(0.0, 1.0))
    estimates = np.where(lost, np.nan, 2.0 * counts / n_m - 1.0)
    return readout.weights[0] + (estimates * readout.weights[readout.index]).sum(axis=-1)


def expectation(
    r: np.ndarray,
    readout: Readout,
    spec: EstimatorSpec,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Expectation under an estimator spec (rng required in shots mode), one
    value per state of a (k, 4^n) stack."""
    if spec.mode == "exact":
        return expectation_exact(r, readout)
    if rng is None:
        raise ParameterDomainError("shot-based estimation requires an rng")
    return expectation_shots(r, readout, spec.n_m, rng)

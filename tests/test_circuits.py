import math

import numpy as np
import pytest
import scipy.linalg

from oracles import pure_state, rotation
from vqebench.errors import DimensionError, ParameterDomainError
from vqebench.qsim import Circuit, Gate, evolve_circuit, parse_circuit, pauli_string_matrix


def test_gate_durations_default():
    assert Gate("h", (0,)).duration_ns == 50.0
    assert Gate("cx", (0, 1)).duration_ns == 150.0
    assert Gate("prot", (0, 1), param_index=0, pauli_string="XY").duration_ns == 150.0


def _evolved(gate, theta, rho):
    """rho after the one-gate circuit of a rotation gate at parameter theta."""
    circuit = Circuit(n_qubits=rho.shape[0].bit_length() - 1, gates=(gate,), n_params=1)
    return evolve_circuit(rho, circuit, np.array([theta]))


def test_rz_unitary():
    gate = Gate("rz", (0,), param_index=0)
    u = rotation(math.pi, gate.generator())
    assert np.allclose(u, np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)]))
    rho = pure_state([1.0, 1.0j])
    assert np.allclose(_evolved(gate, math.pi, rho), u @ rho @ u.conj().T)


def test_ry_unitary_rotates_zero_to_one():
    gate = Gate("ry", (0,), param_index=0)
    vec = rotation(math.pi, gate.generator()) @ np.array([1.0, 0.0])
    assert abs(vec[1]) == pytest.approx(1.0)
    assert _evolved(gate, math.pi, pure_state([1.0, 0.0]))[1, 1].real == pytest.approx(1.0)


def test_prot_unitary_matches_exponential(rng):
    gate = Gate("prot", (0, 1), param_index=0, pauli_string="XY")
    theta = 0.83
    p = pauli_string_matrix("XY")
    u = rotation(theta, gate.generator())
    assert np.allclose(u, scipy.linalg.expm(-0.5j * theta * p))
    rho = pure_state(rng.normal(size=4) + 1j * rng.normal(size=4))
    assert np.allclose(_evolved(gate, theta, rho), u @ rho @ u.conj().T)


def test_unitary_serves_fixed_gates_only():
    assert np.array_equal(Gate("cx", (0, 1)).unitary()[2:, 2:], [[0, 1], [1, 0]])
    with pytest.raises(ParameterDomainError):
        Gate("rz", (0,), param_index=0).unitary()


def test_prot_requires_matching_string_length():
    with pytest.raises(ParameterDomainError):
        Gate("prot", (0,), param_index=0, pauli_string="XY")


def test_parametric_gate_requires_index():
    with pytest.raises(ParameterDomainError):
        Gate("rx", (0,))
    with pytest.raises(ParameterDomainError):
        Gate("h", (0,), param_index=0)


def test_cx_arity():
    with pytest.raises(ParameterDomainError):
        Gate("cx", (0,))


def test_parse_circuit_example():
    circ = parse_circuit("ry 0 t0\nry 1 t1\ncx 0 1\nprot XY t2 0 1\n")
    assert circ.n_qubits == 2
    assert circ.n_params == 3
    assert [g.kind for g in circ.gates] == ["ry", "ry", "cx", "prot"]


def test_parse_circuit_comments():
    circ = parse_circuit("# header\nh 0\n\nx 1  # flip\n")
    assert len(circ.gates) == 2
    assert circ.n_params == 0


def test_parse_circuit_bad_line():
    with pytest.raises(ParameterDomainError):
        parse_circuit("ry zero t0\n")


def test_circuit_rejects_unreferenced_params():
    gates = (Gate("ry", (0,), param_index=1),)
    with pytest.raises(ParameterDomainError):
        Circuit(n_qubits=1, gates=gates, n_params=2)


def test_circuit_rejects_out_of_range_qubit():
    with pytest.raises(DimensionError):
        Circuit(n_qubits=1, gates=(Gate("x", (1,)),), n_params=0)

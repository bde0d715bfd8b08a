import math
from itertools import permutations, product

import numpy as np
import pytest
import scipy.linalg

from oracles import REF_FIXED_UNITARIES, embed_operator, pure_state, ref_generator, rotation
from vqebench.errors import DimensionError, ParameterDomainError
from vqebench.qsim import Circuit, Gate, evolve_circuit, parse_circuit, pauli_string_matrix
from vqebench.qsim.circuits import PARAMETRIC_KINDS, SINGLE_QUBIT_KINDS


def test_gate_durations_default():
    assert Gate("h", (0,)).duration_ns == 50.0
    assert Gate("cx", (0, 1)).duration_ns == 150.0
    assert Gate("prot", (0, 1), param_index=0, pauli_string="XY").duration_ns == 150.0


def _evolved(gate, theta, rho):
    """rho after the one-gate circuit of a rotation gate at parameter theta."""
    circuit = Circuit(n_qubits=rho.shape[0].bit_length() - 1, gates=(gate,))
    return evolve_circuit(rho[None], circuit, np.array([[theta]]))[0, 0]


def test_rz_unitary():
    gate = Gate("rz", (0,), param_index=0)
    u = rotation(math.pi, gate.operator(1))
    assert np.allclose(u, np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)]))
    rho = pure_state([1.0, 1.0j])
    assert np.allclose(_evolved(gate, math.pi, rho), u @ rho @ u.conj().T)


def test_ry_unitary_rotates_zero_to_one():
    gate = Gate("ry", (0,), param_index=0)
    vec = rotation(math.pi, gate.operator(1)) @ np.array([1.0, 0.0])
    assert abs(vec[1]) == pytest.approx(1.0)
    assert _evolved(gate, math.pi, pure_state([1.0, 0.0]))[1, 1].real == pytest.approx(1.0)


def test_prot_unitary_matches_exponential(rng):
    gate = Gate("prot", (0, 1), param_index=0, pauli_string="XY")
    theta = 0.83
    p = pauli_string_matrix("XY")
    u = rotation(theta, gate.operator(2))
    assert np.allclose(u, scipy.linalg.expm(-0.5j * theta * p))
    rho = pure_state(rng.normal(size=4) + 1j * rng.normal(size=4))
    assert np.allclose(_evolved(gate, theta, rho), u @ rho @ u.conj().T)


def test_operator_is_a_fixed_gates_unitary_or_a_rotations_generator():
    assert np.array_equal(Gate("cx", (0, 1)).operator(2)[2:, 2:], [[0, 1], [1, 0]])
    assert np.array_equal(Gate("rz", (0,), param_index=0).operator(1), np.diag([1, -1]))
    lower = Gate("prot", (2, 0), param_index=0, pauli_string="xz")
    assert np.array_equal(lower.operator(3), pauli_string_matrix("ZIX"))
    with pytest.raises(DimensionError):
        Gate("x", (2,)).operator(2)


def _placements(n):
    """Every gate on n qubits: each kind on each qubit or ordered qubit
    tuple, and prot with every Pauli string on every ordered tuple."""
    for kind in sorted(SINGLE_QUBIT_KINDS):
        for q in range(n):
            yield Gate(kind, (q,), param_index=0 if kind in PARAMETRIC_KINDS else None)
    for qubits in permutations(range(n), 2):
        yield Gate("cx", qubits)
    for k in range(1, n + 1):
        for qubits in permutations(range(n), k):
            for string in product("IXYZ", repeat=k):
                yield Gate("prot", qubits, param_index=0, pauli_string="".join(string))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operator_equals_the_embedded_local_operator_on_every_placement(n):
    for gate in _placements(n):
        local = REF_FIXED_UNITARIES.get(gate.kind)
        local = ref_generator(gate) if local is None else local.astype(complex)
        assert np.array_equal(gate.operator(n), embed_operator(local, gate.qubits, n)), gate



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


@pytest.mark.parametrize(
    "line, cause",
    [
        ("rzz 0 1 t1", "unknown gate kind 'rzz'"),
        ("prot XY t0 0", "prot Pauli string length must match the number of target qubits"),
        ("rx 0 t-1", "negative parameter index t-1"),
        ("ry 0 tx", "expected a parameter token t<index>, got 'tx'"),
        ("prot", "missing fields"),
    ],
)
def test_parse_circuit_names_why_a_gate_is_rejected(line, cause):
    with pytest.raises(ParameterDomainError) as info:
        parse_circuit(f"h 0\n{line}\n")
    assert str(info.value) == f"line 2: cannot parse gate {line!r}: {cause}"


def test_circuit_rejects_unreferenced_params():
    gates = (Gate("ry", (0,), param_index=1),)
    with pytest.raises(ParameterDomainError, match=r"unreferenced parameter indices: \[0\]"):
        Circuit(n_qubits=1, gates=gates)


def test_circuit_n_params_is_one_past_the_highest_index():
    gates = (Gate("ry", (0,), param_index=2), Gate("rx", (0,), param_index=0),
             Gate("rz", (0,), param_index=1), Gate("ry", (0,), param_index=2))
    assert Circuit(n_qubits=1, gates=gates).n_params == 3
    assert Circuit(n_qubits=1, gates=(Gate("h", (0,)),)).n_params == 0


def test_negative_parameter_index_rejected():
    with pytest.raises(ParameterDomainError, match="negative parameter index t-1"):
        Gate("rx", (0,), param_index=-1)
    with pytest.raises(ParameterDomainError, match="line 2"):
        parse_circuit("ry 0 t0\nrx 0 t-1\n")


def test_circuit_rejects_out_of_range_qubit():
    with pytest.raises(DimensionError):
        Circuit(n_qubits=1, gates=(Gate("x", (1,)),))
    with pytest.raises(DimensionError):
        Circuit(n_qubits=2, gates=(Gate("x", (-1,)),))

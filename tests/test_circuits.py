import math
from itertools import permutations, product

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    REF_FIXED_UNITARIES,
    embed_operator,
    from_pauli,
    pure_state,
    ref_generator,
    rotation,
)
from vqebench.errors import DimensionError, ParameterDomainError
from vqebench.qsim import (
    Circuit,
    Gate,
    PauliSum,
    compile_circuit,
    evolve_circuit,
    parse_circuit,
    pauli_string_matrix,
    to_pauli,
)
from vqebench.qsim.circuits import PARAMETRIC_KINDS, SINGLE_QUBIT_KINDS


def test_gate_durations_default():
    assert Gate("h", (0,)).duration_ns == 50.0
    assert Gate("cx", (0, 1)).duration_ns == 150.0
    assert Gate("prot", (0, 1), param_index=0, pauli_string="XY").duration_ns == 150.0


def _evolved(gate, theta, rho):
    """rho after the one-gate circuit of a rotation gate at parameter theta."""
    circuit = Circuit(n_qubits=rho.shape[0].bit_length() - 1, gates=(gate,))
    r = evolve_circuit(to_pauli(rho[None]), compile_circuit(circuit), np.array([[theta]]))[0]
    return from_pauli(r)[0]


def _local_matrix(gate):
    """The matrix of the gate's Pauli terms on its own qubits."""
    return PauliSum.from_terms(gate.local_terms()).to_matrix()


def test_rz_unitary():
    gate = Gate("rz", (0,), param_index=0)
    u = rotation(math.pi, _local_matrix(gate))
    assert np.allclose(u, np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)]))
    rho = pure_state([1.0, 1.0j])
    assert np.allclose(_evolved(gate, math.pi, rho), u @ rho @ u.conj().T)


def test_ry_unitary_rotates_zero_to_one():
    gate = Gate("ry", (0,), param_index=0)
    vec = rotation(math.pi, _local_matrix(gate)) @ np.array([1.0, 0.0])
    assert abs(vec[1]) == pytest.approx(1.0)
    assert _evolved(gate, math.pi, pure_state([1.0, 0.0]))[1, 1].real == pytest.approx(1.0)


def test_prot_unitary_matches_exponential(rng):
    gate = Gate("prot", (0, 1), param_index=0, pauli_string="XY")
    theta = 0.83
    p = pauli_string_matrix("XY")
    u = rotation(theta, _local_matrix(gate))
    assert np.allclose(u, scipy.linalg.expm(-0.5j * theta * p))
    rho = pure_state(rng.normal(size=4) + 1j * rng.normal(size=4))
    assert np.allclose(_evolved(gate, theta, rho), u @ rho @ u.conj().T)


def test_local_terms_are_a_fixed_gates_unitary_or_a_rotations_generator():
    assert np.array_equal(_local_matrix(Gate("cx", (0, 1)))[2:, 2:], [[0, 1], [1, 0]])
    assert np.array_equal(_local_matrix(Gate("rz", (0,), param_index=0)), np.diag([1, -1]))
    lower = Gate("prot", (2, 0), param_index=0, pauli_string="xz")
    assert lower.local_terms() == ((1.0, "XZ"),)
    assert np.array_equal(_local_matrix(lower), pauli_string_matrix("XZ"))
    with pytest.raises(DimensionError):
        Circuit(2, (Gate("x", (2,)),))


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
def test_gate_tables_equal_the_embedded_local_operator_on_every_placement(n, rng):
    """Each gate's Pauli tables act on a state as U rho U^dag does, U the
    reference unitary embedded by permuting tensor axes: the local table is
    lifted to the gate's qubits in the order listed."""
    a = rng.normal(size=(2, 2**n, 2**n)) + 1j * rng.normal(size=(2, 2**n, 2**n))
    stack = a @ a.conj().swapaxes(1, 2)
    r0 = to_pauli(stack)
    theta = 0.7
    for gate in _placements(n):
        local = REF_FIXED_UNITARIES.get(gate.kind)
        local = rotation(theta, ref_generator(gate)) if local is None else local.astype(complex)
        u = embed_operator(local, gate.qubits, n)
        schedule = compile_circuit(Circuit(n, (gate,)))
        got = evolve_circuit(r0, schedule, np.full((1, schedule.n_params), theta))[0]
        want = to_pauli(u @ stack @ u.conj().T)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)), gate



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

import math

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    REF_FIXED_UNITARIES,
    embed_operator,
    from_pauli,
    placements,
    pure_state,
    ref_generator,
    rotation,
)
from vqebench.errors import DimensionError, ParameterDomainError
from vqebench.qsim import (
    Circuit,
    Gate,
    compile_circuit,
    evolve_circuit,
    parse_circuit,
    pauli_string_matrix,
    to_pauli,
)


def _evolved(gate, theta, rho):
    """rho after the one-gate circuit of a rotation gate at parameter theta."""
    circuit = Circuit(n_qubits=rho.shape[0].bit_length() - 1, gates=(gate,))
    r = evolve_circuit(to_pauli(rho[None]), compile_circuit(circuit), np.array([[theta]]))[0]
    return from_pauli(r)[0]


def test_rz_unitary():
    gate = Gate("rz", (0,), param_index=0)
    u = rotation(math.pi, ref_generator(gate))
    assert np.allclose(u, np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)]))
    rho = pure_state([1.0, 1.0j])
    assert np.allclose(_evolved(gate, math.pi, rho), u @ rho @ u.conj().T)


def test_ry_unitary_rotates_zero_to_one():
    gate = Gate("ry", (0,), param_index=0)
    vec = rotation(math.pi, ref_generator(gate)) @ np.array([1.0, 0.0])
    assert abs(vec[1]) == pytest.approx(1.0)
    assert _evolved(gate, math.pi, pure_state([1.0, 0.0]))[1, 1].real == pytest.approx(1.0)


def test_prot_unitary_matches_exponential(rng):
    gate = Gate("prot", (0, 1), param_index=0, pauli_string="XY")
    theta = 0.83
    p = pauli_string_matrix("XY")
    u = rotation(theta, ref_generator(gate))
    assert np.allclose(u, scipy.linalg.expm(-0.5j * theta * p))
    rho = pure_state(rng.normal(size=4) + 1j * rng.normal(size=4))
    assert np.allclose(_evolved(gate, theta, rho), u @ rho @ u.conj().T)


def test_rotations_list_a_rotation_gates_generator():
    assert Gate("rz", (0,), param_index=0).rotations() == (("Z", None),)
    assert np.array_equal(ref_generator(Gate("rz", (0,), param_index=0)), np.diag([1, -1]))
    lower = Gate("prot", (2, 0), param_index=0, pauli_string="xz")
    assert lower.rotations() == (("XZ", None),)
    assert np.array_equal(ref_generator(lower), pauli_string_matrix("XZ"))
    with pytest.raises(DimensionError):
        Circuit(2, (Gate("x", (2,)),))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gate_tables_equal_the_embedded_local_operator_on_every_placement(n, rng):
    """Each gate's Pauli tables act on a state as U rho U^dag does, U the
    reference unitary embedded by permuting tensor axes: the rotations are
    lifted to the gate's qubits in the order listed.  A fixed gate's tables
    are a signed permutation."""
    a = rng.normal(size=(2, 2**n, 2**n)) + 1j * rng.normal(size=(2, 2**n, 2**n))
    stack = a @ a.conj().swapaxes(1, 2)
    r0 = to_pauli(stack)
    theta = 0.7
    for gate in placements(n):
        local = REF_FIXED_UNITARIES.get(gate.kind)
        local = rotation(theta, ref_generator(gate)) if local is None else local.astype(complex)
        u = embed_operator(local, gate.qubits, n)
        schedule = compile_circuit(Circuit(n, (gate,)))
        got = evolve_circuit(r0, schedule, np.full((1, schedule.n_params), theta))[0]
        want = to_pauli(u @ stack @ u.conj().T)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)), gate
        if gate.param_index is None:
            [step] = schedule.steps
            assert np.array_equal(np.sort(step.source), np.arange(4**n)), gate
            assert np.all(np.abs(step.weight) == 1.0), gate


def test_prot_requires_matching_string_length():
    with pytest.raises(ParameterDomainError):
        Gate("prot", (0,), param_index=0, pauli_string="XY")
    for string in (5, b"X", ("X",), None, ""):
        with pytest.raises(ParameterDomainError, match="prot gate requires a Pauli string"):
            Gate("prot", (0,), param_index=0, pauli_string=string)


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


def test_unreferenced_parameter_message_lists_the_first_few():
    with pytest.raises(ParameterDomainError) as info:
        parse_circuit("ry 0 t3000000")
    assert len(str(info.value)) < 200
    assert str(info.value) == "unreferenced parameter indices: [0, 1, 2, 3, 4] and 2999995 more"
    gates = tuple(Gate("ry", (0,), param_index=i) for i in (10, 3, 1))
    with pytest.raises(ParameterDomainError, match=r"\[0, 2, 4, 5, 6\] and 3 more$"):
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


def test_circuit_rejects_a_negative_qubit_count():
    with pytest.raises(ParameterDomainError, match="negative qubit count -1"):
        Circuit(-1, ())
    # the empty circuit text has no qubits
    assert parse_circuit("").n_qubits == 0
    assert Circuit(0, ()).n_params == 0


def test_circuit_rejects_out_of_range_qubit():
    with pytest.raises(DimensionError):
        Circuit(n_qubits=1, gates=(Gate("x", (1,)),))
    with pytest.raises(DimensionError):
        Circuit(n_qubits=2, gates=(Gate("x", (-1,)),))

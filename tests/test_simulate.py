import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from vqebench.ensemble import EnsembleContext, resolve_states, sa_cost
from vqebench.errors import DimensionError, ParameterDomainError
from vqebench.qsim import (
    Circuit,
    EstimatorSpec,
    Gate,
    NoiseRule,
    PauliSum,
    compile_circuit,
    compile_readout,
    evolve_circuit,
    expectation,
    expectation_exact,
    expectation_shots,
    parse_circuit,
    pauli_index,
    pauli_string_matrix,
    to_pauli,
)
from vqebench.harness.catalog import family_catalog
from vqebench.qsim import circuits, simulate
from vqebench.qsim.circuits import GATE_KINDS, PARAMETRIC_KINDS

from oracles import (
    REF_FIXED_UNITARIES,
    basis_state,
    check_density,
    from_pauli,
    gate_ns,
    kraus_depolarizing,
    kraus_phase_damping,
    kraus_thermal_relaxation,
    pure_state,
    purity,
    ref_pauli_string,
    reference_evolution,
    rotation,
)


def _random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _paulis(*rhos):
    """The (k, 4^n) Pauli vectors of k density matrices."""
    return to_pauli(np.stack(rhos))


def _evolve(r0, circuit, theta, noise=()):
    """A Pauli-vector stack evolved under a parameter stack."""
    return evolve_circuit(r0, compile_circuit(circuit, noise), theta)


def _evolve_one(rho, circuit, theta, noise=()):
    """One density matrix under one parameter vector, as stacks of one."""
    theta = np.asarray(theta, dtype=float)[None]
    return from_pauli(_evolve(_paulis(rho), circuit, theta, noise)[0])[0]


def _read(r, hamiltonian):
    return expectation_exact(r, compile_readout(hamiltonian))


def _shots(r, hamiltonian, n_m, rng):
    return expectation_shots(r, compile_readout(hamiltonian), n_m, rng)


def test_empty_circuit_identity():
    rho = basis_state(0, 1)
    circ = Circuit(n_qubits=1, gates=())
    assert np.allclose(_evolve_one(rho, circ, []), rho)


def test_rz_pi_on_plus_gives_minus():
    plus = pure_state([1.0, 1.0])
    circ = parse_circuit("rz 0 t0", n_qubits=1)
    out = _evolve_one(plus, circ, [math.pi])
    minus = pure_state([1.0, -1.0])
    assert np.allclose(out, minus, atol=1e-10)


def test_noise_applied_after_matching_gate():
    plus = pure_state([1.0, 1.0])
    circ = parse_circuit("rz 0 t0", n_qubits=1)
    noise = (NoiseRule(frozenset({"rz"}), "phase_damping", lam=0.2),)
    out = _evolve_one(plus, circ, [0.0], noise)
    assert abs(out[0, 1]) == pytest.approx(0.5 * math.sqrt(0.8), abs=1e-12)


def test_noise_rule_skips_unmatched_gates():
    plus = pure_state([1.0, 1.0])
    circ = parse_circuit("h 0\nh 0", n_qubits=1)
    noise = (NoiseRule(frozenset({"rz"}), "phase_damping", lam=0.9),)
    out = _evolve_one(plus, circ, [], noise)
    assert np.allclose(out, plus, atol=1e-12)


def test_depolarizing_noise_uses_gate_arity():
    rho = basis_state(0, 2)
    circ = parse_circuit("cx 0 1", n_qubits=2)
    noise = (NoiseRule(frozenset({"cx"}), "depolarizing", p=1.0),)
    out = _evolve_one(rho, circ, [], noise)
    assert np.allclose(out, np.eye(4) / 4.0, atol=1e-10)


def test_noiseless_evolution_preserves_purity(toy_circuit):
    rho = basis_state(1, 2)
    out = _evolve_one(rho, toy_circuit, [0.3, -1.1, 0.7])
    assert purity(out) == pytest.approx(1.0, abs=1e-9)
    check_density(out)


def test_noisy_evolution_preserves_density_invariants(toy_circuit):
    noise = (
        NoiseRule(frozenset({"ry", "cx", "prot"}), "thermal_relaxation", t1_ns=300.0, t2_ns=200.0),
    )
    out = _evolve_one(basis_state(0, 2), toy_circuit, [0.5, 0.5, 0.5], noise)
    check_density(out)


def test_parameter_length_mismatch(toy_circuit):
    with pytest.raises(DimensionError):
        _evolve(_paulis(basis_state(0, 2)), toy_circuit, np.zeros((1, 2)))


# --- the Pauli basis -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_to_pauli_and_from_pauli_round_trip(n, rng):
    """to_pauli is r_P = Tr(P rho) string by string, and the oracle's
    from_pauli inverts it, on density matrices and traceless operators."""
    stack = _hermitian_stack(rng, n, 6)
    r = to_pauli(stack)
    assert r.shape == (6, 4**n) and r.dtype == float
    strings = ["".join(s) for s in product("IXYZ", repeat=n)]
    assert [pauli_index(s) for s in strings] == list(range(4**n))
    want = [[np.trace(pauli_string_matrix(s) @ op).real for s in strings] for op in stack]
    assert np.max(np.abs(r - want)) < 1e-13
    assert np.max(np.abs(from_pauli(r) - stack)) < 1e-14
    vectors = rng.normal(size=(3, 4**n))
    assert np.max(np.abs(to_pauli(from_pauli(vectors)) - vectors)) < 1e-13
    with pytest.raises(DimensionError):
        to_pauli(stack[0])


@pytest.mark.parametrize("kind", sorted(GATE_KINDS - PARAMETRIC_KINDS))
def test_fixed_gate_rotations_multiply_to_the_reference_unitary(kind):
    """A fixed gate's quarter turns exp(-i k pi/4 P), applied in the order
    listed, multiply out to its reference unitary up to one global phase."""
    want = REF_FIXED_UNITARIES[kind].astype(complex)
    u = np.eye(len(want), dtype=complex)
    for string, k in circuits._ROTATIONS[kind]:
        u = rotation(k * math.pi / 2, ref_pauli_string(string)) @ u
    phase = np.vdot(want, u) / len(want)
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.max(np.abs(u - phase * want)) < 1e-12


def test_compiling_builds_no_dense_matrix():
    # a fresh process, so that making every dense builder raise touches no
    # other test: every placement on up to 3 qubits compiles under each
    # catalog family's noise
    code = (
        "from vqebench.harness.catalog import family_catalog\n"
        "from vqebench.qsim import Circuit, PauliSum, compile_circuit, pauli\n"
        "from oracles import placements\n"
        "def dense(*args):\n"
        "    raise AssertionError('a dense matrix was built')\n"
        "PauliSum.to_matrix = pauli.pauli_string_matrix = dense\n"
        "models = {f.estimator.noise for f in family_catalog()}\n"
        "for n in (1, 2, 3):\n"
        "    for gate in placements(n):\n"
        "        for noise in models:\n"
        "            compile_circuit(Circuit(n, (gate,)), noise)\n"
    )
    src = Path(simulate.__file__).parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# --- expectations ----------------------------------------------------------

def test_expectation_exact_trivial():
    z = PauliSum.from_terms([(1.0, "Z")])
    x = PauliSum.from_terms([(1.0, "X")])
    zero = _paulis(basis_state(0, 1))
    assert _read(zero, z) == pytest.approx([1.0])
    assert _read(zero, x) == pytest.approx([0.0])


def test_expectation_exact_dense_oracle(rng):
    h = PauliSum.from_terms([(0.5, "ZZ"), (0.25, "XI")])
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    # independent dense construction
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    dense = 0.5 * np.kron(z, z) + 0.25 * np.kron(x, np.eye(2))
    assert _read(_paulis(rho), h) == pytest.approx([np.real(np.trace(rho @ dense))], abs=1e-12)
    # every size, on density matrices and traceless Hermitian operators, with
    # identity terms and with an identity-only Hamiltonian
    for n in _TABLE_STRINGS:
        stack = _hermitian_stack(rng, n, 8)
        for ham in _readout_hamiltonians(rng, n):
            got = _read(to_pauli(stack), ham)
            want = [np.trace(op @ ham.to_matrix()).real for op in stack]
            scale = sum(abs(c) for c, _ in ham)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (n, ham)
    # a NaN state gives NaN, and the rest of its stack reads as if alone
    lost = np.full(16, np.nan)
    assert math.isnan(_read(lost[None], h)[0])
    got = _read(np.stack([lost, to_pauli(rho[None])[0]]), h)
    assert math.isnan(got[0]) and got[1] == _read(_paulis(rho), h)[0]


def test_expectation_exact_dimension_mismatch():
    with pytest.raises(DimensionError):
        _read(_paulis(basis_state(0, 1)), PauliSum.from_terms([(1.0, "ZZ")]))


def test_expectation_shots_deterministic_outcome():
    z = PauliSum.from_terms([(1.0, "Z")])
    got = _shots(_paulis(basis_state(0, 1)), z, 64, np.random.default_rng(0))
    assert got == pytest.approx([1.0])


def test_expectation_shots_identity_term_exact():
    h = PauliSum.from_terms([(0.75, "II")])
    got = _shots(_paulis(basis_state(2, 2)), h, 1, np.random.default_rng(0))
    assert got == pytest.approx([0.75])


def test_expectation_shots_seed_determinism():
    plus = _paulis(pure_state([1.0, 1.0]))
    h = PauliSum.from_terms([(1.0, "Z")])
    a = _shots(plus, h, 128, np.random.default_rng(7))
    b = _shots(plus, h, 128, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_expectation_shots_x_on_zero_variance():
    # <X> = 0 on |0>: the estimator is a mean of n_m fair +-1 draws
    h = PauliSum.from_terms([(1.0, "X")])
    zero = _paulis(basis_state(0, 1))
    rng = np.random.default_rng(3)
    draws = np.concatenate([_shots(zero, h, 256, rng) for _ in range(400)])
    assert abs(draws.mean()) < 5.0 / (16.0 * math.sqrt(400))
    assert draws.std() == pytest.approx(1.0 / 16.0, rel=0.2)


def test_expectation_shots_y_basis():
    # |+i> state has <Y> = +1 exactly
    plus_i = _paulis(pure_state([1.0, 1j]))
    h = PauliSum.from_terms([(1.0, "Y")])
    got = _shots(plus_i, h, 32, np.random.default_rng(0))
    assert got == pytest.approx([1.0])


def _hermitian_stack(rng, n, k):
    """k operators on n qubits, cycling through a density matrix and the
    traceless Hermitian operators resolve_states evolves: (|a><b| + |b><a|)/2,
    (|a><b| - |b><a|)/(2i) and a random traceless Hermitian one."""
    d = 2 ** n
    a, b = rng.choice(d, size=2, replace=False)
    re_cross, im_cross = np.zeros((2, d, d), dtype=complex)
    re_cross[a, b] = re_cross[b, a] = 0.5
    im_cross[a, b], im_cross[b, a] = -0.5j, 0.5j

    def traceless():
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        g = (g + g.conj().T) / 2.0
        return g - np.trace(g) / d * np.eye(d)

    makers = (lambda: _random_density(rng, d), lambda: re_cross, lambda: im_cross, traceless)
    return np.stack([makers[i % 4]() for i in range(k)])


def _readout_hamiltonians(rng, n):
    """A Hamiltonian of _TABLE_STRINGS[n] with random coefficients and an
    identity term, and an identity-only one."""
    strings = _TABLE_STRINGS[n]
    terms = list(zip(rng.normal(size=len(strings)).tolist(), strings))
    return [
        PauliSum.from_terms([*terms, (0.3, "I" * n)]),
        PauliSum.from_terms([(-0.35, "I" * n)]),
    ]


def test_expectation_exact_stack_matches_per_state(rng):
    """A stack reads as its stacks of one do, bit for bit, whatever its size:
    each row is summed on its own, in one order."""
    for n in _TABLE_STRINGS:
        for k in (2, 3, 64):
            stack = to_pauli(_hermitian_stack(rng, n, k))
            for h in _readout_hamiltonians(rng, n):
                got = _read(stack, h)
                singles = np.concatenate([_read(r[None], h) for r in stack])
                assert got.shape == singles.shape == (k,)
                assert np.array_equal(got, singles), (n, k, h)


def test_expectation_dispatch():
    z = PauliSum.from_terms([(1.0, "Z")])
    zero, z = _paulis(basis_state(0, 1)), compile_readout(z)
    assert expectation(zero, z, EstimatorSpec()) == pytest.approx([1.0])
    got = expectation(zero, z, EstimatorSpec(n_m=16), np.random.default_rng(0))
    assert got == pytest.approx([1.0])
    with pytest.raises(ParameterDomainError):
        expectation(zero, z, EstimatorSpec(n_m=16))


def test_estimator_spec_validation():
    assert EstimatorSpec().mode == "exact"
    assert EstimatorSpec(n_m=np.int64(8)).mode == "shots"
    for n_m in (0, 2.5, 256.0, True, "256"):
        with pytest.raises(ParameterDomainError):
            EstimatorSpec(n_m=n_m)
    # a context keeps the schedule compiled from noise, so a list, which
    # could change under it, is refused here, not inside a run
    rule = NoiseRule(frozenset({"rz"}), "phase_damping", lam=0.1)
    for noise in ([rule], rule, ("x",), None):
        with pytest.raises(ParameterDomainError, match="noise must be a tuple of NoiseRule"):
            EstimatorSpec(256, noise)


def test_mutable_parts_are_refused_where_they_are_built():
    """A context keeps the schedule compiled from a circuit and its noise
    rules, so parts that could change under it are refused when built, not
    left to drift from the compiled schedule."""
    builds = [
        lambda: Gate("x", [0]),
        lambda: Circuit(1, [Gate("x", (0,))]),
        lambda: Circuit(1, ("x 0",)),
        lambda: NoiseRule({"rz"}, "phase_damping", lam=0.1),
        lambda: NoiseRule(["rz"], "phase_damping", lam=0.1),
    ]
    for build in builds:
        with pytest.raises(ParameterDomainError, match="must be a"):
            build()


# --- reference evolution over every gate kind ------------------------------

#: Every gate kind on three qubits, multi-qubit targets out of order.
_ALL_KINDS_CIRCUIT = """
x 0
y 1
z 2
h 0
rx 1 t0
ry 2 t1
rz 0 t2
cx 2 0
prot XZ t3 2 1
prot YX t4 0 2
"""
_1Q = frozenset({"x", "y", "z", "h", "rx", "ry", "rz"})
_ALL = _1Q | {"cx", "prot"}


def _per_qubit(make):
    return lambda gate: [(make(gate), (q,)) for q in gate.qubits]


def _whole_gate(make):
    return lambda gate: [(make(gate), gate.qubits)]


#: rule -> the channels it must attach after each gate it matches
_NOISE_CASES = {
    "ideal": (None, None),
    "phase_damping": (
        NoiseRule(frozenset({"rx", "rz", "cx", "prot"}), "phase_damping", lam=0.3),
        _per_qubit(lambda g: kraus_phase_damping(0.3)),
    ),
    "depolarizing_1q": (
        NoiseRule(_1Q, "depolarizing", p=0.2),
        _whole_gate(lambda g: kraus_depolarizing(0.2, 1)),
    ),
    "depolarizing_2q": (
        NoiseRule(frozenset({"cx", "prot"}), "depolarizing", p=0.4),
        _whole_gate(lambda g: kraus_depolarizing(0.4, 2)),
    ),
    "thermal_relaxation": (
        NoiseRule(_ALL, "thermal_relaxation", t1_ns=300.0, t2_ns=200.0),
        _per_qubit(lambda g: kraus_thermal_relaxation(gate_ns(g), 300.0, 200.0)),
    ),
}


@pytest.mark.parametrize("case", sorted(_NOISE_CASES))
def test_evolution_matches_reference_on_every_gate_kind(case, rng):
    rule, attach = _NOISE_CASES[case]
    noise = () if rule is None else (rule,)
    circuit = parse_circuit(_ALL_KINDS_CIRCUIT, n_qubits=3)
    assert {g.kind for g in circuit.gates} == _ALL
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho0 = a @ a.conj().T / np.trace(a @ a.conj().T)
    for _ in range(3):
        theta = rng.uniform(-math.pi, math.pi, size=circuit.n_params)
        got = _evolve_one(rho0, circuit, theta, noise)
        want = reference_evolution(rho0, circuit, theta, rule, attach)
        assert np.max(np.abs(got - want)) < 1e-12


#: sha256 of every step's tables, with no noise and under each catalog
#: family's noise in catalog order; a change that moves one declares why
SCHEDULE_SHA256 = {
    "toy": "0537f758061fcc0d457287869c23060da599b5330b940d57a715bda4599803e4",
    "all_kinds": "b23cce0c12773dc563ab6beee3a29efe6b04efc8e843d8dfab234a672a100744",
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_SHA256))
def test_schedules_pinned(name, toy_circuit):
    circuit = toy_circuit if name == "toy" else parse_circuit(_ALL_KINDS_CIRCUIT, n_qubits=3)
    models = [()] + [f.estimator.noise for f in family_catalog() if f.estimator.noise]
    digest = hashlib.sha256()
    for noise in models:
        for step in compile_circuit(circuit, noise).steps:
            tail = [table for channel in step.tail for table in channel]
            for table in (step.source, step.weight, step.turned, step.scale, *tail):
                digest.update(b"-" if table is None else table.dtype.str.encode() + table.tobytes())
    assert digest.hexdigest() == SCHEDULE_SHA256[name]


def test_channels_built_once_per_circuit_and_noise_model(monkeypatch, toy_hamiltonian, toy_circuit):
    calls = []
    channels = NoiseRule.channels

    def counting(rule, gate, n_qubits):
        calls.append(len(gate.qubits))
        return channels(rule, gate, n_qubits)

    noise = (NoiseRule(frozenset({"ry", "cx"}), "depolarizing", p=0.0123),)
    monkeypatch.setattr(NoiseRule, "channels", counting)
    ctx = EnsembleContext(toy_hamiltonian, toy_circuit, 0, 1, EstimatorSpec(noise=noise))
    for theta in np.linspace(-1.0, 1.0, 15).reshape(5, 3):
        sa_cost(theta[None], ctx)
        resolve_states(theta, ctx)
    matched = [len(g.qubits) for g in toy_circuit.gates if g.kind in {"ry", "cx"}]
    assert calls == matched == [1, 1, 2]


@pytest.mark.parametrize("case", sorted(_NOISE_CASES))
def test_stacked_evolution_equals_per_state(case, rng):
    rule, _ = _NOISE_CASES[case]
    noise = () if rule is None else (rule,)
    circuit = parse_circuit(_ALL_KINDS_CIRCUIT, n_qubits=3)
    stack = _paulis(*(_random_density(rng, 8) for _ in range(3)))
    for _ in range(3):
        theta = rng.uniform(-math.pi, math.pi, size=(1, circuit.n_params))
        got = _evolve(stack, circuit, theta, noise)
        assert got.shape == (1, *stack.shape)
        for r, want in zip(stack, got[0]):
            assert np.array_equal(_evolve(r[None], circuit, theta, noise)[0, 0], want)


def _wide_circuit(n):
    """A few gates of every arity that reach the first, middle and last qubit."""
    lines = ["ry 0 t0", f"rz {n - 1} t1", f"h {n // 2}", f"rx {n // 2} t2"]
    if n > 1:
        lines += [f"cx 0 {n - 1}", f"prot XY t3 {n - 1} 0"]
    return parse_circuit("\n".join(lines), n_qubits=n)


@pytest.mark.parametrize("case", sorted(_NOISE_CASES))
def test_parameter_stack_equals_one_vector_at_a_time(case, rng):
    # each slice of a stacked evolution is the evolution under that row as a
    # stack of one, bit for bit: the exact estimator's golden rows pin the
    # summation order of this path
    rule, _ = _NOISE_CASES[case]
    noise = () if rule is None else (rule,)
    for n in range(1, 9):
        circuit = _wide_circuit(n)
        thetas = rng.uniform(-math.pi, math.pi, size=(2, circuit.n_params))
        pair = _paulis(basis_state(0, n), basis_state(2**n - 1, n))
        for r0 in (_paulis(_random_density(rng, 2**n)), pair):
            got = _evolve(r0, circuit, thetas, noise)
            assert got.shape == (2, *r0.shape)
            for theta, want in zip(thetas, got):
                assert np.array_equal(_evolve(r0, circuit, theta[None], noise)[0], want), n


def test_parameter_stack_memory_does_not_grow_with_rotation_count():
    # a gradient-sized stack (m = 2 * n_params) at n = 8, where one Pauli
    # vector is 512 KiB: each gate builds only its own rotation weights, so
    # the peak, the schedule's build included, stays a few copies of the
    # (m, 1, 4^n) result however many rotations there are
    n = 8
    circuit = parse_circuit(
        "\n".join([f"ry {q} t{q}" for q in range(n)] + ["cx 0 7"]), n_qubits=n
    )
    thetas = np.random.default_rng(3).uniform(-math.pi, math.pi, size=(2 * n, n))
    r0 = _paulis(basis_state(0, n))
    tracemalloc.start()
    try:
        got = _evolve(r0, circuit, thetas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == (2 * n, 1, 4**n)
    assert peak <= 6 * got.nbytes
    for i in (0, 2 * n - 1):
        assert np.array_equal(_evolve(r0, circuit, thetas[i : i + 1])[0], got[i])


def test_parameter_stack_shape_is_checked(toy_circuit):
    r0 = _paulis(basis_state(0, 2))
    for m in (0, 1, 2):
        assert _evolve(r0, toy_circuit, np.zeros((m, 3))).shape == (m, 1, 16)
    for shape in [(3,), (2, 2), (2, 4), (1, 2, 3)]:
        with pytest.raises(DimensionError):
            _evolve(r0, toy_circuit, np.zeros(shape))


# --- shot readout: one binomial draw per state and term ----------------------

def _per_term_estimator(rho, hamiltonian, n_m, rng):
    """One state, term by term: <P> from the dense Pauli matrix and one scalar
    rng.binomial draw of the shots that read +1; the reference for the
    stacked readout."""
    total = 0.0
    for coeff, string in hamiltonian:
        if set(string) == {"I"}:
            total += coeff
            continue
        value = np.trace(pauli_string_matrix(string) @ rho).real / np.trace(rho).real
        plus = rng.binomial(n_m, min(max((1.0 + value) / 2.0, 0.0), 1.0))
        total += coeff * (2.0 * plus / n_m - 1.0)
    return total


#: X, Y, Z and identity terms, the identity between measured terms
_READOUT_HAMILTONIANS = {
    1: [(0.7, "X"), (-0.2, "I"), (0.3, "Y"), (-1.1, "Z")],
    2: [(0.5, "XY"), (0.25, "ZI"), (-0.75, "II"), (0.4, "YY"), (-0.6, "IX"), (1.5, "ZZ")],
    3: [(0.3, "XIZ"), (-0.9, "III"), (0.2, "YXY"), (0.8, "ZZI"), (-0.45, "IYX")],
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_m", [1, 7, 256, 6144])
@pytest.mark.parametrize("k", [1, 2])
def test_stacked_shots_equal_per_term_choice(n, n_m, k):
    """A (k, 4^n) stack gives the values and the rng state of measuring its
    states as stacks of one in turn, and of the per-term reference draws."""
    gen = np.random.default_rng(100 * n + k)
    d = 2 ** n
    hamiltonians = [
        PauliSum.from_terms(_READOUT_HAMILTONIANS[n]),
        PauliSum.from_terms([(-0.35, "I" * n)]),
    ]
    # random mixed states, and basis states whose outcomes are certain or fair
    states = [np.stack([_random_density(gen, d) for _ in range(k)])]
    states.append(np.stack([basis_state(i, n) for i in range(k)]))
    for h in hamiltonians:
        for stack in states:
            ours, one, ref = (np.random.default_rng(n_m) for _ in range(3))
            got = _shots(to_pauli(stack), h, n_m, ours)
            singles = np.concatenate([_shots(to_pauli(rho[None]), h, n_m, one) for rho in stack])
            want = [_per_term_estimator(rho, h, n_m, ref) for rho in stack]
            assert got.shape == singles.shape == (k,)
            assert np.array_equal(got, singles)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            assert ours.random() == one.random() == ref.random()


#: Every letter on 1 to 8 qubits (the simulator's limit), Y-heavy strings
_TABLE_STRINGS = {
    1: ["X", "Y", "Z"],
    2: ["XY", "YY", "ZX", "IY", "YZ"],
    3: ["YYY", "XIZ", "ZYX", "IYI"],
    4: ["YYYY", "XYZI", "IZYY"],
    5: ["YYYYY", "XYZIY", "ZZIXX", "IIIIY"],
    6: ["YYYYYY", "ZXYIYZ", "XXXXXX"],
    7: ["YYYYYYY", "IYXZYIY", "ZIIIIIZ"],
    8: ["YYYYYYYY", "XYZIYXZY", "ZZZZZZZZ", "IXIYIZIY", "YIIIIIIX"],
}


@pytest.mark.parametrize("n", sorted(_TABLE_STRINGS))
def test_readout_table_expectations_match_dense_trace(n, rng):
    strings = _TABLE_STRINGS[n] + ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(4)]
    strings = [s for s in dict.fromkeys(strings) if set(s) != {"I"}]
    h = PauliSum.from_terms([(1.0, s) for s in strings])
    plan = compile_readout(h)
    stack = np.stack([_random_density(rng, 2 ** n) for _ in range(2)])
    got = to_pauli(stack)[:, plan.index]
    for t, (_, string) in enumerate(h):
        want = [np.trace(pauli_string_matrix(string) @ rho) for rho in stack]
        assert np.max(np.abs(got[:, t] - want)) < 1e-13


@pytest.mark.parametrize("string", ["Z", "XY", "YZY", "YYX"])
def test_shot_estimate_mean_and_variance(string):
    """Each term's estimate is unbiased with variance (1 - <P>^2) / n_m."""
    rng = np.random.default_rng(2024)
    n, n_m, reps = len(string), 64, 20000
    rho = _random_density(rng, 2 ** n)
    mean = np.trace(pauli_string_matrix(string) @ rho).real
    variance = (1.0 - mean ** 2) / n_m
    # one stack of identical states: reps independent estimates in one call
    stack = np.broadcast_to(to_pauli(rho[None]), (reps, 4**n))
    draws = _shots(stack, PauliSum.from_terms([(1.0, string)]), n_m, rng)
    assert abs(draws.mean() - mean) < 5.0 * math.sqrt(variance / reps)
    assert draws.var() == pytest.approx(variance, rel=0.05)


def test_readout_table_built_once(monkeypatch, rng):
    built = []
    table = simulate.Readout

    def counting(*args, **kwargs):
        built.append(1)
        return table(*args, **kwargs)

    monkeypatch.setattr("vqebench.qsim.simulate.Readout", counting)
    h = PauliSum.from_terms(
        [(0.3, "XYX"), (0.2, "YXY"), (0.1, "XXZ"), (0.4, "YYI"), (0.5, "ZXY"), (-0.2, "III")]
    )
    circuit = parse_circuit("ry 0 t0\ncx 0 1\nprot XY t1 1 2", n_qubits=3)
    ctx = EnsembleContext(h, circuit, 0, 5, EstimatorSpec(n_m=64))
    for _ in range(20):
        thetas = rng.uniform(-math.pi, math.pi, size=(2, circuit.n_params))
        sa_cost(thetas, ctx, rng)
        sa_cost(thetas[:1], ctx, rng)
        resolve_states(thetas[0], ctx)
    assert len(built) == 1


def test_probability_rounded_out_of_range_is_clipped():
    """Roundoff can put (1 + r_P/r_I)/2 just above 1 or below 0, where
    rng.binomial would raise."""
    h = PauliSum.from_terms([(1.0, "ZI"), (0.5, "ZZ")])
    zi, zz = pauli_index("ZI"), pauli_index("ZZ")
    up, down = np.zeros((2, 16))
    up[[0, zi, zz]] = 1.0, 1.0 + 4e-16, 1.0
    down[[0, zi, zz]] = 1.0, -1.0 - 4e-16, -1.0

    def p_plus(r):
        return [(1.0 + r[pauli_index(s)] / r[0]) / 2.0 for _, s in h]

    assert max(p_plus(up)) > 1.0 and min(p_plus(down)) < 0.0
    got = _shots(np.stack([up, down]), h, 128, np.random.default_rng(0))
    assert got.tolist() == [1.5, -1.5]


# --- non-finite states --------------------------------------------------------

def test_expectation_shots_nan_state_gives_nan():
    z = PauliSum.from_terms([(1.0, "Z"), (0.5, "X")])
    rng = np.random.default_rng(0)
    assert math.isnan(_shots(np.full((1, 4), np.nan), z, 16, rng)[0])
    assert math.isnan(_shots(np.zeros((1, 4)), z, 16, rng)[0])
    # zero trace, nonzero <X>: an infinite ratio
    assert math.isnan(_shots(np.array([[0.0, 2.0, 0.0, 0.0]]), z, 16, rng)[0])
    zero = _paulis(basis_state(0, 1))
    stack = np.concatenate([np.full((1, 4), np.nan), zero])
    got = _shots(stack, z, 16, rng)
    assert math.isnan(got[0]) and np.isfinite(got[1])
    # a lost state draws nothing: the rest of the stack reads as if measured alone
    alone = np.random.default_rng(0)
    assert got[1] == _shots(zero, z, 16, alone)[0]
    assert rng.random() == alone.random()


def test_nan_state_in_session_is_a_cost_evaluation_error(toy_hamiltonian, toy_circuit):
    from vqebench.ensemble import EnsembleContext, sa_cost
    from vqebench.errors import CostEvaluationError
    from vqebench.optimizers.session import CostSession

    ctx = EnsembleContext(
        toy_hamiltonian, toy_circuit, 0, 1, EstimatorSpec(n_m=64)
    )
    rng = np.random.default_rng(0)
    session = CostSession(lambda thetas: sa_cost(thetas, ctx, rng))
    assert np.isfinite(session.many(np.zeros((1, 3)))[0])
    with pytest.raises(CostEvaluationError):
        session.many(np.full((1, 3), np.nan))
    assert session.n_evals == 1


@pytest.mark.parametrize("n_m", [None, 64])
def test_non_finite_theta_gives_nan_without_warnings(toy_hamiltonian, toy_circuit, n_m):
    """cos and sin of an infinite angle are NaN; under filterwarnings =
    error a RuntimeWarning would be an exception, so none may be issued on
    the way to the NaN cost and the session's CostEvaluationError."""
    from vqebench.ensemble import EnsembleContext, sa_cost
    from vqebench.errors import CostEvaluationError
    from vqebench.optimizers.session import CostSession

    ctx = EnsembleContext(toy_hamiltonian, toy_circuit, 0, 1, EstimatorSpec(n_m=n_m))
    rng = np.random.default_rng(0)
    for value in (np.inf, -np.inf, np.nan):
        thetas = np.array([[0.1, value, 0.3], [0.1, 0.2, 0.3]])
        costs = sa_cost(thetas, ctx, rng)
        assert math.isnan(costs[0]) and np.isfinite(costs[1])
    session = CostSession(lambda thetas: sa_cost(thetas, ctx, rng))
    with pytest.raises(CostEvaluationError):
        session.many(np.full((1, 3), np.inf))

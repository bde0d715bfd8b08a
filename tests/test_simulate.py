import math

import numpy as np
import pytest
import scipy.linalg

from vqebench.errors import DimensionError, ParameterDomainError
from vqebench.qsim import (
    Circuit,
    EstimatorSpec,
    Gate,
    NoiseModel,
    NoiseRule,
    PauliSum,
    basis_state,
    check_density,
    embed_operator,
    evolve_circuit,
    expectation,
    expectation_exact,
    expectation_shots,
    kraus_depolarizing,
    kraus_phase_damping,
    kraus_thermal_relaxation,
    parse_circuit,
    pauli_string_matrix,
    pure_state,
    purity,
)
from vqebench.qsim import simulate


def _random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_empty_circuit_identity():
    rho = basis_state(0, 1)
    circ = Circuit(n_qubits=1, gates=(), n_params=0)
    assert np.allclose(evolve_circuit(rho, circ, np.array([])), rho)


def test_rz_pi_on_plus_gives_minus():
    plus = pure_state([1.0, 1.0])
    circ = parse_circuit("rz 0 t0", n_qubits=1)
    out = evolve_circuit(plus, circ, np.array([math.pi]))
    minus = pure_state([1.0, -1.0])
    assert np.allclose(out, minus, atol=1e-10)


def test_noise_applied_after_matching_gate():
    plus = pure_state([1.0, 1.0])
    circ = parse_circuit("rz 0 t0", n_qubits=1)
    noise = NoiseModel((NoiseRule(frozenset({"rz"}), "phase_damping", lam=0.2),))
    out = evolve_circuit(plus, circ, np.array([0.0]), noise)
    assert abs(out[0, 1]) == pytest.approx(0.5 * math.sqrt(0.8), abs=1e-12)


def test_noise_rule_skips_unmatched_gates():
    plus = pure_state([1.0, 1.0])
    circ = parse_circuit("h 0\nh 0", n_qubits=1)
    noise = NoiseModel((NoiseRule(frozenset({"rz"}), "phase_damping", lam=0.9),))
    out = evolve_circuit(plus, circ, np.array([]), noise)
    assert np.allclose(out, plus, atol=1e-12)


def test_depolarizing_noise_uses_gate_arity():
    rho = basis_state(0, 2)
    circ = parse_circuit("cx 0 1", n_qubits=2)
    noise = NoiseModel((NoiseRule(frozenset({"cx"}), "depolarizing", p=1.0),))
    out = evolve_circuit(rho, circ, np.array([]), noise)
    assert np.allclose(out, np.eye(4) / 4.0, atol=1e-10)


def test_noiseless_evolution_preserves_purity(toy_circuit):
    rho = basis_state(1, 2)
    out = evolve_circuit(rho, toy_circuit, np.array([0.3, -1.1, 0.7]))
    assert purity(out) == pytest.approx(1.0, abs=1e-9)
    check_density(out)


def test_noisy_evolution_preserves_density_invariants(toy_circuit):
    noise = NoiseModel(
        (
            NoiseRule(
                frozenset({"ry", "cx", "prot"}),
                "thermal_relaxation",
                t1_ns=300.0,
                t2_ns=200.0,
            ),
        )
    )
    out = evolve_circuit(basis_state(0, 2), toy_circuit, np.array([0.5, 0.5, 0.5]), noise)
    check_density(out)


def test_parameter_length_mismatch(toy_circuit):
    with pytest.raises(DimensionError):
        evolve_circuit(basis_state(0, 2), toy_circuit, np.zeros(2))


# --- expectations ----------------------------------------------------------

def test_expectation_exact_trivial():
    z = PauliSum.from_terms([(1.0, "Z")])
    x = PauliSum.from_terms([(1.0, "X")])
    zero = basis_state(0, 1)
    assert expectation_exact(zero, z) == pytest.approx(1.0)
    assert expectation_exact(zero, x) == pytest.approx(0.0)


def test_expectation_exact_dense_oracle(rng):
    h = PauliSum.from_terms([(0.5, "ZZ"), (0.25, "XI")])
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    # independent dense construction
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    dense = 0.5 * np.kron(z, z) + 0.25 * np.kron(x, np.eye(2))
    assert expectation_exact(rho, h) == pytest.approx(
        float(np.real(np.trace(rho @ dense))), abs=1e-12
    )


def test_expectation_exact_dimension_mismatch():
    with pytest.raises(DimensionError):
        expectation_exact(basis_state(0, 1), PauliSum.from_terms([(1.0, "ZZ")]))


def test_expectation_shots_deterministic_outcome():
    z = PauliSum.from_terms([(1.0, "Z")])
    got = expectation_shots(basis_state(0, 1), z, 64, np.random.default_rng(0))
    assert got == pytest.approx(1.0)


def test_expectation_shots_identity_term_exact():
    h = PauliSum.from_terms([(0.75, "II")])
    got = expectation_shots(basis_state(2, 2), h, 1, np.random.default_rng(0))
    assert got == pytest.approx(0.75)


def test_expectation_shots_seed_determinism():
    plus = pure_state([1.0, 1.0])
    h = PauliSum.from_terms([(1.0, "Z")])
    a = expectation_shots(plus, h, 128, np.random.default_rng(7))
    b = expectation_shots(plus, h, 128, np.random.default_rng(7))
    assert a == b


def test_expectation_shots_x_on_zero_variance():
    # <X> = 0 on |0>: the estimator is a mean of n_m fair +-1 draws
    h = PauliSum.from_terms([(1.0, "X")])
    zero = basis_state(0, 1)
    rng = np.random.default_rng(3)
    draws = np.array([expectation_shots(zero, h, 256, rng) for _ in range(400)])
    assert abs(draws.mean()) < 5.0 / (16.0 * math.sqrt(400))
    assert draws.std() == pytest.approx(1.0 / 16.0, rel=0.2)


def test_expectation_shots_y_basis():
    # |+i> state has <Y> = +1 exactly
    plus_i = pure_state([1.0, 1j])
    h = PauliSum.from_terms([(1.0, "Y")])
    got = expectation_shots(plus_i, h, 32, np.random.default_rng(0))
    assert got == pytest.approx(1.0)


def test_expectation_exact_stack_matches_per_state(rng):
    h = PauliSum.from_terms([(0.5, "ZZ"), (0.25, "XI"), (-0.4, "YX"), (0.1, "II")])
    stack = np.stack([_random_density(rng, 4) for _ in range(3)])
    got = expectation_exact(stack, h)
    assert got.shape == (3,)
    assert all(got[i] == expectation_exact(stack[i], h) for i in range(3))


def test_expectation_dispatch():
    z = PauliSum.from_terms([(1.0, "Z")])
    zero = basis_state(0, 1)
    assert expectation(zero, z, EstimatorSpec()) == pytest.approx(1.0)
    got = expectation(zero, z, EstimatorSpec(n_m=16), np.random.default_rng(0))
    assert got == pytest.approx(1.0)
    with pytest.raises(ParameterDomainError):
        expectation(zero, z, EstimatorSpec(n_m=16))


def test_estimator_spec_validation():
    assert EstimatorSpec().mode == "exact"
    assert EstimatorSpec(n_m=np.int64(8)).mode == "shots"
    for n_m in (0, 2.5, 256.0, True, "256"):
        with pytest.raises(ParameterDomainError):
            EstimatorSpec(n_m=n_m)


# --- reference evolution over every gate kind ------------------------------

_REF_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}
_REF_FIXED = {
    "x": _REF_PAULI["X"],
    "y": _REF_PAULI["Y"],
    "z": _REF_PAULI["Z"],
    "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
}
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
        _per_qubit(lambda g: kraus_thermal_relaxation(g.duration_ns, 300.0, 200.0)),
    ),
}


def _reference_evolution(rho, circuit, theta, rule, attach):
    """Gate by gate: the embedded unitary (expm of the Pauli generator for
    rotations), then sum_i E_i rho E_i^dag for each attached channel."""
    n = circuit.n_qubits
    for gate in circuit.gates:
        if gate.kind in _REF_FIXED:
            local = _REF_FIXED[gate.kind].astype(complex)
        else:
            string = gate.pauli_string if gate.kind == "prot" else gate.kind[1].upper()
            generator = np.array([[1.0]])
            for c in string:
                generator = np.kron(generator, _REF_PAULI[c])
            local = scipy.linalg.expm(-0.5j * theta[gate.param_index] * generator)
        u = embed_operator(local, gate.qubits, n)
        rho = u @ rho @ u.conj().T
        if rule is None or gate.kind not in rule.gates:
            continue
        for channel, qubits in attach(gate):
            full = [embed_operator(op, qubits, n) for op in channel.operators]
            rho = sum(e @ rho @ e.conj().T for e in full)
    return rho


@pytest.mark.parametrize("case", sorted(_NOISE_CASES))
def test_evolution_matches_reference_on_every_gate_kind(case, rng):
    rule, attach = _NOISE_CASES[case]
    noise = None if rule is None else NoiseModel((rule,))
    circuit = parse_circuit(_ALL_KINDS_CIRCUIT, n_qubits=3)
    assert {g.kind for g in circuit.gates} == _ALL
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho0 = a @ a.conj().T / np.trace(a @ a.conj().T)
    for _ in range(3):
        theta = rng.uniform(-math.pi, math.pi, size=circuit.n_params)
        got = evolve_circuit(rho0, circuit, theta, noise)
        want = _reference_evolution(rho0, circuit, theta, rule, attach)
        assert np.max(np.abs(got - want)) < 1e-12


def test_channels_built_once_per_circuit_and_noise_model(monkeypatch, toy_circuit):
    calls = []

    def counting(p, arity=1):
        calls.append(arity)
        return kraus_depolarizing(p, arity)

    # a model no other test builds, so the simulator has not seen it yet; the
    # rule builds one channel to check p, before the count starts
    noise = NoiseModel((NoiseRule(frozenset({"ry", "cx"}), "depolarizing", p=0.0123),))
    monkeypatch.setattr("vqebench.qsim.noise.kraus_depolarizing", counting)
    for theta in np.linspace(-1.0, 1.0, 15).reshape(5, 3):
        evolve_circuit(basis_state(0, 2), toy_circuit, theta, noise)
    matched = [len(g.qubits) for g in toy_circuit.gates if g.kind in {"ry", "cx"}]
    assert calls == matched == [1, 1, 2]


@pytest.mark.parametrize("case", sorted(_NOISE_CASES))
def test_stacked_evolution_equals_per_state(case, rng):
    rule, _ = _NOISE_CASES[case]
    noise = None if rule is None else NoiseModel((rule,))
    circuit = parse_circuit(_ALL_KINDS_CIRCUIT, n_qubits=3)
    stack = np.stack([_random_density(rng, 8) for _ in range(3)])
    for _ in range(3):
        theta = rng.uniform(-math.pi, math.pi, size=circuit.n_params)
        got = evolve_circuit(stack, circuit, theta, noise)
        assert got.shape == stack.shape
        for rho, want in zip(stack, got):
            assert np.array_equal(evolve_circuit(rho, circuit, theta, noise), want)


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
    """A (k, d, d) stack gives the values and the rng state of measuring its
    states one at a time, and of the per-term reference draws."""
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
            got = expectation_shots(stack, h, n_m, ours)
            singles = [expectation_shots(rho, h, n_m, one) for rho in stack]
            want = [_per_term_estimator(rho, h, n_m, ref) for rho in stack]
            assert got.shape == (k,)
            assert all(isinstance(v, float) for v in singles)
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
    plan = simulate._readout(h)
    stack = np.stack([_random_density(rng, 2 ** n) for _ in range(2)])
    got = (stack[:, plan.flips, np.arange(h.dim)] * plan.phases).sum(axis=-1)
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
    stack = np.broadcast_to(rho, (reps, *rho.shape))
    draws = expectation_shots(stack, PauliSum.from_terms([(1.0, string)]), n_m, rng)
    assert abs(draws.mean() - mean) < 5.0 * math.sqrt(variance / reps)
    assert draws.var() == pytest.approx(variance, rel=0.05)


def test_readout_table_built_once(monkeypatch, rng):
    built = []
    table = simulate._Readout

    def counting(*args, **kwargs):
        built.append(1)
        return table(*args, **kwargs)

    monkeypatch.setattr("vqebench.qsim.simulate._Readout", counting)
    simulate._readout.cache_clear()
    h = PauliSum.from_terms(
        [(0.3, "XYX"), (0.2, "YXY"), (0.1, "XXZ"), (0.4, "YYI"), (0.5, "ZXY"), (-0.2, "III")]
    )
    stack = np.stack([_random_density(rng, 8) for _ in range(2)])
    for _ in range(20):
        expectation_shots(stack, h, 64, rng)
        expectation_shots(stack[0], h, 64, rng)
        expectation_exact(stack, h)
    assert len(built) == 1


def test_probability_rounded_out_of_range_is_clipped():
    """Roundoff can put (1 + <P>/Tr rho)/2 just above 1 or below 0, where
    rng.binomial would raise."""
    h = PauliSum.from_terms([(1.0, "ZI"), (0.5, "ZZ")])
    up = np.diag([1.0, -1e-15, -1e-15, 1e-15]).astype(complex)
    down = np.diag([-1e-15, 1e-15, 1.0, -1e-15]).astype(complex)

    def p_plus(rho):
        return [(1.0 + np.trace(pauli_string_matrix(s) @ rho).real / np.trace(rho).real) / 2.0
                for _, s in h]

    assert max(p_plus(up)) > 1.0 and min(p_plus(down)) < 0.0
    got = expectation_shots(np.stack([up, down]), h, 128, np.random.default_rng(0))
    assert got.tolist() == [1.5, -1.5]


# --- non-finite states --------------------------------------------------------

def test_expectation_shots_nan_state_gives_nan():
    z = PauliSum.from_terms([(1.0, "Z"), (0.5, "X")])
    rng = np.random.default_rng(0)
    assert math.isnan(expectation_shots(np.full((2, 2), np.nan + 0j), z, 16, rng))
    assert math.isnan(expectation_shots(np.zeros((2, 2), dtype=complex), z, 16, rng))
    # zero trace, nonzero <X>: an infinite ratio
    assert math.isnan(expectation_shots(np.array([[0, 1], [1, 0]], dtype=complex), z, 16, rng))
    stack = np.stack([np.full((2, 2), np.nan + 0j), basis_state(0, 1)])
    got = expectation_shots(stack, z, 16, rng)
    assert math.isnan(got[0]) and np.isfinite(got[1])
    # a lost state draws nothing: the rest of the stack reads as if measured alone
    alone = np.random.default_rng(0)
    assert got[1] == expectation_shots(basis_state(0, 1), z, 16, alone)
    assert rng.random() == alone.random()


def test_nan_state_in_session_is_a_cost_evaluation_error(toy_hamiltonian, toy_circuit):
    from vqebench.ensemble import EnsembleContext, sa_cost
    from vqebench.errors import CostEvaluationError
    from vqebench.optimizers.session import CostSession

    ctx = EnsembleContext(
        toy_hamiltonian, toy_circuit, 0, 1, EstimatorSpec(n_m=64)
    )
    rng = np.random.default_rng(0)
    session = CostSession(lambda theta: sa_cost(theta, ctx, rng))
    assert np.isfinite(session(np.zeros(3)))
    with pytest.raises(CostEvaluationError):
        session(np.full(3, np.nan))
    assert session.n_evals == 1

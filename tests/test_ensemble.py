from dataclasses import replace

import numpy as np
import pytest

from vqebench.ensemble import (
    EnsembleContext,
    reference_energies,
    resolve_states,
    sa_cost,
)
from vqebench.errors import CapacityError, DimensionError, ParameterDomainError
from vqebench.harness import lookup_family
from vqebench.qsim import (
    Circuit,
    EstimatorSpec,
    Gate,
    PauliSum,
    compile_circuit,
    compile_readout,
    evolve_circuit,
    expectation,
    expectation_exact,
    expectation_shots,
    parse_circuit,
    to_pauli,
)

from oracles import basis_state, kraus_attach, pure_state, reference_evolution

# Reference eigenvalues of -ZI - IZ + 0.5 XX, computed by dense 4x4
# diagonalization: e0 = -sqrt(4 + 0.25), e1 = -0.5.
TOY_E0 = -2.0615528128088303
TOY_E1 = -0.5


def test_reference_energies_single_z():
    ref = reference_energies(PauliSum.from_terms([(1.0, "Z")]))
    assert ref.e0 == pytest.approx(-1.0)
    assert ref.e1 == pytest.approx(1.0)
    assert ref.e0 + ref.e1 == pytest.approx(0.0)


def test_reference_energies_toy(toy_reference):
    assert toy_reference.e0 == pytest.approx(TOY_E0, abs=1e-12)
    assert toy_reference.e1 == pytest.approx(TOY_E1, abs=1e-12)


def test_reference_energies_scaling(toy_hamiltonian, toy_reference):
    scaled = PauliSum.from_terms([(3.0 * c, s) for c, s in toy_hamiltonian])
    ref = reference_energies(scaled)
    assert ref.e0 == pytest.approx(3.0 * toy_reference.e0)
    assert ref.e1 == pytest.approx(3.0 * toy_reference.e1)


def test_reference_energies_random_oracle(rng):
    for _ in range(5):
        strings = ["".join(rng.choice(list("IXYZ"), size=3)) for _ in range(4)]
        coeffs = rng.normal(size=4)
        try:
            h = PauliSum.from_terms(list(zip(coeffs, strings)))
        except ParameterDomainError:
            continue
        ref = reference_energies(h)
        eigs = np.sort(np.linalg.eigvalsh(h.to_matrix()))
        assert ref.e0 == pytest.approx(float(eigs[0]), abs=1e-9)
        assert ref.e1 == pytest.approx(float(eigs[1]), abs=1e-9)


def test_reference_energies_capacity():
    big = PauliSum.from_terms([(1.0, "Z" * 9)])
    with pytest.raises(CapacityError):
        reference_energies(big)


def test_context_capacity():
    big = PauliSum.from_terms([(1.0, "Z" * 9)])
    message = "the Pauli-vector simulator supports at most 8 qubits, got 9"
    with pytest.raises(CapacityError, match=message):
        EnsembleContext(big, parse_circuit("ry 8 t0", n_qubits=9), 0, 1, EstimatorSpec())


def test_context_validation(toy_hamiltonian, toy_circuit):
    with pytest.raises(ParameterDomainError):
        EnsembleContext(toy_hamiltonian, toy_circuit, 1, 1, EstimatorSpec())
    with pytest.raises(ParameterDomainError):
        EnsembleContext(toy_hamiltonian, toy_circuit, 0, 7, EstimatorSpec())


def test_indices_are_checked_where_they_are_built(toy_hamiltonian, toy_circuit):
    """A qubit, qubit count, parameter index or basis index that is not an
    integer is refused when built, not as a TypeError or IndexError on the
    first compile or cost call.  A bool is not an integer here; a numpy
    integer is."""
    builds = [
        lambda: Gate("x", (0.0,)),
        lambda: Gate("cx", (0, 1.0)),
        lambda: Gate("x", (True,)),
        lambda: Gate("ry", (0,), param_index=1.5),
        lambda: Gate("ry", (0,), param_index=True),
        lambda: Circuit(1.0, (Gate("x", (0,)),)),
        lambda: Circuit(True, (Gate("x", (0,)),)),
        lambda: EnsembleContext(toy_hamiltonian, toy_circuit, 0.0, 1.0, EstimatorSpec()),
        lambda: EnsembleContext(toy_hamiltonian, toy_circuit, 0, True, EstimatorSpec()),
    ]
    for build in builds:
        with pytest.raises(ParameterDomainError, match="must be an integer|must be integers"):
            build()
    zero, one = np.int64(0), np.int64(1)
    circuit = Circuit(np.int64(2), (Gate("ry", (zero,), param_index=zero), Gate("cx", (one, 0))))
    ctx = EnsembleContext(toy_hamiltonian, circuit, zero, one, EstimatorSpec())
    assert sa_cost(np.zeros((1, 1)), ctx).shape == (1,)


def test_sa_cost_zero_gate_ansatz(toy_hamiltonian):
    circ = Circuit(n_qubits=2, gates=())
    ctx = EnsembleContext(toy_hamiltonian, circ, 0, 1, EstimatorSpec())
    # diagonal entries of H at |00> and |01>: -2 and 0
    assert sa_cost(np.zeros((1, 0)), ctx) == pytest.approx([-2.0])


def test_evaluation_path_takes_stacks_and_returns_arrays(toy_hamiltonian, toy_circuit, toy_ctx):
    """One state or one parameter vector is a stack of one: the shapes of a
    second, one-state path are rejected, an (m, 0) stack gives m values, and
    a circuit that starts with a fixed gate evolves to (m, k, 4^n)."""
    r = to_pauli(basis_state(0, 2)[None])[0]
    schedule, readout = compile_circuit(toy_circuit), compile_readout(toy_hamiltonian)
    theta, rng = np.zeros(3), np.random.default_rng(0)
    removed = {
        "evolve_circuit one state": lambda: evolve_circuit(r, schedule, theta[None]),
        "evolve_circuit one vector": lambda: evolve_circuit(r[None], schedule, theta),
        "expectation_exact": lambda: expectation_exact(r, readout),
        "expectation_shots": lambda: expectation_shots(r, readout, 16, rng),
        "expectation exact": lambda: expectation(r, readout, EstimatorSpec()),
        "expectation shots": lambda: expectation(r, readout, EstimatorSpec(n_m=16), rng),
        "sa_cost": lambda: sa_cost(theta, toy_ctx),
        "resolve_states a stack": lambda: resolve_states(theta[None], toy_ctx),
    }
    for what, call in removed.items():
        with pytest.raises(DimensionError):
            call()
            pytest.fail(what)
    # a parameter-free ansatz: m equal costs (m shot estimates), none for m = 0
    fixed = parse_circuit("cx 0 1", n_qubits=2)
    for family in ("ideal", "DEPOL-5%", "TR-T1=50ns"):
        estimator = lookup_family(family).estimator
        for spec in (estimator, replace(estimator, n_m=None)):
            ctx = EnsembleContext(toy_hamiltonian, fixed, 0, 1, spec)
            for m in (0, 1, 3):
                costs = sa_cost(np.zeros((m, 0)), ctx, rng)
                assert costs.shape == (m,) and np.all(np.isfinite(costs))
            if spec.mode == "exact":
                assert np.all(costs == costs[0])
    assert sa_cost(np.zeros((3, 0)), replace(toy_ctx, ansatz=fixed)).tolist() == [-2.0] * 3
    # gates before the first rotation evolve the state stack once
    schedule = compile_circuit(parse_circuit("h 0\ncx 0 1\nry 1 t0\nprot XY t1 0 1", n_qubits=2))
    r0 = to_pauli(np.stack([basis_state(0, 2), basis_state(1, 2)]))
    thetas = np.random.default_rng(1).uniform(-np.pi, np.pi, size=(3, 2))
    got = evolve_circuit(r0, schedule, thetas)
    assert got.shape == (3, 2, 16)
    for j in range(3):
        assert np.array_equal(evolve_circuit(r0, schedule, thetas[j : j + 1])[0], got[j])


def test_sa_cost_param_mismatch(toy_ctx):
    with pytest.raises(DimensionError):
        sa_cost(np.zeros((1, 5)), toy_ctx)


def test_sa_cost_variational_bound(toy_ctx, toy_reference, rng):
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, size=(200, 3))
    assert np.all(sa_cost(thetas, toy_ctx) >= toy_reference.e0 + toy_reference.e1 - 1e-9)


def test_resolve_identity_ansatz_diagonal(toy_hamiltonian):
    circ = Circuit(n_qubits=2, gates=())
    ctx = EnsembleContext(toy_hamiltonian, circ, 0, 1, EstimatorSpec())
    e0, e1 = resolve_states(np.array([]), ctx)
    assert e0 == pytest.approx(-2.0)
    assert e1 == pytest.approx(0.0)


def test_resolve_trace_matches_cost(toy_ctx, rng):
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi, size=3)
        e0, e1 = resolve_states(theta, toy_ctx)
        assert e0 <= e1
        assert e0 + e1 == pytest.approx(sa_cost(theta[None], toy_ctx)[0], abs=1e-9)


def test_resolve_bounded_below_by_reference(toy_ctx, toy_reference, rng):
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, size=3)
        e0, _ = resolve_states(theta, toy_ctx)
        assert e0 >= toy_reference.e0 - 1e-9


def test_resolve_under_noise_still_valid(toy_hamiltonian, toy_circuit):
    from vqebench.qsim import NoiseRule

    noise = (NoiseRule(frozenset({"ry", "cx", "prot"}), "depolarizing", p=0.05),)
    ctx = EnsembleContext(
        toy_hamiltonian, toy_circuit, 0, 1, EstimatorSpec(noise=noise)
    )
    e0, e1 = resolve_states(np.zeros(3), ctx)
    assert e0 <= e1
    assert np.isfinite(e0) and np.isfinite(e1)


def test_toy_ansatz_reaches_reference(toy_ctx, toy_reference):
    # the 3-parameter ansatz is exactly expressive for the lowest eigenpair
    from vqebench.optimizers import OptimizerSpec, minimize

    result = minimize(
        lambda t: sa_cost(t, toy_ctx),
        np.zeros(3),
        OptimizerSpec(kind="bfgs"),
        np.random.default_rng(0),
    )
    e_sa = sa_cost(result.theta_best[None], toy_ctx)[0]
    assert e_sa == pytest.approx(toy_reference.e0 + toy_reference.e1, abs=1e-6)
    e0, e1 = resolve_states(result.theta_best, toy_ctx)
    assert e0 == pytest.approx(toy_reference.e0, abs=1e-6)
    assert e1 == pytest.approx(toy_reference.e1, abs=1e-6)


def _polarization_resolve(theta, ctx):
    """The reference: the block from four evolved pure preparations, the cross
    term by the polarization identity."""
    e_a = np.zeros(ctx.hamiltonian.dim)
    e_b = np.zeros(ctx.hamiltonian.dim)
    e_a[ctx.phi_a] = 1.0
    e_b[ctx.phi_b] = 1.0
    preparations = (e_a, e_b, (e_a + e_b) / np.sqrt(2.0), e_a.astype(complex) + 1j * e_b)
    initial = to_pauli(np.stack([pure_state(vec) for vec in preparations]))
    states = evolve_circuit(initial, compile_circuit(ctx.ansatz, ctx.estimator.noise), theta[None])
    m_aa, m_bb, plus, imag = expectation_exact(states[0], compile_readout(ctx.hamiltonian))
    re_ab = plus - 0.5 * (m_aa + m_bb)
    im_ab = 0.5 * (m_aa + m_bb) - imag
    block = np.array([[m_aa, re_ab + 1j * im_ab], [re_ab - 1j * im_ab, m_bb]])
    return tuple(np.linalg.eigvalsh(block))


@pytest.mark.parametrize(
    "family", ["ideal", "SN-256", "DP-20%", "DEPOL-20%", "T2=70us", "TR-T1=50ns"]
)
@pytest.mark.parametrize("phis", [(0, 1), (2, 1), (3, 0)])
def test_resolve_states_equals_polarization_formula(family, phis, rng):
    from vqebench.harness import lookup_family

    # Y terms and rz/rx gates: a complex cross term, and a channel for DP-x%
    h = PauliSum.from_terms([(-1.0, "ZI"), (-1.0, "IZ"), (0.5, "XX"), (0.3, "XY"), (-0.2, "YI")])
    circuit = parse_circuit("ry 0 t0\nry 1 t1\ncx 0 1\nprot XY t2 0 1\nrz 1 t3\nrx 0 t4", 2)
    ctx = EnsembleContext(h, circuit, *phis, lookup_family(family).estimator)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, size=circuit.n_params)
        got = resolve_states(theta, ctx)
        want = _polarization_resolve(theta, ctx)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12


# The per-call construction of the initial operators that the shared
# preparation stack replaced, kept here as the reference it must equal.

def _built_per_call(ctx, k):
    a, b = ctx.phi_a, ctx.phi_b
    initial = np.zeros((k, ctx.hamiltonian.dim, ctx.hamiltonian.dim), dtype=complex)
    initial[0, a, a] = initial[1, b, b] = 1.0
    if k == 4:
        initial[2, a, b] = initial[2, b, a] = 0.5
        initial[3, a, b], initial[3, b, a] = -0.5j, 0.5j
    return to_pauli(initial)


def _evolve_built_per_call(ctx, k, thetas):
    """The k preparations, built afresh, evolved under a schedule and
    measured with a readout both compiled afresh."""
    schedule = compile_circuit(ctx.ansatz, ctx.estimator.noise)
    states = evolve_circuit(_built_per_call(ctx, k), schedule, thetas)
    return states.reshape(-1, 4**ctx.ansatz.n_qubits), compile_readout(ctx.hamiltonian)


def _sa_cost_built_per_call(thetas, ctx):
    states, readout = _evolve_built_per_call(ctx, 2, thetas)
    pairs = expectation(states, readout, ctx.estimator).reshape(-1, 2)
    return 0.0 + pairs[:, 0] + pairs[:, 1]


def _resolve_built_per_call(theta, ctx):
    states, readout = _evolve_built_per_call(ctx, 4, theta[None])
    m_aa, m_bb, re_z, im_z = expectation_exact(states, readout)
    block = np.array([[m_aa, re_z - 1j * im_z], [re_z + 1j * im_z, m_bb]])
    e0, e1 = np.linalg.eigvalsh(block)
    return float(e0), float(e1)


def _exact_catalog_contexts(phis):
    from vqebench.harness.catalog import family_catalog

    h = PauliSum.from_terms([(-1.0, "ZI"), (-1.0, "IZ"), (0.5, "XX"), (0.3, "XY"), (-0.2, "YI")])
    circuit = parse_circuit("ry 0 t0\nry 1 t1\ncx 0 1\nprot XY t2 0 1\nrz 1 t3\nrx 0 t4", 2)
    return [
        EnsembleContext(h, circuit, *phis, replace(family.estimator, n_m=None))
        for family in family_catalog()
    ]


@pytest.mark.parametrize("phis", [(0, 1), (2, 1)])
def test_shared_preparations_equal_the_per_call_construction(phis, rng):
    contexts = _exact_catalog_contexts(phis)
    assert len(contexts) == 21
    for ctx in contexts:
        thetas = rng.uniform(-np.pi, np.pi, size=(3, ctx.ansatz.n_params))
        assert np.array_equal(sa_cost(thetas, ctx), _sa_cost_built_per_call(thetas, ctx))
        for theta in thetas:
            assert resolve_states(theta, ctx) == _resolve_built_per_call(theta, ctx)


def test_preparations_are_read_only(toy_hamiltonian, toy_circuit):
    stack = EnsembleContext(toy_hamiltonian, toy_circuit, 0, 1, EstimatorSpec()).preparations
    assert stack.shape == (4, 16)
    for view in (stack, stack[:2]):
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 2.0
    assert stack[0, 0] == 1.0


def test_preparations_built_once_per_context(monkeypatch, rng):
    from vqebench import ensemble

    evolved, built = [], []

    def recording(rho0, *args):
        evolved.append(rho0)
        return evolve_circuit(rho0, *args)

    def counting(rho):
        built.append(len(rho))
        return to_pauli(rho)

    monkeypatch.setattr(ensemble, "evolve_circuit", recording)
    monkeypatch.setattr(ensemble, "to_pauli", counting)
    contexts = _exact_catalog_contexts((2, 1))
    for ctx in contexts:
        theta = rng.uniform(-np.pi, np.pi, size=ctx.ansatz.n_params)
        sa_cost(theta[None], ctx)
        resolve_states(theta, ctx)
        sa_cost(np.stack([theta, -theta]), ctx)
    assert built == [4] * len(contexts)
    assert len(evolved) == 3 * len(contexts)
    for i, ctx in enumerate(contexts):
        assert all(np.shares_memory(rho0, ctx.preparations) for rho0 in evolved[3 * i : 3 * i + 3])
    assert [len(rho0) for rho0 in evolved[:3]] == [2, 4, 2]


def test_run_path_holds_no_module_cache():
    """The context owns every table an evaluation reads: neither module
    keeps a functools cache that would share tables across contexts."""
    from vqebench import ensemble
    from vqebench.qsim import simulate

    for module in (ensemble, simulate):
        cached = [name for name, value in vars(module).items() if hasattr(value, "cache_info")]
        assert cached == [], module.__name__


@pytest.mark.parametrize("phis", [(0, 1), (2, 1)])
def test_exact_sa_cost_matches_the_dense_kraus_oracle_on_every_family(phis, rng):
    """The exact variant of every catalog family against density matrices
    evolved gate by gate and Kraus operator by Kraus operator."""
    contexts = _exact_catalog_contexts(phis)
    assert len(contexts) == 21
    for ctx in contexts:
        noise = ctx.estimator.noise
        [rule] = noise or (None,)
        h = ctx.hamiltonian.to_matrix()
        thetas = rng.uniform(-np.pi, np.pi, size=(3, ctx.ansatz.n_params))
        want = [
            sum(
                np.trace(h @ reference_evolution(basis_state(i, 2), ctx.ansatz, t, rule, kraus_attach(rule))).real
                for i in phis
            )
            for t in thetas
        ]
        assert np.max(np.abs(sa_cost(thetas, ctx) - want)) < 1e-12, ctx.estimator


def test_context_holds_its_compiled_plan(monkeypatch, toy_ctx, rng):
    """A context builds its schedule and readout once: later costs do not
    compile the circuit or the Hamiltonian again."""
    from vqebench import ensemble

    schedule, readout = toy_ctx.schedule, toy_ctx.readout

    def refuse(*args):
        raise AssertionError("built again")

    monkeypatch.setattr(ensemble, "compile_circuit", refuse)
    monkeypatch.setattr(ensemble, "compile_readout", refuse)
    thetas = rng.uniform(-np.pi, np.pi, size=(2, 3))
    sa_cost(thetas, toy_ctx)
    resolve_states(thetas[0], toy_ctx)
    assert toy_ctx.schedule is schedule and toy_ctx.readout is readout

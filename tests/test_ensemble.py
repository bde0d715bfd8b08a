import numpy as np
import pytest

from vqebench.ensemble import (
    EnsembleContext,
    ReferencePair,
    reference_energies,
    resolve_states,
    sa_cost,
)
from vqebench.errors import CapacityError, DimensionError, ParameterDomainError
from vqebench.qsim import Circuit, EstimatorSpec, Gate, PauliSum, parse_circuit

# Reference eigenvalues of -ZI - IZ + 0.5 XX, computed by dense 4x4
# diagonalization: e0 = -sqrt(4 + 0.25), e1 = -0.5.
TOY_E0 = -2.0615528128088303
TOY_E1 = -0.5


def test_reference_energies_single_z():
    ref = reference_energies(PauliSum.from_terms([(1.0, "Z")]))
    assert ref.e0 == pytest.approx(-1.0)
    assert ref.e1 == pytest.approx(1.0)
    assert ref.e_sa == pytest.approx(0.0)


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
    with pytest.raises(CapacityError):
        EnsembleContext(big, parse_circuit("ry 8 t0", n_qubits=9), 0, 1, EstimatorSpec())


def test_reference_pair_sum():
    assert ReferencePair(-2.0, -0.5).e_sa == pytest.approx(-2.5)


def test_context_validation(toy_hamiltonian, toy_circuit):
    with pytest.raises(ParameterDomainError):
        EnsembleContext(toy_hamiltonian, toy_circuit, 1, 1, EstimatorSpec())
    with pytest.raises(ParameterDomainError):
        EnsembleContext(toy_hamiltonian, toy_circuit, 0, 7, EstimatorSpec())


def test_sa_cost_zero_gate_ansatz(toy_hamiltonian):
    circ = Circuit(n_qubits=2, gates=(), n_params=0)
    ctx = EnsembleContext(toy_hamiltonian, circ, 0, 1, EstimatorSpec())
    # diagonal entries of H at |00> and |01>: -2 and 0
    assert sa_cost(np.array([]), ctx) == pytest.approx(-2.0)


def test_sa_cost_param_mismatch(toy_ctx):
    with pytest.raises(DimensionError):
        sa_cost(np.zeros(5), toy_ctx)


def test_sa_cost_variational_bound(toy_ctx, toy_reference, rng):
    for _ in range(200):
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, size=3)
        assert sa_cost(theta, toy_ctx) >= toy_reference.e_sa - 1e-9


def test_resolve_identity_ansatz_diagonal(toy_hamiltonian):
    circ = Circuit(n_qubits=2, gates=(), n_params=0)
    ctx = EnsembleContext(toy_hamiltonian, circ, 0, 1, EstimatorSpec())
    e0, e1 = resolve_states(np.array([]), ctx)
    assert e0 == pytest.approx(-2.0)
    assert e1 == pytest.approx(0.0)


def test_resolve_trace_matches_cost(toy_ctx, rng):
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi, size=3)
        e0, e1 = resolve_states(theta, toy_ctx)
        assert e0 <= e1
        assert e0 + e1 == pytest.approx(sa_cost(theta, toy_ctx), abs=1e-9)


def test_resolve_bounded_below_by_reference(toy_ctx, toy_reference, rng):
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, size=3)
        e0, _ = resolve_states(theta, toy_ctx)
        assert e0 >= toy_reference.e0 - 1e-9


def test_resolve_under_noise_still_valid(toy_hamiltonian, toy_circuit):
    from vqebench.qsim import NoiseModel, NoiseRule

    noise = NoiseModel(
        (NoiseRule(frozenset({"ry", "cx", "prot"}), "depolarizing", p=0.05),)
    )
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
    assert result.f_best == pytest.approx(toy_reference.e_sa, abs=1e-6)
    e0, e1 = resolve_states(result.theta_best, toy_ctx)
    assert e0 == pytest.approx(toy_reference.e0, abs=1e-6)
    assert e1 == pytest.approx(toy_reference.e1, abs=1e-6)


def _polarization_resolve(theta, ctx):
    """The reference: the block from four evolved pure preparations, the cross
    term by the polarization identity."""
    from oracles import pure_state
    from vqebench.qsim import evolve_circuit, expectation_exact

    e_a = np.zeros(ctx.hamiltonian.dim)
    e_b = np.zeros(ctx.hamiltonian.dim)
    e_a[ctx.phi_a] = 1.0
    e_b[ctx.phi_b] = 1.0
    preparations = (e_a, e_b, (e_a + e_b) / np.sqrt(2.0), e_a.astype(complex) + 1j * e_b)
    initial = np.stack([pure_state(vec) for vec in preparations])
    rhos = evolve_circuit(initial, ctx.ansatz, theta, ctx.estimator.noise)
    m_aa, m_bb, plus, imag = expectation_exact(rhos, ctx.hamiltonian)
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

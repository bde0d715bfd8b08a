import math
from itertools import permutations

import numpy as np
import pytest

from vqebench.errors import DimensionError, InvalidChannelError, ParameterDomainError
from vqebench.qsim import Gate, NoiseRule, damp

from oracles import (
    KrausChannel,
    apply_channel,
    check_density,
    kraus_amplitude_damping,
    kraus_depolarizing,
    kraus_phase_damping,
    kraus_thermal_relaxation,
    partial_trace,
    pure_state,
)

PLUS = pure_state([1.0, 1.0])  # off-diagonal 0.5


def random_density(rng, n_qubits=1):
    dim = 2 ** n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_stack(rng, n_qubits, k=3):
    return np.stack([random_density(rng, n_qubits) for _ in range(k)])


def channel(kind, qubits=(0,), duration_ns=None, **params):
    """The maps a `kind` noise rule attaches after a gate on `qubits`,
    composed into one function of rho."""
    gate = Gate("prot", tuple(qubits), 0, "Z" * len(qubits), duration_ns)
    maps = NoiseRule(frozenset({"prot"}), kind, **params).channels(gate)

    def apply(rho):
        for m in maps:
            rho = m(rho)
        return rho

    return apply


# --- phase damping ---------------------------------------------------------

def test_phase_damping_identity_at_zero(rng):
    rho = random_density(rng)
    out = channel("phase_damping", lam=0.0)(rho)
    assert np.array_equal(out, rho)


def test_phase_damping_full():
    out = channel("phase_damping", lam=1.0)(PLUS)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.diag(out), np.diag(PLUS))


def test_phase_damping_offdiag_factor():
    out = channel("phase_damping", lam=0.2)(PLUS)
    assert abs(out[0, 1]) == pytest.approx(0.5 * math.sqrt(0.8), abs=1e-12)


def test_phase_damping_composition_law(rng):
    rho = random_density(rng)
    l1, l2 = 0.3, 0.45
    once = channel("phase_damping", lam=l2)(channel("phase_damping", lam=l1)(rho))
    combined = 1.0 - (1.0 - l1) * (1.0 - l2)
    direct = channel("phase_damping", lam=combined)(rho)
    assert np.allclose(once, direct, atol=1e-12)


def test_phase_damping_domain():
    for lam in (1.5, -0.1, math.nan):
        with pytest.raises(ParameterDomainError):
            NoiseRule(frozenset({"rz"}), "phase_damping", lam=lam)


# --- depolarizing ----------------------------------------------------------

def test_depolarizing_identity_at_zero(rng):
    rho = random_density(rng)
    out = channel("depolarizing", p=0.0)(rho)
    assert np.allclose(out, rho, atol=1e-15)


def test_depolarizing_fixed_point(rng):
    rho = random_density(rng)
    out = channel("depolarizing", p=1.0)(rho)
    assert np.allclose(out, np.eye(2) / 2.0, atol=1e-15)


def test_depolarizing_example():
    rho = pure_state([1.0, 0.0])
    out = channel("depolarizing", p=0.1)(rho)
    assert np.allclose(out, np.diag([0.95, 0.05]), atol=1e-15)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_depolarizing_closed_form_property(rng, arity):
    d = 2 ** arity
    for p in (0.05, 0.3, 0.77):
        depol = channel("depolarizing", tuple(range(arity)), p=p)
        for _ in range(5):
            rho = random_density(rng, arity)
            assert np.allclose(depol(rho), (1 - p) * rho + p * np.eye(d) / d, atol=1e-14)


def test_depolarizing_partial_application():
    rho = np.kron(pure_state([1.0, 0.0]), pure_state([1.0, 1.0]))
    out = channel("depolarizing", p=1.0)(rho)
    assert np.allclose(partial_trace(out, (0,), 2), np.eye(2) / 2.0, atol=1e-15)
    assert np.allclose(partial_trace(out, (1,), 2), pure_state([1.0, 1.0]), atol=1e-15)


def test_depolarizing_domain():
    for p in (-0.1, 1.1, math.nan):
        with pytest.raises(ParameterDomainError):
            NoiseRule(frozenset({"cx"}), "depolarizing", p=p)


# --- amplitude damping / thermal relaxation --------------------------------

def test_amplitude_damping_decay():
    rho = pure_state([0.0, 1.0])
    out = damp(rho, 0, 0.25, math.sqrt(0.75))
    assert out[1, 1].real == pytest.approx(0.75)
    assert out[0, 0].real == pytest.approx(0.25)


def test_thermal_identity_limit():
    out = channel("thermal_relaxation", duration_ns=50.0, t1_ns=1e15, t2_ns=1e15)(PLUS)
    assert np.allclose(out, PLUS, atol=1e-12)
    out = channel("thermal_relaxation", t1_ns=math.inf, t2_ns=math.inf)(PLUS)
    assert np.array_equal(out, PLUS)


def test_thermal_population_decay():
    t1 = 120.0
    rho = pure_state([0.0, 1.0])
    out = channel("thermal_relaxation", duration_ns=t1 * math.log(2.0), t1_ns=t1, t2_ns=t1)(rho)
    assert out[1, 1].real == pytest.approx(0.5, abs=1e-15)


def test_thermal_coherence_decay():
    t1, t2 = 300.0, 200.0
    out = channel("thermal_relaxation", duration_ns=t2, t1_ns=t1, t2_ns=t2)(PLUS)
    assert abs(out[0, 1]) == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)


def test_thermal_t2_equals_2t1_is_pure_amplitude_damping(rng):
    t1 = 100.0
    t_g = 37.0
    gamma = 1.0 - math.exp(-t_g / t1)
    rho = random_density(rng)
    thermal = channel("thermal_relaxation", duration_ns=t_g, t1_ns=t1, t2_ns=2.0 * t1)(rho)
    damped = apply_channel(rho, kraus_amplitude_damping(gamma), (0,))
    assert np.allclose(thermal, damped, atol=1e-15)


def test_thermal_t1_infinite_is_pure_dephasing(rng):
    t2 = 80.0
    t_g = 25.0
    rho = random_density(rng)
    thermal = channel("thermal_relaxation", duration_ns=t_g, t1_ns=math.inf, t2_ns=t2)(rho)
    lam = 1.0 - math.exp(-2.0 * t_g / t2)
    dephased = channel("phase_damping", lam=lam)(rho)
    assert np.allclose(thermal, dephased, atol=1e-15)


def test_thermal_invalid_t2():
    with pytest.raises(InvalidChannelError):
        NoiseRule(frozenset({"x"}), "thermal_relaxation", t1_ns=100.0, t2_ns=250.0)
    for t1, t2 in ((-1.0, 100.0), (100.0, 0.0), (math.nan, 100.0), (100.0, math.nan)):
        with pytest.raises(ParameterDomainError):
            NoiseRule(frozenset({"x"}), "thermal_relaxation", t1_ns=t1, t2_ns=t2)
    for duration in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ParameterDomainError):
            Gate("x", (0,), duration_ns=duration)


# --- generic channel invariants --------------------------------------------

@pytest.mark.parametrize(
    "factory",
    [
        lambda: channel("phase_damping", (1,), lam=0.37),
        lambda: channel("depolarizing", (1,), p=0.22),
        lambda: lambda rho: damp(rho, 1, 0.41, math.sqrt(0.59)),
        lambda: channel("thermal_relaxation", (1,), 50.0, t1_ns=200.0, t2_ns=150.0),
    ],
)
def test_channels_preserve_density_invariants(rng, factory):
    rho = random_density(rng, 2)
    check_density(factory()(rho))


# --- the closed forms against the Kraus sums -------------------------------

_ORACLE_TOL = 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_single_qubit_closed_forms_match_kraus_on_every_qubit(rng, n):
    stack = random_stack(rng, n)
    t_g = 50.0
    cases = [
        *(({"kind": "phase_damping", "lam": lam}, kraus_phase_damping(lam)) for lam in (0.0, 0.37, 1.0)),
        *(({"kind": "depolarizing", "p": p}, kraus_depolarizing(p)) for p in (0.0, 0.22, 1.0)),
        *(
            (
                {"kind": "thermal_relaxation", "t1_ns": t1, "t2_ns": t2},
                kraus_thermal_relaxation(t_g, t1, t2),
            )
            for t1, t2 in ((200.0, 150.0), (100.0, 200.0), (math.inf, 80.0), (30.0, 20.0))
        ),
    ]
    for qubit in range(n):
        for params, kraus in cases:
            got = channel(qubits=(qubit,), duration_ns=t_g, **params)(stack)
            want = apply_channel(stack, kraus, (qubit,))
            assert np.max(np.abs(got - want)) < _ORACLE_TOL, (qubit, params)


@pytest.mark.parametrize("n", [2, 3])
def test_depolarizing_matches_kraus_on_every_qubit_tuple(rng, n):
    # at n = 3 this includes a depolarizing rule on a 3-qubit prot: 64 Kraus operators
    stack = random_stack(rng, n)
    for arity in range(2, n + 1):
        for qubits in permutations(range(n), arity):
            for p in (0.0, 0.4, 1.0):
                kraus = kraus_depolarizing(p, arity)
                assert len(kraus.operators) == 4 ** arity
                got = channel("depolarizing", qubits, p=p)(stack)
                want = apply_channel(stack, kraus, qubits)
                assert np.max(np.abs(got - want)) < _ORACLE_TOL, (qubits, p)


# --- the oracle's own checks -----------------------------------------------

def test_kraus_validation_rejects_non_cptp():
    with pytest.raises(InvalidChannelError):
        KrausChannel((np.eye(2, dtype=complex) * 2.0,), arity=1)


def test_apply_channel_arity_mismatch():
    with pytest.raises(DimensionError):
        apply_channel(np.eye(4) / 4.0, kraus_phase_damping(0.1), (0, 1))

import math

import numpy as np
import pytest

from vqebench.errors import DimensionError, InvalidChannelError, ParameterDomainError
from vqebench.qsim import (
    KrausChannel,
    kraus_amplitude_damping,
    kraus_depolarizing,
    kraus_phase_damping,
    kraus_thermal_relaxation,
    partial_trace,
)

from oracles import apply_channel, check_density, pure_state

PLUS = pure_state([1.0, 1.0])  # off-diagonal 0.5


def random_density(rng, n_qubits=1):
    dim = 2 ** n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# --- phase damping ---------------------------------------------------------

def test_phase_damping_identity_at_zero(rng):
    rho = random_density(rng)
    out = apply_channel(rho, kraus_phase_damping(0.0), (0,))
    assert np.allclose(out, rho, atol=1e-12)


def test_phase_damping_full():
    out = apply_channel(PLUS, kraus_phase_damping(1.0), (0,))
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.diag(out), np.diag(PLUS))


def test_phase_damping_offdiag_factor():
    out = apply_channel(PLUS, kraus_phase_damping(0.2), (0,))
    assert abs(out[0, 1]) == pytest.approx(0.5 * math.sqrt(0.8), abs=1e-12)


def test_phase_damping_composition_law(rng):
    rho = random_density(rng)
    l1, l2 = 0.3, 0.45
    once = apply_channel(
        apply_channel(rho, kraus_phase_damping(l1), (0,)), kraus_phase_damping(l2), (0,)
    )
    combined = 1.0 - (1.0 - l1) * (1.0 - l2)
    direct = apply_channel(rho, kraus_phase_damping(combined), (0,))
    assert np.allclose(once, direct, atol=1e-12)


def test_phase_damping_domain():
    with pytest.raises(ParameterDomainError):
        kraus_phase_damping(1.5)


# --- depolarizing ----------------------------------------------------------

def test_depolarizing_identity_at_zero(rng):
    rho = random_density(rng)
    out = apply_channel(rho, kraus_depolarizing(0.0), (0,))
    assert np.allclose(out, rho, atol=1e-12)


def test_depolarizing_fixed_point(rng):
    rho = random_density(rng)
    out = apply_channel(rho, kraus_depolarizing(1.0), (0,))
    assert np.allclose(out, np.eye(2) / 2.0, atol=1e-10)


def test_depolarizing_example():
    rho = pure_state([1.0, 0.0])
    out = apply_channel(rho, kraus_depolarizing(0.1), (0,))
    assert np.allclose(out, np.diag([0.95, 0.05]), atol=1e-12)


@pytest.mark.parametrize("arity", [1, 2])
def test_depolarizing_closed_form_property(rng, arity):
    d = 2 ** arity
    for p in (0.05, 0.3, 0.77):
        ch = kraus_depolarizing(p, arity=arity)
        for _ in range(5):
            rho = random_density(rng, arity)
            out = apply_channel(rho, ch, tuple(range(arity)))
            assert np.allclose(out, (1 - p) * rho + p * np.eye(d) / d, atol=1e-10)


def test_depolarizing_partial_application():
    rho = np.kron(pure_state([1.0, 0.0]), pure_state([1.0, 1.0]))
    out = apply_channel(rho, kraus_depolarizing(1.0), (0,))
    assert np.allclose(partial_trace(out, (0,), 2), np.eye(2) / 2.0, atol=1e-10)
    assert np.allclose(partial_trace(out, (1,), 2), pure_state([1.0, 1.0]), atol=1e-10)


def test_depolarizing_domain():
    with pytest.raises(ParameterDomainError):
        kraus_depolarizing(-0.1)
    with pytest.raises(ParameterDomainError):
        kraus_depolarizing(0.1, arity=3)


# --- amplitude damping / thermal relaxation --------------------------------

def test_amplitude_damping_decay():
    rho = pure_state([0.0, 1.0])
    out = apply_channel(rho, kraus_amplitude_damping(0.25), (0,))
    assert out[1, 1].real == pytest.approx(0.75)
    assert out[0, 0].real == pytest.approx(0.25)


def test_thermal_identity_limit():
    ch = kraus_thermal_relaxation(50.0, 1e15, 1e15)
    rho = PLUS
    out = apply_channel(rho, ch, (0,))
    assert np.allclose(out, rho, atol=1e-9)


def test_thermal_population_decay():
    t1 = 120.0
    rho = pure_state([0.0, 1.0])
    out = apply_channel(rho, kraus_thermal_relaxation(t1 * math.log(2.0), t1, t1), (0,))
    assert out[1, 1].real == pytest.approx(0.5, abs=1e-12)


def test_thermal_coherence_decay():
    t1, t2 = 300.0, 200.0
    out = apply_channel(PLUS, kraus_thermal_relaxation(t2, t1, t2), (0,))
    assert abs(out[0, 1]) == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)


def test_thermal_t2_equals_2t1_is_pure_amplitude_damping(rng):
    t1 = 100.0
    t_g = 37.0
    gamma = 1.0 - math.exp(-t_g / t1)
    rho = random_density(rng)
    thermal = apply_channel(rho, kraus_thermal_relaxation(t_g, t1, 2.0 * t1), (0,))
    damped = apply_channel(rho, kraus_amplitude_damping(gamma), (0,))
    assert np.allclose(thermal, damped, atol=1e-12)


def test_thermal_t1_infinite_is_pure_dephasing(rng):
    t2 = 80.0
    t_g = 25.0
    rho = random_density(rng)
    thermal = apply_channel(rho, kraus_thermal_relaxation(t_g, 1e15, t2), (0,))
    lam = 1.0 - math.exp(-2.0 * t_g / t2)
    dephased = apply_channel(rho, kraus_phase_damping(lam), (0,))
    assert np.allclose(thermal, dephased, atol=1e-9)


def test_thermal_invalid_t2():
    with pytest.raises(InvalidChannelError):
        kraus_thermal_relaxation(50.0, 100.0, 250.0)
    with pytest.raises(ParameterDomainError):
        kraus_thermal_relaxation(-1.0, 100.0, 100.0)


# --- generic channel invariants --------------------------------------------

@pytest.mark.parametrize(
    "factory",
    [
        lambda: kraus_phase_damping(0.37),
        lambda: kraus_depolarizing(0.22),
        lambda: kraus_amplitude_damping(0.41),
        lambda: kraus_thermal_relaxation(50.0, 200.0, 150.0),
    ],
)
def test_channels_preserve_density_invariants(rng, factory):
    ch = factory()
    rho = random_density(rng, 2)
    out = apply_channel(rho, ch, (1,))
    check_density(out)


def test_kraus_validation_rejects_non_cptp():
    with pytest.raises(InvalidChannelError):
        KrausChannel((np.eye(2, dtype=complex) * 2.0,), arity=1)


def test_apply_channel_arity_mismatch():
    with pytest.raises(DimensionError):
        apply_channel(np.eye(4) / 4.0, kraus_phase_damping(0.1), (0, 1))

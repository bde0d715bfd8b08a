import math
from itertools import permutations

import numpy as np
import pytest

from vqebench.errors import DimensionError, InvalidChannelError, ParameterDomainError
from vqebench.qsim import (
    Circuit,
    Gate,
    NoiseRule,
    compile_circuit,
    damp,
    depolarize,
    evolve_circuit,
    to_pauli,
)

from oracles import (
    KrausChannel,
    apply_channel,
    check_density,
    from_pauli,
    gate_ns,
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


def pauli_channel(kind, qubits=(0,), **params):
    """The channels a `kind` noise rule attaches after a gate on `qubits`,
    as the simulator applies them to a (k, 4^n) stack of Pauli vectors.
    The gate is a rotation at theta = 0, the identity."""
    gate = Gate("prot", tuple(qubits), 0, "Z" * len(qubits))
    noise = (NoiseRule(frozenset({"prot"}), kind, **params),)

    def apply(r):
        n = (r.shape[-1].bit_length() - 1) // 2
        return evolve_circuit(r, compile_circuit(Circuit(n, (gate,)), noise), np.zeros((1, 1)))[0]

    return apply


def channel(kind, qubits=(0,), **params):
    """The same channels as one function of a density matrix or a (k, d, d)
    stack of them."""
    on_paulis = pauli_channel(kind, qubits, **params)

    def apply(rho):
        stack = rho if rho.ndim == 3 else rho[None]
        out = from_pauli(on_paulis(to_pauli(stack)))
        return out if rho.ndim == 3 else out[0]

    return apply


def _thermal_damp(gamma):
    """Thermal relaxation with T2 = 2 T1, T1 chosen so that over a one-qubit
    gate's 50 ns it is amplitude damping by gamma, coherence sqrt(1 - gamma)."""
    t1 = -50.0 / math.log1p(-gamma)
    return dict(kind="thermal_relaxation", t1_ns=t1, t2_ns=2 * t1)


# --- phase damping ---------------------------------------------------------

def test_phase_damping_identity_at_zero(rng):
    r = to_pauli(random_stack(rng, 1))
    out = pauli_channel("phase_damping", lam=0.0)(r)
    assert np.array_equal(out, r)


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
    params = _thermal_damp(0.25)
    out = channel(params.pop("kind"), **params)(rho)
    assert out[1, 1].real == pytest.approx(0.75)
    assert out[0, 0].real == pytest.approx(0.25)


def test_channel_tables():
    """damp scales X and Y at its qubit by the coherence and Z by 1 - gamma
    and feeds gamma of I into Z; depolarize scales every string that is not
    the identity on its qubits by 1 - p.  Strings index as base-4 digits,
    qubit 0 the most significant."""
    scale, source, feed = damp(2, 1, 0.25, 0.5)
    assert np.array_equal(scale, np.tile([1.0, 0.5, 0.5, 0.75], 4))
    assert np.array_equal(feed, np.tile([0.0, 0.0, 0.0, 0.25], 4))
    assert np.array_equal(source[3::4], [0, 4, 8, 12])  # ?Z reads ?I
    scale, source, feed = damp(2, 0, 0.0, 0.5)
    assert np.array_equal(scale, np.repeat([1.0, 0.5, 0.5, 1.0], 4))
    assert source is None and feed is None
    scale, _, feed = depolarize(2, (1,), 0.2)
    assert np.array_equal(scale, np.tile([1.0, 0.8, 0.8, 0.8], 4)) and feed is None
    scale, _, _ = depolarize(2, (1, 0), 0.2)
    assert np.array_equal(scale, np.r_[1.0, np.full(15, 0.8)])


def test_thermal_identity_limit():
    out = channel("thermal_relaxation", t1_ns=1e15, t2_ns=1e15)(PLUS)
    assert np.allclose(out, PLUS, atol=1e-12)
    r = to_pauli(PLUS[None])
    out = pauli_channel("thermal_relaxation", t1_ns=math.inf, t2_ns=math.inf)(r)
    assert np.array_equal(out, r)


def test_thermal_population_decay():
    t1 = 50.0 / math.log(2.0)
    rho = pure_state([0.0, 1.0])
    out = channel("thermal_relaxation", t1_ns=t1, t2_ns=t1)(rho)
    assert out[1, 1].real == pytest.approx(0.5, abs=1e-15)


def test_thermal_coherence_decay():
    t1, t2 = 75.0, 50.0
    out = channel("thermal_relaxation", t1_ns=t1, t2_ns=t2)(PLUS)
    assert abs(out[0, 1]) == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)


def test_thermal_t2_equals_2t1_is_pure_amplitude_damping(rng):
    t_g = 50.0
    t1 = t_g / 0.37
    gamma = 1.0 - math.exp(-t_g / t1)
    rho = random_density(rng)
    thermal = channel("thermal_relaxation", t1_ns=t1, t2_ns=2.0 * t1)(rho)
    damped = apply_channel(rho, kraus_amplitude_damping(gamma), (0,))
    assert np.allclose(thermal, damped, atol=1e-15)


def test_thermal_t1_infinite_is_pure_dephasing(rng):
    t2 = 160.0
    t_g = 50.0
    rho = random_density(rng)
    thermal = channel("thermal_relaxation", t1_ns=math.inf, t2_ns=t2)(rho)
    lam = 1.0 - math.exp(-2.0 * t_g / t2)
    dephased = channel("phase_damping", lam=lam)(rho)
    assert np.allclose(thermal, dephased, atol=1e-15)


@pytest.mark.parametrize(
    "gate, t",
    [
        (Gate("x", (1,)), 50.0),
        (Gate("cx", (2, 0)), 150.0),
        (Gate("prot", (0, 2, 1), 0, "XYZ"), 150.0),
    ],
)
def test_thermal_channel_acts_over_the_gate_time_of_its_arity(gate, t):
    """A thermal rule attaches one damping channel per qubit of the gate, in
    the gate's qubit order, over 50 ns on one qubit and 150 ns on more: at
    that qubit Z scales by e^(-t/T1), X and Y by e^(-t/T2), and Z gains
    1 - e^(-t/T1) of the string with I there."""
    t1, t2, n = 100.0, 80.0, 3
    rule = NoiseRule(frozenset({"x", "cx", "prot"}), "thermal_relaxation", t1_ns=t1, t2_ns=t2)
    coherence, decay, gamma = math.exp(-t / t2), math.exp(-t / t1), -math.expm1(-t / t1)
    channels = rule.channels(gate, n)
    assert len(channels) == len(gate.qubits)
    strings = np.arange(4**n)
    for qubit, (scale, source, feed) in zip(gate.qubits, channels):
        shift = 2 * (n - 1 - qubit)
        digit = (strings >> shift) & 3
        want_scale = np.array([1.0, coherence, coherence, decay])[digit]
        np.testing.assert_allclose(scale, want_scale, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(feed, np.where(digit == 3, gamma, 0.0), rtol=1e-15, atol=0.0)
        assert np.array_equal(source, strings - (digit << shift))


def test_thermal_invalid_t2():
    with pytest.raises(InvalidChannelError):
        NoiseRule(frozenset({"x"}), "thermal_relaxation", t1_ns=100.0, t2_ns=250.0)
    for t1, t2 in ((-1.0, 100.0), (100.0, 0.0), (math.nan, 100.0), (100.0, math.nan)):
        with pytest.raises(ParameterDomainError):
            NoiseRule(frozenset({"x"}), "thermal_relaxation", t1_ns=t1, t2_ns=t2)


# --- generic channel invariants --------------------------------------------

@pytest.mark.parametrize(
    "factory",
    [
        lambda: channel("phase_damping", (1,), lam=0.37),
        lambda: channel("depolarizing", (1,), p=0.22),
        lambda: channel(qubits=(1,), **_thermal_damp(0.41)),
        lambda: channel("thermal_relaxation", (1,), t1_ns=200.0, t2_ns=150.0),
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
            got = channel(qubits=(qubit,), **params)(stack)
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


@pytest.mark.parametrize("thermal_first", [True, False])
def test_two_rules_on_one_gate_match_kraus_in_rule_order(rng, thermal_first):
    """Rules that match one gate apply rule by rule.  A scaling is folded
    into the gate only where it commutes with the damping terms before it:
    depolarizing after thermal relaxation on the same qubits is not."""
    t1, t2, p = 100.0, 120.0, 0.3
    rules = [
        NoiseRule(frozenset({"prot"}), "thermal_relaxation", t1_ns=t1, t2_ns=t2),
        NoiseRule(frozenset({"prot"}), "depolarizing", p=p),
    ]
    if not thermal_first:
        rules.reverse()
    gate = Gate("prot", (2, 0), 0, "ZZ")
    schedule = compile_circuit(Circuit(3, (gate,)), tuple(rules))
    stack = random_stack(rng, 3)
    got = from_pauli(evolve_circuit(to_pauli(stack), schedule, np.zeros((1, 1)))[0])
    want = stack
    for rule in rules:
        if rule.kind == "depolarizing":
            want = apply_channel(want, kraus_depolarizing(p, 2), (2, 0))
        else:
            for q in gate.qubits:
                want = apply_channel(want, kraus_thermal_relaxation(gate_ns(gate), t1, t2), (q,))
    assert np.max(np.abs(got - want)) < _ORACLE_TOL
    tail = schedule.steps[0].tail
    assert [c.feed is None for c in tail] == ([False, False, True] if thermal_first else [False, False])
    assert [c.scale is None for c in tail] == ([True, True, False] if thermal_first else [True, True])


# --- the oracle's own checks -----------------------------------------------

def test_kraus_validation_rejects_non_cptp():
    with pytest.raises(InvalidChannelError):
        KrausChannel((np.eye(2, dtype=complex) * 2.0,), arity=1)


def test_apply_channel_arity_mismatch():
    with pytest.raises(DimensionError):
        apply_channel(np.eye(4) / 4.0, kraus_phase_damping(0.1), (0, 1))

"""Acceptance suite: one criterion per test, one PASS/FAIL line each."""
import math
import time
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest

from vqebench.ensemble import EnsembleContext, reference_energies, resolve_states, sa_cost
from vqebench.harness import config_from_dict, run_experiment, toy_problem_paths
from vqebench.harness.records import _record_row
from vqebench.optimizers import OptimizerSpec, minimize
from vqebench.qsim import (
    Circuit,
    EstimatorSpec,
    Gate,
    NoiseRule,
    PauliSum,
    compile_circuit,
    compile_readout,
    evolve_circuit,
    expectation_exact,
    expectation_shots,
    load_circuit,
    load_hamiltonian,
    to_pauli,
)
from vqebench.stats import (
    Sample2D,
    bootstrap_ellipse,
    box_m_test,
    friedman_test,
    mardia_test,
    p_adjust,
    permanova,
    permdisp,
)

from oracles import basis_state, ellipse_contains, from_pauli, pure_state


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capsys):
    # criterion() needs the capture fixture so its one-line verdicts can
    # bypass output capture and reach the terminal.
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _emit(line):
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line)
    else:
        print(line)


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    _emit(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s)")


def toy_problem():
    ham_path, circ_path = toy_problem_paths()
    return load_hamiltonian(ham_path), load_circuit(circ_path)


def _after(rule, qubits, rho):
    """rho after the channels `rule` attaches to a gate on `qubits`, the
    gate a rotation at theta = 0 (the identity)."""
    gate = Gate("prot", qubits, 0, "Z" * len(qubits))
    n = rho.shape[0].bit_length() - 1
    schedule = compile_circuit(Circuit(n, (gate,)), (rule,))
    return from_pauli(evolve_circuit(to_pauli(rho[None]), schedule, np.zeros((1, 1)))[0])[0]


def test_criterion_1_channel_analytics():
    with criterion(1, "channel analytics"):
        plus = pure_state([1.0, 1.0])
        # phase damping: off-diagonal factor sqrt(1 - lam)
        for lam in (0.1, 0.37, 0.8):
            out = _after(NoiseRule(frozenset({"prot"}), "phase_damping", lam=lam), (0,), plus)
            assert abs(abs(out[0, 1]) - 0.5 * math.sqrt(1.0 - lam)) < 1e-9
        # depolarizing: fixed point I/d and closed form, on one to three qubits
        rng = np.random.default_rng(0)
        for arity in (1, 2, 3):
            d = 2 ** arity
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = a @ a.conj().T
            rho /= np.trace(rho)
            qubits = tuple(range(arity))
            out = _after(NoiseRule(frozenset({"prot"}), "depolarizing", p=1.0), qubits, rho)
            assert np.max(np.abs(out - np.eye(d) / d)) < 1e-9
            p = 0.23
            out = _after(NoiseRule(frozenset({"prot"}), "depolarizing", p=p), qubits, rho)
            assert np.max(np.abs(out - ((1 - p) * rho + p * np.eye(d) / d))) < 1e-9
        # thermal relaxation over a one-qubit gate's 50 ns: population
        # factor e^{-t/T1}, coherence e^{-t/T2}
        t1, t2, t_g = 220.0, 180.0, 50.0
        thermal = NoiseRule(frozenset({"prot"}), "thermal_relaxation", t1_ns=t1, t2_ns=t2)
        excited = pure_state([0.0, 1.0])
        out = _after(thermal, (0,), excited)
        assert abs(out[1, 1].real - math.exp(-t_g / t1)) < 1e-9
        out = _after(thermal, (0,), plus)
        assert abs(abs(out[0, 1]) - 0.5 * math.exp(-t_g / t2)) < 1e-9
        # amplitude damping (T2 = 2 T1): b11 -> (1 - gamma) b11, the rest to |0>
        t1 = -t_g / math.log(0.7)
        damping = NoiseRule(frozenset({"prot"}), "thermal_relaxation", t1_ns=t1, t2_ns=2.0 * t1)
        out = _after(damping, (0,), excited)
        assert abs(out[0, 0].real - 0.3) < 1e-9 and abs(out[1, 1].real - 0.7) < 1e-9


def test_criterion_2_variational_lower_bound():
    with criterion(2, "variational lower bound"):
        hamiltonian, circuit = toy_problem()
        ref = reference_energies(hamiltonian)
        ctx = EnsembleContext(hamiltonian, circuit, 0, 1, EstimatorSpec())
        thetas = np.random.default_rng(1).uniform(-2 * np.pi, 2 * np.pi, size=(1000, 3))
        assert np.all(sa_cost(thetas, ctx) >= ref.e0 + ref.e1 - 1e-9)


def test_criterion_3_noiseless_convergence():
    with criterion(3, "noiseless convergence"):
        hamiltonian, circuit = toy_problem()
        ref = reference_energies(hamiltonian)
        ctx = EnsembleContext(hamiltonian, circuit, 0, 1, EstimatorSpec())
        cost = lambda t: sa_cost(t, ctx)
        for kind in ("bfgs", "slsqp", "nelder_mead", "powell", "cobyla"):
            res = minimize(cost, np.zeros(3), OptimizerSpec(kind=kind), np.random.default_rng(0))
            e_sa = cost(res.theta_best[None])[0]
            assert abs(e_sa - (ref.e0 + ref.e1)) < 1e-6, f"{kind}: {e_sa}"
        res = minimize(cost, np.zeros(3), OptimizerSpec(kind="isoma"), np.random.default_rng(0))
        assert res.n_evals <= 750
        e_sa = cost(res.theta_best[None])[0]
        assert abs(e_sa - (ref.e0 + ref.e1)) < 1e-2, f"isoma: {e_sa}"


def test_criterion_4_shot_noise_unbiasedness():
    with criterion(4, "shot-noise unbiasedness"):
        hamiltonian, circuit = toy_problem()
        r0 = to_pauli(basis_state(0, 2)[None])
        rho = evolve_circuit(r0, compile_circuit(circuit), np.array([[0.3, -0.7, 0.5]]))[0]
        exact = expectation_exact(rho, compile_readout(hamiltonian))[0]
        n_m = 256
        n_seeds = 10_000
        # binomial variance of the estimator: sum_k c_k^2 (1 - <P_k>^2) / n_m
        var = 0.0
        for coeff, string in hamiltonian:
            if set(string) == {"I"}:
                continue
            mean_k = expectation_exact(rho, compile_readout(PauliSum.from_terms([(1.0, string)])))[0]
            var += coeff**2 * (1.0 - mean_k**2) / n_m
        sigma = math.sqrt(var)
        rng = np.random.default_rng(2024)
        draws = np.concatenate(
            [expectation_shots(rho, compile_readout(hamiltonian), n_m, rng) for _ in range(n_seeds)]
        )
        se = sigma / math.sqrt(n_seeds)
        assert abs(draws.mean() - exact) <= 5.0 * se


def test_criterion_5_permutation_oracles():
    with criterion(5, "permutation-test oracles"):
        fixtures = [
            (
                np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [2.0, 2.0], [2.1, 2.0], [2.0, 2.1]]),
                ["a", "a", "a", "b", "b", "b"],
            ),
            (
                np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2], [0.4, 0.9], [1.2, 0.1], [0.3, 0.3]]),
                ["a", "a", "b", "b", "b", "b"],
            ),
            (
                np.array(
                    [
                        [0.0, 0.0], [0.2, 0.1], [3.0, 0.0], [3.1, 0.2],
                        [0.0, 3.0], [0.2, 3.1], [1.5, 1.5], [1.6, 1.4],
                    ]
                ),
                ["a", "a", "b", "b", "c", "c", "d", "d"],
            ),
        ]

        def enumerate_p(labels, stat_of_labels):
            f_obs = stat_of_labels(list(labels))
            seen = set()
            count = total = 0
            for perm in permutations(labels):
                if perm in seen:
                    continue
                seen.add(perm)
                total += 1
                if stat_of_labels(list(perm)) >= f_obs - 1e-12:
                    count += 1
            return count / total

        for points, labels in fixtures:
            res = permanova(points, labels, n_perm=10**6, rng=np.random.default_rng(0))
            assert res.extras["exact"]
            oracle = enumerate_p(
                labels,
                lambda ls: permanova(points, ls, n_perm=1, rng=np.random.default_rng(0)).statistic,
            )
            assert res.p == oracle

            # permdisp null: fixed distances to observed centroids, permuted labels
            arr = np.asarray(labels)
            dists = np.empty(len(arr))
            for u in np.unique(arr):
                idx = arr == u
                dists[idx] = np.linalg.norm(points[idx] - points[idx].mean(axis=0), axis=1)

            def disp_stat(ls):
                ls = np.asarray(ls)
                groups = [dists[ls == u] for u in np.unique(ls)]
                k = len(groups)
                grand = dists.mean()
                ssb = sum(g.size * (g.mean() - grand) ** 2 for g in groups)
                ssw = sum(((g - g.mean()) ** 2).sum() for g in groups)
                if ssw <= 0.0:
                    return 0.0 if ssb <= 0.0 else np.inf
                return (ssb / (k - 1)) / (ssw / (dists.size - k))

            res_d = permdisp(points, labels, n_perm=10**6, rng=np.random.default_rng(0))
            assert res_d.extras["exact"]
            assert res_d.p == enumerate_p(labels, disp_stat)

        rng = np.random.default_rng(3)
        big = rng.normal(size=(210, 2))
        big_labels = [f"g{i}" for i in range(21) for _ in range(10)]
        assert permanova(big, big_labels, n_perm=49, rng=rng).df == (20, 189)


def test_criterion_6_friedman_kendall_identity():
    with criterion(6, "Friedman/Kendall identity"):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            k = int(rng.integers(2, 9))
            res = friedman_test(rng.normal(size=(n, k)))
            assert res.statistic == pytest.approx(n * (k - 1) * res.extras["W"], rel=1e-12)
        # reported pair at n=21, k=6
        chi2, w = 54.35, 0.518
        assert abs(chi2 / (21 * 5) - w) < 0.001


def test_criterion_7_degrees_of_freedom():
    with criterion(7, "degrees-of-freedom reproduction"):
        rng = np.random.default_rng(5)
        skew, _ = mardia_test(Sample2D(rng.normal(size=(30, 2))))
        assert skew.df == 4
        groups = [Sample2D(rng.normal(size=(10, 2))) for _ in range(21)]
        assert box_m_test(groups).df == 60


def test_criterion_8_correction_procedures():
    with criterion(8, "correction procedures"):
        assert np.allclose(p_adjust(np.array([0.01, 0.02, 0.03]), "holm"), [0.03, 0.04, 0.04])
        assert np.allclose(p_adjust(np.array([0.01, 0.02, 0.03]), "bh"), [0.03, 0.03, 0.03])
        rng = np.random.default_rng(6)
        n_vectors, width = 2000, 50  # 10^5 random p-values in total
        for _ in range(n_vectors):
            p = rng.uniform(size=width)
            order = np.argsort(p, kind="stable")
            for method in ("holm", "bh"):
                adj = p_adjust(p, method)
                assert np.all(adj >= p - 1e-15)
                assert np.all(adj <= 1.0)
                assert np.all(np.diff(adj[order]) >= -1e-15)


def test_criterion_9_bootstrap_ellipse():
    with criterion(9, "bootstrap ellipse calibration"):
        rng = np.random.default_rng(7)
        sample = Sample2D(rng.normal(size=(10_000, 2)))
        ell = bootstrap_ellipse(sample, n_boot=400, rng=np.random.default_rng(8))
        assert abs(ell.d95_sq - 5.991) / 5.991 < 0.10
        fresh = rng.normal(size=(20_000, 2))
        coverage = ellipse_contains(ell, fresh).mean()
        assert 0.93 <= coverage <= 0.97


def test_criterion_10_noise_ordering():
    with criterion(10, "noise-ordering trend"):
        hamiltonian, circuit = toy_problem()
        ref = reference_energies(hamiltonian)
        gate_kinds = frozenset({"ry", "cx", "prot"})

        def optimized_error(kind, key, rate):
            rule = NoiseRule(gate_kinds, kind, **{key: rate})
            ctx = EnsembleContext(
                hamiltonian, circuit, 0, 1,
                EstimatorSpec(noise=(rule,)),
            )
            res = minimize(
                lambda t: sa_cost(t, ctx), np.zeros(3),
                OptimizerSpec(kind="bfgs"), np.random.default_rng(0),
            )
            e0, e1 = resolve_states(res.theta_best, ctx)
            return abs((e0 + e1) - (ref.e0 + ref.e1))

        rates = (0.01, 0.05, 0.10, 0.20)
        depol = [optimized_error("depolarizing", "p", r) for r in rates]
        dephase = [optimized_error("phase_damping", "lam", r) for r in rates]
        assert all(b >= a - 1e-12 for a, b in zip(depol, depol[1:]))
        for d, ph in zip(depol, dephase):
            assert d >= ph - 1e-12


def test_criterion_11_end_to_end_determinism():
    with criterion(11, "end-to-end determinism"):
        ham_path, circ_path = toy_problem_paths()
        cfg = config_from_dict(
            {
                "hamiltonian_path": ham_path,
                "circuit_path": circ_path,
                "families": ["ideal", "SN-256", "DP-1%"],
                "optimizers": ["bfgs", "cobyla", "nelder_mead"],
                "seeds": [0, 1, 2, 3, 4],
            }
        )

        def rows(jobs):
            records = run_experiment(cfg, jobs=jobs)
            return [_record_row(r)[:8] for r in records]  # drop wall_time_ms

        first = rows(1)
        assert len(first) == 45
        assert rows(1) == first
        assert rows(4) == first

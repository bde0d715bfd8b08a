import math

import pytest

from vqebench.errors import ParameterDomainError
from vqebench.harness import (
    RunRecord,
    config_from_dict,
    derive_run_seed,
    read_records,
    run_experiment,
    toy_problem_paths,
    write_records,
)


def make_config(families=("ideal",), optimizers=("bfgs",), seeds=(0, 1), **extra):
    ham, circ = toy_problem_paths()
    data = {
        "hamiltonian_path": ham,
        "circuit_path": circ,
        "families": list(families),
        "optimizers": list(optimizers),
        "seeds": list(seeds),
    }
    data.update(extra)
    return config_from_dict(data)


# --- seed derivation -------------------------------------------------------

def test_run_seed_stable():
    assert derive_run_seed("ideal", "bfgs", 0) == derive_run_seed("ideal", "bfgs", 0)


def test_run_seed_distinguishes_fields():
    seeds = {
        derive_run_seed("ideal", "bfgs", 0),
        derive_run_seed("ideal", "bfgs", 1),
        derive_run_seed("ideal", "cobyla", 0),
        derive_run_seed("SN-256", "bfgs", 0),
    }
    assert len(seeds) == 4


def test_run_seed_is_64_bit():
    s = derive_run_seed("DEPOL-5%", "isoma", 7)
    assert 0 <= s < 2**64


# --- records and CSV -------------------------------------------------------

def test_record_invariants():
    with pytest.raises(ParameterDomainError):
        RunRecord("f", "o", 0, -1.0, -2.0, -3.0, 10, True, 1.0)
    with pytest.raises(ParameterDomainError):
        RunRecord("f", "o", 0, -2.0, -1.0, -3.0, 0, True, 1.0)


def test_nan_record_allowed():
    r = RunRecord("f", "o", 0, math.nan, math.nan, math.nan, 5, False, 1.0)
    assert not r.converged


def test_csv_round_trip(tmp_path):
    records = [
        RunRecord("ideal", "bfgs", 0, -2.0615528128088303, -0.5, -2.5615528128088303, 50, True, 12.5),
        RunRecord("SN-256", "cobyla", 3, -1.9999999999999998, -0.3333333333333333, -2.333333333333333, 7, False, 0.25),
    ]
    path = tmp_path / "runs.csv"
    write_records(records, path)
    back = read_records(path)
    assert back == records  # 17 significant digits survive the round trip


def test_read_records_rejects_bad_header(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(ParameterDomainError):
        read_records(path)


def test_read_records_missing_file(tmp_path):
    with pytest.raises(ParameterDomainError):
        read_records(tmp_path / "absent.csv")


# --- run_experiment --------------------------------------------------------

def test_grid_size_and_order():
    cfg = make_config(families=("ideal",), optimizers=("bfgs", "cobyla"), seeds=(0, 1))
    records = run_experiment(cfg)
    assert len(records) == 4
    assert [(r.optimizer, r.seed) for r in records] == [
        ("bfgs", 0), ("bfgs", 1), ("cobyla", 0), ("cobyla", 1)
    ]


def test_ideal_bfgs_reaches_reference(toy_reference):
    cfg = make_config(seeds=(0,))
    (record,) = run_experiment(cfg)
    assert record.converged
    assert record.e_sa == pytest.approx(toy_reference.e_sa, abs=1e-6)
    assert record.e_ground <= record.e_excited


def test_rerun_identical_modulo_wall_time():
    cfg = make_config(families=("SN-256",), optimizers=("cobyla",), seeds=(0, 1))
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    for a, b in zip(first, second):
        assert (a.e_ground, a.e_excited, a.e_sa, a.n_evals, a.converged) == (
            b.e_ground, b.e_excited, b.e_sa, b.n_evals, b.converged
        )


def test_streaming_output_matches_return(tmp_path):
    cfg = make_config(seeds=(0, 1))
    path = tmp_path / "runs.csv"
    records = run_experiment(cfg, out_path=path)
    assert read_records(path) == records


def test_uniform_theta0_varies_across_seeds():
    cfg = make_config(
        families=("ideal",),
        optimizers=("nelder_mead",),
        seeds=(0, 1, 2),
        theta0_policy={"kind": "uniform", "low": -3.14, "high": 3.14},
    )
    records = run_experiment(cfg)
    evals = {r.n_evals for r in records}
    e_sa = {r.e_sa for r in records}
    assert len(evals) > 1 or len(e_sa) > 1


def test_nan_cost_partway_writes_nan_row_and_grid_continues(tmp_path, monkeypatch):
    from vqebench.harness import runner

    clean = run_experiment(make_config(seeds=(1,)))
    sa_cost = runner.sa_cost
    stacks = []  # rows per call: the runner passes sa_cost stacks of points

    def nan_on_fifth_evaluation(thetas, ctx, rng):
        values = sa_cost(thetas, ctx, rng)
        fifth = 4 - sum(stacks)
        stacks.append(len(thetas))
        if 0 <= fifth < len(values):
            values[fifth] = math.nan
        return values

    monkeypatch.setattr(runner, "sa_cost", nan_on_fifth_evaluation)
    path = tmp_path / "runs.csv"
    failed, after = run_experiment(make_config(seeds=(0, 1)), out_path=path)

    assert math.isnan(failed.e_ground) and math.isnan(failed.e_excited)
    assert math.isnan(failed.e_sa)
    assert not failed.converged
    assert failed.n_evals == 5  # the NaN evaluation counts
    row = path.read_text().splitlines()[1]
    assert row.rsplit(",", 1)[0] == "ideal,bfgs,0,nan,nan,nan,5,false"
    assert stacks[:2] == [1, 6]  # theta0, then the gradient stack that holds the NaN
    assert sum(stacks) > 5  # the next run of the grid executed
    assert (after.e_ground, after.e_excited, after.n_evals, after.converged) == (
        clean[0].e_ground, clean[0].e_excited, clean[0].n_evals, clean[0].converged
    )


def test_problem_loaded_once_per_grid(monkeypatch):
    from vqebench.harness import runner

    calls = {"load_hamiltonian": 0, "load_circuit": 0}

    def counted(name):
        load = getattr(runner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return load(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(runner, name, counted(name))
    cfg = make_config(
        families=("ideal", "SN-256"),
        optimizers=({"kind": "bfgs", "maxiter": 1}, {"kind": "cobyla", "maxiter": 3}),
        seeds=(0, 1),
    )
    assert len(run_experiment(cfg)) == 8
    assert calls == {"load_hamiltonian": 1, "load_circuit": 1}

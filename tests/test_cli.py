import csv
import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import vqebench
from vqebench.harness import RunRecord, toy_problem_paths, write_records
from vqebench.harness.cli import main


def write_config(tmp_path, **overrides):
    ham, circ = toy_problem_paths()
    data = {
        "hamiltonian_path": ham,
        "circuit_path": circ,
        "families": ["ideal"],
        "optimizers": ["bfgs"],
        "seeds": [0, 1],
    }
    data.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def synthetic_records():
    """Two families, two optimizers; 'good' dominates everywhere."""
    records = []
    for fam_i, fam in enumerate(("fam_a", "fam_b")):
        for seed in range(6):
            e = 0.01 * seed + 0.02 * fam_i
            records.append(RunRecord(fam, "good", seed, -2.0 + e, -0.5 + e, -2.5 + 2 * e, 10, True, 1.0))
            e = 0.7 + 0.1 * seed
            records.append(RunRecord(fam, "bad", seed, -2.0 + e, -0.5 + e, -2.5 + 2 * e, 10, True, 1.0))
    return records


def test_analyze_and_rank_run_without_scipy(tmp_path):
    # the runtime needs numpy alone: with scipy blocked, both report commands
    # still run, and neither imports numpy.ma (np.median and np.percentile
    # would; scipy imports it too, so only a fresh process can tell)
    runs = tmp_path / "runs.csv"
    write_records(synthetic_records(), runs)
    code = (
        "import sys; sys.modules['scipy'] = None; from vqebench.harness.cli import main; "
        "code = main(sys.argv[1:]); assert 'numpy.ma' not in sys.modules; sys.exit(code)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vqebench.__file__).parents[1])}
    analyze = ["analyze", "--runs", str(runs), "--per-optimizer", str(tmp_path / "a"), "--n-perm", "19"]
    rank = ["rank", "--runs", str(runs), "--reference", "-2.0", "-0.5", "--out", str(tmp_path / "r")]
    for argv in (analyze, rank):
        subprocess.run([sys.executable, "-c", code, *argv], check=True, env=env, capture_output=True)
    assert (tmp_path / "a" / "good" / "levene.json").is_file()
    assert (tmp_path / "r" / "rank_summary.json").is_file()


def test_cli_import_leaves_out_the_process_pool():
    # only `run --jobs N` with N > 1 uses a process pool, so no command start imports one
    code = (
        "import sys, vqebench.harness.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[:2] == ['concurrent', 'futures'])\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vqebench.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_catalog_lists_21(capsys):
    assert main(["catalog"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 21
    assert lines[0] == "ideal"


def test_unknown_flag_exits_2(capsys):
    assert main(["catalog", "--frobnicate"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["explode"]) == 2


def test_run_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "runs.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 3  # header + 2 seeds
    assert rows[0][0] == "family"


def test_run_ansatz_with_idle_top_qubit(tmp_path, capsys):
    # the ansatz acts on qubit 0 of the toy's two; qubit 1 stays idle
    circ = tmp_path / "idle.circ"
    circ.write_text("ry 0 t0\n")
    out = tmp_path / "runs.csv"
    cfg = write_config(tmp_path, circuit_path=str(circ))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["seed"] for r in rows] == ["0", "1"]
    assert all(float(r["e_sa"]) < 0.0 for r in rows)


def test_run_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 2


def test_run_unknown_family_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, families=["no-such-family"])
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2


def test_analyze_bad_runs_exits_3(tmp_path, capsys):
    bad = tmp_path / "runs.csv"
    bad.write_text("nope\n")
    assert main(["analyze", "--runs", str(bad), "--per-optimizer", str(tmp_path / "a")]) == 3


def test_analyze_default_budget_is_the_library_default():
    # the CLI writes the budget as a literal, so that catalog and run need not
    # load the stats layer to parse their arguments
    from vqebench.harness import reports
    from vqebench.harness.cli import _build_parser
    from vqebench.stats import permutation

    args = _build_parser().parse_args(["analyze", "--runs", "r.csv", "--per-optimizer", "out"])
    functions = (permutation.permanova, permutation.permdisp, permutation.pairwise_posthoc,
                 reports.analyze_optimizer, reports.analyze_runs)
    defaults = {inspect.signature(fn).parameters["n_perm"].default for fn in functions}
    assert defaults == {args.n_perm} == {permutation.DEFAULT_N_PERM}


def test_analyze_writes_reports(tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    write_records(synthetic_records(), runs)
    out = tmp_path / "analysis"
    assert main(
        ["analyze", "--runs", str(runs), "--per-optimizer", str(out), "--n-perm", "199"]
    ) == 0
    for opt in ("good", "bad"):
        for name in (
            "mardia.json",
            "box_m.json",
            "levene.json",
            "brown_forsythe.json",
            "permanova.json",
            "permdisp.json",
            "ellipses.csv",
        ):
            assert (out / opt / name).exists()
        with open(out / opt / "permanova_pairwise.csv", newline="") as handle:
            heat = list(csv.reader(handle))
        assert heat[0][1:] == ["fam_a", "fam_b"]


@pytest.mark.parametrize("name", ["../escaped", "..", ".", "", "a/b", "absolute"])
def test_analyze_rejects_an_optimizer_that_is_not_a_plain_name(tmp_path, capsys, name):
    if name == "absolute":
        name = str(tmp_path / "abs")
    runs = tmp_path / "runs.csv"
    write_records([replace(r, optimizer=name) if r.optimizer == "bad" else r
                   for r in synthetic_records()], runs)
    argv = ["analyze", "--runs", str(runs), "--per-optimizer", str(tmp_path / "out" / "inner")]
    assert main([*argv, "--n-perm", "9"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"data error: optimizer {name!r} is not a plain directory name"]
    assert [p.name for p in tmp_path.rglob("*")] == ["runs.csv"]


def test_rank_dominant_optimizer(tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    write_records(synthetic_records(), runs)
    out = tmp_path / "rank"
    code = main(
        ["rank", "--runs", str(runs), "--reference", "-2.0", "-0.5", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "rank_summary.json").read_text())
    assert summary["metrics"]["good"]["wins"] == 2
    assert summary["metrics"]["good"]["avg_place"] == pytest.approx(1.0)
    with open(out / "rank_heatmap.csv", newline="") as handle:
        heat = list(csv.reader(handle))
    assert heat[0] == ["family", "bad", "good"]
    assert heat[-1][0] == "overall"


def test_rank_overflowing_distance_exits_3(tmp_path, capsys):
    # finite energies whose distance to the reference overflows to inf
    records = synthetic_records()
    records += [
        RunRecord("fam_a", opt, seed, 1e308, 1e308, 0.0, 10, True, 1.0)
        for opt in ("huge", "vast")
        for seed in range(6)
    ]
    runs = tmp_path / "runs.csv"
    write_records(records, runs)
    out = tmp_path / "rank"
    assert main(["rank", "--runs", str(runs), "--reference", "-2.0", "-0.5", "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: distances of ")
    assert not out.exists()


def test_analyze_energies_whose_spread_overflows_exit_3(tmp_path, capsys):
    # finite energies whose sums of squares overflow a float
    records = [
        RunRecord(fam, opt, seed, *energies, 10, True, 1.0)
        for opt in ("huge", "vast")
        for seed in range(4)
        for fam, energies in (("fam_a", (1e308, 1e308, 0.0)), ("fam_b", (-2.0, -0.5 + seed, 0.0)))
    ]
    runs = tmp_path / "runs.csv"
    write_records(records, runs)
    out = tmp_path / "huge"
    assert main(["analyze", "--runs", str(runs), "--per-optimizer", str(out), "--n-perm", "99"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [
        "data error: optimizer 'huge': energies too far apart to analyze (their spread overflows)"
    ]
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "rank"])
def test_repeated_run_exits_3(tmp_path, capsys, command):
    # a run that two rows hold would count twice in every test
    records = synthetic_records()
    repeats = [r for r in records if r.family == "fam_a" and r.optimizer == "bad"][:4]
    runs = tmp_path / "runs.csv"
    write_records(records + [replace(r, e_ground=r.e_ground - 0.1) for r in repeats], runs)
    out = tmp_path / "out"
    argv = {
        "analyze": ["analyze", "--runs", str(runs), "--per-optimizer", str(out)],
        "rank": ["rank", "--runs", str(runs), "--reference", "-2.0", "-0.5", "--out", str(out)],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"data error: rows 2 and 25 in {runs} repeat run ('fam_a', 'bad', 0)"]
    assert not out.exists()


def test_run_with_two_jobs_equals_one_job(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        families=["ideal", "SN-256", "DP-1%"],
        optimizers=[{"kind": "bfgs", "maxiter": 4}, {"kind": "cobyla", "maxiter": 20}],
    )
    rows = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"runs{jobs}.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
        with open(out, newline="") as handle:
            rows[jobs] = [row[:-1] for row in csv.reader(handle)]  # wall_time_ms aside
    assert rows["1"][0][-1] == "converged"
    assert len(rows["1"]) == 1 + 3 * 2 * 2
    assert rows["2"] == rows["1"]


@pytest.mark.parametrize(
    "command, option, values",
    [
        ("analyze", "--n-perm", ["-3"]),
        ("analyze", "--n-perm", ["0"]),
        ("analyze", "--seed", ["-1"]),
        ("rank", "--reference", ["nan", "-0.5"]),
        ("rank", "--reference", ["-2.0", "inf"]),
        ("rank", "--alpha", ["2"]),
        ("rank", "--alpha", ["0"]),
        ("run", "--jobs", ["0"]),
        ("run", "--jobs", ["-2"]),
        ("rank", "--reference", ["-0.06", "-2.5"]),  # E0 above E1: a swapped pair
    ],
)
def test_argument_outside_domain_exits_2(tmp_path, capsys, command, option, values):
    runs = tmp_path / "runs.csv"
    write_records(synthetic_records(), runs)
    out = tmp_path / "out"
    argv = {
        "run": ["run", "--config", str(write_config(tmp_path)), "--out", str(out)],
        "analyze": ["analyze", "--runs", str(runs), "--per-optimizer", str(out)],
        "rank": ["rank", "--runs", str(runs), "--reference", "-2.0", "-0.5", "--out", str(out)],
    }[command]
    assert main(argv + [option, *values]) == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}:" in err and "Traceback" not in err
    assert not out.exists()


def test_rank_missing_runs_exits_3(tmp_path, capsys):
    assert main(
        ["rank", "--runs", str(tmp_path / "none.csv"), "--reference", "0", "0"]
    ) == 3
    # one optimizer cannot be ranked: exit 3 before any file is written
    runs = tmp_path / "runs.csv"
    write_records([r for r in synthetic_records() if r.optimizer == "good"], runs)
    out = tmp_path / "rank"
    assert main(["rank", "--runs", str(runs), "--reference", "-2.0", "-0.5", "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == "data error: ranking needs at least two optimizers"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "analyze", "rank"])
def test_unwritable_output_exits_3(tmp_path, capsys, command):
    runs = tmp_path / "runs.csv"
    write_records(synthetic_records(), runs)
    blocker = tmp_path / "file"  # a regular file used as a parent directory
    blocker.write_text("")
    argv = {
        "run": ["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "missing" / "x.csv")],
        "analyze": ["analyze", "--runs", str(runs), "--per-optimizer", str(blocker / "sub"), "--n-perm", "9"],
        "rank": ["rank", "--runs", str(runs), "--reference", "-2.0", "-0.5", "--out", str(blocker / "r")],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:")


@pytest.mark.parametrize(
    "bad_problem",
    [
        "missing_ham",
        "nine_qubits",
        "phi_out_of_range",
        "no_parameters",
        "negative_qubit",
        "qubit_too_high",
        "unknown_gate",
        "overflowing_coefficient",
        "overflowing_energy",
    ],
)
def test_bad_problem_exits_3_and_leaves_out_untouched(tmp_path, capsys, bad_problem):
    ham = tmp_path / "big.ham"
    ham.write_text("1.0 " + "Z" * 9 + "\n")
    circ = tmp_path / "big.circ"
    circ.write_text("ry 0 t0\nry 8 t1\n")
    fixed = tmp_path / "fixed.circ"
    fixed.write_text("cx 0 1\nx 0\n")
    negative = tmp_path / "negative.circ"
    negative.write_text("ry 0 t0\nry -1 t1\ncx 0 1\n")
    too_high = tmp_path / "too_high.circ"
    too_high.write_text("ry 0 t0\nry 2 t1\n")  # the toy Hamiltonian has qubits 0 and 1
    unknown = tmp_path / "unknown.circ"
    unknown.write_text("ry 0 t0\nrzz 0 1 t1\n")
    overflowing = tmp_path / "overflowing.ham"
    overflowing.write_text("1e308 ZI\n-1.0 IZ\n1e308 ZI\n")  # ZI merges to inf
    energy = tmp_path / "energy.ham"
    energy.write_text("1e308 ZI\n1e308 IZ\n")  # finite coefficients, infinite energies
    overrides = {
        "missing_ham": {"hamiltonian_path": str(tmp_path / "absent.ham")},
        "nine_qubits": {"hamiltonian_path": str(ham), "circuit_path": str(circ)},
        "phi_out_of_range": {"phi_b": 4},  # the toy problem has 2 qubits
        "no_parameters": {"circuit_path": str(fixed)},  # nothing to optimize
        "negative_qubit": {"circuit_path": str(negative)},
        "qubit_too_high": {"circuit_path": str(too_high)},
        "unknown_gate": {"circuit_path": str(unknown)},
        "overflowing_coefficient": {"hamiltonian_path": str(overflowing)},
        "overflowing_energy": {"hamiltonian_path": str(energy)},
    }[bad_problem]
    out = tmp_path / "o.csv"
    out.write_bytes(b"an earlier grid's runs\n")
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:")
    assert out.read_bytes() == b"an earlier grid's runs\n"


@pytest.mark.parametrize(
    "bad_file, command, code, prefix",
    [
        ("config", "run", 2, "config error:"),
        ("hamiltonian", "run", 3, "data error:"),
        ("circuit", "run", 3, "data error:"),
        ("runs", "analyze", 3, "data error:"),
        ("runs", "rank", 3, "data error:"),
    ],
)
def test_input_that_is_not_utf8_exits_with_its_code(tmp_path, capsys, bad_file, command, code, prefix):
    ham, circ = (Path(p) for p in toy_problem_paths())
    files = {"hamiltonian": tmp_path / "toy.ham", "circuit": tmp_path / "toy.circ"}
    for path, source in zip(files.values(), (ham, circ)):
        path.write_bytes(source.read_bytes())
    files["config"] = write_config(tmp_path, hamiltonian_path=str(files["hamiltonian"]),
                                   circuit_path=str(files["circuit"]))
    files["runs"] = tmp_path / "runs.csv"
    write_records(synthetic_records(), files["runs"])
    with open(files[bad_file], "ab") as handle:
        handle.write(b"# \xff\n")  # one byte that is not UTF-8
    argv = {
        "run": ["run", "--config", str(files["config"]), "--out", str(tmp_path / "o.csv")],
        "analyze": ["analyze", "--runs", str(files["runs"]), "--per-optimizer", str(tmp_path / "a")],
        "rank": ["rank", "--runs", str(files["runs"]), "--reference", "-2.0", "-0.5", "--out", str(tmp_path / "r")],
    }[command]
    assert main(argv) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix) and "UTF-8" in err[0].upper(), err


def _modules_loaded_by(tmp_path, command) -> list[str]:
    """Every module loaded once `command` has run in a fresh process, so
    that no other test's imports count."""
    runs = tmp_path / "runs.csv"
    write_records(synthetic_records(), runs)
    argv = {
        "catalog": ["catalog"],
        "analyze": ["analyze", "--runs", str(runs), "--per-optimizer", str(tmp_path / "a"), "--n-perm", "19"],
        "rank": ["rank", "--runs", str(runs), "--reference", "-2.0", "-0.5", "--out", str(tmp_path / "r")],
        "run": ["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o.csv"), "--jobs", "1"],
    }[command]
    loaded = tmp_path / "modules.txt"
    code = (
        "import sys\n"
        "from vqebench.harness.cli import main\n"
        "code = main(sys.argv[2:])\n"
        "open(sys.argv[1], 'w').write('\\n'.join(sys.modules))\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vqebench.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code, str(loaded), *argv], check=True, env=env, capture_output=True)
    return loaded.read_text().split()


def _vqebench_modules(modules) -> list[str]:
    return sorted(m for m in modules if m.split(".")[0] == "vqebench")


def test_catalog_loads_only_the_catalog_and_the_simulator_it_names(tmp_path):
    # the noise rules, not the simulator that applies them; on a host without
    # bytecode caching every module a command loads is compiled at each
    # start, so a change to this set edits the pin and says why.  No
    # vqebench.qsim.pauli: it and numpy are imported only to build a channel
    # table, which catalog never does
    assert _vqebench_modules(_modules_loaded_by(tmp_path, "catalog")) == [
        "vqebench",
        "vqebench.errors",
        "vqebench.harness",
        "vqebench.harness.catalog",
        "vqebench.harness.cli",
        "vqebench.harness.records",
        "vqebench.qsim",
        "vqebench.qsim.circuits",
        "vqebench.qsim.noise",
    ]


def test_run_loads_the_simulator_the_ensemble_and_the_optimizers(tmp_path):
    # the exact set, pinned as catalog's is
    assert _vqebench_modules(_modules_loaded_by(tmp_path, "run")) == [
        "vqebench",
        "vqebench.ensemble",
        "vqebench.errors",
        "vqebench.harness",
        "vqebench.harness.catalog",
        "vqebench.harness.cli",
        "vqebench.harness.config",
        "vqebench.harness.records",
        "vqebench.harness.runner",
        "vqebench.optimizers",
        "vqebench.optimizers.direct",
        "vqebench.optimizers.gradient",
        "vqebench.optimizers.result",
        "vqebench.optimizers.session",
        "vqebench.optimizers.soma",
        "vqebench.qsim",
        "vqebench.qsim.circuits",
        "vqebench.qsim.noise",
        "vqebench.qsim.pauli",
        "vqebench.qsim.simulate",
    ]


@pytest.mark.parametrize("command", ["analyze", "rank"])
def test_report_commands_load_only_the_reports_and_the_stats_layer(tmp_path, command):
    # the exact set, pinned as catalog's is
    assert _vqebench_modules(_modules_loaded_by(tmp_path, command)) == [
        "vqebench",
        "vqebench.errors",
        "vqebench.harness",
        "vqebench.harness.cli",
        "vqebench.harness.records",
        "vqebench.harness.reports",
        "vqebench.stats",
        "vqebench.stats.ellipse",
        "vqebench.stats.metrics",
        "vqebench.stats.normality",
        "vqebench.stats.permutation",
        "vqebench.stats.ranks",
        "vqebench.stats.types",
    ]


#: Modules each command must not load: a command loads only the layers it runs.
_NOT_LOADED = {
    "catalog": (
        "vqebench.optimizers",
        "vqebench.ensemble",
        "vqebench.harness.runner",
        "vqebench.harness.config",
        "vqebench.qsim.simulate",
        "vqebench.qsim.pauli",
        "vqebench.stats",
        "numpy",
    ),
    "analyze": (
        "vqebench.qsim",
        "vqebench.optimizers",
        "vqebench.ensemble",
        "vqebench.harness.runner",
        "vqebench.harness.config",
        "vqebench.harness.catalog",
    ),
    "run": ("vqebench.stats", "vqebench.harness.reports", "concurrent.futures"),
}
_NOT_LOADED["rank"] = _NOT_LOADED["analyze"]


@pytest.mark.parametrize("command", sorted(_NOT_LOADED))
def test_command_loads_only_its_layers(tmp_path, command):
    modules = _modules_loaded_by(tmp_path, command)
    unwanted = [m for m in modules if any(m == u or m.startswith(u + ".") for u in _NOT_LOADED[command])]
    assert unwanted == []


def test_depolarizing_on_3q_prot_runs(tmp_path):
    # depolarizing acts on a gate of any arity: here all three qubits of a prot
    ham = tmp_path / "3q.ham"
    ham.write_text("1.0 ZZZ\n0.5 XII\n")
    circ = tmp_path / "3q.circ"
    circ.write_text("ry 0 t0\nprot XYZ t1 0 1 2\n")
    depolarized = {"name": "dp", "noise": [{"gates": ["prot"], "kind": "depolarizing", "p": 0.1}]}
    cfg = write_config(
        tmp_path, hamiltonian_path=str(ham), circuit_path=str(circ), families=["ideal", depolarized]
    )
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["family"], r["seed"]) for r in rows] == [("ideal", "0"), ("ideal", "1"), ("dp", "0"), ("dp", "1")]
    ideal, noisy = (min(float(r["e_sa"]) for r in rows if r["family"] == f) for f in ("ideal", "dp"))
    assert ideal < noisy < 0.0  # depolarizing pulls the ensemble toward Tr(H)/8 = 0


@pytest.mark.parametrize(
    "overrides",
    [
        {"optimizers": [{"kind": "bfgs", "maxitr": 5}]},
        {"optimizers": [{"kind": "bfgs", "maxiter": 2.5}]},
        {"optimizers": [{"kind": "bfgs", "ftol": "small"}]},
        {"optimizers": [{"kind": "isoma", "isoma": {"popsize": 10}}]},
        {"optimizers": [{"kind": "isoma", "isoma": {"max_fes": 7.5}}]},
        {"theta0_policy": {"kind": "uniform", "lo": -1.0}},
        {"theta0_policy": 3},
        {"phi_a": "zero"},
        {"phi_b": 1.5},
        {"seeds": [0, "one"]},
        {"seeds": 3},
        {"families": [{"name": "shots", "n_m": "many"}]},
        {"families": [{"name": "dp", "noise": [{"gates": ["rz"], "kind": "phase_damping", "lam": "x"}]}]},
        {"families": [{"name": "dp", "noise": 5}]},
        {"hamiltonian_path": 5},
        {"families": [{"name": "dp", "noise": [{"gates": "rz", "kind": "phase_damping", "lam": 0.1}]}]},
        {"families": [{"name": "dp", "noise": [{"gates": ["RZ"], "kind": "phase_damping", "lam": 0.1}]}]},
        {"families": [{"name": "dp", "noise": [{"gates": ["rzz"], "kind": "phase_damping", "lam": 0.1}]}]},
        {"families": [{"name": "dp", "noise": [{"gates": [], "kind": "phase_damping", "lam": 0.1}]}]},
        {"families": [{"name": "ex", "mode": "exact", "n_m": 256}]},
        *(
            {"families": [{"name": "n", "noise": [{"gates": ["cx"], **rule}]}]}
            for rule in (  # parameters the rule's kind does not take
                {"kind": "depolarizing", "p": 0.1, "lam": 0.7, "t1_ns": -5},
                {"kind": "depolarizing", "p": 0.1, "lam": 0.7},
                {"kind": "thermal_relaxation", "t1_ns": 50.0, "t2_ns": 50.0, "p": 0.1},
                {"kind": "phase_damping", "lam": 0.1, "gamma": 0.2},
            )
        ),
        # keys no config object takes, at every level
        {"families": [{"name": "x", "nm": 256}]},
        {"families": [{"name": "x", "nosie": [{"gates": ["cx"], "kind": "depolarizing", "p": 0.1}]}]},
        {"seed": [0]},
        {"theta0": "uniform"},
        {"families": [{"name": "n", "noise": [{"gates": ["cx"], "kind": "depolarizing", "p": 0.1, "qubits": [0]}]}]},
        {"families": [{"name": "sh", "mode": "shots", "n_m": 256}]},
        # integral floats are not integers
        {"families": [{"name": "sh", "n_m": 256.0}]},
        {"phi_a": 0.0},
        # a missing value a noise rule needs
        {"families": [{"name": "n", "noise": [{"gates": ["cx"], "kind": "depolarizing"}]}]},
        # a bool is not a count
        {"optimizers": [{"kind": "bfgs", "maxiter": True}]},
        {"optimizers": [{"kind": "isoma", "isoma": {"max_fes": True}}]},
        # JSON's NaN and Infinity literals are not finite parameter values
        {"theta0_policy": {"kind": "uniform", "low": -float("inf")}},
        {"theta0_policy": {"kind": "uniform", "high": float("nan")}},
        {"optimizers": [{"kind": "isoma", "isoma": {"var_max": float("inf")}}]},
        {"optimizers": [{"kind": "isoma", "isoma": {"var_min": float("nan")}}]},
        {"optimizers": [{"kind": "isoma", "isoma": {"step": float("nan")}}]},
        {"optimizers": [{"kind": "bfgs", "gradient_step": float("nan")}]},
        {"optimizers": [{"kind": "bfgs", "gradient_step": float("inf")}]},
        {"optimizers": [{"kind": "bfgs", "ftol": float("nan")}]},
        {"optimizers": [{"kind": "bfgs", "ftol": float("inf")}]},
        # counts are positive and fit an int64
        {"optimizers": [{"kind": "isoma", "isoma": {"k": -7}}]},
        {"optimizers": [{"kind": "isoma", "isoma": {"n": -2}}]},
        {"optimizers": [{"kind": "isoma", "isoma": {"pop_size": 10**400}}]},
        {"optimizers": [{"kind": "bfgs", "maxiter": 10**400}]},
        {"families": [{"name": "sh", "n_m": 10**400}]},
        {"families": [{"name": "sh", "n_m": 2**63}]},
        # a NaN relaxation time fails every bound check
        {"families": [{"name": "tr", "noise": [{"gates": ["cx"], "kind": "thermal_relaxation", "t1_ns": 50.0, "t2_ns": float("nan")}]}]},
        {"families": [{"name": "tr", "noise": [{"gates": ["cx"], "kind": "thermal_relaxation", "t1_ns": float("nan"), "t2_ns": 50.0}]}]},
        # a repeated seed would write each of its rows twice
        {"seeds": [0, 0, 1]},
        # finite bounds whose span overflows a float
        {"theta0_policy": {"kind": "uniform", "low": -1e308, "high": 1e308}},
        {"optimizers": [{"kind": "isoma", "isoma": {"var_min": -1e308, "var_max": 1e308}}]},
        # a field the optimizer's kind never reads
        {"optimizers": [{"kind": "powell", "ftol": 0.5, "gradient_step": 0.3}]},
        {"optimizers": [{"kind": "nelder_mead", "gradient_step": 0.3}]},
        {"optimizers": [{"kind": "cobyla", "isoma": {"max_fes": 10}}]},
        {"optimizers": [{"kind": "isoma", "maxiter": 1}]},
        {"optimizers": [{"kind": "isoma", "ftol": 0.9}]},
    ],
)
def test_malformed_config_value_exits_2(tmp_path, capsys, overrides):
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(write_config(tmp_path, **overrides)), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"hamiltonian_path": 5}, "hamiltonian_path"),
        ({"circuit_path": ["toy2q.circ"]}, "circuit_path"),
        ({"seeds": 3}, "seeds"),
        ({"families": "ideal"}, "families"),
        ({"optimizers": "bfgs"}, "optimizers"),
        ({"families": [{"name": "dp", "noise": 5}]}, "noise"),
        ({"optimizers": [{"kind": "isoma", "isoma": 3}]}, "isoma"),
        ({"theta0_policy": 3}, "theta0_policy"),
        # a scalar of the wrong type
        ({"optimizers": [{"kind": "bfgs", "ftol": "small"}]}, "ftol"),
        ({"families": [{"name": "dp", "noise": [{"gates": ["rz"], "kind": "phase_damping", "lam": "x"}]}]}, "lam"),
        ({"theta0_policy": {"kind": "uniform", "low": "a"}}, "low"),
        ({"families": [{"name": "dp", "noise": [{"gates": [["rz"]], "kind": "phase_damping", "lam": 0.1}]}]}, "gates"),
        ({"families": [{"name": ["x"]}]}, "name"),
    ],
)
def test_wrong_shape_config_value_names_its_key(tmp_path, capsys, overrides, key):
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(write_config(tmp_path, **overrides)), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and f"{key!r} must be a JSON" in err[0]


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"optimizers": [{"kind": "bfgs", "ftol": 10**400}]}, "ftol"),
        ({"families": [{"name": "dp", "noise": [{"gates": ["rz"], "kind": "phase_damping", "lam": 10**400}]}]}, "lam"),
        ({"theta0_policy": {"kind": "uniform", "low": -(10**400)}}, "low"),
    ],
)
def test_number_beyond_float_range_names_its_key(tmp_path, capsys, overrides, key):
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(write_config(tmp_path, **overrides)), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and f"{key!r} is out of range" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "rank"])
def test_runs_csv_field_beyond_the_csv_limit_exits_3(tmp_path, capsys, command):
    runs = tmp_path / "runs.csv"
    write_records(synthetic_records(), runs)
    with open(runs, "a", newline="") as handle:
        handle.write("x" * (csv.field_size_limit() + 1) + "\n")
    out = tmp_path / "out"
    argv = {
        "analyze": ["analyze", "--runs", str(runs), "--per-optimizer", str(out)],
        "rank": ["rank", "--runs", str(runs), "--reference", "-2.0", "-0.5", "--out", str(out)],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: cannot read runs file {runs}:"), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "rank"])
@pytest.mark.parametrize(
    "column, bad", [("seed", "zero"), ("n_evals", "1.5"), ("e_ground", "low"), ("converged", "yes")]
)
def test_malformed_runs_cell_exits_3(tmp_path, capsys, command, column, bad):
    runs = tmp_path / "runs.csv"
    write_records(synthetic_records(), runs)
    with open(runs, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[3][rows[0].index(column)] = bad
    with open(runs, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    out = tmp_path / "out"
    argv = {
        "analyze": ["analyze", "--runs", str(runs), "--per-optimizer", str(out)],
        "rank": ["rank", "--runs", str(runs), "--reference", "-2.0", "-0.5", "--out", str(out)],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:") and "row 3" in err[0]
    assert not out.exists()

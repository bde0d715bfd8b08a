import csv
import json

import pytest

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
    "bad_problem", ["missing_ham", "nine_qubits", "phi_out_of_range", "depolarizing_on_3q_prot"]
)
def test_bad_problem_exits_3_and_leaves_out_untouched(tmp_path, capsys, bad_problem):
    ham = tmp_path / "big.ham"
    ham.write_text("1.0 " + "Z" * 9 + "\n")
    circ = tmp_path / "big.circ"
    circ.write_text("ry 0 t0\nry 8 t1\n")
    ham3 = tmp_path / "3q.ham"
    ham3.write_text("1.0 ZZZ\n")
    circ3 = tmp_path / "3q.circ"
    circ3.write_text("prot XYZ t0 0 1 2\n")
    depolarized = {"name": "dp", "noise": [{"gates": ["prot"], "kind": "depolarizing", "p": 0.1}]}
    overrides = {
        "missing_ham": {"hamiltonian_path": str(tmp_path / "absent.ham")},
        "nine_qubits": {"hamiltonian_path": str(ham), "circuit_path": str(circ)},
        "phi_out_of_range": {"phi_b": 4},  # the toy problem has 2 qubits
        # depolarizing takes one or two qubits; the ideal family would run first
        "depolarizing_on_3q_prot": {
            "hamiltonian_path": str(ham3), "circuit_path": str(circ3), "families": ["ideal", depolarized],
        },
    }[bad_problem]
    out = tmp_path / "o.csv"
    out.write_bytes(b"an earlier grid's runs\n")
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:")
    assert out.read_bytes() == b"an earlier grid's runs\n"


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
    ],
)
def test_malformed_config_value_exits_2(tmp_path, capsys, overrides):
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(write_config(tmp_path, **overrides)), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
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

"""Tests of the benchmark itself: seeded inputs, the output checker, the
span arithmetic and the coverage guard.  Run with
``python3 -m pytest perfbench/tests``."""
import json
from pathlib import Path

import pytest

from checks import check_reports, check_runs
from inputs import ANALYZE_FILES_FULL, RANK_FILES, WORKLOADS, expected_runs, write_inputs
from run import END_TO_END_UNITS
from tracing import PER_LAYER_UNITS, missing_spans, self_times, summarize

REPO = Path(__file__).resolve().parents[2]
DATA = REPO / "src" / "vqebench" / "data"
E_SA_EXACT = -2.5615528128088303
HEADER = "family,optimizer,seed,e_ground,e_excited,e_sa,n_evals,converged,wall_time_ms\n"


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_seed_only(tmp_path, name):
    workload = WORKLOADS[name]
    first = _files(write_inputs(workload, 7, DATA, tmp_path / "a").parent)
    again = _files(write_inputs(workload, 7, DATA, tmp_path / "b").parent)
    other = _files(write_inputs(workload, 8, DATA, tmp_path / "c").parent)
    assert first == again
    assert first != other


def _grid_csv(tmp_path, edit=None):
    workload = WORKLOADS["grid-light"]
    rows = []
    for fam, opt, seed in sorted(expected_runs(workload, 3)):
        row = [fam, opt, str(seed), "-2.0", "-0.5", "-2.5", "10", "true", "1.5"]
        if edit is not None:
            row = edit(row)
        if row is not None:
            rows.append(",".join(row) + "\n")
    path = tmp_path / "runs.csv"
    path.write_text(HEADER + "".join(rows))
    return path, expected_runs(workload, 3)


def _first(fam, opt, change):
    done = []

    def edit(row):
        if not done and row[0] == fam and row[1] == opt:
            done.append(row)
            return change(row)
        return row

    return edit


def test_clean_runs_pass(tmp_path):
    path, expected = _grid_csv(tmp_path)
    attempted, failed, problems = check_runs(path, expected, E_SA_EXACT)
    assert (attempted, failed, problems) == (len(expected), 0, [])


@pytest.mark.parametrize(
    "edit",
    [
        _first("SN-256", "powell", lambda r: r[:3] + ["nan", "-0.5", "nan"] + r[6:]),
        _first("ideal", "bfgs", lambda r: r[:3] + ["-2.1", "-0.5", "-2.6"] + r[6:]),
        _first("SN-6144", "isoma", lambda r: r[:3] + ["-0.4", "-0.5", "-0.9"] + r[6:]),
        _first("ideal", "cobyla", lambda r: None),
    ],
    ids=["nan-row", "ideal-below-exact", "ground-above-excited", "missing-row"],
)
def test_planted_run_faults_fail_one_run(tmp_path, edit):
    path, expected = _grid_csv(tmp_path, edit)
    attempted, failed, problems = check_runs(path, expected, E_SA_EXACT)
    assert (attempted, failed, len(problems)) == (len(expected), 1, 1)


def test_failed_run_stage_fails_every_run():
    expected = expected_runs(WORKLOADS["grid-light"], 3)
    attempted, failed, _ = check_runs(None, expected, E_SA_EXACT)
    assert attempted == failed == len(expected)


def _reports(tmp_path):
    analyze, rank = tmp_path / "analyze", tmp_path / "rank"
    for opt in ("a", "b"):
        (analyze / opt).mkdir(parents=True)
        for name in ANALYZE_FILES_FULL:
            path = analyze / opt / name
            if name.endswith(".json"):
                path.write_text(json.dumps({"p": 0.5, "skew": {"p": 1.0}, "errors": {}}))
            else:
                path.write_text(",a,b\na,nan,0.25\nb,0.25,nan\n")
    rank.mkdir()
    for name in RANK_FILES:
        (rank / name).write_text("{}" if name.endswith(".json") else ",a,b\na,nan,1\nb,1,nan\n")
    return analyze, rank


def _check(analyze, rank, errors_allowed=False):
    return check_reports(analyze, rank, ("a", "b"), ANALYZE_FILES_FULL, errors_allowed)


def test_clean_reports_pass(tmp_path):
    attempted, failed, problems = _check(*_reports(tmp_path))
    assert (attempted, failed, problems) == (2 * len(ANALYZE_FILES_FULL) + len(RANK_FILES), 0, [])


def test_missing_report_file_fails(tmp_path):
    analyze, rank = _reports(tmp_path)
    (analyze / "b" / "permdisp.json").unlink()
    assert _check(analyze, rank)[1] == 1


@pytest.mark.parametrize("name", ["permanova.json", "permdisp_pairwise.csv"])
def test_p_value_above_one_fails(tmp_path, name):
    analyze, rank = _reports(tmp_path)
    path = analyze / "a" / name
    if name.endswith(".json"):
        path.write_text(json.dumps({"p": 1.25}))
    else:
        path.write_text(",a,b\na,nan,1.25\nb,1.25,nan\n")
    assert _check(analyze, rank)[1] == 1


def test_error_fails_unless_allowed(tmp_path):
    analyze, rank = _reports(tmp_path)
    (analyze / "a" / "box_m.json").write_text(json.dumps({"error": "singular"}))
    assert _check(analyze, rank)[1] == 1
    assert _check(analyze, rank, errors_allowed=True)[1] == 0


def test_failed_stage_fails_its_files(tmp_path):
    analyze, _ = _reports(tmp_path)
    assert _check(analyze, None)[1] == len(RANK_FILES)


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["root", None, None, 0.0, 10.0],
        ["child", None, 0, 1.0, 3.0],
        ["child", None, 0, 2.0, 4.0],  # overlaps the first child
        ["child", None, 0, 9.0, 12.0],  # clipped to the parent's end
        ["leaf", None, 1, 1.5, 2.0],
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 1.5, 2.0, 3.0, 0.5])
    table = summarize(spans)
    assert table[("child", None)] == pytest.approx([3, 7.0, 6.5])


def test_coverage_guard_names_missing_spans():
    table = {("stats.permanova", None): [2, 1.0, 1.0]}
    missing = missing_spans("analyze-battery", table)
    assert "stats.permanova" not in missing
    assert "stats.pairwise_posthoc[permdisp]" in missing


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER_UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(PER_LAYER_UNITS.values())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


def test_instrument_traces_calls_through_caller_modules_and_restores():
    from types import SimpleNamespace as NS

    from tracing import Tracer, instrument

    def fn(*a, **k):
        return None

    result = NS(n_evals=2, trace=[(1, 0.5), (2, 0.25)], extras={})
    modules = {
        "cli": NS(run_experiment=fn, read_records=fn),
        "runner": NS(execute_run=None, minimize=None, sa_cost=lambda theta: 1.0, resolve_states=fn),
        "ensemble": NS(evolve_circuit=fn, expectation=fn, expectation_exact=fn),
        "reports": NS(analyze_optimizer=fn, mardia_test=fn, box_m_test=fn, levene_like_test=fn,
                      bootstrap_ellipse=fn, permanova=fn, permdisp=fn, pairwise_posthoc=fn),
        "permutation": NS(permanova=fn, permdisp=fn),
    }
    runner = modules["runner"]
    runner.minimize = lambda cost, theta0, spec, rng=None: (cost(theta0), cost(theta0), result)[2]
    runner.execute_run = lambda task: runner.minimize(lambda t: runner.sa_cost(t), 0.0, NS(kind="powell"))
    originals = {name: dict(vars(m)) for name, m in modules.items()}
    tracer = Tracer()
    with instrument(tracer, modules):
        runner.execute_run(NS(family=NS(name="DEPOL-5%")))
    assert {name: dict(vars(m)) for name, m in modules.items()} == originals
    names = [(s[0], s[1], s[2]) for s in tracer.spans]
    assert names == [
        ("harness.execute_run", "depolarizing", None),
        ("optimizers.minimize", "powell", 0),
        ("ensemble.sa_cost", "depolarizing", 1),
        ("ensemble.sa_cost", "depolarizing", 1),
    ]
    assert tracer.counts["evals.powell"] == 2
    assert tracer.best_shares == [1.0]

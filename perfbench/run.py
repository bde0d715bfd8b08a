"""The repository benchmark: the ``vqebench`` CLI pipeline end to end, or a
traced in-process run of the same inputs for per-layer numbers.

    python3 perfbench/run.py --workload grid-light --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory.  Without ``--workload`` every workload runs in turn.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a copy of the result with the
output fingerprint and the machine's provenance goes to
``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

from checks import check_reports, check_runs, fingerprint
from inputs import CATALOG, WORKLOADS, Workload, expected_runs, optimizers_of, write_inputs
from tracing import (
    PER_LAYER_UNITS,
    Tracer,
    instrument,
    layer_metrics,
    missing_spans,
    run_table_metrics,
    summarize,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: End-to-end metrics reported by every workload, with their units.  The
#: stage times analyze_s and run_s are printed beside them: run_s exists only
#: on the grids, and on the grids analyze_s is one interpreter start, as
#: noisy as setup_s; pipeline_s contains both.
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
#: Timed ``vqebench catalog`` runs per benchmark run, after one untimed one
#: that fills the bytecode cache.
SETUP_REPEATS = 3
STAGE_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_cli(argv, log: Path, cwd: Path) -> tuple[int, float, float]:
    """Run one ``vqebench`` command; return (exit code, wall s, peak RSS MB).
    Its output goes to log."""
    with open(log, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "vqebench.harness.cli", *argv],
            stdout=out, stderr=subprocess.STDOUT, env=_env(), cwd=cwd,
        )
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(work: Path) -> tuple[list[float], list[str]]:
    """Wall times of ``vqebench catalog`` and any problem with its listing."""
    times, problems = [], []
    log = work / "catalog.log"
    for i in range(SETUP_REPEATS + 1):
        code, wall, _ = run_cli(["catalog"], log, work)
        listing = tuple(log.read_text().split())
        if code != 0 or listing != CATALOG:
            problems.append(f"catalog: exit {code}, listing {listing[:3]}...")
        if i:
            times.append(wall)
    return times, problems


def reference_energies() -> tuple[float, float]:
    sys.path.insert(0, str(SRC))
    from vqebench import reference_energies as exact
    from vqebench.qsim import load_hamiltonian

    ref = exact(load_hamiltonian(SRC / "vqebench" / "data" / "toy2q.ham"))
    return ref.e0, ref.e1


def stage_argv(workload: Workload, input_path: Path, out: Path, ref) -> list[tuple[str, list[str]]]:
    """The workload's command sequence, as (stage, CLI arguments)."""
    runs = out / "runs.csv" if workload.is_grid else input_path
    stages = []
    if workload.is_grid:
        stages.append(("run", ["run", "--config", str(input_path), "--out", str(runs), "--jobs", "1"]))
    analyze = ["analyze", "--runs", str(runs), "--per-optimizer", str(out / "analyze")]
    if workload.n_perm is not None:
        analyze += ["--n-perm", str(workload.n_perm)]
    stages.append(("analyze", analyze))
    stages.append(("rank", ["rank", "--runs", str(runs), "--reference", repr(ref[0]), repr(ref[1]),
                            "--out", str(out / "rank")]))
    return stages


@dataclass
class Outcome:
    """Checked outputs of one pass through the workload."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    fingerprint: str = ""
    evals: int = 0


def check_pass(workload: Workload, seed: int, runs_csv: Path, out: Path, ok: dict, ref) -> Outcome:
    """Check one pass's outputs; ok maps stage -> whether it exited 0."""
    result = Outcome()
    if workload.is_grid:
        csv_ok = ok["run"] and runs_csv.is_file()
        a, f, p = check_runs(runs_csv if csv_ok else None, expected_runs(workload, seed), sum(ref))
        result.attempted += a
        result.failed += f
        result.problems += p
        if csv_ok:
            with open(runs_csv) as handle:
                result.evals = sum(int(line.split(",")[6]) for line in list(handle)[1:])
    a, f, p = check_reports(
        out / "analyze" if ok["analyze"] else None,
        out / "rank" if ok["rank"] else None,
        optimizers_of(workload),
        workload.analyze_files,
        workload.errors_allowed,
    )
    result.attempted += a
    result.failed += f
    result.problems += p
    if runs_csv.is_file():
        result.fingerprint = fingerprint(runs_csv, [out / "analyze", out / "rank"])
    return result


def run_end_to_end(workload: Workload, seed: int, seconds: float, work: Path, ref) -> dict:
    input_path = write_inputs(workload, seed, SRC / "vqebench" / "data", work / "input")
    setup, problems = measure_setup(work)
    repeats = []
    outcomes = []
    start = perf_counter()
    while True:
        out = work / f"repeat{len(repeats)}"
        out.mkdir()
        stage_s, ok, rss = {}, {}, []
        t0 = perf_counter()
        for stage, argv in stage_argv(workload, input_path, out, ref):
            log = out / f"{stage}.log"
            code, wall, peak = run_cli(argv, log, out)
            stage_s[stage], ok[stage] = wall, code == 0
            rss.append(peak)
            if code != 0:
                problems.append(f"{stage} exited {code}: {log.read_text()[-500:]}")
        pipeline = perf_counter() - t0
        runs_csv = out / "runs.csv" if workload.is_grid else input_path
        outcome = check_pass(workload, seed, runs_csv, out, ok, ref)
        outcomes.append(outcome)
        repeats.append({"pipeline_s": pipeline, "peak_rss_mb": max(rss), **{f"{s}_s": t for s, t in stage_s.items()}})
        shutil.rmtree(out)
        if perf_counter() - start + pipeline > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "pipeline_s": statistics.median([r["pipeline_s"] for r in repeats]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in repeats),
    }
    extra = {"analyze_s": (statistics.median([r["analyze_s"] for r in repeats]), "s")}
    if workload.is_grid:
        extra["run_s"] = (statistics.median([r["run_s"] for r in repeats]), "s")
        extra["evals_per_s"] = (statistics.median([o.evals / r["run_s"] for o, r in zip(outcomes, repeats)]), "1/s")
    return _result(workload, outcomes, problems, metrics, END_TO_END_UNITS, extra,
                   {"setup_samples_s": setup, "repeats": repeats})


def _program_modules() -> dict:
    sys.path.insert(0, str(SRC))
    return {
        "cli": importlib.import_module("vqebench.harness.cli"),
        "runner": importlib.import_module("vqebench.harness.runner"),
        "ensemble": importlib.import_module("vqebench.ensemble"),
        "reports": importlib.import_module("vqebench.harness.reports"),
        "permutation": importlib.import_module("vqebench.stats.permutation"),
    }


def run_traced(workload: Workload, seed: int, seconds: float, work: Path, ref) -> dict:
    """Alternate untraced and traced in-process passes through the same
    command sequence (``cli.main``), while another pair fits in the time."""
    modules = _program_modules()
    input_path = write_inputs(workload, seed, SRC / "vqebench" / "data", work / "input")
    tracer = Tracer()
    untraced_s, traced_s, untraced_csvs, outcomes = [], [], [], []
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        for traced in (False, True):
            out = work / f"pass{len(outcomes)}"
            out.mkdir()
            stages = stage_argv(workload, input_path, out, ref)
            ok = {}
            t0 = perf_counter()
            with contextlib.ExitStack() as stack:
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
                if traced:
                    stack.enter_context(instrument(tracer, modules))
                for stage, argv in stages:
                    ok[stage] = modules["cli"].main(argv) == 0
            (traced_s if traced else untraced_s).append(perf_counter() - t0)
            runs_csv = out / "runs.csv" if workload.is_grid else input_path
            outcomes.append(check_pass(workload, seed, runs_csv, out, ok, ref))
            if workload.is_grid and not traced:
                untraced_csvs.append(runs_csv)
        if perf_counter() - start + (perf_counter() - pair_start) > seconds:
            break
    missing = missing_spans(workload.name, summarize(tracer.spans))
    if missing:
        raise BenchError(f"span coverage: {workload.name} never called {', '.join(missing)}")
    metrics = layer_metrics(tracer, len(traced_s))
    metrics.update(run_table_metrics(untraced_csvs))
    metrics["trace.overhead_share"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    return _result(workload, outcomes, [], metrics, PER_LAYER_UNITS, {},
                   {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s})


def _result(workload, outcomes, problems, metrics, units, extra, detail) -> dict:
    prints = {f.fingerprint for f in outcomes}
    problems = list(problems)
    if len(prints) != 1:
        problems.append(f"outputs differ between passes: {sorted(prints)}")
    for outcome in outcomes:
        problems.extend(outcome.problems)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "workload": workload.name,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "extra_metrics": {
            "failed_share": {"value": failed / attempted if attempted else 1.0, "unit": "ratio"},
            **{name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
        },
        "fingerprint": sorted(prints)[0] if len(prints) == 1 else None,
        "problems": problems[:20],
        "detail": detail,
    }


def _read_first(path: str, key: str) -> str | None:
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "sympy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    status = _git("status", "--porcelain") if in_repo else None
    source = hashlib.sha256()
    for path in sorted(p for p in (SRC / "vqebench").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "mem_total": _read_first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        **versions,
        "git_commit": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source.hexdigest(),
    }


def report(result: dict) -> None:
    print(f"== {result['workload']}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in {**result["metrics"], **result["extra_metrics"]}.items():
        print(f"  {name:<45} {metric['value']:.6g} {metric['unit']}")
    print(f"  fingerprint {result['fingerprint']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def bench(name: str, seed: int, seconds: float, trace: bool, ref) -> dict:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = run_traced if trace else run_end_to_end
        result = runner(workload, seed, seconds, work, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["seed"], result["seconds"], result["trace"] = seed, seconds, int(trace)
    result["provenance"] = provenance()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its running CLI process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "vqebench" / "harness" / "cli.py").is_file():
        print(f"perfbench: no vqebench sources under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        ref = reference_energies()
        results = [bench(n, args.seed, args.seconds, bool(args.trace), ref) for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

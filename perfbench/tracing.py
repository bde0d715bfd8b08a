"""In-memory spans around the program's public entry points, and the
per-layer metrics computed from them.

Spans are recorded only from this file: ``instrument`` replaces each entry
point in the module where its caller looks it up (``runner.sa_cost``, not
``ensemble.sa_cost``), so the program's own code is untouched and a call
made through another name is not traced.
"""
from __future__ import annotations

import contextlib
import csv
import statistics
from collections import Counter, defaultdict
from time import perf_counter

KINDS = ("exact", "shots", "dephasing", "depolarizing", "t2", "t1")
#: Catalog family name prefix -> estimator kind.
FAMILY_KINDS = (
    ("ideal", "exact"),
    ("SN-", "shots"),
    ("DP-", "dephasing"),
    ("DEPOL-", "depolarizing"),
    ("T2=", "t2"),
    ("TR-T1=", "t1"),
)
OPTIMIZER_KINDS = ("bfgs", "slsqp", "nelder_mead", "powell", "cobyla", "isoma")
STATS_PROCS = (
    "mardia_test",
    "box_m_test",
    "levene_like_test",
    "permanova",
    "permdisp",
    "pairwise_posthoc.permanova",
    "pairwise_posthoc.permdisp",
    "bootstrap_ellipse",
)


def _metric_units() -> dict[str, str]:
    units = {
        "qsim.evolve_circuit.calls": "count",
        "qsim.evolve_circuit.self_s": "s",
        **{f"qsim.evolve_circuit.us_per_call.{k}": "us" for k in KINDS},
        "qsim.expectation.calls": "count",
        "qsim.expectation.self_s": "s",
        **{f"qsim.expectation.us_per_call.{k}": "us" for k in ("exact", "shots")},
        "ensemble.sa_cost.calls": "count",
        "ensemble.sa_cost.self_s": "s",
        **{f"ensemble.sa_cost.us_per_eval.{k}": "us" for k in KINDS},
        "ensemble.resolve_states.calls": "count",
        "ensemble.resolve_states.ms_per_call": "ms",
        "optimizers.evals": "count",
        **{f"optimizers.overhead_us_per_eval.{k}": "us" for k in OPTIMIZER_KINDS},
        "optimizers.evals_to_best_share": "ratio",
    }
    for proc in STATS_PROCS:
        units[f"stats.{proc}.calls"] = "count"
        units[f"stats.{proc}.self_s"] = "s"
    units.update({
        "stats.permutations": "count",
        "stats.exhaustive_share": "ratio",
        "harness.runs": "count",
        "harness.run_ms.p50": "ms",
        "harness.run_ms.p75": "ms",
        "harness.duplicate_run_share": "ratio",
        "harness.analyze_optimizer.self_s": "s",
        "harness.csv_io_s": "s",
        "trace.overhead_share": "ratio",
    })
    return units


#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = _metric_units()

#: Spans (name, kind) that must fire on each workload's traced run.  A kind
#: of None matches any kind.
_GRID_SPANS = (
    ("harness.run_experiment", None),
    ("harness.execute_run", None),
    ("harness.read_records", None),
    ("harness.analyze_optimizer", None),
    ("ensemble.resolve_states", None),
    ("qsim.expectation", "exact"),
    ("qsim.expectation", "shots"),
) + tuple(("optimizers.minimize", k) for k in OPTIMIZER_KINDS)


def _kind_spans(*kinds):
    return tuple((name, k) for k in kinds for name in ("ensemble.sa_cost", "qsim.evolve_circuit"))


REQUIRED_SPANS = {
    "grid-noisy": _GRID_SPANS + _kind_spans("dephasing", "depolarizing", "t2", "t1"),
    "grid-light": _GRID_SPANS + _kind_spans("exact", "shots"),
    "analyze-battery": (
        ("harness.read_records", None),
        ("harness.analyze_optimizer", None),
        ("stats.pairwise_posthoc", "permanova"),
        ("stats.pairwise_posthoc", "permdisp"),
    ) + tuple(
        (f"stats.{p}", None) for p in STATS_PROCS if not p.startswith("pairwise_posthoc")
    ),
}


def family_kind(family: str) -> str:
    for prefix, kind in FAMILY_KINDS:
        if family.startswith(prefix):
            return kind
    return "other"


class Tracer:
    """Spans as ``[name, kind, parent index, start, end]`` plus counters,
    kept in memory for the traced passes of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.best_shares: list[float] = []
        self.family_kind: str | None = None
        self._open: list[int] = []

    def call(self, name, kind, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = [name, kind, parent, 0.0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[3] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            self._open.pop()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            children[span[2]].append((span[3], span[4]))
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted(children[i]):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict:
    """(name, kind) -> [calls, total seconds, self seconds]."""
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        row = table[(span[0], span[1])]
        row[0] += 1
        row[1] += span[4] - span[3]
        row[2] += own
    return dict(table)


@contextlib.contextmanager
def instrument(tracer: Tracer, modules):
    """Replace the entry points in the caller modules for the duration of the
    block.  ``modules`` maps "cli", "runner", "ensemble", "reports" and
    "permutation" to the imported program modules."""
    cli, runner = modules["cli"], modules["runner"]
    ensemble, reports = modules["ensemble"], modules["reports"]
    permutation = modules["permutation"]
    saved = []

    def patch(module, attr, make):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def span(name, kind=None):
        def make(fn):
            return lambda *a, **k: tracer.call(name, kind, fn, *a, **k)
        return make

    def execute_run(fn):
        def wrapper(task):
            tracer.family_kind = family_kind(task.family.name)
            return tracer.call("harness.execute_run", tracer.family_kind, fn, task)
        return wrapper

    def in_family(name):
        def make(fn):
            return lambda *a, **k: tracer.call(name, tracer.family_kind, fn, *a, **k)
        return make

    def minimize(fn):
        def wrapper(cost, theta0, spec, rng=None):
            result = tracer.call("optimizers.minimize", spec.kind, fn, cost, theta0, spec, rng)
            tracer.counts[f"evals.{spec.kind}"] += result.n_evals
            values = [value for _, value in result.trace]
            if values:
                best = values.index(min(values)) + 1
                tracer.best_shares.append(best / result.n_evals)
            return result
        return wrapper

    def expectation(fn):
        def wrapper(rho, hamiltonian, spec, rng=None):
            return tracer.call("qsim.expectation", spec.mode, fn, rho, hamiltonian, spec, rng)
        return wrapper

    def count_permutations(result):
        n = int(result.extras.get("n_perm", 0))
        tracer.counts["permutations"] += n
        if result.extras.get("exact"):
            tracer.counts["permutations.exact"] += n
        return result

    def permutation_test(name):
        def make(fn):
            def wrapper(*a, **k):
                if name is None:
                    return count_permutations(fn(*a, **k))
                return count_permutations(tracer.call(name, None, fn, *a, **k))
            return wrapper
        return make

    def pairwise(fn):
        def wrapper(points, labels, test="permanova", *a, **k):
            return tracer.call("stats.pairwise_posthoc", test, fn, points, labels, test, *a, **k)
        return wrapper

    try:
        patch(cli, "run_experiment", span("harness.run_experiment"))
        patch(cli, "read_records", span("harness.read_records"))
        patch(runner, "execute_run", execute_run)
        patch(runner, "minimize", minimize)
        patch(runner, "sa_cost", in_family("ensemble.sa_cost"))
        patch(runner, "resolve_states", in_family("ensemble.resolve_states"))
        patch(ensemble, "evolve_circuit", in_family("qsim.evolve_circuit"))
        patch(ensemble, "expectation", expectation)
        patch(ensemble, "expectation_exact", span("qsim.expectation", "exact"))
        patch(reports, "analyze_optimizer", span("harness.analyze_optimizer"))
        for proc in ("mardia_test", "box_m_test", "levene_like_test", "bootstrap_ellipse"):
            patch(reports, proc, span(f"stats.{proc}"))
        patch(reports, "permanova", permutation_test("stats.permanova"))
        patch(reports, "permdisp", permutation_test("stats.permdisp"))
        patch(reports, "pairwise_posthoc", pairwise)
        # pairwise_posthoc looks its two-group tests up here; count, no span
        patch(permutation, "permanova", permutation_test(None))
        patch(permutation, "permdisp", permutation_test(None))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def missing_spans(workload: str, table: dict) -> list[str]:
    """Required spans of the workload that never fired."""
    fired = {key for key, row in table.items() if row[0] > 0}
    names = {name for name, _ in fired}
    return [
        name if kind is None else f"{name}[{kind}]"
        for name, kind in REQUIRED_SPANS[workload]
        if (name not in names if kind is None else (name, kind) not in fired)
    ]


def _total(table, name, kind=None, column=0):
    return sum(
        row[column] for (n, k), row in table.items() if n == name and (kind is None or k == kind)
    )


def _per_call(table, name, kind, scale):
    """Mean span duration, times scale; 0 when the span never fired."""
    calls = _total(table, name, kind)
    return _total(table, name, kind, column=1) / calls * scale if calls else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced passes, per pass; the harness run
    statistics and the tracing overhead are added by the caller.  A metric
    of a layer the workload does not exercise reads 0."""
    table = summarize(tracer.spans)
    m = {}
    for name in ("qsim.evolve_circuit", "qsim.expectation", "ensemble.sa_cost"):
        m[f"{name}.calls"] = _total(table, name) / passes
        m[f"{name}.self_s"] = _total(table, name, column=2) / passes
    for k in KINDS:
        m[f"qsim.evolve_circuit.us_per_call.{k}"] = _per_call(table, "qsim.evolve_circuit", k, 1e6)
        m[f"ensemble.sa_cost.us_per_eval.{k}"] = _per_call(table, "ensemble.sa_cost", k, 1e6)
    for k in ("exact", "shots"):
        m[f"qsim.expectation.us_per_call.{k}"] = _per_call(table, "qsim.expectation", k, 1e6)
    m["ensemble.resolve_states.calls"] = _total(table, "ensemble.resolve_states") / passes
    m["ensemble.resolve_states.ms_per_call"] = _per_call(
        table, "ensemble.resolve_states", None, 1e3
    )
    m["optimizers.evals"] = sum(tracer.counts[f"evals.{k}"] for k in OPTIMIZER_KINDS) / passes
    for k in OPTIMIZER_KINDS:
        evals = tracer.counts[f"evals.{k}"]
        own = _total(table, "optimizers.minimize", k, column=2)
        m[f"optimizers.overhead_us_per_eval.{k}"] = own / evals * 1e6 if evals else 0.0
    shares = tracer.best_shares
    m["optimizers.evals_to_best_share"] = sum(shares) / len(shares) if shares else 0.0
    for proc in STATS_PROCS:
        name, _, kind = proc.partition(".")
        m[f"stats.{proc}.calls"] = _total(table, f"stats.{name}", kind or None) / passes
        m[f"stats.{proc}.self_s"] = _total(table, f"stats.{name}", kind or None, 2) / passes
    perms = tracer.counts["permutations"]
    m["stats.permutations"] = perms / passes
    m["stats.exhaustive_share"] = tracer.counts["permutations.exact"] / perms if perms else 0.0
    m["harness.runs"] = _total(table, "harness.execute_run") / passes
    m["harness.analyze_optimizer.self_s"] = _total(table, "harness.analyze_optimizer", column=2) / passes
    m["harness.csv_io_s"] = (
        _total(table, "harness.read_records", column=1)
        + _total(table, "harness.run_experiment", column=2)
    ) / passes
    return m


def run_table_metrics(csv_paths) -> dict[str, float]:
    """harness.run_ms percentiles over the runs of every CSV, and the mean
    over CSVs of the share of rows that repeat another row's outputs."""
    wall_ms = []
    shares = []
    for path in csv_paths:
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        wall_ms.extend(float(r["wall_time_ms"]) for r in rows)
        outputs = Counter(
            tuple(r[k] for k in ("family", "optimizer", "e_ground", "e_excited", "e_sa", "n_evals", "converged"))
            for r in rows
        )
        if rows:
            shares.append(sum(c - 1 for c in outputs.values()) / len(rows))
    if len(wall_ms) >= 2:
        quartiles = statistics.quantiles(wall_ms, n=4)
        p50, p75 = statistics.median(wall_ms), quartiles[2]
    else:
        p50 = p75 = wall_ms[0] if wall_ms else 0.0
    return {
        "harness.run_ms.p50": p50,
        "harness.run_ms.p75": p75,
        "harness.duplicate_run_share": sum(shares) / len(shares) if shares else 0.0,
    }

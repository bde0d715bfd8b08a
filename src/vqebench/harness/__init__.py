"""Experiment harness: family catalog, configuration, run execution, CLI.

Names load with their module on first use, so each command loads only the
layers it runs: the runs-CSV format (`vqebench.harness.records`) needs
neither the simulator nor the optimizers, and the analysis reports
(`analyze_runs`, `rank_runs`, `analyze_optimizer`) live in
`vqebench.harness.reports`, the one module that loads the statistics layer.
"""
import importlib

_EXPORTS = {
    "catalog": ("NOISY_SHOTS", "FamilySpec", "catalog_by_name", "family_catalog", "lookup_family"),
    "config": (
        "ExperimentConfig",
        "Theta0Policy",
        "config_from_dict",
        "load_config",
        "toy_problem_paths",
    ),
    "records": ("CSV_HEADER", "RunRecord", "read_records", "write_records"),
    "runner": ("derive_run_seed", "execute_run", "run_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)

"""Experiment harness: family catalog, configuration, run execution, CLI.

The analysis reports (`analyze_runs`, `rank_runs`, `analyze_optimizer`) live
in `vqebench.harness.reports`; importing this package leaves the statistics
layer unloaded.
"""
from .catalog import NOISY_SHOTS, FamilySpec, catalog_by_name, family_catalog, lookup_family
from .config import ExperimentConfig, Theta0Policy, config_from_dict, load_config, toy_problem_paths
from .runner import (
    CSV_HEADER,
    RunRecord,
    derive_run_seed,
    execute_run,
    read_records,
    run_experiment,
    write_records,
)

__all__ = [
    "CSV_HEADER",
    "ExperimentConfig",
    "FamilySpec",
    "NOISY_SHOTS",
    "RunRecord",
    "Theta0Policy",
    "catalog_by_name",
    "config_from_dict",
    "derive_run_seed",
    "execute_run",
    "family_catalog",
    "load_config",
    "lookup_family",
    "read_records",
    "run_experiment",
    "toy_problem_paths",
    "write_records",
]

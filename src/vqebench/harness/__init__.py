"""Experiment harness: family catalog, configuration, run execution, CLI.

Each command loads only the layers it runs: the runs-CSV format
(`vqebench.harness.records`) needs neither the simulator nor the
optimizers, and the analysis reports (`analyze_runs`, `rank_runs`,
`analyze_optimizer`) live in `vqebench.harness.reports`, the one module
that loads the statistics layer.
"""
from .. import _exports

__getattr__, __all__ = _exports(__name__, {
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
})

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from vqebench.errors import ParameterDomainError
from vqebench.harness import (
    Theta0Policy,
    catalog_by_name,
    config_from_dict,
    family_catalog,
    load_config,
    lookup_family,
    toy_problem_paths,
)
from vqebench.qsim import compile_circuit


def test_catalog_has_21_unique_families():
    families = family_catalog()
    names = [f.name for f in families]
    assert len(families) == 21
    assert len(set(names)) == 21


def test_catalog_composition():
    names = [f.name for f in family_catalog()]
    assert names[0] == "ideal"
    assert sum(n.startswith("SN-") for n in names) == 4
    assert sum(n.startswith("DP-") for n in names) == 4
    assert sum(n.startswith("DEPOL-") for n in names) == 4
    assert sum(n.startswith("T2=") for n in names) == 4
    assert sum(n.startswith("TR-T1=") for n in names) == 4


#: sha256 over every family in catalog order: its name, n_m and each rule's
#: kind, sorted gates and parameters; a change that moves it declares why
CATALOG_SHA256 = "5f01b52c8a2d582e00f803969d2e9f3c35a7077a2292873801110aa7ca0dd6e9"


def test_catalog_pinned():
    digest = hashlib.sha256()
    for family in family_catalog():
        rules = [
            (r.kind, sorted(r.gates), r.lam, r.p, r.t1_ns, r.t2_ns) for r in family.estimator.noise
        ]
        digest.update(repr((family.name, family.estimator.n_m, rules)).encode())
    assert digest.hexdigest() == CATALOG_SHA256


def test_ideal_family_is_exact():
    fam = lookup_family("ideal")
    assert fam.estimator.mode == "exact"
    assert fam.estimator.noise == ()


def test_shot_noise_families_have_no_channels():
    for n_m in (256, 512, 1024, 6144):
        fam = lookup_family(f"SN-{n_m}")
        assert fam.estimator.mode == "shots"
        assert fam.estimator.n_m == n_m
        assert fam.estimator.noise == ()


def test_dephasing_families_attach_to_rz_only():
    fam = lookup_family("DP-10%")
    (rule,) = fam.estimator.noise
    assert rule.gates == frozenset({"rz"})
    assert rule.kind == "phase_damping"
    assert rule.lam == pytest.approx(0.10)
    assert fam.estimator.n_m == 6144


def test_depolarizing_families_gate_list():
    fam = lookup_family("DEPOL-20%")
    (rule,) = fam.estimator.noise
    assert rule.gates == frozenset({"x", "y", "z", "h", "rx", "ry", "rz", "cx"})
    assert rule.p == pytest.approx(0.20)


def test_t2_families_set_t1_offset():
    for t2_us in (70, 80, 180, 380):
        fam = lookup_family(f"T2={t2_us}us")
        (rule,) = fam.estimator.noise
        assert rule.kind == "thermal_relaxation"
        assert rule.t2_ns == pytest.approx(t2_us * 1000.0)
        assert rule.t1_ns == pytest.approx((t2_us + 20) * 1000.0)


def test_tr_families_set_t1_equal_t2():
    fam = lookup_family("TR-T1=100ns")
    (rule,) = fam.estimator.noise
    assert rule.t1_ns == rule.t2_ns == pytest.approx(100.0)


def test_lookup_unknown_family():
    with pytest.raises(ParameterDomainError):
        lookup_family("DP-99%")


def test_catalog_by_name_round_trip():
    by_name = catalog_by_name()
    assert set(by_name) == {f.name for f in family_catalog()}


# --- config ----------------------------------------------------------------

def base_config_dict():
    ham, circ = toy_problem_paths()
    return {
        "hamiltonian_path": ham,
        "circuit_path": circ,
        "families": ["ideal"],
        "optimizers": ["bfgs"],
    }


def test_config_defaults():
    cfg = config_from_dict(base_config_dict())
    assert cfg.seeds == tuple(range(10))
    assert cfg.theta0_policy.kind == "zeros"
    assert cfg.phi_a == 0 and cfg.phi_b == 1


def test_config_inline_family_and_optimizer():
    data = base_config_dict()
    data["families"] = [
        {
            "name": "custom",
            "n_m": 128,
            "noise": [{"gates": ["rz"], "kind": "phase_damping", "lam": 0.3}],
        }
    ]
    data["optimizers"] = [{"kind": "nelder_mead", "maxiter": 77}]
    cfg = config_from_dict(data)
    assert cfg.families[0].estimator.n_m == 128
    assert cfg.families[0].estimator.noise[0].lam == pytest.approx(0.3)
    assert cfg.optimizers[0].maxiter == 77


def test_config_inline_family_without_noise_compiles_as_noiseless(toy_circuit):
    data = base_config_dict()
    data["families"] = [{"name": "quiet", "n_m": 64, "noise": []}]
    (family,) = config_from_dict(data).families
    assert family.estimator.noise == ()
    got, want = compile_circuit(toy_circuit, family.estimator.noise), compile_circuit(toy_circuit)
    assert _same_tables(got, want)


def _same_tables(a, b) -> bool:
    """Equal nested tuples of arrays, dtypes included."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_tables, a, b))
    return a == b


def test_config_uniform_theta0():
    data = base_config_dict()
    data["theta0_policy"] = {"kind": "uniform", "low": -1.0, "high": 1.0}
    cfg = config_from_dict(data)
    import numpy as np

    draw = cfg.theta0_policy.draw(100, np.random.default_rng(0))
    assert np.all((draw >= -1.0) & (draw <= 1.0))


@pytest.mark.parametrize(
    "optimizer, takes",
    [
        ({"kind": "powell", "ftol": 0.5, "gradient_step": 0.3}, "'powell' takes no 'ftol'; it takes kind, maxiter"),
        ({"kind": "isoma", "maxiter": 1, "ftol": 0.9}, "'isoma' takes no 'maxiter'; it takes kind, isoma"),
        ({"kind": "slsqp", "isoma": {}}, "'slsqp' takes no 'isoma'; it takes kind, maxiter, ftol, gradient_step"),
    ],
    ids=["powell", "isoma", "slsqp"],
)
def test_config_optimizer_takes_only_the_fields_its_kind_reads(optimizer, takes):
    data = base_config_dict()
    data["optimizers"] = [optimizer]
    with pytest.raises(ParameterDomainError, match=f"^optimizer {takes}$"):
        config_from_dict(data)


def test_theta0_policy_validation():
    with pytest.raises(ParameterDomainError):
        Theta0Policy(kind="gaussian")
    with pytest.raises(ParameterDomainError):
        Theta0Policy(low=1.0, high=-1.0)
    with pytest.raises(ParameterDomainError):
        Theta0Policy(kind="uniform", low=-1e308, high=1e308)  # finite bounds, infinite span


def test_config_rejects_empty_lists():
    for key in ("families", "optimizers"):
        data = base_config_dict()
        data[key] = []
        with pytest.raises(ParameterDomainError):
            config_from_dict(data)
    data = base_config_dict()
    data["seeds"] = []
    with pytest.raises(ParameterDomainError):
        config_from_dict(data)


def test_config_rejects_duplicates():
    data = base_config_dict()
    data["families"] = ["ideal", "ideal"]
    with pytest.raises(ParameterDomainError):
        config_from_dict(data)


def test_config_missing_field():
    with pytest.raises(ParameterDomainError):
        config_from_dict({"families": ["ideal"], "optimizers": ["bfgs"]})


def test_load_config_resolves_relative_paths(tmp_path):
    ham, circ = toy_problem_paths()
    (tmp_path / "h.txt").write_text(Path(ham).read_text())
    (tmp_path / "c.txt").write_text(Path(circ).read_text())
    data = {
        "hamiltonian_path": "h.txt",
        "circuit_path": "c.txt",
        "families": ["ideal"],
        "optimizers": ["bfgs"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    cfg = load_config(path)
    assert cfg.hamiltonian_path == str(tmp_path / "h.txt")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ParameterDomainError):
        load_config(path)

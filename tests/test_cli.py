import dataclasses
import enum
import json
import os
import re
import stat
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradiform import cli
from gradiform.cli import (ConfigError, DEFAULT_CONFIG, SCHEMA, _mapped_rk4,
                           _to_json, _write_report, load_config, main)
from gradiform.dynamics import (BURN_IN_FRACTION, euler_maruyama_ensembles,
                                graham_estimate, integrate_rk4,
                                stationary_density)
from gradiform.gradientize import (MatrixFamily, consistency_check,
                                   transform_field)
from gradiform.homotopy import QuadratureRule
from gradiform.sampling import sample_ball
from gradiform.zoo import (REGISTRY, SystemSpec, build_system, jj_circuit,
                           lorenz, quadratic)


def run_cli(tmp_path, *argv, name="report.json"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def nested(key, val):
    """The object {a: {b: {c: val}}} of the dot path key a.b.c."""
    for part in reversed(key.split(".")):
        val = {part: val}
    return val


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)
# a valid value for every leaf of DEFAULT_CONFIG; system.params, empty by
# default, takes an object of finite numbers
VALID_LEAF_VALUES = {
    "system.name": st.sampled_from(sorted(REGISTRY)),
    "system.params": st.dictionaries(
        st.sampled_from(["sigma", "rho", "q_0_1", "i"]), _FINITE,
        max_size=3),
    "samples.count": st.integers(1, 10 ** 6),
    "samples.radius": st.floats(1e-6, 1e6),
    "samples.seed": st.integers(0, 2 ** 63),
    "quadrature_order": st.integers(1, 64),
    "solver.family_degree": st.integers(0, 4),
    "solver.max_iter": st.integers(0, 10 ** 4),
    "solver.collocation": st.integers(1, 256),
    "solver.run_general": st.booleans(),
    "simulation.dt": st.floats(1e-9, 1.0),
    "simulation.steps": st.integers(1, 10 ** 6),
    "simulation.eps": st.lists(st.floats(1e-6, 10.0), min_size=1,
                               max_size=4),
    "simulation.ensemble": st.integers(1, 64),
    "simulation.master_seed": st.integers(0, 2 ** 128 - 1),
    "simulation.burn_in_fraction": st.floats(0.0, 0.99),
    "simulation.x0_radius": st.floats(0.0, 1e6),
    "simulation.grid_bins": st.integers(1, 1000),
    "simulation.grid_range": st.one_of(
        st.none(), st.tuples(_FINITE, st.floats(1e-3, 1e6)).map(
            lambda p: [p[0], p[0] + p[1]])),
    "potential_source": st.sampled_from(["homotopy", "gradientize"]),
}


class TestConfig:
    def test_defaults_load(self):
        assert load_config() == DEFAULT_CONFIG

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"bogus": 1})
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)

    def test_set_overrides(self):
        cfg = load_config(overrides=["system.name=rotation",
                                     "samples.count=5"])
        assert cfg["system"]["name"] == "rotation"
        assert cfg["samples"]["count"] == 5

    def test_system_params_default_when_omitted(self, tmp_path):
        path = write_config(tmp_path, {"system": {"name": "rotation"}})
        assert load_config(path)["system"] == {"name": "rotation",
                                               "params": {}}

    def test_set_string_fallback(self):
        cfg = load_config(overrides=["potential_source=homotopy"])
        assert cfg["potential_source"] == "homotopy"

    def test_set_system_params_passthrough(self):
        cfg = load_config(overrides=["system.params.sigma=12.0"])
        assert cfg["system"]["params"]["sigma"] == 12.0

    def test_set_bad_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["nope.key=1"])

    @pytest.mark.parametrize("override, where", [
        ("nope.key=1", "'nope'"), ("samples.bogus.x=1", "'samples.bogus'"),
        ("simulation.bogus=1", "'simulation.bogus'")])
    def test_set_unknown_key_names_its_first_segment(self, override, where,
                                                    tmp_path):
        # the message a config file holding the same object gets
        with pytest.raises(ConfigError, match=f"unknown config key {where}"):
            load_config(overrides=[override])
        key, _, val = override.partition("=")
        with pytest.raises(ConfigError, match=f"unknown config key {where}"):
            load_config(write_config(tmp_path, nested(key, int(val))))

    def test_set_object_merges_as_in_a_file(self, tmp_path):
        cfg = load_config(overrides=['samples={"count": 4}'])
        assert cfg["samples"] == {**DEFAULT_CONFIG["samples"], "count": 4}
        # an empty object leaves its section as it was: exit 0
        code, rep = run_cli(tmp_path, "zoo-list", "--set", "samples={}")
        assert code == 0 and rep["config"] == DEFAULT_CONFIG

    def test_set_system_params_accumulate(self):
        # the argv of a random quadratic: nine entries of Q, one per --set
        Q = np.arange(9.0).reshape(3, 3) - 4.0
        sets = [f"system.params.q_{i}_{j}={float(Q[i, j])!r}"
                for i in range(3) for j in range(3)]
        cfg = load_config(overrides=["system.name=quadratic"] + sets)
        assert cfg["system"]["params"] == {
            f"q_{i}_{j}": Q[i, j] for i in range(3) for j in range(3)}

    def test_file_params_kept_under_set_params(self, tmp_path):
        path = write_config(tmp_path, {"system": {"params": {"sigma": 12.0}}})
        cfg = load_config(path, ["system.params.rho=20.0"])
        assert cfg["system"] == {"name": "lorenz",
                                 "params": {"sigma": 12.0, "rho": 20.0}}

    def test_every_leaf_has_valid_values(self):
        def leaves(node, prefix=""):
            for key, val in node.items():
                if isinstance(val, dict) and val:
                    yield from leaves(val, prefix + key + ".")
                else:
                    yield prefix + key
        assert sorted(leaves(DEFAULT_CONFIG)) == sorted(VALID_LEAF_VALUES)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_set_equals_file_for_every_leaf(self, data, tmp_path_factory):
        # each default leaf, given a valid value by --set k=json(v) or by a
        # file holding the nested object {k: v}, resolves the same config
        key = data.draw(st.sampled_from(sorted(VALID_LEAF_VALUES)))
        val = data.draw(VALID_LEAF_VALUES[key])
        path = write_config(tmp_path_factory.mktemp("cfg"), nested(key, val))
        by_set = load_config(overrides=[f"{key}={json.dumps(val)}"])
        assert by_set == load_config(path)
        section, _, leaf = key.rpartition(".")
        assert (by_set[section] if section else by_set)[leaf] == val

    def test_environment_sets_no_seed(self, monkeypatch):
        # the master seed is set in the config or by --set, nowhere else
        monkeypatch.setenv("GRADIFORM_SEED", "777")
        assert load_config()["simulation"]["master_seed"] == 2024

    def test_burn_in_default_is_the_library_default(self):
        assert DEFAULT_CONFIG["simulation"]["burn_in_fraction"] \
            is BURN_IN_FRACTION

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigError, match="unknown system"):
            load_config(overrides=["system.name=unknown"])


class TestExitCodes:
    def test_success_zero(self, tmp_path):
        code, _ = run_cli(tmp_path, "zoo-list")
        assert code == 0

    def test_bad_config_two(self, tmp_path, capsys):
        code = main(["classify", "--config", "/does/not/exist.json"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_override_two(self, capsys):
        code = main(["classify", "--set", "samples.count=0"])
        assert code == 2

    def test_bad_system_params_two(self, capsys):
        code = main(["classify", "--set", "system.name=lorenz",
                     "--set", "system.params.sigma=-1"])
        assert code == 2

    @pytest.mark.parametrize("override", [
        "samples.count=abc", "samples.count=true", "samples.count=2.5",
        "samples.radius=-1", "samples.seed=-1", "simulation.ensemble=0",
        "simulation.steps=0", "simulation.dt=NaN", "simulation.eps=[-0.1]",
        "simulation.eps=[]", "simulation.eps=[NaN]",
        "simulation.grid_range=[2, -2]",
        "simulation.grid_range=[-1e308, 1e308]",
        "simulation.burn_in_fraction=1", "solver.run_general=1",
        "samples=3", "system=3", "system.params=3",
        'system.params.sigma="a"',
        "tolerances.consistency=1e-6", "tolerances.closedness=1e-6",
        "tolerances.solver=1e-6",
        # JSON nested past the recursion limit
        pytest.param("samples.count=" + "[" * 5000,
                     id="samples.count=[*5000")])
    def test_bad_value_two(self, override, capsys):
        assert main(["classify", "--set", override]) == 2
        assert "config error" in capsys.readouterr().err

    def test_quadratic_noncanonical_index_two(self, capsys):
        # index -1 would wrap round to the last row
        code = main(["classify", "--set", "system.name=quadratic",
                     "--set", "system.params.q_-1_0=5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "'q_-1_0'" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_config_file_two(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["classify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}:")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_set_without_equals_two(self, capsys):
        assert main(["classify", "--set", "samples.count"]) == 2
        assert capsys.readouterr().err == ("config error: --set needs "
                                           "key=value, got 'samples.count'\n")

    @pytest.mark.parametrize("root", [[1, 2], 3, "x", None])
    def test_config_root_not_an_object_two(self, root, tmp_path, capsys):
        path = write_config(tmp_path, root)
        assert main(["classify", "--config", path]) == 2
        assert capsys.readouterr().err == \
            "config error: config root must be a JSON object\n"

    @pytest.mark.parametrize("command, sets", [
        ("decompose", ["samples.radius=1e120", "samples.count=4"]),
        ("classify", ["samples.radius=1e120", "samples.count=4"]),
        ("gradientize", ["solver.run_general=true", "samples.radius=1e100",
                         "solver.max_iter=5"]),
        ("decompose", ["samples.radius=1e160"])],
        ids=["decompose", "classify", "general", "decompose-1e160"])
    def test_float_fault_three(self, command, sets, tmp_path, capsys):
        # an overflow no step expects aborts the command: no numpy
        # warning, no report with a silent null, no verdict from a NaN
        argv = [command] + [a for s in sets for a in ("--set", s)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(tmp_path, *argv)
        err = capsys.readouterr().err
        assert (code, rep) == (3, None)
        assert err.startswith("numerical abort: overflow encountered in ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_int_accepted_for_float(self):
        cfg = load_config(overrides=["simulation.dt=1", "samples.radius=2",
                                     "simulation.eps=[1, 0.5]"])
        assert cfg["simulation"]["dt"] == 1

    def test_memory_error_three(self, capsys):
        # a Gauss-Legendre rule of 10^7 nodes needs a 10^7 x 10^7 companion
        # matrix (728 TiB); numpy refuses it at once, allocating nothing
        code = main(["classify", "--set", "quadrature_order=10000000"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical abort:")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_memory_error_without_text_names_its_type(self, capsys):
        # leggauss first builds the list [0] * order: 800 GB, which the
        # allocator refuses at once (the kernel's default overcommit
        # heuristic denies a request beyond RAM and swap), raising a
        # MemoryError with no text
        code = main(["classify", "--set", "quadrature_order=100000000000"])
        assert code == 3
        assert capsys.readouterr().err == "numerical abort: MemoryError\n"

    def test_default_graham_gives_a_report(self, tmp_path):
        # an unset grid is the system's own: Lorenz's [-30, 50] per axis
        # holds every post-burn-in sample of the default ensemble
        code, rep = run_cli(tmp_path, "graham")
        assert code == 0
        assert rep["config"]["simulation"]["grid_range"] is None
        block, = rep["result"]["estimates"]
        assert block["total_samples"] > 0 and block["n_clipped"] == 0
        assert [(e[0], e[-1]) for e in block["grid_edges"]] \
            == [(-30.0, 50.0)] * 3
        _, same = run_cli(tmp_path, "graham", "--set",
                          "simulation.grid_range=[-30.0, 50.0]", name="b.json")
        assert same["result"] == rep["result"]

    def test_default_grid_per_system(self):
        assert {name: entry["grid_range"] for name, entry in REGISTRY.items()
                } == {name: [-30.0, 50.0] if name == "lorenz" else [-2.0, 2.0]
                      for name in REGISTRY}

    def test_narrow_grid_names_the_sample_span(self, capsys):
        # the default Lorenz ensemble leaves an explicit [-2, 2]^3 grid
        assert main(["graham", "--set",
                     "simulation.grid_range=[-2, 2]"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical abort:")
        assert "Traceback" not in err and err.count("\n") == 1
        assert "grid ranges [-2, 2] x [-2, 2] x [-2, 2]" in err
        span = np.array(re.findall(r"\[(\S+), (\S+)\]",
                                   err.split("samples span ")[1]), dtype=float)
        assert span.shape == (3, 2) and np.all(span[:, 0] <= span[:, 1])
        assert np.max(np.abs(span)) > 2.0

    def test_grid_too_large_to_index_three(self, capsys):
        # (10^7)^3 cells exceed the largest array index
        code = main(["graham", "--set", "system.name=quadratic",
                     "--set", "system.params.q_0_0=-1",
                     "--set", "system.params.q_1_1=-1",
                     "--set", "system.params.q_2_2=-1",
                     "--set", "simulation.steps=50",
                     "--set", "simulation.grid_bins=10000000"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical abort:")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_numerical_abort_three(self, tmp_path, capsys):
        # gradientized potential requested for a field with no
        # symmetrizer: the pipeline aborts instead of reporting garbage
        code = main(["simulate", "--set", "system.name=rotation",
                     "--set", "potential_source=gradientize",
                     "--set", "simulation.steps=10"])
        assert code in (2, 3)
        assert code != 0

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "simulation.steps=5",
         "--set", "simulation.ensemble=1", "--traj-dir", "{F}"],
        ["zoo-list", "--out", "{F}/x.json"]], ids=["traj-dir", "out"])
    def test_output_path_under_a_file_two(self, argv, tmp_path, capsys):
        # F is a regular file, so the output directory cannot be made
        blocker = tmp_path / "F"
        blocker.write_text("keep")
        code = main([a.format(F=blocker) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("output error:")
        assert "Traceback" not in err and err.count("\n") == 1
        assert blocker.read_text() == "keep"


class TestReports:
    def test_schema_and_envelope(self, tmp_path):
        code, rep = run_cli(tmp_path, "zoo-list")
        assert code == 0
        assert rep["schema"] == SCHEMA
        assert rep["command"] == "zoo-list"
        assert "config" in rep and "result" in rep and "timings" in rep

    def test_zoo_list_contents(self, tmp_path):
        # sorted by name; defaults from the builders' signatures
        # (quadratic's one constant), dims from the built default fields,
        # and no potential: graham's is the ray potential.  The text
        # pins 1.0 against 1
        _, rep = run_cli(tmp_path, "zoo-list")
        jj = {"beta_L": 1.0, "beta_c": 1.0, "i": 0.0, "r": 1.0}
        two = [-2.0, 2.0]
        want = {"systems": [
            {"defaults": {}, "dim": 1, "grid_range": two,
             "name": "double_well"},
            {"defaults": jj, "dim": 3, "grid_range": two,
             "name": "jj_circuit"},
            {"defaults": jj, "dim": 3, "grid_range": two,
             "name": "jj_circuit_linear"},
            {"defaults": {"beta": 2.6666666666666665, "rho": 28.0,
                          "sigma": 10.0},
             "dim": 3, "grid_range": [-30.0, 50.0], "name": "lorenz"},
            {"defaults": {"theta": 1.0}, "dim": 1, "grid_range": two,
             "name": "ou"},
            {"defaults": {"q_0_0": -1.0}, "dim": None, "grid_range": two,
             "name": "quadratic"},
            {"defaults": {}, "dim": 2, "grid_range": two,
             "name": "rotation"}]}
        assert json.dumps(rep["result"], sort_keys=True) \
            == json.dumps(want, sort_keys=True)

    def test_classify_lorenz(self, tmp_path):
        code, rep = run_cli(tmp_path, "classify",
                            "--set", "samples.count=16")
        assert code == 0
        res = rep["result"]
        assert res["verdict"] == "NonIntegrable"
        assert res["frobenius_defect_max"] > 1.0
        assert len(res["loop_integrals"]) == 1

    def test_classify_loop_entries(self, tmp_path):
        # one circle of radius min(1, samples.radius) for N >= 2, none
        # for N = 1
        code, rep = run_cli(tmp_path, "classify",
                            "--set", "system.name=rotation")
        assert code == 0
        (entry,) = rep["result"]["loop_integrals"]
        assert entry["loop"] == "circle(r=1.0)"
        assert abs(entry["value"] - 2 * np.pi) <= 1e-12
        code, rep = run_cli(tmp_path, "classify", "--set", "system.name=ou")
        assert code == 0
        assert rep["result"]["loop_integrals"] == []

    def test_classify_closed_quadratic(self, tmp_path):
        cfg = {"system": {"name": "quadratic",
                          "params": {"q_0_0": -2.0, "q_0_1": 1.0,
                                     "q_1_0": 1.0, "q_1_1": -3.0}},
               "samples": {"count": 8, "radius": 1.0, "seed": 1}}
        code, rep = run_cli(tmp_path, "classify", "--config",
                            write_config(tmp_path, cfg))
        assert code == 0
        assert rep["result"]["verdict"] == "Closed"

    def test_decompose_lorenz_residuals(self, tmp_path):
        code, rep = run_cli(tmp_path, "decompose",
                            "--set", "samples.count=16")
        assert code == 0
        res = rep["result"]
        assert res["n_samples"] == 16
        assert res["max_reconstruction_residual"] < 1e-8
        assert res["max_radial_annihilation_violation"] < 1e-10

    def test_decompose_gradient_field_no_antiexact(self, tmp_path):
        cfg = {"system": {"name": "quadratic",
                          "params": {"q_0_0": 2.0, "q_0_1": 1.0,
                                     "q_1_0": 1.0, "q_1_1": 3.0}},
               "samples": {"count": 8, "radius": 1.0, "seed": 3}}
        _, rep = run_cli(tmp_path, "decompose", "--config",
                         write_config(tmp_path, cfg))
        assert rep["result"]["max_antiexact_norm"] < 1e-12

    def test_decompose_rotation_no_exact(self, tmp_path):
        code, rep = run_cli(tmp_path, "decompose",
                            "--set", "system.name=rotation",
                            "--set", "samples.count=8")
        assert code == 0
        assert rep["result"]["max_exact_norm"] < 1e-12

    def test_gradientize_quadratic_success(self, tmp_path):
        cfg = {"system": {"name": "quadratic",
                          "params": {"q_0_0": -1.0, "q_0_1": 2.0,
                                     "q_1_0": 0.0, "q_1_1": -3.0}}}
        code, rep = run_cli(tmp_path, "gradientize", "--config",
                            write_config(tmp_path, cfg))
        assert code == 0
        res = rep["result"]
        assert res["jacobian_is_constant"]
        assert res["symmetrizer"]["verdict"] == "Gradientized"
        assert res["symmetrizer"]["transformed_asymmetry"] < 1e-8

    def test_gradientize_rotation_consistency_only(self, tmp_path):
        code, rep = run_cli(tmp_path, "gradientize",
                            "--set", "system.name=rotation")
        assert code == 0
        res = rep["result"]
        assert res["consistency_equation"]["verdict"] == \
            "ConsistencyOnlySolution"
        assert res["consistency_equation"]["nullspace_dim"] == 1
        assert res["symmetrizer"]["verdict"] == "Infeasible"

    def test_gradientize_jj_linear_not_gradientized(self, tmp_path):
        code, rep = run_cli(tmp_path, "gradientize",
                            "--set", "system.name=jj_circuit_linear")
        assert code == 0
        assert rep["result"]["symmetrizer"]["verdict"] != "Gradientized"

    def test_gradientize_general_block(self, tmp_path):
        cfg = {"system": {"name": "quadratic",
                          "params": {"q_0_0": -2.0, "q_0_1": 1.0,
                                     "q_1_0": 1.0, "q_1_1": -3.0}},
               "solver": {"run_general": True, "max_iter": 30}}
        code, rep = run_cli(tmp_path, "gradientize", "--config",
                            write_config(tmp_path, cfg))
        assert code == 0
        gen = rep["result"]["general"]
        assert gen["converged"]
        assert gen["residual_norm"] < 1e-8

    def test_general_consistency_takes_quadrature_order(self, tmp_path):
        sets = ["--set", "solver.run_general=true", "--set",
                "solver.max_iter=2", "--set", "solver.collocation=8"]
        general = {}
        for order in (16, 64):
            code, rep = run_cli(tmp_path, "gradientize", *sets, "--set",
                                f"quadrature_order={order}",
                                name=f"order{order}.json")
            assert code == 0
            general[order] = rep["result"]["general"]
        assert general[16]["theta_final"] == general[64]["theta_final"]
        field = build_system(SystemSpec(name="lorenz", params={}, dim=0))
        family = MatrixFamily(dim=3,
                              degree=DEFAULT_CONFIG["solver"]["family_degree"])
        theta = np.array(general[16]["theta_final"])
        samples = sample_ball(3, 8, DEFAULT_CONFIG["samples"]["radius"],
                              DEFAULT_CONFIG["samples"]["seed"])
        for order, rep in general.items():
            quad = QuadratureRule.gauss_legendre(order)
            assert rep["consistency_residual"] == consistency_check(
                field, family, theta, samples, quad)
        assert general[16]["consistency_residual"] != \
            general[64]["consistency_residual"]

    def test_simulate_double_well_monotone(self, tmp_path):
        code, rep = run_cli(tmp_path, "simulate",
                            "--set", "system.name=double_well",
                            "--set", "simulation.steps=500",
                            "--set", "simulation.ensemble=4")
        assert code == 0
        res = rep["result"]
        assert res["n_monotone"] == res["n_trajectories"] == 4

    def test_simulate_gradientize_source_monotone(self, tmp_path):
        cfg = {"system": {"name": "quadratic",
                          "params": {"q_0_0": -1.0, "q_0_1": 2.0,
                                     "q_1_0": 0.0, "q_1_1": -3.0}},
               "potential_source": "gradientize",
               "simulation": {"steps": 500, "ensemble": 4}}
        code, rep = run_cli(tmp_path, "simulate", "--config",
                            write_config(tmp_path, cfg))
        assert code == 0
        assert rep["result"]["n_monotone"] == 4

    def test_simulate_lorenz_reports_violations(self, tmp_path):
        code, rep = run_cli(tmp_path, "simulate",
                            "--set", "simulation.steps=2000",
                            "--set", "simulation.ensemble=4",
                            "--set", "simulation.x0_radius=2.0")
        assert code == 0
        res = rep["result"]
        # chaotic attractor: the homotopy candidate is not a Lyapunov
        # function, and the report says so rather than hiding it
        assert res["n_monotone"] < res["n_trajectories"]

    def test_simulate_blowup_is_unfinished(self, tmp_path, capsys):
        # at dt=0.2 lorenz states reach 1e266: still finite, but the ray
        # potential of the candidate overflows there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(tmp_path, "simulate",
                                "--set", "simulation.dt=0.2",
                                "--set", "simulation.steps=200")
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = rep["result"]["trajectories"]
        assert len(rows) == 8
        keys = {"x0", "completed", "max_increase", "monotone",
                "orthogonality_residual_at_end"}
        assert all(set(row) == keys for row in rows)
        blown = [row for row in rows if row["max_increase"] is None]
        assert blown
        for row in blown:
            assert row["completed"] is False
            assert row["monotone"] is False
            assert row["orthogonality_residual_at_end"] is None
        # one start goes non-finite after a last finite rise of about 1e18:
        # a trajectory cut short says nothing about descent
        cut = [row for row in rows
               if row["max_increase"] is not None and not row["completed"]]
        assert cut and all(row["monotone"] is False for row in cut)
        assert rep["result"]["n_monotone"] == sum(r["monotone"] for r in rows)

    def test_simulate_overflowing_increments_are_unfinished(
            self, tmp_path, capsys, monkeypatch):
        # V alternates between 1e308 and -1e308: every value is finite,
        # and every rise of V overflows to inf
        def alternating(field, X, quad):
            return np.where(np.arange(len(X)) % 2 == 0, 1e308, -1e308)

        monkeypatch.setattr(cli, "potential", alternating)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(tmp_path, "simulate",
                                "--set", "simulation.steps=5",
                                "--set", "simulation.ensemble=2")
        assert code == 0
        assert capsys.readouterr().err == ""
        assert rep["result"]["trajectories"] == [
            {"x0": row["x0"], "completed": False, "max_increase": None,
             "monotone": False, "orthogonality_residual_at_end": None}
            for row in rep["result"]["trajectories"]]
        assert rep["result"]["n_monotone"] == 0

    def test_simulate_allowance_past_the_float_range(self, tmp_path):
        # the starts sit on Lorenz's fixed point 0; dt^2 = 1e400 is past
        # the float range, so the allowance is inf, not an OverflowError
        code, rep = run_cli(tmp_path, "simulate",
                            "--set", "simulation.dt=1e200",
                            "--set", "simulation.x0_radius=0",
                            "--set", "simulation.steps=3",
                            "--set", "simulation.ensemble=2")
        assert code == 0
        assert [(row["completed"], row["monotone"], row["max_increase"])
                for row in rep["result"]["trajectories"]] \
            == [(True, True, 0.0)] * 2

    def test_simulate_traj_csv_export(self, tmp_path):
        traj_dir = tmp_path / "trajs"
        out = tmp_path / "rep.json"
        code = main(["simulate", "--set", "system.name=double_well",
                     "--set", "simulation.steps=50",
                     "--set", "simulation.ensemble=3",
                     "--traj-dir", str(traj_dir), "--out", str(out)])
        assert code == 0
        files = sorted(traj_dir.glob("trajectory_*.csv"))
        assert len(files) == 3
        lines = files[0].read_text().strip().splitlines()
        assert lines[0] == "t,x_1"
        assert len(lines) == 52

    def test_simulate_gradientize_blowup_is_unfinished(self, tmp_path,
                                                       capsys):
        # the gradientized Lorenz field at dt=0.2: every row diverges,
        # cut short or with a candidate that overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(tmp_path, "simulate",
                                "--set", "potential_source=gradientize",
                                "--set", "simulation.dt=0.2",
                                "--set", "simulation.steps=200")
        assert code == 0
        assert capsys.readouterr().err == ""
        rows = rep["result"]["trajectories"]
        assert len(rows) == 8
        keys = {"x0", "completed", "max_increase", "monotone",
                "orthogonality_residual_at_end"}
        assert all(set(row) == keys for row in rows)
        assert not any(row["completed"] or row["monotone"] for row in rows)

    def test_simulate_gradientize_traj_csv_export(self, tmp_path):
        traj_dir = tmp_path / "trajs"
        code = main(["simulate", "--set", "potential_source=gradientize",
                     "--set", "simulation.steps=50",
                     "--set", "simulation.ensemble=2",
                     "--traj-dir", str(traj_dir),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 0
        files = sorted(traj_dir.glob("trajectory_*.csv"))
        assert len(files) == 2
        for f in files:
            lines = f.read_text().strip().splitlines()
            assert lines[0] == "t,x_1,x_2,x_3"
            assert len(lines) == 52

    @pytest.mark.parametrize("source", ["homotopy", "gradientize"])
    def test_simulate_traj_dir_rewritten_shorter(self, tmp_path, source):
        # a second export with fewer steps into the same directory leaves
        # the bytes of an export into an empty one, with no stale tail
        def export(traj_dir, steps):
            code = main(["simulate", "--set", f"potential_source={source}",
                         "--set", f"simulation.steps={steps}",
                         "--set", "simulation.ensemble=3",
                         "--traj-dir", str(traj_dir),
                         "--out", str(tmp_path / "rep.json")])
            assert code == 0
            return {f.name: f.read_bytes()
                    for f in sorted(traj_dir.glob("trajectory_*.csv"))}

        first = export(tmp_path / "d", 120)
        again = export(tmp_path / "d", 40)
        fresh = export(tmp_path / "fresh", 40)
        assert len(first) == len(again) == 3 and again == fresh
        for data in again.values():
            assert data.count(b"\r\n") == 42 and data.endswith(b"\r\n")

    @pytest.mark.parametrize("source", ["homotopy", "gradientize"])
    def test_simulate_lone_start_steps_as_one_point(self, tmp_path,
                                                    monkeypatch, source):
        # an ensemble of one steps its start as a point (dim,), on Python
        # floats; more starts go in one lockstep of rows (count, dim)
        shapes = []

        def spy(field, x0, dt, steps):
            shapes.append(np.shape(x0))
            return integrate_rk4(field, x0, dt, steps)

        monkeypatch.setattr("gradiform.cli.integrate_rk4", spy)
        for ensemble in (1, 3):
            code, rep = run_cli(tmp_path, "simulate",
                                "--set", f"potential_source={source}",
                                "--set", "simulation.steps=30",
                                "--set", f"simulation.ensemble={ensemble}")
            assert code == 0 and rep["result"]["n_trajectories"] == ensemble
        assert shapes == [(3,), (3, 3)]

    def test_simulate_exact_gradient_residual_is_rounding(self, tmp_path):
        # double_well is -V' exactly, and its candidate's gradient is the
        # exact part d(kG), so f + grad V is rounding, not a difference
        # quotient's error (up to about 1e-11 at the central difference)
        code, rep = run_cli(tmp_path, "simulate",
                            "--set", "system.name=double_well",
                            "--set", "simulation.steps=200",
                            "--set", "simulation.ensemble=4")
        assert code == 0
        for row in rep["result"]["trajectories"]:
            assert abs(row["orthogonality_residual_at_end"]) <= 1e-14

    def test_graham_ou_blocks(self, tmp_path):
        cfg = {"system": {"name": "ou", "params": {"theta": 1.0}},
               "simulation": {"steps": 20000, "ensemble": 4,
                              "eps": [0.05, 0.1], "dt": 1e-3,
                              "grid_bins": 20,
                              "grid_range": [-1.5, 1.5]}}
        code, rep = run_cli(tmp_path, "graham", "--config",
                            write_config(tmp_path, cfg))
        assert code == 0
        blocks = rep["result"]["estimates"]
        assert [b["eps"] for b in blocks] == [0.05, 0.1]
        for b in blocks:
            assert b["occupied_cells"] > 0
            assert "sup_error_vs_analytic" in b


def jsonable_reference(obj):
    """Report values element by element: non-finite floats become None."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        obj = obj.value
    if isinstance(obj, dict):
        return {k: jsonable_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable_reference(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable_reference(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def reference_text(obj):
    return json.dumps(jsonable_reference(obj), sort_keys=True)


class Color(enum.Enum):
    RED = "Röt"
    BLUE = 2


@dataclasses.dataclass
class Pair:
    grid: np.ndarray
    color: Color


def test_jsonable_matches_elementwise_reference():
    a = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 5e-324],
                  [1e308, -2.5, 1.0 / 3.0]])
    sparse = np.full((4, 3, 5), np.nan)
    sparse[1, 2, 3], sparse[3, 0, 0] = -0.0, 1e308
    cases = [a, a[:, 1], a.T, a[:2].astype(np.float32), np.array(-0.0),
             np.array(np.nan), np.arange(6).reshape(2, 3), a > 0,
             np.empty((0, 3)), np.empty((3, 0)), np.empty((2, 0, 3)),
             np.full((2, 3, 2, 2), np.inf), sparse, sparse[:, ::-1],
             np.ones((2, 2, 2)), np.float64(-0.0), np.float32(0.1),
             np.int64(7), np.bool_(True), Color.RED, Color.BLUE,
             Pair(sparse, Color.BLUE), "naïve \u2192 \"q\"\n", {"ключ": "€"},
             {"grid": a, "rows": [a[0], (np.float64(np.inf), -0.0)]}]
    for obj in cases:
        assert _to_json(obj) == reference_text(obj)
    assert _to_json(a[0]) == "[0.0, -0.0, null]"


_NULL_CELL = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def float_grids(draw):
    """Float arrays of 1-4 dims whose cells are all finite, all
    non-finite, or a random share of each."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    finite = st.floats(allow_nan=False, allow_infinity=False,
                       width=8 * np.dtype(dtype).itemsize)
    elements, fill = draw(st.sampled_from([
        (st.one_of(finite, _NULL_CELL), _NULL_CELL),
        (_NULL_CELL, _NULL_CELL),
        (finite, finite)]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=0,
                                  max_side=5))
    return draw(hnp.arrays(dtype, shape, elements=elements, fill=fill))


_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
_REPORT_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from([-0.0, 5e-324, 1e308]), float_grids(),
    hnp.arrays(np.int64, _SHAPES), hnp.arrays(np.bool_, _SHAPES),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.sampled_from(Color))
_REPORTS = st.recursive(_REPORT_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(), kids, max_size=4)), max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(obj=_REPORTS)
def test_writer_matches_reference_property(obj):
    assert _to_json(obj) == reference_text(obj)


def test_report_mode_follows_the_umask(tmp_path):
    # the report is written through a 0600 temporary file; it ends with
    # the mode a plain open() gives, as the trajectory CSVs do
    old = os.umask(0o022)
    try:
        assert main(["simulate", "--set", "simulation.steps=5",
                     "--set", "simulation.ensemble=1",
                     "--traj-dir", str(tmp_path / "trajs"),
                     "--out", str(tmp_path / "report.json")]) == 0
    finally:
        os.umask(old)

    def mode(path):
        return stat.S_IMODE(path.stat().st_mode)

    assert mode(tmp_path / "report.json") \
        == mode(tmp_path / "trajs" / "trajectory_000.csv") == 0o644


def test_report_over_an_existing_file(tmp_path):
    # the new report is renamed over the old one: the new bytes, the
    # mode open() gives under the umask, and no temporary file left behind
    out = tmp_path / "report.json"
    out.write_text("old report\n")
    out.chmod(0o600)
    old = os.umask(0o027)
    try:
        _write_report({"a": 1.5}, out)
    finally:
        os.umask(old)
    assert out.read_text() == '{"a": 1.5}\n'
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_write_report_one_sorted_line(tmp_path, capsys):
    report = {"zeta": {"b": np.array([1.5, np.nan]), "a": -np.inf},
              "alpha": [np.float64(0.1), np.int64(3), np.bool_(False)],
              "mid": "text"}
    _write_report(report, None)
    text = capsys.readouterr().out
    out = tmp_path / "sub" / "report.json"
    _write_report(report, out)
    assert out.read_text() == text
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == reference_text(report) + "\n"
    parsed = json.loads(text)
    assert list(parsed) == ["alpha", "mid", "zeta"]
    assert list(parsed["zeta"]) == ["a", "b"]
    assert parsed["zeta"] == {"a": None, "b": [1.5, None]}
    assert "NaN" not in text and "Infinity" not in text


_QUADRATIC_3D = ["system.name=quadratic", "system.params.q_0_0=-1",
                 "system.params.q_1_1=-1", "system.params.q_2_2=-1",
                 "system.params.q_0_1=0.5", "simulation.eps=[0.05,0.1]",
                 "simulation.steps=200"]


@pytest.mark.parametrize("argv", [
    ["classify", "samples.count=8"],
    ["decompose", "samples.count=8"],
    ["gradientize", "solver.run_general=true", "solver.max_iter=2",
     "solver.collocation=8"],
    ["simulate", "simulation.steps=50", "simulation.ensemble=2"],
    ["graham", "system.name=ou", "simulation.steps=200"],
    ["zoo-list"],
    ["graham"] + _QUADRATIC_3D,
], ids=["classify", "decompose", "gradientize", "simulate", "graham",
        "zoo-list", "graham-quadratic-3d"])
def test_every_command_writes_canonical_json(tmp_path, argv):
    out = tmp_path / "report.json"
    sets = [arg for item in argv[1:] for arg in ("--set", item)]
    assert main([argv[0], *sets, "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def _graham(tmp_path, *sets):
    argv = [arg for item in sets for arg in ("--set", item)]
    code, rep = run_cli(tmp_path, "graham", *argv)
    assert code == 0
    return rep["result"]["estimates"]


class TestGrahamReference:
    @pytest.mark.parametrize("sets, V", [
        (_QUADRATIC_3D + ["system.params.q_1_0=0.5"],
         # Q symmetric: V = -x^T Q x / 2
         lambda X: 0.5 * (X[:, 0] ** 2 + X[:, 1] ** 2 + X[:, 2] ** 2)
         - 0.5 * X[:, 0] * X[:, 1]),
        (["system.name=ou", "system.params.theta=1.5",
          "simulation.steps=2000"], lambda X: 0.75 * X[:, 0] ** 2),
        (["system.name=double_well", "simulation.steps=2000"],
         lambda X: 0.25 * X[:, 0] ** 4 - 0.5 * X[:, 0] ** 2)],
        ids=["quadratic-symmetric-3d", "ou", "double_well"])
    def test_closed_field_has_the_closed_form_reference(self, sets, V,
                                                        tmp_path):
        # a closed form's ray potential is V - V(0), graham's reference at
        # the occupied cells, both min-shifted there
        for b in _graham(tmp_path, *sets):
            est = np.array(b["estimate"], dtype=float)  # null -> NaN
            occupied = np.isfinite(est)
            centers = np.meshgrid(*[0.5 * (np.array(e[:-1]) + e[1:])
                                    for e in b["grid_edges"]], indexing="ij")
            ref = V(np.stack(centers, axis=-1)[occupied])
            want = np.max(np.abs(est[occupied] - (ref - ref.min())))
            assert np.isfinite(b["sup_error_vs_analytic"])
            assert b["sup_error_vs_analytic"] == pytest.approx(want,
                                                               rel=1e-12)

    @pytest.mark.parametrize("sets", [
        _QUADRATIC_3D, ["simulation.steps=200"],
        ["system.name=rotation", "simulation.steps=200"]],
        ids=["quadratic-nonsymmetric", "lorenz", "rotation"])
    def test_field_not_closed_has_no_reference(self, sets, tmp_path):
        for b in _graham(tmp_path, *sets):
            assert b["occupied_cells"] > 0
            assert "sup_error_vs_analytic" not in b

    @pytest.mark.parametrize("sets", [
        ["system.name=quadratic", "system.params.q_0_0=-1",
         "system.params.q_1_1=-1"],
        ["system.name=ou"], ["system.name=double_well"]],
        ids=["quadratic", "ou", "double_well"])
    def test_reference_out_of_float_range_is_null(self, sets, tmp_path):
        # cells near 1e198: the closed field's ray potential, or
        # double_well's Jacobian, overflows; the reference is a
        # diagnostic, so the report keeps its histogram and reads null
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = _graham(tmp_path, *sets, "simulation.steps=200",
                             "simulation.grid_range=[-1e200, 1e200]")
        for b in blocks:
            assert b["total_samples"] > 0 and b["occupied_cells"] > 0
            assert "sup_error_vs_analytic" in b
            assert b["sup_error_vs_analytic"] is None

    def test_default_graham_is_the_library_pipeline(self, tmp_path):
        # the default (Lorenz, not closed) report is the bytes of the
        # library's own EM, binning and estimate, timings aside
        out = tmp_path / "report.json"
        assert main(["graham", "--out", str(out)]) == 0
        text = out.read_text()
        rep = json.loads(text)
        cfg, sim = load_config(), DEFAULT_CONFIG["simulation"]
        x0s = sample_ball(3, sim["ensemble"], sim["x0_radius"],
                          sim["master_seed"])
        [ens] = euler_maruyama_ensembles(lorenz(), sim["eps"], x0s, sim["dt"],
                                         sim["steps"], sim["master_seed"])
        density = stationary_density(
            ens, bins=sim["grid_bins"], ranges=[(-30.0, 50.0)] * 3,
            burn_in=int(sim["burn_in_fraction"] * (sim["steps"] + 1)))
        block = {"eps": sim["eps"][0], "total_samples": density.total,
                 "n_clipped": density.n_clipped,
                 "occupied_cells": int(np.sum(density.counts > 0)),
                 "estimate": graham_estimate(density, sim["eps"][0]),
                 "grid_edges": density.edges}
        want = {"schema": SCHEMA, "tool_version": rep["tool_version"],
                "command": "graham", "config": cfg,
                "result": {"estimates": [block]}, "timings": rep["timings"]}
        assert text == _to_json(want) + "\n"


def _strip_timings(report):
    return {k: v for k, v in report.items() if k != "timings"}


class TestDeterminism:
    def test_classify_repeatable(self, tmp_path):
        _, a = run_cli(tmp_path, "classify", "--set", "samples.count=8",
                       name="a.json")
        _, b = run_cli(tmp_path, "classify", "--set", "samples.count=8",
                       name="b.json")
        assert _strip_timings(a) == _strip_timings(b)

    def test_graham_repeatable(self, tmp_path):
        args = ["graham", "--set", "system.name=ou",
                "--set", "simulation.steps=5000",
                "--set", "simulation.ensemble=2",
                "--set", "simulation.grid_bins=10"]
        _, a = run_cli(tmp_path, *args, name="a.json")
        _, b = run_cli(tmp_path, *args, name="b.json")
        assert _strip_timings(a) == _strip_timings(b)

    def test_env_seed_changes_graham(self, tmp_path):
        args = ["graham", "--set", "system.name=ou",
                "--set", "simulation.steps=5000",
                "--set", "simulation.ensemble=2",
                "--set", "simulation.grid_bins=10"]
        _, a = run_cli(tmp_path, *args, name="a.json")
        _, b = run_cli(tmp_path, *args, "--set",
                       "simulation.master_seed=31337", name="b.json")
        assert b["config"]["simulation"]["master_seed"] == 31337
        assert a["result"] != b["result"]


class TestRepeatedCalls:
    """One process, many reports: the parser is built once at import."""

    ARGVS = [
        ["classify", "--set", "samples.count=6"],
        ["decompose", "--set", "samples.count=6",
         "--set", "quadrature_order=8"],
        ["gradientize", "--set", "system.name=quadratic"],
        ["simulate", "--set", "system.name=double_well",
         "--set", "simulation.steps=30", "--set", "simulation.ensemble=2"],
    ]

    def _run_all(self, tmp_path, tag, argvs):
        results, csvs = [], {}
        for k, argv in enumerate(argvs):
            if argv[0] == "simulate":
                traj_dir = tmp_path / f"{tag}-trajs{k}"
                argv = argv + ["--traj-dir", str(traj_dir)]
            code, rep = run_cli(tmp_path, *argv, name=f"{tag}{k}.json")
            assert code == 0
            results.append(rep["result"])
            if argv[0] == "simulate":
                csvs[k] = [f.read_bytes()
                           for f in sorted(traj_dir.glob("*.csv"))]
        return results, csvs

    def test_successive_calls_match_first(self, tmp_path):
        first, first_csv = self._run_all(tmp_path, "a", self.ARGVS)
        assert [len(v) for v in first_csv.values()] == [2]
        for tag in ("b", "c"):
            again, again_csv = self._run_all(tmp_path, tag, self.ARGVS)
            assert again == first
            assert again_csv == first_csv
        backwards, _ = self._run_all(tmp_path, "d", self.ARGVS[::-1])
        assert backwards[::-1] == first

    def test_set_lists_do_not_leak(self, tmp_path):
        code, rep = run_cli(tmp_path, "zoo-list", "--set", "samples.count=4",
                            "--set", "system.name=ou", name="a.json")
        assert code == 0
        assert rep["config"]["samples"]["count"] == 4
        code, rep = run_cli(tmp_path, "zoo-list", name="b.json")
        assert code == 0
        assert rep["config"] == load_config()
        code, rep = run_cli(tmp_path, "zoo-list", "--set", "samples.count=5",
                            name="c.json")
        assert rep["config"]["system"]["name"] == "lorenz"
        assert rep["config"]["samples"]["count"] == 5


def _config_keys(node, prefix=""):
    for key, val in node.items():
        path = prefix + key
        yield path
        if isinstance(val, dict):
            yield from _config_keys(val, path + ".")


FUZZ_KEYS = sorted(_config_keys(DEFAULT_CONFIG)) + [
    "system.params.sigma", "system.params.q_0_1", "bogus", "samples.bogus"]
FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.floats(),
    st.sampled_from(sorted(REGISTRY)),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(-3, 3)), max_size=3),
    st.dictionaries(st.sampled_from(["count", "name", "params"]),
                    st.integers(-1, 3), max_size=2))


@settings(max_examples=60, deadline=None)
@given(sets=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS),
                               st.one_of(FUZZ_VALUES.map(json.dumps),
                                         st.text(max_size=4))),
                     max_size=3))
def test_config_fuzz_exit_codes(sets):
    # any override either runs, is a config error (2) or a numerical
    # abort (3); never a traceback.  Few samples keep each run small.
    argv = ["classify", "--set", "samples.count=3",
            "--set", "quadrature_order=8"]
    for key, raw in sets:
        argv += ["--set", f"{key}={raw}"]
    with tempfile.TemporaryDirectory() as tmp:
        code = main(argv + ["--out", os.path.join(tmp, "report.json")])
    assert code in (0, 2, 3)


# -- the gradientized flow, stepped in the base field's coordinates --------

_BASE_FIELDS = {"lorenz": lorenz(),
                "jj_circuit": jj_circuit(i=0.3, r=1.2, beta_c=0.7,
                                         beta_L=1.9),
                "linear": quadratic([[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0],
                                     [0.0, 0.0, 0.5]])}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_BASE_FIELDS)),
       E=hnp.arrays(float, (3, 3), elements=st.floats(-0.3, 0.3)),
       x0=hnp.arrays(float, 3, elements=st.floats(-3, 3)),
       dt=st.floats(1e-3, 2e-2), steps=st.integers(1, 250))
def test_mapped_rk4_equals_composed_field(name, E, x0, dt, steps):
    # RK4 commutes with x = D y, so the two trajectories differ only by
    # rounding: a few eps times cond(D) per stage, grown by at most
    # e^(0.9 t) on Lorenz over t <= 5; 1e-10 leaves a margin of 1e3
    field, D = _BASE_FIELDS[name], np.eye(3) + E  # diagonally dominant
    got = _mapped_rk4(field, D, x0, dt, steps)
    ref = integrate_rk4(transform_field(field, D), x0, dt, steps)
    assert len(got.states) == len(ref.states) == steps + 1
    assert got.completed and ref.completed
    assert got.dt == dt
    err = np.abs(got.states - ref.states).max(axis=1)
    assert (err <= 1e-10 * (1 + np.abs(ref.states).max(axis=1))).all()
    assert got.states[0].tobytes() == x0.tobytes()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(_BASE_FIELDS)),
       E=hnp.arrays(float, (3, 3), elements=st.floats(-0.3, 0.3)),
       x0s=st.integers(2, 9).flatmap(lambda m: hnp.arrays(
           float, (m, 3), elements=st.floats(-3, 3))),
       dt=st.floats(1e-3, 2e-2), steps=st.integers(1, 250))
def test_mapped_rk4_rows_equal_lone_starts(name, E, x0s, dt, steps):
    field, D = _BASE_FIELDS[name], np.eye(3) + E
    trajs = _mapped_rk4(field, D, x0s, dt, steps)
    assert len(trajs) == len(x0s)
    for x0, traj in zip(x0s, trajs):
        lone = _mapped_rk4(field, D, x0, dt, steps)
        assert traj.states.tobytes() == lone.states.tobytes()
        assert traj.completed == lone.completed and traj.dt == dt


def test_mapped_rk4_rows_cut_apart():
    # each row ends before its own first state that D maps past the
    # largest float: y_1 = y_1(0) e^t, and D scales it by 1e308
    D = np.diag([1e308, 1.0])
    x0s = np.array([[1e308, 0.0], [0.0, 1.0], [1e307, 0.0]])
    trajs = _mapped_rk4(quadratic([[1.0, 0.0], [0.0, -1.0]]), D, x0s,
                        0.1, 40)
    assert [len(t.states) for t in trajs] == [6, 41, 29]
    assert [t.completed for t in trajs] == [False, True, False]
    for x0, traj in zip(x0s, trajs):
        lone = _mapped_rk4(quadratic([[1.0, 0.0], [0.0, -1.0]]), D, x0,
                           0.1, 40)
        assert traj.states.tobytes() == lone.states.tobytes()
        assert traj.states[0].tobytes() == x0.tobytes()


def test_mapped_rk4_cut_before_the_first_overflowing_state():
    # y = (e^t, 0) stays finite, but D y passes the largest float once
    # e^t > 1.79: the trajectory ends at its last finite mapped state
    D = np.diag([1e308, 1.0])
    x0 = np.array([1e308, 0.0])
    traj = _mapped_rk4(quadratic([[1.0, 0.0], [0.0, -1.0]]), D, x0,
                       0.1, 20)
    assert not traj.completed
    assert np.isfinite(traj.states).all()
    assert len(traj.states) == 6  # e^0.5 < 1.79 < e^0.6
    assert traj.states[0].tobytes() == x0.tobytes()

import json
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradiform.cli import (ConfigError, DEFAULT_CONFIG, SCHEMA, _jsonable,
                           _write_report, load_config, main)
from gradiform.zoo import REGISTRY


def run_cli(tmp_path, *argv, name="report.json"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config()
        assert cfg == DEFAULT_CONFIG or cfg["system"]["name"] == "lorenz"

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

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("GRADIFORM_SEED", "777")
        cfg = load_config()
        assert cfg["simulation"]["master_seed"] == 777

    def test_env_seed_bad_value(self, monkeypatch):
        monkeypatch.setenv("GRADIFORM_SEED", "seven")
        with pytest.raises(ConfigError):
            load_config()

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
        "simulation.eps=[]", "simulation.grid_range=[2, -2]",
        "simulation.burn_in_fraction=1", "solver.run_general=1",
        "samples={}", "system=3", 'system.params.sigma="a"',
        "tolerances.consistency=1e-6"])
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

    def test_default_graham_names_the_sample_span(self, capsys):
        # the default Lorenz ensemble leaves the default [-2, 2]^3 grid
        assert main(["graham"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical abort:")
        assert "grid ranges [-2, 2] x [-2, 2] x [-2, 2]" in err
        span = np.array(re.findall(r"\[(\S+), (\S+)\]",
                                   err.split("samples span ")[1]), dtype=float)
        assert span.shape == (3, 2) and np.all(span[:, 0] <= span[:, 1])
        assert np.max(np.abs(span)) > 2.0

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
        _, rep = run_cli(tmp_path, "zoo-list")
        names = [s["name"] for s in rep["result"]["systems"]]
        assert "lorenz" in names and "double_well" in names
        assert names == sorted(names)

    def test_classify_lorenz(self, tmp_path):
        code, rep = run_cli(tmp_path, "classify",
                            "--set", "samples.count=16")
        assert code == 0
        res = rep["result"]
        assert res["verdict"] == "NonIntegrable"
        assert res["frobenius_defect_max"] > 1.0
        assert len(res["loop_integrals"]) == 1

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


def test_jsonable_matches_elementwise_reference():
    a = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 5e-324],
                  [1e308, -2.5, 1.0 / 3.0]])
    cases = [a, a[:, 1], a[:2].astype(np.float32), np.array(-0.0),
             np.array(np.nan), np.arange(6).reshape(2, 3), a > 0,
             np.empty((0, 3)), np.float64(-0.0), np.int64(7), np.bool_(True),
             {"grid": a, "rows": [a[0], (np.float64(np.inf), -0.0)]}]
    for obj in cases:
        got = json.dumps(_jsonable(obj), sort_keys=True)
        assert got == json.dumps(jsonable_reference(obj), sort_keys=True)
    assert json.dumps(_jsonable(a[0])) == "[0.0, -0.0, null]"


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
    parsed = json.loads(text)
    assert parsed == _jsonable(report)
    assert list(parsed) == ["alpha", "mid", "zeta"]
    assert list(parsed["zeta"]) == ["a", "b"]
    assert parsed["zeta"] == {"a": None, "b": [1.5, None]}
    assert "NaN" not in text and "Infinity" not in text


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

    def test_env_seed_changes_graham(self, tmp_path, monkeypatch):
        args = ["graham", "--set", "system.name=ou",
                "--set", "simulation.steps=5000",
                "--set", "simulation.ensemble=2",
                "--set", "simulation.grid_bins=10"]
        _, a = run_cli(tmp_path, *args, name="a.json")
        monkeypatch.setenv("GRADIFORM_SEED", "31337")
        _, b = run_cli(tmp_path, *args, name="b.json")
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

"""Batch front end: config-driven classification, decomposition,
gradientization, simulation, and stationary-density pipelines with
deterministic JSON reports."""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (euler_maruyama_ensembles, graham_estimate,
                       integrate_rk4, lyapunov_check, orthogonality_residual,
                       stationary_density, write_trajectory_csv)
from .fields import FieldEvalError, jacobian
from .gradientize import (MatrixFamily, solve_consistency_constant,
                          solve_general, solve_symmetrizer, transform_field)
from .homotopy import QuadratureRule, decompose, potential
from .integrability import circle_loop, classify
from .sampling import sample_ball
from .zoo import REGISTRY, SystemSpec, analytic_potential, build_system

SCHEMA = "gradiform/1"

DEFAULT_CONFIG = {
    "system": {"name": "lorenz", "params": {}},
    "samples": {"count": 64, "radius": 1.5, "seed": 12345},
    "quadrature_order": 64,
    "tolerances": {"closedness": 1e-8, "solver": 1e-8},
    "solver": {"family_degree": 1, "max_iter": 200, "collocation": 32,
               "run_general": False},
    "simulation": {"dt": 1e-3, "steps": 2000, "eps": [0.05], "ensemble": 8,
                   "master_seed": 2024, "burn_in_fraction": 0.2,
                   "x0_radius": 0.5, "grid_bins": 40,
                   "grid_range": [-2.0, 2.0]},
    "potential_source": "homotopy",
}


class ConfigError(ValueError):
    pass


def _merge(defaults, overrides, path=""):
    out = copy.deepcopy(defaults)
    for key, val in overrides.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(defaults[key], dict) and key != "params":
            if not isinstance(val, dict):
                raise ConfigError(f"{where} must be an object")
            out[key] = _merge(defaults[key], val, where)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path=None, overrides=()):
    """Resolve the run config: file, then --set overrides, then env seed."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config key {key!r}")
            node = node[part]
        leaf = parts[-1]
        if leaf not in node and not (parts[0] == "system"
                                     and parts[1:2] == ["params"]):
            raise ConfigError(f"unknown config key {key!r}")
        node[leaf] = val
    env_seed = os.environ.get("GRADIFORM_SEED")
    if env_seed is not None:
        try:
            cfg["simulation"]["master_seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"GRADIFORM_SEED must be an integer, "
                              f"got {env_seed!r}")
    _validate(cfg)
    return cfg


# numeric config values: (kind, requirement, test, keys)
_NUMBERS = [
    (int, "at least 1", lambda v: v >= 1,
     ["samples.count", "quadrature_order", "solver.collocation",
      "simulation.steps", "simulation.ensemble", "simulation.grid_bins"]),
    (int, "nonnegative", lambda v: v >= 0,
     ["samples.seed", "solver.family_degree", "solver.max_iter"]),
    # the Philox key of the per-trajectory noise streams is 128 bits
    (int, "in [0, 2**128)", lambda v: 0 <= v < 2 ** 128,
     ["simulation.master_seed"]),
    (float, "positive", lambda v: v > 0, ["samples.radius", "simulation.dt"]),
    (float, "nonnegative", lambda v: v >= 0,
     ["tolerances.closedness", "tolerances.solver", "simulation.x0_radius"]),
    (float, "in [0, 1)", lambda v: 0 <= v < 1,
     ["simulation.burn_in_fraction"]),
]


def _is_number(v, kind=float) -> bool:
    """A finite number of the kind: an int is a float, a bool is neither."""
    return (isinstance(v, int if kind is int else (int, float))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max)


def _validate(cfg):
    """Check the type and range of every config value."""
    for section, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and not (
                isinstance(cfg[section], dict)
                and set(cfg[section]) == set(default)):
            raise ConfigError(f"{section} must be an object with keys "
                              f"{sorted(default)}")
    system = cfg["system"]
    if not isinstance(system["name"], str) or system["name"] not in REGISTRY:
        raise ConfigError(f"unknown system {system['name']!r}; "
                          f"known: {sorted(REGISTRY)}")
    if not isinstance(system["params"], dict) or not all(
            _is_number(v) for v in system["params"].values()):
        raise ConfigError("system.params must map names to finite numbers")
    for kind, requirement, test, keys in _NUMBERS:
        for key in keys:
            section, _, leaf = key.rpartition(".")
            val = cfg[section][leaf] if section else cfg[leaf]
            if not (_is_number(val, kind) and test(val)):
                noun = "an integer" if kind is int else "a finite number"
                raise ConfigError(f"{key} must be {noun}, {requirement}; "
                                  f"got {val!r}")
    sim = cfg["simulation"]
    if not (isinstance(sim["eps"], list) and sim["eps"]
            and all(_is_number(e) and e > 0 for e in sim["eps"])):
        raise ConfigError("simulation.eps must be a nonempty list of "
                          "positive numbers")
    grid = sim["grid_range"]
    if not (isinstance(grid, list) and len(grid) == 2
            and all(_is_number(v) for v in grid) and grid[0] < grid[1]):
        raise ConfigError("simulation.grid_range must be [low, high] with "
                          "low < high")
    if not isinstance(cfg["solver"]["run_general"], bool):
        raise ConfigError("solver.run_general must be true or false")
    if cfg["potential_source"] not in ("homotopy", "gradientize"):
        raise ConfigError("potential_source must be 'homotopy' or "
                          "'gradientize'")


def _system(cfg):
    spec = SystemSpec(name=cfg["system"]["name"],
                      params=dict(cfg["system"]["params"]),
                      dim=0)
    try:
        return build_system(spec), spec
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))


def _samples(cfg, dim):
    s = cfg["samples"]
    return sample_ball(dim, s["count"], s["radius"], s["seed"])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":  # masked/failed entries become null
            obj = np.where(np.isfinite(obj), obj, None)
        return obj.tolist()
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else None  # masked/failed entries
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def cmd_classify(cfg):
    field, _ = _system(cfg)
    samples = _samples(cfg, field.dim)
    loops = []
    if field.dim >= 2:
        loops.append(circle_loop(radius=min(1.0, cfg["samples"]["radius"]),
                                 dim=field.dim))
    quad = QuadratureRule.gauss_legendre(cfg["quadrature_order"])
    report = classify(field, samples, tol=cfg["tolerances"]["closedness"],
                      loops=loops, quad=quad)
    return {
        "verdict": report.verdict.value,
        "max_asymmetry": report.max_asymmetry,
        "frobenius_defect_max": report.frobenius_defect_max,
        "loop_integrals": [{"loop": name, "value": val}
                           for name, val in report.loop_integrals],
    }


def cmd_decompose(cfg):
    field, _ = _system(cfg)
    samples = _samples(cfg, field.dim)
    quad = QuadratureRule.gauss_legendre(cfg["quadrature_order"])
    d = decompose(field, samples, quad)
    rows = [{"point": x, "potential": float(v), "exact_part": ex,
             "antiexact_part": ae, "reconstruction_residual": float(res)}
            for x, v, ex, ae, res in zip(d.point, d.potential, d.exact_part,
                                         d.antiexact_part,
                                         d.reconstruction_residual)]
    # x . antiexact(x) per point, the same dot product as for one point
    radial = np.matmul(d.antiexact_part[:, None, :], d.point[:, :, None])
    return {
        "n_samples": len(rows),
        "max_reconstruction_residual": float(
            np.max(d.reconstruction_residual)),
        "max_radial_annihilation_violation": float(np.max(np.abs(radial))),
        "max_exact_norm": float(np.max(np.abs(d.exact_part))),
        "max_antiexact_norm": float(np.max(np.abs(d.antiexact_part))),
        "decompositions": rows,
    }


def _constant_report(rep):
    return {
        "verdict": rep.verdict.value,
        "nullspace_dim": len(rep.nullspace_basis),
        "nullspace_basis": rep.nullspace_basis,
        "chosen_D": rep.chosen_D,
        "necessary_residual": rep.necessary_residual,
        "transformed_asymmetry": rep.transformed_asymmetry,
        "consistency_residual": rep.consistency_residual,
        "det_precondition_gap": rep.det_precondition_gap,
        "identity_solves_necessary": rep.identity_solves_necessary,
    }


def cmd_gradientize(cfg):
    field, _ = _system(cfg)
    tol = cfg["tolerances"]["solver"]
    origin = np.zeros(field.dim)
    J0 = jacobian(field, origin)
    samples = sample_ball(field.dim, cfg["solver"]["collocation"],
                          cfg["samples"]["radius"], cfg["samples"]["seed"])
    jac_spread = float(np.max(np.abs(jacobian(field, samples) - J0)))
    consistency_rep = solve_consistency_constant(J0, tol=tol)
    symmetrizer_rep = solve_symmetrizer(J0, tol=tol)
    out = {
        "jacobian_at_origin": J0,
        "jacobian_is_constant": jac_spread <= 1e-10 * (1 + np.max(np.abs(J0))),
        "consistency_equation": _constant_report(consistency_rep),
        "symmetrizer": _constant_report(symmetrizer_rep),
    }
    if cfg["solver"]["run_general"]:
        family = MatrixFamily(dim=field.dim,
                              degree=cfg["solver"]["family_degree"])
        grep = solve_general(field, family, samples,
                             cfg["solver"]["max_iter"])
        out["general"] = {
            "residual_norm": grep.residual_norm,
            "consistency_residual": grep.consistency_residual,
            "iterations": grep.iterations,
            "converged": grep.converged,
            "theta_final": grep.theta_final,
        }
    return out


def cmd_simulate(cfg, traj_dir=None):
    field, _ = _system(cfg)
    sim = cfg["simulation"]
    quad = QuadratureRule.gauss_legendre(cfg["quadrature_order"])
    source = cfg["potential_source"]
    if source == "gradientize":
        rep = solve_symmetrizer(jacobian(field, np.zeros(field.dim)),
                                tol=cfg["tolerances"]["solver"])
        if rep.chosen_D is None:
            raise ConfigError(
                "potential_source=gradientize but no gradientizing matrix "
                f"was found (verdict {rep.verdict.value})")
        flow = transform_field(field, rep.chosen_D)
    else:
        flow = field

    def candidate(X):  # descends along xdot = g when the form is closed
        return -potential(flow, X, quad)

    def lyapunov_row(traj):
        # the candidate's ray integral can overflow on states that stay
        # finite; such a trajectory counts as unfinished, with no figures
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                V = candidate(traj.states)
                ortho = orthogonality_residual(flow, candidate,
                                               traj.states[-1])
        except FieldEvalError:
            V, ortho = np.nan, np.nan
        if not (np.isfinite(V).all() and np.isfinite(ortho)):
            return {"completed": False, "max_increase": None,
                    "monotone": False, "orthogonality_residual_at_end": None}
        rep_l = lyapunov_check(V, traj)
        return {"completed": traj.completed,
                "max_increase": rep_l.max_increase,
                "monotone": rep_l.monotone and traj.completed,
                "orthogonality_residual_at_end": ortho}

    x0s = sample_ball(field.dim, sim["ensemble"], sim["x0_radius"],
                      sim["master_seed"])
    if traj_dir is not None:
        traj_dir = Path(traj_dir)
        traj_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for idx, x0 in enumerate(x0s):
        traj = integrate_rk4(flow, x0, sim["dt"], sim["steps"])
        rows.append({"x0": x0, **lyapunov_row(traj)})
        if traj_dir is not None:
            write_trajectory_csv(traj, traj_dir / f"trajectory_{idx:03d}.csv")
    return {
        "potential_source": source,
        "n_trajectories": len(rows),
        "n_monotone": sum(row["monotone"] for row in rows),
        "trajectories": rows,
    }


def cmd_graham(cfg):
    field, spec = _system(cfg)
    sim = cfg["simulation"]
    lo, hi = sim["grid_range"]
    ranges = [(lo, hi)] * field.dim
    bins = sim["grid_bins"]
    analytic = analytic_potential(spec)
    x0s = sample_ball(field.dim, sim["ensemble"], sim["x0_radius"],
                      sim["master_seed"])
    ensembles = euler_maruyama_ensembles(field, sim["eps"], x0s, sim["dt"],
                                         sim["steps"], sim["master_seed"])
    burn = int(sim["burn_in_fraction"] * (sim["steps"] + 1))
    blocks = []
    for eps, ens in zip(sim["eps"], ensembles):
        density = stationary_density(ens, bins=bins, ranges=ranges,
                                     burn_in=burn)
        estimate = graham_estimate(density, eps)
        block = {
            "eps": eps,
            "total_samples": density.total,
            "n_clipped": density.n_clipped,
            "occupied_cells": int(np.sum(density.counts > 0)),
            "estimate": estimate,
            "grid_edges": density.edges,
        }
        if analytic is not None and field.dim == 1:
            ref = analytic(density.centers(0)[:, None])
            ref = ref - np.min(ref[np.isfinite(estimate)])
            block["sup_error_vs_analytic"] = float(
                np.nanmax(np.abs(estimate - ref)))
        blocks.append(block)
    return {"estimates": blocks}


def cmd_zoo_list(cfg):
    return {"systems": [
        {"name": name, "defaults": entry["defaults"],
         "dim": entry["dim"],
         "has_analytic_potential": entry["potential"] is not None}
        for name, entry in sorted(REGISTRY.items())]}


COMMANDS = {
    "classify": cmd_classify,
    "decompose": cmd_decompose,
    "gradientize": cmd_gradientize,
    "simulate": cmd_simulate,
    "graham": cmd_graham,
    "zoo-list": cmd_zoo_list,
}


def _write_report(report, out_path):
    text = json.dumps(_jsonable(report), sort_keys=True) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_path.parent,
                               prefix=out_path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradiform",
        description="Potential decomposition and gradientization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config file (defaults used when omitted)")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override a config key after file parse")
        p.add_argument("--out", default=None,
                       help="write the JSON report here instead of stdout")
        if name == "simulate":
            p.add_argument("--traj-dir", default=None,
                           help="export one CSV per trajectory")
    return parser


# built once per process: parse_args leaves the parser unchanged, and the
# --set default list is copied before an append
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        if args.command == "simulate":
            payload = cmd_simulate(cfg, traj_dir=args.traj_dir)
        else:
            payload = COMMANDS[args.command](cfg)
        report = {
            "schema": SCHEMA,
            "tool_version": __version__,
            "command": args.command,
            "config": cfg,
            "result": payload,
            "timings": {"wall_clock_s": time.perf_counter() - t0},
        }
        _write_report(report, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the --traj-dir CSVs or the report itself
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (FieldEvalError, np.linalg.LinAlgError, ValueError,
            MemoryError) as exc:
        # numpy refuses an allocation past the machine's memory at once
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch front end: config-driven classification, decomposition,
gradientization, simulation, and stationary-density pipelines with
deterministic JSON reports."""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import functools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (BURN_IN_FRACTION, Trajectory,
                       euler_maruyama_ensembles, graham_estimate,
                       integrate_rk4, lyapunov_check, stationary_density,
                       write_trajectory_csv)
from .fields import FieldEvalError, _matvec, eval_field, jacobian
from .gradientize import (MatrixFamily, solve_consistency_constant,
                          solve_general, solve_symmetrizer, transform_field)
from .homotopy import DEFAULT_ORDER, QuadratureRule, decompose, potential
from .integrability import (DEFAULT_TOL, _relative_asymmetry, classify,
                             loop_integral)
from .sampling import sample_ball
from .zoo import REGISTRY, SystemSpec, build_system, describe_system

SCHEMA = "gradiform/1"

DEFAULT_CONFIG = {
    "system": {"name": "lorenz", "params": {}},
    "samples": {"count": 64, "radius": 1.5, "seed": 12345},
    "quadrature_order": DEFAULT_ORDER,
    "solver": {"family_degree": 1, "max_iter": 200, "collocation": 32,
               "run_general": False},
    "simulation": {"dt": 1e-3, "steps": 2000, "eps": [0.05], "ensemble": 8,
                   "master_seed": 2024, "burn_in_fraction": BURN_IN_FRACTION,
                   "x0_radius": 0.5, "grid_bins": 40,
                   # None: the system's own default grid (zoo.REGISTRY)
                   "grid_range": None},
    "potential_source": "homotopy",
}
_DEFAULT_TEXT = json.dumps(DEFAULT_CONFIG)  # load_config parses a copy


class ConfigError(ValueError):
    pass


def _merge(cfg, overrides, path=""):
    """Write the parsed JSON overrides into cfg in place, uncopied: an
    object merges key by key into the section of that name, and any other
    value replaces the entry.  Only system.params takes a key cfg lacks."""
    for key, val in overrides.items():
        node = cfg.get(key)
        if isinstance(node, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{path + key} must be an object")
            _merge(node, val, f"{path}{key}.")
        elif key in cfg or path == "system.params.":
            cfg[key] = val
        else:
            raise ConfigError(f"unknown config key {path + key!r}")


def load_config(path=None, overrides=()):
    """Resolve the run config: file, then each --set a.b.c=v (v as JSON,
    else a string) as the object {a: {b: {c: v}}}, all merged by _merge."""
    cfg = json.loads(_DEFAULT_TEXT)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        # ValueError: not JSON or not UTF-8; RecursionError: nested too deep
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        _merge(cfg, user)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        except (ValueError, RecursionError) as exc:  # too long, too deep
            raise ConfigError(f"--set {key}: {exc}")
        for part in reversed(key.split(".")):
            val = {part: val}
        _merge(cfg, val)
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
    (float, "nonnegative", lambda v: v >= 0, ["simulation.x0_radius"]),
    (float, "in [0, 1)", lambda v: 0 <= v < 1,
     ["simulation.burn_in_fraction"]),
]


def _is_number(v, kind=float) -> bool:
    """A finite number of the kind: an int is a float, a bool is neither."""
    return (isinstance(v, int if kind is int else (int, float))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max)


def _validate(cfg):
    """Check the type and range of every config value."""
    system = cfg["system"]
    if not isinstance(system["name"], str) or system["name"] not in REGISTRY:
        raise ConfigError(f"unknown system {system['name']!r}; "
                          f"known: {sorted(REGISTRY)}")
    if not all(_is_number(v) for v in system["params"].values()):
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
    if grid is not None and not (
            isinstance(grid, list) and len(grid) == 2
            and all(_is_number(v) for v in grid)
            and 0 < float(grid[1]) - float(grid[0]) < math.inf):
        raise ConfigError("simulation.grid_range must be null or [low, high] "
                          "with low < high and a finite high - low")
    if not isinstance(cfg["solver"]["run_general"], bool):
        raise ConfigError("solver.run_general must be true or false")
    if cfg["potential_source"] not in ("homotopy", "gradientize"):
        raise ConfigError("potential_source must be 'homotopy' or "
                          "'gradientize'")


def _system(cfg):
    """The report's field and its quadrature_order ray rule; a parameter
    the builder rejects (a TypeError if unknown) is a config error."""
    try:
        field = build_system(SystemSpec(name=cfg["system"]["name"],
                                        params=dict(cfg["system"]["params"]),
                                        dim=0))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))
    return field, QuadratureRule.gauss_legendre(cfg["quadrature_order"])


def _samples(cfg, dim):
    s = cfg["samples"]
    return sample_ball(dim, s["count"], s["radius"], s["seed"])


def _to_json(obj) -> str:
    """The text json.dumps(..., sort_keys=True) gives for obj as JSON
    values: a dataclass as its fields, an Enum as its value, arrays as
    lists, and non-finite floats (masked/failed entries) as null."""
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out):
    """Append the text of obj to the list of fragments out."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(", ")
            out.append(encode_basestring_ascii(key) + ": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(", ")
            _emit(val, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim:
            _emit_floats(obj, out)
        else:
            _emit(obj.tolist(), out)
    elif isinstance(obj, np.floating):  # a long double's item() is itself
        _emit(float(obj), out)
    elif isinstance(obj, (np.integer, np.bool_)):
        _emit(obj.item(), out)
    elif isinstance(obj, enum.Enum):
        _emit(obj.value, out)
    elif dataclasses.is_dataclass(obj):
        _emit({f.name: getattr(obj, f.name)
               for f in dataclasses.fields(obj)}, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} "
                        "is not JSON serializable")


# one text per shape; a process writes reports of few grid shapes
@functools.lru_cache(maxsize=None)
def _null_text(shape):
    """The text of a float array of this shape with no finite cell: the
    writer's own text of np.full(shape, np.nan)."""
    return _to_json(np.full(shape, np.nan))


def _emit_floats(a, out):
    """Append the text of the float array a (ndim >= 1): a row with no
    finite cell is its shape's cached null text, so only the rows that
    hold one are converted."""
    if a.ndim == 1:
        out.append("[" + ", ".join([float.__repr__(v) if math.isfinite(v)
                                    else "null" for v in a.tolist()]) + "]")
        return
    null = _null_text(a.shape[1:])
    live = np.isfinite(a).any(axis=tuple(range(1, a.ndim)))
    out.append("[")
    for i, row in enumerate(live.tolist()):
        if i:
            out.append(", ")
        if row:
            _emit_floats(a[i], out)
        else:
            out.append(null)
    out.append("]")


def cmd_classify(cfg):
    field, quad = _system(cfg)
    report = classify(field, _samples(cfg, field.dim))
    radius = min(1.0, cfg["samples"]["radius"])
    loops = [{"loop": f"circle(r={radius})",
              "value": loop_integral(field, radius, quad=quad)}
             ] if field.dim >= 2 else []
    return {
        "verdict": report.verdict.value,
        "max_asymmetry": report.max_asymmetry,
        "frobenius_defect_max": report.frobenius_defect_max,
        "loop_integrals": loops,
    }


def cmd_decompose(cfg):
    field, quad = _system(cfg)
    samples = _samples(cfg, field.dim)
    d = decompose(field, samples, quad)
    rows = [{"point": x, "potential": v, "exact_part": ex,
             "antiexact_part": ae, "reconstruction_residual": res}
            for x, v, ex, ae, res in zip(
                d.point.tolist(), d.potential.tolist(),
                d.exact_part.tolist(), d.antiexact_part.tolist(),
                d.reconstruction_residual.tolist())]
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


def cmd_gradientize(cfg):
    field, quad = _system(cfg)
    origin = np.zeros(field.dim)
    J0 = jacobian(field, origin)
    samples = sample_ball(field.dim, cfg["solver"]["collocation"],
                          cfg["samples"]["radius"], cfg["samples"]["seed"])
    jac_spread = float(np.max(np.abs(jacobian(field, samples) - J0)))
    out = {
        "jacobian_at_origin": J0,
        "jacobian_is_constant": jac_spread <= 1e-10 * (1 + np.max(np.abs(J0))),
        "consistency_equation": solve_consistency_constant(J0),
        "symmetrizer": solve_symmetrizer(J0),
    }
    if cfg["solver"]["run_general"]:
        family = MatrixFamily(dim=field.dim,
                              degree=cfg["solver"]["family_degree"])
        out["general"] = solve_general(field, family, samples,
                                       cfg["solver"]["max_iter"], quad)
    return out


def _mapped(D, base, x0):
    """RK4 of f(x) = D g(D^-1 x) from x0 as D times base, the RK4 of g from
    D^-1 x0: equal up to rounding, since RK4 commutes with x = D y.  State
    0 is x0; it ends before the first state D maps to a non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = _matvec(D, base.states)
    x[0] = x0
    n = int(np.isfinite(x).all(axis=1).cumprod().sum())
    return Trajectory(states=x[:n], dt=base.dt,
                      completed=base.completed and n == len(x))


def cmd_simulate(cfg, traj_dir=None):
    field, quad = _system(cfg)
    sim = cfg["simulation"]
    source = cfg["potential_source"]
    if source == "gradientize":
        rep = solve_symmetrizer(jacobian(field, np.zeros(field.dim)))
        if rep.chosen_D is None:
            raise ConfigError(
                "potential_source=gradientize but no gradientizing matrix "
                f"was found (verdict {rep.verdict.value})")
        D = rep.chosen_D
        flow = transform_field(field, D)
    else:
        flow, D = field, None

    def lyapunov_row(traj):
        # the candidate V descends along xdot = g when the form is closed;
        # its ray integral or its increments can overflow on finite
        # states: such a trajectory counts as unfinished, no figures
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                V = -potential(flow, traj.states, quad)
                x = traj.states[-1]  # grad V = -d(kG), the exact part
                grad = -decompose(flow, x, quad).exact_part
                ortho = float((eval_field(flow, x) + grad) @ grad)
                rep_l = lyapunov_check(V, traj)
        except FieldEvalError:
            V, ortho = np.nan, np.nan
        if not (np.isfinite(V).all() and np.isfinite(ortho)
                and np.isfinite(rep_l.max_increase)):
            return {"completed": False, "max_increase": None,
                    "monotone": False, "orthogonality_residual_at_end": None}
        return {"completed": traj.completed,
                "max_increase": rep_l.max_increase,
                "monotone": rep_l.monotone and traj.completed,
                "orthogonality_residual_at_end": ortho}

    x0s = sample_ball(field.dim, sim["ensemble"], sim["x0_radius"],
                      sim["master_seed"])
    if traj_dir is not None:
        traj_dir = Path(traj_dir)
        traj_dir.mkdir(parents=True, exist_ok=True)
    # every start in one lockstep, a gradientized one stepped in g's
    # coordinates y = D^-1 x; a lone start steps as one point (dim,), on
    # Python floats, which costs less than a 1-row batch
    starts = x0s if D is None else _matvec(np.linalg.inv(D), x0s)
    lone = len(x0s) == 1
    trajs = integrate_rk4(field, starts[0] if lone else starts, sim["dt"],
                          sim["steps"])
    trajs = [trajs] if lone else trajs
    if D is not None:
        trajs = [_mapped(D, base, x0) for base, x0 in zip(trajs, x0s)]
    rows = []
    for idx, (x0, traj) in enumerate(zip(x0s, trajs)):
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
    field, quad = _system(cfg)
    sim = cfg["simulation"]
    lo, hi = sim["grid_range"] or REGISTRY[cfg["system"]["name"]]["grid_range"]
    ranges = [(lo, hi)] * field.dim
    bins = sim["grid_bins"]
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
        flat = np.flatnonzero(density.counts)
        block = {
            "eps": eps,
            "total_samples": density.total,
            "n_clipped": density.n_clipped,
            "occupied_cells": len(flat),
            "estimate": estimate,
            "grid_edges": density.edges,
        }
        cells = np.stack([density.centers(axis)[i] for axis, i in enumerate(
            np.unravel_index(flat, density.counts.shape))], axis=1)
        # a closed form is exact: -k(G) = V - V(0) for its potential V; a
        # diagnostic, null where the Jacobian or the reference is not finite
        asym = sup = np.nan
        with contextlib.suppress(FieldEvalError), np.errstate(
                over="ignore", invalid="ignore"):
            asym = np.max(_relative_asymmetry(jacobian(field, cells)))
            if asym <= DEFAULT_TOL:
                ref = -potential(field, cells, quad)
                ref -= np.min(ref)
                sup = np.max(np.abs(estimate.flat[flat] - ref))
        if not asym > DEFAULT_TOL:
            block["sup_error_vs_analytic"] = float(sup)
        blocks.append(block)
    return {"estimates": blocks}


def cmd_zoo_list(cfg):
    return {"systems": [{"name": name, **describe_system(name)}
                        for name in sorted(REGISTRY)]}


COMMANDS = {
    "classify": cmd_classify,
    "decompose": cmd_decompose,
    "gradientize": cmd_gradientize,
    "simulate": cmd_simulate,
    "graham": cmd_graham,
    "zoo-list": cmd_zoo_list,
}


def _write_report(report, out_path):
    text = _to_json(report) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # a new name beside the report, with the mode open() gives: 0666
    # under the umask, applied by the kernel
    tmp = out_path.with_name(f"{out_path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        tmp.unlink(missing_ok=True)
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
    # a float fault that no step expects is a numerical abort (exit 3)
    try:
        cfg = load_config(args.config, args.set)
        t0 = time.perf_counter()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
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
            FloatingPointError, MemoryError) as exc:
        # numpy refuses an allocation past the machine's memory at once
        print(f"numerical abort: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

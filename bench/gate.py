"""Correctness gate for benchmark reports.

Two checks run on every report:

* ``compare_reference``: at the default seed, the report's ``result``
  must match the reference recorded with the benchmark.  Verdicts, exit
  codes, counts and sample totals match exactly; floats match within
  ``rtol``/``atol`` from ``_tolerance`` (rtol 1e-6, atol 1e-9 unless a
  solver-path value is loosened there), wide enough for ULP-level
  changes from batched arithmetic.  Values that depend on which of many
  valid solutions a solver picks (the chosen ``D``, nullspace bases, LM
  parameters and the residuals computed from them) are compared only as
  finite/missing; ``invariants`` checks them instead.
* ``invariants``: properties that hold for any seed (zoo verdicts, the
  closed forms for linear fields, sample bookkeeping, monotone descent
  in the double well, LM progress, symmetry after gradientization).

``Gate`` applies both to each report, and also requires a report to give
the same ``result`` in every pass of a run.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SUMMARY_MIN_LEAVES = 256

# solution-dependent values: compared only as present/missing
_SOLUTION_KEYS = {"chosen_D", "nullspace_basis", "theta_final",
                  "necessary_residual", "transformed_asymmetry",
                  "consistency_residual"}

ZOO_VERDICTS = {"lorenz": "NonIntegrable", "double_well": "Closed",
                "ou": "Closed", "rotation": "FrobeniusIntegrable"}


def _solution_dependent(path):
    # the general solver's consistency residual is a checked float
    return bool(path) and path[-1] in _SOLUTION_KEYS and (
        path[-1] == "theta_final" or "general" not in path)


def _tolerance(path):
    """(rtol, atol) for the float at ``path`` (a tuple of keys)."""
    if "general" in path:  # LM path: FD vs analytic sensitivities
        return 1e-2, 1e-6
    if path[-1] == "orthogonality_residual_at_end":  # FD gradient of V
        return 1e-3, 1e-6
    return 1e-6, 1e-9


def _numeric_leaves(obj, out):
    if isinstance(obj, list):
        for v in obj:
            if not _numeric_leaves(v, out):
                return False
        return True
    if obj is None or (isinstance(obj, (int, float))
                       and not isinstance(obj, bool)):
        out.append(obj)
        return True
    return False


def normalize(obj, path=()):
    """The comparable form of a report ``result``: big numeric arrays
    become summaries and solution-dependent values become markers."""
    if _solution_dependent(path):
        return {"__present__": obj is not None}
    if isinstance(obj, dict):
        return {k: normalize(v, path + (k,)) for k, v in obj.items()}
    if isinstance(obj, list):
        leaves = []
        if _numeric_leaves(obj, leaves) and len(leaves) >= SUMMARY_MIN_LEAVES:
            vals = np.array([v for v in leaves if v is not None], float)
            return {"__summary__": {
                "n": len(leaves), "n_null": len(leaves) - vals.size,
                "sum": float(vals.sum()) if vals.size else 0.0,
                "min": float(vals.min()) if vals.size else 0.0,
                "max": float(vals.max()) if vals.size else 0.0}}
        return [normalize(v, path + (str(i),)) for i, v in enumerate(obj)]
    return obj


def compare_reference(ref, got, path=()):
    """Mismatches between two normalized results, as readable strings."""
    where = "/".join(path) or "result"
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(set(ref) ^ set(got))} differ"]
        out = []
        for k in ref:
            out += compare_reference(ref[k], got[k], path + (k,))
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare_reference(r, g, path + (str(i),))
        return out
    if isinstance(ref, bool) or isinstance(got, bool) \
            or isinstance(ref, str) or ref is None or got is None \
            or (isinstance(ref, int) and isinstance(got, int)):
        return [] if ref == got else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        rtol, atol = _tolerance(path)
        if abs(got - ref) <= atol + rtol * abs(ref):
            return []
        return [f"{where}: {got!r} != {ref!r} (rtol {rtol:g}, "
                f"atol {atol:g})"]
    return [f"{where}: {got!r} != {ref!r}"]


def _close(a, b, scale):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) \
        <= 1e-9 * (1.0 + scale)


class Gate:
    """Checks each report: the reference (``None`` off the default seed),
    the invariants, and equality with the first pass of the run."""

    def __init__(self, reference):
        self.reference = reference
        self.invariants = Invariants()
        self.first = {}
        self.problems = []

    def check(self, entry, report, full=True):
        label = entry["label"]
        text = json.dumps(report["result"], sort_keys=True)
        found = []
        if self.first.setdefault(label, text) != text:
            found.append("result differs from the first pass")
        if full:
            try:
                if self.reference is not None:
                    found += compare_reference(self.reference[label],
                                               normalize(report["result"]))
                found += self.invariants.check(entry, report)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                found.append(f"report not readable by the gate: {exc!r}")
        self.problems += [f"{label}: {p}" for p in found[:5]]
        return not found


class Invariants:
    """Seed-independent checks; caches the LM identity residuals."""

    def __init__(self):
        self._identity_rms = {}

    def check(self, entry, report):
        command = report["command"]
        result = report["result"]
        cfg = report["config"]
        out = []
        if command == "classify" and entry["system"] in ZOO_VERDICTS:
            want = ZOO_VERDICTS[entry["system"]]
            if result["verdict"] != want:
                out.append(f"verdict {result['verdict']} != {want}")
        if command == "decompose" and entry.get("linear") is not None:
            out += _linear_closed_forms(np.array(entry["linear"]), result)
        if command == "gradientize":
            out += _gradientized_symmetric(result)
            if "general" in result:
                out += self._lm_progress(cfg, result["general"])
        if command == "simulate":
            out += _simulate(entry, cfg, result)
        if command == "graham":
            out += _graham(cfg, result)
        return out

    def _lm_progress(self, cfg, general):
        from gradiform.gradientize import MatrixFamily, general_residual
        from gradiform.sampling import sample_ball
        from gradiform.zoo import SystemSpec, build_system
        key = (cfg["system"]["name"], repr(cfg["system"]["params"]),
               cfg["solver"]["family_degree"], cfg["solver"]["collocation"],
               cfg["samples"]["radius"], cfg["samples"]["seed"])
        if key not in self._identity_rms:
            field = build_system(SystemSpec(key[0], cfg["system"]["params"],
                                            0))
            family = MatrixFamily(dim=field.dim, degree=key[2])
            samples = sample_ball(field.dim, key[3], key[4], key[5])
            r = general_residual(field, family, family.identity_params(),
                                 samples)
            self._identity_rms[key] = float(np.sqrt(np.mean(r * r)))
        start = self._identity_rms[key]
        if not general["residual_norm"] <= start:
            return [f"LM residual {general['residual_norm']!r} above its "
                    f"identity value {start!r}"]
        return []


def _linear_closed_forms(Q, result):
    out = []
    sym, skew = 0.5 * (Q + Q.T), 0.5 * (Q - Q.T)
    for row in result["decompositions"]:
        x = np.array(row["point"])
        scale = float(np.max(np.abs(Q))) * (1.0 + float(x @ x))
        if not _close(row["potential"], 0.5 * x @ Q @ x, scale):
            out.append(f"potential at {x.tolist()} is not x^T Q x / 2")
        if not _close(row["exact_part"], sym @ x, scale):
            out.append(f"exact part at {x.tolist()} is not sym(Q) x")
        if not _close(row["antiexact_part"], skew @ x, scale):
            out.append(f"antiexact part at {x.tolist()} is not skew(Q) x")
    return out


def _gradientized_symmetric(result):
    out = []
    J = np.array(result["jacobian_at_origin"])
    for block in ("consistency_equation", "symmetrizer"):
        rep = result[block]
        if rep["verdict"] != "Gradientized":
            continue
        D = np.array(rep["chosen_D"])
        A = D @ J @ np.linalg.inv(D)
        asym = float(np.max(np.abs(A - A.T))) / (1.0 + float(np.max(
            np.abs(A))))
        if not asym <= 1e-6:
            out.append(f"{block}: D J D^-1 asymmetry {asym:.3e}")
    return out


def _simulate(entry, cfg, result):
    sim = cfg["simulation"]
    out = []
    rows = result["trajectories"]
    if result["n_trajectories"] != sim["ensemble"] or len(rows) != \
            sim["ensemble"]:
        out.append(f"{len(rows)} trajectories, expected {sim['ensemble']}")
    if not all(r["completed"] for r in rows):
        out.append("a trajectory did not complete")
    if entry["system"] == "double_well" and \
            result["n_monotone"] != result["n_trajectories"]:
        out.append(f"double_well: {result['n_monotone']} of "
                   f"{result['n_trajectories']} trajectories monotone")
    if entry.get("traj_dir") is not None:
        for idx in range(sim["ensemble"]):
            path = Path(entry["traj_dir"]) / f"trajectory_{idx:03d}.csv"
            try:
                with open(path) as fh:
                    lines = sum(1 for _ in fh)
            except OSError as exc:
                out.append(f"missing trajectory CSV: {exc}")
                continue
            if lines != sim["steps"] + 2:
                out.append(f"{path.name}: {lines} lines, expected "
                           f"{sim['steps'] + 2}")
    return out


def _graham(cfg, result):
    sim = cfg["simulation"]
    burn = int(sim["burn_in_fraction"] * (sim["steps"] + 1))
    want = sim["ensemble"] * (sim["steps"] + 1 - burn)
    out = []
    for block in result["estimates"]:
        got = block["total_samples"] + block["n_clipped"]
        if got != want:
            out.append(f"eps={block['eps']}: total_samples + n_clipped = "
                       f"{got}, expected {want}")
        if not (isinstance(block["total_samples"], int)
                and block["total_samples"] > 0):
            out.append(f"eps={block['eps']}: no in-range samples")
    return out

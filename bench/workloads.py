"""Report lists for the three benchmark workloads, built from a seed.

Each workload is a fixed list of ``gradiform`` CLI calls (one "pass").
Every entry is a dict with the argv handed to ``gradiform.cli.main`` and
the facts the correctness gate needs (the matrix of a linear field, the
trajectory export directory).  The seed only changes inputs: sample
seeds, master seeds and random matrices; the shape of a pass is fixed.
"""
from __future__ import annotations

import numpy as np

ZOO = ["lorenz", "jj_circuit", "jj_circuit_linear", "double_well", "ou",
       "rotation"]

# survey: short pointwise reports
SURVEY_SAMPLES = 32
SURVEY_RANDOM_Q = 3
SURVEY_Q_SEED = 7
GENERAL_MAX_ITER = 2
GENERAL_COLLOCATION = 8

# trajectories: shortened RK4 runs with a ray-potential Lyapunov candidate
TRAJ_STEPS = 250
TRAJ_ENSEMBLE = 1
TRAJ_REPEATS = 6

# stochastic: Euler-Maruyama ensembles and stationary histograms
SDE_STEPS = 1500
SDE_ENSEMBLE = 4
SDE_EPS = [0.05, 0.1]
SDE_REPEATS = 6

WORKLOADS = ("survey", "trajectories", "stochastic")
_SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def _rng(workload, seed):
    return np.random.default_rng([seed, _SALT[workload]])


def _seed(rng):
    return int(rng.integers(1, 2 ** 31 - 1))


def _params_args(Q):
    return [f"system.params.q_{i}_{j}={float(Q[i, j])!r}"
            for i in range(Q.shape[0]) for j in range(Q.shape[1])]


def _argv(command, sets, extra=()):
    argv = [command]
    for item in sets:
        argv += ["--set", item]
    return argv + list(extra)


def _random_q(rng):
    return np.round(rng.standard_normal((3, 3)), 6)


def _stable_q(rng):
    """Stable, non-symmetric 3x3: -(SPD) + skew, so Re(lambda) < 0."""
    A = rng.standard_normal((3, 3))
    K = rng.standard_normal((3, 3))
    Q = -(A @ A.T / 3.0 + 0.5 * np.eye(3)) + 0.5 * (K - K.T)
    return np.round(Q, 6)


# matrices of the zoo fields that are linear (g = Q x), for the closed forms
LINEAR_ZOO = {"rotation": [[0.0, -1.0], [1.0, 0.0]], "ou": [[-1.0]]}


def survey(seed):
    # The random matrices are one fixed draw: Nelder-Mead's symmetrizer
    # cost ranges 0.24-1.3 s with the matrix, so seeded matrices made the
    # pass time measure the draw.  The seed draws the sample points.
    rng = _rng("survey", seed)
    sample_seed = _seed(rng)
    q_rng = np.random.default_rng(SURVEY_Q_SEED)
    systems = [(name, None) for name in ZOO]
    systems += [(f"quadratic{k}", _random_q(q_rng))
                for k in range(SURVEY_RANDOM_Q)]
    out = []
    for label, Q in systems:
        if Q is None:
            sets = [f"system.name={label}"]
            linear = LINEAR_ZOO.get(label)
        else:
            sets = ["system.name=quadratic"] + _params_args(Q)
            linear = Q.tolist()
        sets += [f"samples.count={SURVEY_SAMPLES}",
                 f"samples.seed={sample_seed}"]
        for command in ("classify", "decompose", "gradientize"):
            out.append(dict(label=f"{command}:{label}",
                            argv=_argv(command, sets), system=label,
                            linear=linear))
    # default sample points: the adaptive consistency check's cost swings
    # 0.65-2.9 s with the points
    for name in ("lorenz", "jj_circuit"):
        sets = [f"system.name={name}", "solver.run_general=true",
                f"solver.max_iter={GENERAL_MAX_ITER}",
                f"solver.collocation={GENERAL_COLLOCATION}"]
        out.append(dict(label=f"gradientize-general:{name}",
                        argv=_argv("gradientize", sets), system=name,
                        linear=None))
    return out


def trajectories(seed, traj_dir):
    rng = _rng("trajectories", seed)
    cases = [("lorenz-homotopy-csv", "lorenz", "homotopy", True),
             ("double_well-homotopy", "double_well", "homotopy", False),
             ("lorenz-gradientize", "lorenz", "gradientize", False)]
    out = []
    for rep in range(TRAJ_REPEATS):
        master = _seed(rng)
        for label, name, source, export in cases:
            sets = [f"system.name={name}", f"potential_source={source}",
                    f"simulation.steps={TRAJ_STEPS}",
                    f"simulation.ensemble={TRAJ_ENSEMBLE}",
                    f"simulation.master_seed={master}"]
            extra = ["--traj-dir", str(traj_dir)] if export else []
            out.append(dict(label=f"simulate:{label}:{rep}",
                            argv=_argv("simulate", sets, extra),
                            system=name, traj_dir=traj_dir if export
                            else None))
    return out


def stochastic(seed):
    rng = _rng("stochastic", seed)
    out = []
    for rep in range(SDE_REPEATS):
        Q = _stable_q(rng)
        for label, sets in (("ou", ["system.name=ou"]),
                            ("double_well", ["system.name=double_well"]),
                            ("quadratic3", ["system.name=quadratic"]
                             + _params_args(Q))):
            master = _seed(rng)
            sets = sets + [f"simulation.steps={SDE_STEPS}",
                           f"simulation.ensemble={SDE_ENSEMBLE}",
                           f"simulation.eps={SDE_EPS!r}",
                           f"simulation.master_seed={master}"]
            out.append(dict(label=f"graham:{label}:{rep}",
                            argv=_argv("graham", sets), system=label))
    return out


def build(workload, seed, traj_dir):
    """The report list of one pass of ``workload`` at ``seed``."""
    if workload == "survey":
        return survey(seed)
    if workload == "trajectories":
        return trajectories(seed, traj_dir)
    if workload == "stochastic":
        return stochastic(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def system_overrides(entries):
    """Distinct ``--set`` lists naming each system the pass builds."""
    seen = {}
    for e in entries:
        sets = [a for a in e["argv"][1:]
                if a.startswith("system.")]
        seen.setdefault(tuple(sets), None)
    return [list(k) for k in seen]

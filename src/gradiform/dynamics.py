"""Trajectory integration, Lyapunov descent checks, Euler-Maruyama
ensembles, and the small-noise stationary-distribution potential."""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import (FieldEvalError, FieldShapeError, VectorField, _apply,
                     _as_points)

BURN_IN_FRACTION = 0.2
LYAPUNOV_TOL_SCALE = 10.0
_BLOCK = 64  # steps of _lockstep between two finiteness checks


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # shape (number of states, dim)
    dt: float
    completed: bool = True  # False when a non-finite state cut it short

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.states))


@dataclass(frozen=True)
class DensityGrid:
    edges: list  # per-axis bin edges
    counts: np.ndarray
    n_clipped: int = 0

    @property
    def total(self) -> int:
        """The in-range samples."""
        return int(self.counts.sum())

    def centers(self, axis: int) -> np.ndarray:
        e = self.edges[axis]
        return 0.5 * (e[:-1] + e[1:])


@dataclass(frozen=True)
class LyapunovReport:
    max_increase: float
    monotone: bool


def integrate_rk4(field: VectorField, x0, dt: float, steps: int):
    """Classical fourth-order Runge-Kutta for xdot = g(x): the Trajectory
    from one start x0 (dim,), or from each row of x0 (count, dim) a list
    of them, start m's at index m, all stepped in one lockstep."""
    # the starts are checked once here and every stage keeps their shape,
    # so each stage checks only the shape of the field's value
    x0 = _as_points(field, x0)
    _check_steps(dt, steps)
    g, shape = field.func, (field.dim,)
    half, sixth = 0.5 * dt, dt / 6.0

    def f(p):
        return _apply(field, g, p, shape, "field")

    if x0.ndim == 2:
        def step(x, out):  # the stage order of the float step below
            k1 = f(x)
            k2 = f(x + half * k1)
            k3 = f(x + half * k2)
            s = k1 + (k2 + k2)
            s += k3 + k3
            s += f(x + dt * k3)
            s *= sixth
            return np.add(x, s, out=out)

        return _lockstep(_state_buffer(x0, steps), dt, step)

    point = field.point or (lambda p: f(np.array(p)).tolist())

    def stage(p):
        k = point(p)
        if len(k) != len(p):
            raise FieldShapeError(f"field returned shape {(len(k),)}, "
                                  f"expected {shape}")
        return k

    # one point (dim,), not a 1-row batch: the field computes on scalars,
    # on its point kernel with no numpy call, rounding as one point.  The
    # stage arithmetic runs on Python floats, whose + and * round as
    # float64 arrays do at far less cost on (dim,); k + k is 2.0 * k exactly
    def step(x, out):
        xs = x.tolist()
        k1 = stage(xs)
        k2 = stage([a + half * b for a, b in zip(xs, k1)])
        k3 = stage([a + half * b for a, b in zip(xs, k2)])
        k4 = stage([a + dt * b for a, b in zip(xs, k3)])
        out[...] = [a + sixth * (b + (c + c) + (d + d) + e)
                    for a, b, c, d, e in zip(xs, k1, k2, k3, k4)]
        return out

    return _lockstep(_state_buffer(x0, steps), dt, step)[0]


def lyapunov_check(V, traj: Trajectory) -> LyapunovReport:
    """Largest per-step increase of V along the trajectory; monotone when
    it stays below LYAPUNOV_TOL_SCALE * dt**2 (integrator-error allowance),
    relative to 1 + max|V|.

    V holds the candidate's values at traj.states, one per state.
    """
    vals = np.asarray(V, dtype=float)
    if vals.shape != (len(traj.states),):
        raise ValueError(f"{vals.shape} values of V for "
                         f"{len(traj.states)} states")
    if len(vals) < 2:
        return LyapunovReport(max_increase=0.0, monotone=True)
    max_inc = float(np.max(np.diff(vals)))
    scale = 1.0 + float(np.max(np.abs(vals)))
    allowance = LYAPUNOV_TOL_SCALE * (traj.dt * traj.dt) * scale
    return LyapunovReport(max_increase=max_inc, monotone=max_inc <= allowance)


def _check_steps(dt: float, steps: int) -> None:
    if not dt > 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")


def _trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    # counter-based Philox streams: index in the high counter word gives
    # disjoint 2^128-draw blocks per trajectory
    return np.random.Generator(
        np.random.Philox(key=master_seed, counter=[0, 0, index, 0]))


def euler_maruyama_ensembles(field: VectorField, eps_list, x0s, dt: float,
                             steps: int, master_seed: int = 0) -> list:
    """x_{k+1} = x_k + dt g(x_k) + sqrt(2 eps dt) N(0, I) from each start
    in x0s at each eps in eps_list: one list of trajectories per level,
    start m's at index m, all stepped in one lockstep.

    The noise convention matches <z z'> = 2 eps delta(t - t'); eps = 0
    reduces exactly to forward Euler.  Start m draws its noise once from
    the counter-based stream (master_seed, m), and every level scales
    that draw straight into the state buffer, all before the first step:
    the array of state k + 1 holds step k's kicks, and step k adds
    x_k + dt g(x_k) into it.  A vectorized field is called directly on
    every row; each step checks only the shape of the field's value.
    """
    x0s = _as_points(field, np.atleast_2d(x0s))
    eps = np.asarray(eps_list, dtype=float)
    if eps.ndim != 1:
        raise ValueError(f"eps_list must be one-dimensional, got shape "
                         f"{eps.shape}")
    if not (np.isfinite(eps) & (eps >= 0)).all():
        raise ValueError("eps must be nonnegative and finite")
    _check_steps(dt, steps)
    states = _state_buffer(np.repeat(x0s, len(eps), axis=0), steps)
    _kick_table(eps, dt, len(x0s), master_seed, states)
    g, shape, vectorized = field.func, (field.dim,), field.vectorized
    h = np.array(dt)  # a 0-d array, converted once

    def step(x, out):
        if vectorized:
            v = np.asarray(g(x), dtype=float)
            if v.shape != x.shape:
                raise FieldShapeError(f"field returned shape {v.shape}, "
                                      f"expected {x.shape}")
        else:
            v = _apply(field, g, x, shape, "field")
        v = h * v
        v += x
        out += v  # kick + (x + dt g(x)), (x + dt g(x)) + kick bit for bit
        return out

    trajs = _lockstep(states, dt, step)
    return [trajs[i::len(eps)] for i in range(len(eps))]


def _kick_table(eps: np.ndarray, dt: float, count: int, master_seed: int,
                states: np.ndarray) -> None:
    """Write the kick z_m[k] sqrt(2 eps_i dt) of row m * len(eps) + i at
    step k into states[k + 1]: stream (master_seed, m) draws start m's
    whole path once, and every level scales that draw.  states is the
    buffer of _state_buffer, so states[1:] is one coordinate-major
    (steps, dim, count, len(eps)) array, the multiply's out.  Rows at
    eps = 0 hold -0.0, and x + (-0.0) is x bit for bit, so those rows
    stay exact forward Euler.  With every level at 0 nothing is drawn;
    else only the draw is held besides the states."""
    steps, dim = len(states) - 1, states.shape[-1]
    kicks = states[1:].swapaxes(1, 2).reshape(steps, dim, count, len(eps))
    if (eps > 0).any():
        noise = np.empty((count, steps, dim))
        for m in range(count):
            _trajectory_rng(master_seed, m).standard_normal(out=noise[m])
        np.multiply(noise.transpose(1, 2, 0)[..., None],
                    np.sqrt(2.0 * eps * dt), out=kicks)
    kicks[..., eps == 0] = -0.0


def _state_buffer(x0s: np.ndarray, steps: int) -> np.ndarray:
    """The states of steps steps from one point x0s (dim,) or from each
    row of x0s (count, dim), with states[0] = x0s.  Each step's states
    are stored as one coordinate-major array, (dim, count) for rows and
    (dim,) for one point, and states[k] is its view in the shape of x0s:
    Fortran-order (count, dim) for rows."""
    states = np.empty((steps + 1,) + x0s.shape[::-1]).swapaxes(1, -1)
    states[0] = x0s
    return states


# overflow is expected in the steps: a non-finite state ends its row
@np.errstate(over="ignore", invalid="ignore")
def _lockstep(states: np.ndarray, dt: float, step) -> list:
    """Trajectories of x <- step(x, out) from states[0] through the buffer
    states of _state_buffer, for dt > 0 and at least one step.  step
    writes the next state into out, the array of that state, and returns
    it; it may first read what out holds, which is the step's kicks under
    Euler-Maruyama.  step, which reads only its arguments and writes only
    out, may evaluate the field unchecked: a non-finite state ends its
    trajectory alone, cut before it, and a FieldEvalError ends every
    trajectory still running.  A FieldShapeError is a fault in the field
    and propagates.

    While every row runs, a block of _BLOCK steps is stepped unchecked:
    the loop walks the block's arrays, each step writing into the next.
    The block is copied first; a block that raises or holds a non-finite
    state is restored from its copy and stepped again, one checked step
    at a time, calling the field again on its states.  Once a row has
    ended, every step is checked: the rows still running are held
    compacted, their part of out gathered before the step and their
    states scattered back after it."""
    steps = len(states) - 1
    n = states.shape[-1]
    count = states[0].size // n
    x = states[0]
    lengths = np.full(count, steps + 1)
    live = slice(None)  # rows still running; an index array once one ends
    for start in range(0, steps, _BLOCK):
        block = states[start + 1:start + 1 + _BLOCK]
        if isinstance(live, slice):  # every row runs: unchecked, in place
            held = block.copy(order="K")
            try:  # whatever goes wrong here, the checked steps repeat it
                y = x
                for out in block:
                    y = step(y, out)
                if np.isfinite(block).all():
                    x = y
                    continue
            except Exception:
                pass
            block[...] = held
        for k in range(start + 1, start + 1 + len(block)):
            try:
                x = step(x, states[k, live])
            except FieldShapeError:
                raise
            except FieldEvalError:
                lengths[live] = k
                break
            ok = np.isfinite(x).reshape(-1, n).all(axis=1)
            if not ok.all():
                rows = np.arange(count)[live]
                lengths[rows[~ok]] = k
                if not ok.any():
                    break
                live, x = rows[ok], x[ok]
            states[k, live] = x
        else:
            continue
        break  # every trajectory has ended
    rows = states.reshape(steps + 1, count, n).swapaxes(0, 1)
    return [Trajectory(states=rows[m, :length], dt=dt,
                       completed=bool(length == steps + 1))
            for m, length in enumerate(lengths)]


def stationary_density(trajs: list, bins: int, ranges,
                       burn_in: Optional[int] = None) -> DensityGrid:
    """Histogram of the trajectories' states from index burn_in on, the
    same cut for every row.  The default cut is BURN_IN_FRACTION of the
    longest row, so a row cut short adds no state of its transient.

    bins, an int >= 1, is the number of equal bins on every axis, and
    ranges holds one (lo, hi) per axis with lo < hi and a finite hi - lo;
    any other bins or ranges is a ValueError.  A sample with a coordinate
    outside its range is clipped.  The others find their bin on each axis
    as np.histogram finds one for equal bins: the index of
    (x - lo) / (hi - lo) * bins, then one comparison with the edges in
    each direction, the last bin closed.  The edges, counts and clipped
    samples are those of NumPy's multidimensional histogram whenever a
    bin is wider than the float spacing at max(|lo|, |hi|)."""
    if burn_in is None:
        burn_in = int(BURN_IN_FRACTION
                      * max((len(t.states) for t in trajs), default=0))
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    chunks = [t.states[burn_in:] for t in trajs if len(t.states) > burn_in]
    if not chunks:
        raise ValueError("no post-burn-in samples")
    samples = np.concatenate([c.T for c in chunks], axis=1)  # (dim, N)
    if not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValueError(f"bins must be an int >= 1, got {bins!r}")
    pairs = np.array(ranges, dtype=float)
    if pairs.shape != (len(samples), 2) or not all(
            0 < hi - lo < np.inf for lo, hi in pairs.tolist()):
        raise ValueError(f"ranges must hold one (lo, hi) with lo < hi and "
                         f"a finite hi - lo per axis, got {ranges!r}")
    bins, dim, pairs = int(bins), len(pairs), pairs.tolist()
    if bins ** dim > np.iinfo(np.intp).max:
        raise ValueError(f"a grid of {bins}^{dim} cells is more than an "
                         "array can index")
    inside = np.ones(samples.shape[1], dtype=bool)
    for (lo, hi), x in zip(pairs, samples):
        inside &= (x >= lo) & (x <= hi)
    kept = samples if inside.all() else [x[inside] for x in samples]
    edges, flat = [], 0
    for (lo, hi), x in zip(pairs, kept):
        e = np.linspace(lo, hi, bins + 1)
        i = ((x - lo) / (hi - lo) * bins).astype(np.intp)
        i[i == bins] = bins - 1  # x = hi, in the closed last bin
        # the quotient may round across an edge: one step back either way
        i -= x < e[i]
        i += (x >= e[i + 1]) & (i < bins - 1)
        edges.append(e)
        flat = flat * bins + i
    counts = np.bincount(flat, minlength=bins ** dim).reshape((bins,) * dim)
    total = len(kept[0])
    if total == 0:
        def box(pairs):
            return " x ".join(f"[{lo:.3g}, {hi:.3g}]" for lo, hi in pairs)
        raise ValueError(
            f"all samples fall outside the grid ranges {box(pairs)}; the "
            f"post-burn-in samples span "
            f"{box(zip(samples.min(1), samples.max(1)))}")
    return DensityGrid(edges=edges, counts=counts,
                       n_clipped=samples.shape[1] - total)


def graham_estimate(density: DensityGrid, eps: float) -> np.ndarray:
    """-eps * log of the normalized cell frequency, min-shifted to 0.

    Empty cells are masked with NaN rather than infinite potential.
    """
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    counts = density.counts
    occupied = counts > 0
    if not occupied.any():
        raise ValueError("density grid is empty")
    v = -eps * np.log(counts[occupied] / density.total)
    V = np.full(counts.shape, np.nan)
    V[occupied] = v - v.min()
    return V


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns t, x_1..x_N, one row per stored state.

    The bytes are those of ``csv.writer``'s default dialect on the
    shortest round-trip repr of each value: no field needs quoting, and
    every line ends in CRLF.  An existing file is written over and then
    cut to length, never truncated to zero, which ext4, XFS and btrfs
    answer by flushing it to disk on close; as with open(path, "w"), it
    keeps its inode and mode, and the write is not atomic.
    """
    dim = traj.states.shape[1]
    rows = np.column_stack((traj.times, traj.states)).tolist()
    lines = [",".join(["t"] + [f"x_{i + 1}" for i in range(dim)])]
    lines += [",".join(map(repr, row)) for row in rows]
    data = ("\r\n".join(lines) + "\r\n").encode("ascii")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.truncate()

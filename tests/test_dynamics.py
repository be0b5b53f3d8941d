import csv
import dataclasses
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gradiform import (VectorField, euler_maruyama_ensembles, graham_estimate,
                       integrate_rk4, lyapunov_check, stationary_density,
                       write_trajectory_csv)
from gradiform import dynamics
from gradiform.dynamics import (DensityGrid, LyapunovReport, Trajectory,
                               _trajectory_rng)
from gradiform.fields import (FieldEvalError, FieldShapeError, _apply,
                              eval_field)
from gradiform.gradientize import transform_field
from gradiform.zoo import (REGISTRY, SystemSpec, build_system, double_well,
                           jj_circuit, lorenz, ou, quadratic, rotation)


def decay_field():
    return VectorField(dim=1, func=lambda x: -x,
                       jac=lambda x: -np.eye(1))


def em_one(field, eps, x0, dt, steps, master_seed=0):
    """The Euler-Maruyama trajectory of the one start x0 at the one level
    eps, on stream (master_seed, 0)."""
    [[traj]] = euler_maruyama_ensembles(field, [eps], [x0], dt, steps,
                                        master_seed)
    return traj


class TestRK4:
    def test_exponential_decay(self):
        traj = integrate_rk4(decay_field(), [1.0], dt=0.1, steps=10)
        assert traj.states[-1][0] == pytest.approx(np.exp(-1.0), abs=1e-5)

    def test_zero_field_constant(self):
        zero = VectorField(dim=2, func=lambda x: np.zeros(2))
        traj = integrate_rk4(zero, [1.0, -2.0], dt=0.5, steps=5)
        assert np.all(traj.states == traj.states[0])

    def test_fourth_order_convergence(self):
        exact = np.exp(-1.0)
        e1 = abs(integrate_rk4(decay_field(), [1.0], 0.1, 10)
                 .states[-1][0] - exact)
        e2 = abs(integrate_rk4(decay_field(), [1.0], 0.05, 20)
                 .states[-1][0] - exact)
        assert 12.0 < e1 / e2 < 20.0

    def test_start_shapes(self):
        # one start (dim,) gives a Trajectory, rows (count, dim) a list
        assert isinstance(integrate_rk4(decay_field(), [1.0], 0.1, 5),
                          Trajectory)
        for x0s in ([[1.0], [0.5]], [[1.0]]):
            trajs = integrate_rk4(decay_field(), x0s, dt=0.1, steps=5)
            assert [len(t.states) for t in trajs] == [6] * len(x0s)
        for bad in ([1.0, 2.0], [[1.0, 2.0]], [[[1.0]]]):
            with pytest.raises(ValueError, match="point has shape"):
                integrate_rk4(decay_field(), bad, dt=0.1, steps=5)

    def test_blowup_flagged(self):
        hot = VectorField(dim=1, func=lambda x: np.array([x[0] ** 2]))
        traj = integrate_rk4(hot, [10.0], dt=1.0, steps=100)
        assert not traj.completed
        assert len(traj.states) < 101


@pytest.mark.parametrize("integrate", [
    lambda f: integrate_rk4(f, [1.0], dt=0.1, steps=20),
    lambda f: em_one(f, 0.0, [1.0], dt=0.1, steps=20),
    lambda f: euler_maruyama_ensembles(f, [0.0], [[1.0], [0.2]], dt=0.1,
                                       steps=20)[0][0]],
    # "euler_maruyama": one start at one level; "euler_maruyama_ensemble":
    # two starts at one level
    ids=["rk4", "euler_maruyama", "euler_maruyama_ensemble"])
def test_integrators_stop_only_on_field_errors(integrate):
    def broken(x):
        raise TypeError("bug in the field")

    with pytest.raises(TypeError, match="bug in the field"):
        integrate(VectorField(dim=1, func=broken))
    # a wrong shape is a fault in the field too, not a numerical stop
    with pytest.raises(FieldShapeError, match="returned shape"):
        integrate(VectorField(dim=1, func=lambda x: np.zeros(2)))
    # decays from 1.0; the value turns NaN once the state is below 0.5
    nan_below = VectorField(
        dim=1, func=lambda x: np.array([-x[0] if x[0] > 0.5 else np.nan]))
    traj = integrate(nan_below)
    assert not traj.completed
    assert 1 < len(traj.states) < 21


@pytest.mark.parametrize("integrate", [
    lambda f: integrate_rk4(f, [1.0], dt=0.1, steps=20),
    lambda f: em_one(f, 0.0, [1.0], dt=0.1, steps=20),
    lambda f: euler_maruyama_ensembles(f, [0.0, 0.0], [[1.0], [0.9]],
                                       dt=0.1, steps=20),
    # the base field sees D^{-1} x, which starts at 1.0
    lambda f: integrate_rk4(transform_field(f, [[2.0]]), [2.0], dt=0.1,
                            steps=20),
    lambda f: euler_maruyama_ensembles(transform_field(f, [[2.0]]), [0.0],
                                       [[2.0], [1.8]], dt=0.1, steps=20),
    # a lone start steps on the point kernel, here func's values as floats
    lambda f: integrate_rk4(dataclasses.replace(
        f, point=lambda p: f.func(np.array(p)).tolist()), [1.0], dt=0.1,
        steps=20)],
    # "euler_maruyama": one start at one level
    ids=["rk4", "euler_maruyama", "euler_maruyama_ensembles",
         "rk4_transformed", "euler_maruyama_ensembles_transformed",
         "rk4_point"])
def test_value_shape_checked_on_every_call(integrate):
    # decays from 1.0 with values of shape (1,) while x > 0.5 and (2,)
    # after, so a check of the first call alone would miss it
    calls = []

    def late_wrong_shape(x):
        calls.append(x)
        return -x if x[0] > 0.5 else np.zeros(2)

    with pytest.raises(FieldShapeError, match="returned shape"):
        integrate(VectorField(dim=1, func=late_wrong_shape))
    assert len(calls) > 5


@pytest.mark.parametrize("dt", [0.1, 0.0])
@pytest.mark.parametrize("x0s", [np.zeros((2, 3)), np.zeros(3),
                                 np.zeros((2, 1, 2))],
                         ids=["wide_rows", "wide_point", "3d"])
def test_ensemble_starts_checked_before_the_field(x0s, dt):
    # the starts are checked first, before dt and before any step
    def never(x):
        pytest.fail("field called with unchecked starts")

    field = VectorField(dim=2, func=never)
    for eps_list in ([0.0, 0.1], [0.1]):
        with pytest.raises(ValueError, match="point has shape"):
            euler_maruyama_ensembles(field, eps_list, x0s, dt, 10)


@pytest.mark.parametrize("integrate", [
    lambda dt, steps: integrate_rk4(decay_field(), [1.0], dt, steps),
    lambda dt, steps: em_one(decay_field(), 0.0, [1.0], dt, steps),
    lambda dt, steps: euler_maruyama_ensembles(
        decay_field(), [0.1], [[1.0], [0.2]], dt, steps)],
    # "euler_maruyama": one start at one level; "euler_maruyama_ensemble":
    # two starts at one level
    ids=["rk4", "euler_maruyama", "euler_maruyama_ensemble"])
@pytest.mark.parametrize("dt, steps",
                         [(0.1, 0), (0.1, -1), (0.0, 10), (-0.1, 10)])
def test_integrators_reject_bad_dt_and_steps(integrate, dt, steps):
    with pytest.raises(ValueError,
                       match="dt must be positive|steps must be at least 1"):
        integrate(dt, steps)


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("integrate", [
    lambda f, x0s: [integrate_rk4(f, x0, 0.1, 10) for x0 in x0s],
    lambda f, x0s: [em_one(f, 0.1, x0, 0.1, 10) for x0 in x0s],
    lambda f, x0s: [t for ens in euler_maruyama_ensembles(
        f, [0.1, 0.0], x0s, 0.1, 10) for t in ens]],
    # "euler_maruyama": one call per start at one level
    ids=["rk4", "euler_maruyama", "euler_maruyama_ensembles"])
def test_finite_state_whose_sum_overflows_runs_on(integrate, vectorized):
    # 1.5e308 + 1.5e308 overflows the state's sum, not the state: every
    # row is finite, so every row runs to the end and keeps its states
    zero = VectorField(dim=2, vectorized=vectorized,
                       func=lambda x: np.zeros_like(x))
    x0s = np.array([[1.5e308, 1.5e308], [1.0, -1.0], [-1.5e308, 1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajs = integrate(zero, x0s)
    for m, traj in enumerate(trajs):  # start m % 3
        assert traj.completed and len(traj.states) == 11
        assert np.isfinite(traj.states).all()
        assert np.array_equal(traj.states[0], x0s[m % 3])
        if m % 3 != 1:  # kicks at eps = 0.1 vanish next to 1.5e308
            assert (traj.states == x0s[m % 3]).all()


def reference_rk4(field, x0, dt, steps):
    """RK4 one point at a time, every stage checked by eval_field."""
    x = np.asarray(x0, dtype=float).copy()
    states = [x.copy()]
    completed = True
    for _ in range(steps):
        try:
            k1 = eval_field(field, x)
            k2 = eval_field(field, x + 0.5 * dt * k1)
            k3 = eval_field(field, x + 0.5 * dt * k2)
            k4 = eval_field(field, x + dt * k3)
        except FieldEvalError:
            completed = False
            break
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            completed = False
            break
        states.append(x.copy())
    states = np.array(states)
    return Trajectory(states=states, dt=dt, completed=completed)


RK4_FIELDS = {
    "lorenz": lorenz(),
    "double_well": double_well(),
    "jj_circuit": jj_circuit(),
    # fixed upper-triangular D, so no symmetrizer solve runs
    "gradientized_lorenz": transform_field(
        lorenz(), np.array([[1.5, 0.3, -0.2], [0.0, 0.8, 0.4],
                            [0.0, 0.0, 1.2]])),
    # not vectorized; decays from above 0.5 and turns NaN below it
    "nan_below": VectorField(dim=1, func=lambda x: np.array(
        [-x[0] if x[0] > 0.5 else np.nan])),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(RK4_FIELDS)),
       x0=st.lists(st.one_of(st.floats(-5.0, 5.0), st.floats(-1e200, 1e200)),
                   min_size=3, max_size=3),
       dt=st.floats(1e-3, 0.2), steps=st.integers(1, 200))
def test_rk4_equals_per_stage_reference(name, x0, dt, steps):
    # a lone start is stepped as one point: a 1-row batch would round
    # stacked rows differently (transform_field) and run slower.  Starts
    # up to 1e200 overflow in the first stages, where the stage arithmetic
    # on Python floats must give the reference's infs, NaNs and cut
    field = RK4_FIELDS[name]
    x0 = x0[:field.dim]
    with np.errstate(all="ignore"):
        traj = integrate_rk4(field, x0, dt, steps)
        ref = reference_rk4(field, x0, dt, steps)
    assert np.array_equal(traj.states, ref.states)
    assert np.array_equal(traj.times, ref.times)
    assert traj.completed == ref.completed


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["double_well", "jj_circuit", "lorenz"]),
       x0=st.lists(st.one_of(st.floats(-5.0, 5.0), st.floats(-1e200, 1e200)),
                   min_size=3, max_size=3),
       dt=st.floats(1e-3, 0.2), steps=st.integers(1, 200))
@example(name="double_well", x0=[1e120, 0.0, 0.0], dt=0.05, steps=50)
@example(name="double_well", x0=[5.0, 0.0, 0.0], dt=0.2, steps=200)
@example(name="lorenz", x0=[1e200, -1e200, 1e200], dt=0.2, steps=200)
def test_rk4_kernel_equals_func_stages(name, x0, dt, steps):
    # a lone start steps on the field's point kernel: every state, and
    # the cut of an overflowing start, as with the stages of func
    field = RK4_FIELDS[name]
    x0 = x0[:field.dim]
    assert field.point is not None
    traj = integrate_rk4(field, x0, dt, steps)
    ref = integrate_rk4(dataclasses.replace(field, point=None), x0, dt, steps)
    assert traj.states.tobytes() == ref.states.tobytes()
    assert traj.completed == ref.completed


RK4_BATCH_FIELDS = {**{name: build_system(SystemSpec(name, {}, 0))
                       for name in REGISTRY}, **RK4_FIELDS}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(RK4_BATCH_FIELDS)), data=st.data(),
       count=st.integers(2, 9), dt=st.floats(1e-3, 0.2),
       steps=st.integers(1, 200))
def test_rk4_rows_equal_lone_starts(name, data, count, dt, steps):
    # every row of one lockstep has the bits of its lone start, and ends
    # where its lone run ends; starts up to 1e200 overflow at once
    field = RK4_BATCH_FIELDS[name]
    coords = st.one_of(st.floats(-5.0, 5.0), st.floats(-1e200, 1e200))
    x0s = np.array(data.draw(st.lists(
        st.lists(coords, min_size=field.dim, max_size=field.dim),
        min_size=count, max_size=count)))
    with np.errstate(all="ignore"):
        trajs = integrate_rk4(field, x0s, dt, steps)
        lone = [integrate_rk4(field, x0, dt, steps) for x0 in x0s]
    assert len(trajs) == count
    for got, want in zip(trajs, lone):
        assert got.states.tobytes() == want.states.tobytes()
        assert got.completed == want.completed
        assert got.dt == dt


@pytest.mark.parametrize("vectorized", [True, False])
def test_rk4_rows_ending_mid_block_equal_lone_starts(vectorized):
    # xdot = x grows by e^0.1 a step, and a step's stage sum, about 6 x,
    # overflows once x passes 3e307: the row from 1e306 ends at state 35,
    # inside the first block of 64 steps, and the row from 1e300 at state
    # 173, inside the third; the others run to the end
    field = VectorField(dim=1, func=lambda x: 1.0 * x, vectorized=vectorized)
    x0s = np.array([[0.5], [1e306], [-2.0], [1e300], [0.0]])
    trajs = integrate_rk4(field, x0s, 0.1, 250)
    assert [len(t.states) for t in trajs] == [251, 35, 251, 173, 251]
    assert [t.completed for t in trajs] == [True, False, True, False, True]
    for x0, traj in zip(x0s, trajs):
        lone = integrate_rk4(field, x0, 0.1, 250)
        assert traj.states.tobytes() == lone.states.tobytes()
        assert traj.completed == lone.completed


@pytest.mark.parametrize("vectorized", [True, False])
def test_rk4_field_error_ends_every_row(vectorized):
    # a FieldEvalError ends every row still running, as in
    # euler_maruyama_ensembles: the row from 90 reaches 100 at step 10,
    # and the row from 0, which runs on alone, ends with it
    def stop_at_100(x):
        if (np.asarray(x) >= 100.0).any():
            raise FieldEvalError("stop")
        return np.ones_like(x)

    field = VectorField(dim=1, vectorized=vectorized, func=stop_at_100)
    trajs = integrate_rk4(field, [[0.0], [90.0]], 1.0, 191)
    assert [len(t.states) for t in trajs] == [10, 10]
    assert not any(t.completed for t in trajs)
    assert len(integrate_rk4(field, [0.0], 1.0, 191).states) == 100


def half_square(X):
    """V = |x|^2 / 2 at one point or at each row of stacked points."""
    X = np.asarray(X, dtype=float)
    return 0.5 * np.sum(X * X, axis=-1)


def double_well_V(states):
    """V = x^4/4 - x^2/2 of each state (M, 1), the closed form."""
    x = states[:, 0]
    return 0.25 * x ** 4 - 0.5 * x ** 2


class TestLyapunov:
    def test_gradient_flow_monotone(self):
        # xdot = -grad V for V = |x|^2/2
        field = VectorField(dim=2, func=lambda x: -x)
        traj = integrate_rk4(field, [1.0, 0.5], dt=0.01, steps=500)
        rep = lyapunov_check(half_square(traj.states), traj)
        assert rep.monotone

    def test_double_well_descent(self):
        field = double_well()
        traj = integrate_rk4(field, [0.1], dt=0.01, steps=2000)
        # field is -dV/dx, so V decreases into the well at x=1
        rep = lyapunov_check(double_well_V(traj.states), traj)
        assert rep.monotone
        assert traj.states[-1][0] == pytest.approx(1.0, abs=1e-3)

    def test_rotation_conserves(self):
        traj = integrate_rk4(rotation(), [1.0, 0.0], dt=0.01, steps=1000)
        rep = lyapunov_check(half_square(traj.states), traj)
        assert rep.monotone
        assert abs(rep.max_increase) < 1e-10

    def test_values_in_place_of_V(self):
        field = double_well()
        traj = integrate_rk4(field, [0.1], dt=0.01, steps=200)
        vals = double_well_V(traj.states)
        rep = lyapunov_check(vals, traj)
        # reference: the largest step of V between consecutive states
        inc = max(b - a for a, b in zip(vals[:-1], vals[1:]))
        assert rep.max_increase == inc
        assert rep.monotone == (
            inc <= 10.0 * traj.dt ** 2 * (1.0 + np.max(np.abs(vals))))
        with pytest.raises(ValueError):
            lyapunov_check(vals[1:], traj)

    def test_one_state_has_no_increase(self):
        traj = Trajectory(states=np.ones((1, 2)), dt=0.1, completed=False)
        assert lyapunov_check([5.0], traj) == LyapunovReport(
            max_increase=0.0, monotone=True)

    def test_allowance_past_the_float_range_is_inf(self):
        # dt^2 overflows: the allowance is inf, not an OverflowError
        traj = Trajectory(states=np.zeros((3, 1)), dt=1e200)
        assert lyapunov_check([0.0, 1.0, 1e300], traj) == LyapunovReport(
            max_increase=1e300, monotone=True)


class TestEulerMaruyama:
    def test_eps_zero_is_forward_euler(self):
        field = decay_field()
        traj = em_one(field, 0.0, [1.0], dt=0.1, steps=50, master_seed=1)
        x = np.array([1.0])
        for k in range(1, 51):
            x = x + 0.1 * (-x)
            assert traj.states[k][0] == x[0]  # bit-identical

    def test_seed_reproducibility(self):
        a = em_one(decay_field(), 0.1, [1.0], 0.01, 200, master_seed=42)
        b = em_one(decay_field(), 0.1, [1.0], 0.01, 200, master_seed=42)
        assert np.array_equal(a.states, b.states)
        c = em_one(decay_field(), 0.1, [1.0], 0.01, 200, master_seed=43)
        assert not np.array_equal(c.states, b.states)

    def test_ou_stationary_variance(self):
        # <z z'> = 2 eps delta gives stationary variance eps for xdot=-x
        eps = 0.05
        traj = em_one(decay_field(), eps, [0.0], dt=1e-3,
                      steps=1_000_000, master_seed=5)
        var = np.var(traj.states[200_000:, 0])
        assert var == pytest.approx(eps, rel=0.1)

    @pytest.mark.parametrize("field, eps_list, draws, length", [
        # x grows 10^5-fold a step: every row is non-finite at state 62,
        # inside the first block, which is then stepped again from the
        # kicks it held before, not from a second draw
        (quadratic([[1e8]]), [0.05, 0.0], 1, 62),
        (decay_field(), [0.1, 0.0], 1, 201),
        (decay_field(), [0.0, 0.0], 0, 201)],
        ids=["first_block_stepped_again", "stable", "no_noise"])
    def test_kick_table_built_once(self, monkeypatch, field, eps_list,
                                   draws, length):
        # each start's Philox stream is made once per draw
        made = []

        def counted(master_seed, index):
            made.append((master_seed, index))
            return trajectory_rng(master_seed, index)

        trajectory_rng = dynamics._trajectory_rng
        monkeypatch.setattr(dynamics, "_trajectory_rng", counted)
        x0s = np.linspace(0.1, 1.5, 8)[:, None]
        ensembles = euler_maruyama_ensembles(field, eps_list, x0s, 1e-3,
                                             200, master_seed=4)
        assert made == [(4, m) for m in range(8)] * draws
        assert {len(t.states) for ens in ensembles for t in ens} == {length}

    def test_ensemble_deterministic_per_index(self):
        x0s = np.zeros((3, 1))
        [e1] = euler_maruyama_ensembles(decay_field(), [0.1], x0s, 0.01,
                                        100, master_seed=9)
        [e2] = euler_maruyama_ensembles(decay_field(), [0.1], x0s, 0.01,
                                        100, master_seed=9)
        for t1, t2 in zip(e1, e2):
            assert np.array_equal(t1.states, t2.states)
        assert not np.array_equal(e1[0].states, e1[1].states)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 31), steps=st.integers(1, 40))
def test_em_eps_zero_property(seed, steps):
    field = decay_field()
    em = em_one(field, 0.0, [0.7], dt=0.05, steps=steps, master_seed=seed)
    x = np.array([0.7])
    euler = [x.copy()]
    for _ in range(steps):
        x = x + 0.05 * (-x)
        euler.append(x.copy())
    assert np.array_equal(em.states, np.array(euler))


class TestDensityAndGraham:
    def test_ou_histogram_mode_at_zero(self):
        field = ou()
        [ens] = euler_maruyama_ensembles(field, [0.05], np.zeros((4, 1)),
                                         1e-3, 50_000, master_seed=3)
        dens = stationary_density(ens, bins=21, ranges=[(-1.5, 1.5)])
        assert dens.counts.sum() == dens.total
        assert np.argmax(dens.counts) == 10  # central bin

    def test_deterministic_point_single_cell(self):
        field = decay_field()
        [ens] = euler_maruyama_ensembles(field, [0.0], np.zeros((1, 1)),
                                         0.01, 100, master_seed=0)
        dens = stationary_density(ens, bins=11, ranges=[(-1.0, 1.0)])
        assert np.sum(dens.counts > 0) == 1

    def test_double_well_symmetry(self):
        field = double_well()
        x0s = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        [ens] = euler_maruyama_ensembles(field, [0.1], x0s, 1e-3, 50_000,
                                         master_seed=11)
        dens = stationary_density(ens, bins=20, ranges=[(-2.0, 2.0)])
        left = dens.counts[:10].sum()
        right = dens.counts[10:].sum()
        assert abs(left - right) / dens.total < 0.25

    def test_negative_burn_in_rejected(self):
        [ens] = euler_maruyama_ensembles(decay_field(), [0.1],
                                         [[1.0], [2.0]], 0.1, 50)
        with pytest.raises(ValueError, match="burn_in must be nonnegative"):
            stationary_density(ens, bins=5, ranges=[(-3.0, 3.0)], burn_in=-1)
        # burn_in = 0 keeps every state of both trajectories
        assert stationary_density(ens, bins=5, ranges=[(-3.0, 3.0)],
                                  burn_in=0).total == 102

    def test_default_burn_in_cuts_every_row_at_one_index(self):
        # xdot = x^2 from 2 leaves every finite float at t = 0.5: the rows
        # hold 1001 and 516 states, and both are cut at 0.2 * 1001 = 200,
        # not the short one at 0.2 * 516 = 103
        field = VectorField(dim=1, func=lambda x: x * x)
        [ens] = euler_maruyama_ensembles(field, [0.0], [[-0.5], [2.0]],
                                         1e-3, 1000)
        assert [len(t.states) for t in ens] == [1001, 516]
        ranges = [(-1e300, 1e300)]
        dens = stationary_density(ens, bins=5, ranges=ranges)
        assert (dens.total, dens.n_clipped) == (801 + 316, 0)
        assert np.array_equal(dens.counts, stationary_density(
            ens, bins=5, ranges=ranges, burn_in=200).counts)

    def test_nothing_after_burn_in_rejected(self):
        [ens] = euler_maruyama_ensembles(decay_field(), [0.1],
                                         [[1.0], [2.0]], 0.1, 5)
        for trajs, burn_in in ((ens, 6), ([], None), ([], 0)):
            with pytest.raises(ValueError, match="no post-burn-in samples"):
                stationary_density(trajs, bins=5, ranges=[(-3.0, 3.0)],
                                   burn_in=burn_in)

    @pytest.mark.parametrize("eps", [0.0, -0.5, np.nan, np.inf])
    def test_graham_rejects_nonpositive_eps(self, eps):
        grid = DensityGrid(edges=[np.linspace(0, 1, 6)],
                           counts=np.full(5, 20))
        with pytest.raises(ValueError, match="eps must be positive"):
            graham_estimate(grid, eps)

    def test_graham_uniform_density_constant(self):
        grid = DensityGrid(edges=[np.linspace(0, 1, 6)],
                           counts=np.full(5, 20))
        est = graham_estimate(grid, 0.5)
        assert np.allclose(est, 0.0)

    def test_graham_rejects_empty_grid(self):
        grid = DensityGrid(edges=[np.linspace(0, 1, 4)],
                           counts=np.zeros(3, dtype=np.int64))
        assert grid.total == 0
        with pytest.raises(ValueError, match="density grid is empty"):
            graham_estimate(grid, 1.0)

    def test_graham_masks_empty_cells(self):
        grid = DensityGrid(edges=[np.linspace(0, 1, 4)],
                           counts=np.array([10, 0, 30]))
        est = graham_estimate(grid, 1.0)
        assert np.isnan(est[1])
        assert est[2] == 0.0  # most occupied cell is shifted to 0

    @pytest.mark.parametrize("counts", [
        np.array([0, 7, 0]),  # one cell holds every sample: V is +0.0
        np.array([10, 0, 30, 1]),
        np.full((2, 3), 5),
        np.random.default_rng(8).poisson(0.05, (10, 10, 10)),
    ], ids=["one_cell", "1d", "uniform", "sparse_3d"])
    @pytest.mark.parametrize("eps", [0.05, 1.0])
    def test_graham_equals_dense_formula(self, counts, eps):
        grid = DensityGrid(edges=[np.linspace(0, 1, n + 1)
                                  for n in counts.shape],
                           counts=counts)
        with np.errstate(divide="ignore"):
            dense = -eps * np.log(counts / grid.total)
        dense[counts == 0] = np.nan
        dense = dense - np.nanmin(dense)
        assert graham_estimate(grid, eps).tobytes() == dense.tobytes()

    def test_graham_double_well_minima(self):
        field = double_well()
        x0s = np.array([[-1.0], [1.0], [-0.5], [0.5]])
        [ens] = euler_maruyama_ensembles(field, [0.1], x0s, 1e-3, 100_000,
                                         master_seed=17)
        dens = stationary_density(ens, bins=24, ranges=[(-1.8, 1.8)])
        est = graham_estimate(dens, 0.1)
        centers = dens.centers(0)
        masked = np.where(np.isfinite(est), est, np.inf)
        width = centers[1] - centers[0]
        left_min = centers[centers < 0][np.argmin(masked[centers < 0])]
        right_min = centers[centers > 0][np.argmin(masked[centers > 0])]
        assert abs(left_min + 1.0) <= width
        assert abs(right_min - 1.0) <= width


def histogramdd_reference(samples, bins, ranges):
    """np.histogramdd's edges, counts and clipped samples."""
    counts, edges = np.histogramdd(samples, bins=bins, range=ranges)
    return edges, counts.astype(np.int64), len(samples) - int(counts.sum())


@st.composite
def axis_range(draw, bins):
    """(lo, hi) of ints, or of floats whose bins are at least one float
    spacing wide at max(|lo|, |hi|)."""
    if draw(st.booleans()):
        lo = draw(st.integers(-100, 100))
        return lo, lo + draw(st.integers(1, 100))
    lo, hi = sorted([draw(st.floats(-1e300, 1e300)),
                     draw(st.floats(-1e300, 1e300))])
    assume(lo < hi
           and (hi - lo) / bins >= np.spacing(max(abs(lo), abs(hi))))
    return lo, hi


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_binning_equals_histogramdd(data):
    # every edge, the floats either side of it, random in-range values
    # and finite values far outside, mixed across axes; a row at every lo
    # keeps one sample inside
    dim = data.draw(st.integers(1, 3))
    bins = data.draw(st.integers(1, 50))
    ranges = [data.draw(axis_range(bins)) for _ in range(dim)]
    columns = []
    for lo, hi in ranges:
        e = np.linspace(lo, hi, bins + 1)
        columns.append(np.concatenate([
            e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
            data.draw(st.lists(st.floats(lo, hi), max_size=20)),
            [-1e308, 1e308]]))
    n = max(map(len, columns))
    samples = np.vstack([np.column_stack([
        np.roll(np.resize(c, n), data.draw(st.integers(0, n - 1)))
        for c in columns]), [lo for lo, _ in ranges]])
    split = data.draw(st.integers(0, len(samples)))
    trajs = [Trajectory(states=samples[:split], dt=1.0),
             Trajectory(states=samples[split:], dt=1.0)]
    edges, counts, clipped = histogramdd_reference(samples, bins, ranges)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        grid = stationary_density(trajs, bins, ranges, burn_in=0)
    assert len(grid.edges) == dim
    for got, want in zip(grid.edges, edges):
        assert got.tobytes() == want.tobytes()
    assert grid.counts.dtype == np.int64
    assert np.array_equal(grid.counts, counts)
    assert grid.n_clipped == clipped


@pytest.mark.parametrize("dim, bins, ranges", [
    (1, 0, [(0, 1)]), (1, -3, [(0, 1)]), (1, 2.0, [(0, 1)]),
    (1, "4", [(0, 1)]), (1, None, [(0, 1)]), (1, 4, [(1, 1)]),
    (1, 4, [(2, 1)]), (1, 4, [(0, np.inf)]), (1, 4, [(np.nan, 1)]),
    (1, 4, [(-1e308, 1e308)]), (1, 4, [(0, 1), (0, 1)]),
    (1, 4, [(0, 1, 2)]), (1, 4, [0, 1]), (1, 4, []),
    (3, 10 ** 7, [(0, 1)] * 3)])
def test_density_rejects_bad_grids(dim, bins, ranges):
    # the width of (-1e308, 1e308) overflows; 10^21 cells cannot be indexed
    trajs = [Trajectory(states=np.zeros((3, dim)), dt=1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError,
                           match="bins must|ranges must|can index"):
            stationary_density(trajs, bins, ranges, burn_in=0)


def csv_writer_bytes(traj, path):
    """The file csv.writer makes of the trajectory, row by row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i + 1}"
                                 for i in range(traj.states.shape[1])])
        for t, x in zip(traj.times, traj.states):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in x])
    return path.read_bytes()


def blow_up_trajectory():
    # x' = x^2 from 1 is NaN from x = 2 on: RK4 ends early, not completed
    field = VectorField(dim=1, func=lambda x: np.where(x < 2.0, x * x,
                                                       np.nan))
    traj = integrate_rk4(field, [1.0], dt=0.1, steps=50)
    assert not traj.completed and len(traj.states) < 51
    return traj


@pytest.mark.parametrize("make", [
    lambda: integrate_rk4(decay_field(), [1.0], dt=0.1, steps=30),
    lambda: integrate_rk4(lorenz(), [0.3, -0.2, 0.1], dt=1e-3, steps=200),
    blow_up_trajectory,
    # subnormal times 0, 5e-324, 1e-323
    lambda: Trajectory(states=np.array([[-0.0, 5e-324], [1e308, -1e308],
                                        [-5e-324, 0.1]]), dt=5e-324),
    lambda: Trajectory(states=np.zeros((0, 2)), dt=1.0),
], ids=["1d", "3d", "cut_short", "extreme_values", "no_states"])
def test_trajectory_csv_matches_csv_writer(make, tmp_path):
    traj = make()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == csv_writer_bytes(traj, tmp_path / "ref.csv")


def test_trajectory_csv_overwritten_in_place(tmp_path):
    # a shorter trajectory over a longer one leaves no stale tail, and the
    # file keeps its inode and its mode, as open(path, "w") kept them
    long = integrate_rk4(lorenz(), [0.3, -0.2, 0.1], dt=1e-3, steps=200)
    short = integrate_rk4(decay_field(), [1.0], dt=0.1, steps=3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(long, path)
    os.chmod(path, 0o600)
    inode = path.stat().st_ino
    write_trajectory_csv(short, path)
    assert path.read_bytes() == csv_writer_bytes(short, tmp_path / "ref.csv")
    assert path.stat().st_ino == inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    write_trajectory_csv(long, path)
    assert path.read_bytes() == csv_writer_bytes(long, tmp_path / "ref.csv")


def test_trajectory_csv_paths_as_open_takes_them(tmp_path):
    short = integrate_rk4(decay_field(), [1.0], dt=0.1, steps=3)
    want = csv_writer_bytes(short, tmp_path / "ref.csv")
    # a symlink is followed: its target is written, the link stays
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    write_trajectory_csv(integrate_rk4(decay_field(), [1.0], 0.1, 30),
                         target)
    link.symlink_to(target)
    write_trajectory_csv(short, link)
    assert link.is_symlink() and target.read_bytes() == want
    # a new file gets 0o666 under the umask
    umask = os.umask(0o027)
    try:
        write_trajectory_csv(short, tmp_path / "new.csv")
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o640
    with pytest.raises(OSError):
        write_trajectory_csv(short, tmp_path)


def test_trajectory_csv_roundtrip(tmp_path):
    traj = integrate_rk4(decay_field(), [1.0], dt=0.1, steps=3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x_1"
    assert len(lines) == 5
    t, x = lines[2].split(",")
    assert float(t) == pytest.approx(0.1)
    assert float(x) == pytest.approx(traj.states[1][0])


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["ou", "double_well"]),
       seed=st.integers(0, 2 ** 31), count=st.integers(1, 6),
       steps=st.integers(1, 300), eps=st.sampled_from([0.0, 0.05, 0.5]))
def test_lockstep_ensemble_equals_lone_trajectories(name, seed, count, steps,
                                                    eps):
    field = ou() if name == "ou" else double_well()
    x0s = np.linspace(-1.5, 1.5, count)[:, None]
    [ens] = euler_maruyama_ensembles(field, [eps], x0s, 1e-2, steps,
                                     master_seed=seed)
    assert len(ens) == count
    for m, traj in enumerate(ens):
        states, completed = reference_em(field, eps, x0s[m], 1e-2, steps,
                                         _trajectory_rng(seed, m))
        assert traj.states.tobytes() == states.tobytes()
        assert np.array_equal(traj.times, 1e-2 * np.arange(steps + 1))
        assert traj.completed and completed


@pytest.mark.parametrize("vectorized", [True, False])
def test_nonfinite_row_ends_only_its_trajectory(vectorized):
    # x grows by 10% a step and the drift is NaN from x = 2 on: the start
    # at 1.9 ends after one step, the others run to the end
    field = VectorField(dim=1, func=lambda x: np.where(x < 2.0, x, np.nan),
                        vectorized=vectorized)
    x0s = np.array([[0.1], [1.9], [-0.5]])
    [ens] = euler_maruyama_ensembles(field, [0.0], x0s, 0.1, 5)
    assert [t.completed for t in ens] == [True, False, True]
    assert [len(t.states) for t in ens] == [6, 2, 6]
    for x0, traj in zip(x0s, ens):
        lone = em_one(field, 0.0, x0, 0.1, 5)
        assert np.array_equal(traj.states, lone.states)
        assert traj.completed == lone.completed
    assert np.isfinite(ens[1].states).all()


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("others", [1, 40], ids=["few", "many"])
def test_opposite_infinities_end_their_rows_alone(vectorized, others):
    # the starts at 1 and -1 reach +inf and -inf at the first step, so the
    # state's sum is NaN, not inf; the rows at 0.5 decay and run on
    field = VectorField(dim=1, vectorized=vectorized, func=lambda x: np.where(
        abs(x) < 1.0, -x, np.copysign(np.inf, x)))
    x0s = np.array([[1.0], [-1.0]] + [[0.5]] * others)
    [ens] = euler_maruyama_ensembles(field, [0.0], x0s, 0.1, 5)
    assert [len(t.states) for t in ens] == [1, 1] + [6] * others
    assert [t.completed for t in ens] == \
        [False, False] + [True] * others
    traj = integrate_rk4(VectorField(dim=2, func=field.func), [1.0, -1.0],
                         0.1, 5)
    assert not traj.completed and len(traj.states) == 1


def test_one_nan_among_many_rows_ends_only_its_row():
    field = VectorField(dim=1, vectorized=True,
                        func=lambda x: np.where(x < 2.0, -x, np.nan))
    x0s = np.zeros((10_000, 1))
    x0s[1234] = 5.0
    [ens] = euler_maruyama_ensembles(field, [0.0], x0s, 0.1, 3)
    lengths = np.array([len(t.states) for t in ens])
    assert lengths[1234] == 1 and not ens[1234].completed
    assert (np.delete(lengths, 1234) == 4).all()
    assert sum(t.completed for t in ens) == 9_999


# overflow only ends a row here, as in the lockstep
@np.errstate(over="ignore", invalid="ignore")
def reference_em(field, eps, x0, dt, steps, rng):
    """Euler-Maruyama of one start as a 1-row batch, step by step."""
    z = rng.standard_normal((steps, len(x0))) if eps > 0 else None
    x = np.asarray(x0, dtype=float)[None, :]
    states = [x[0]]
    for k in range(steps):
        x = x + dt * _apply(field, field.func, x, (field.dim,), "field")
        if z is not None:
            x = x + z[k] * np.sqrt(2.0 * eps * dt)
        if not np.isfinite(x).all():
            return np.array(states), False
        states.append(x[0])
    return np.array(states), True


def assert_ensembles_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.states.tobytes() == b.states.tobytes()  # also -0.0
        assert np.array_equal(a.times, b.times)
        assert a.completed == b.completed


def cubic_pair(x):  # one point only: a field without vectorized=True
    return np.array([-x[0] ** 3 + x[1], -x[1] - 0.5 * x[0]])


# not symmetric, so a coordinate swapped with a row shows; quadratic and
# lorenz return stacked values as transposed (Fortran-order) views
Q3 = np.array([[-1.2, 0.4, 0.1], [-0.3, -0.9, 0.5], [0.2, -0.6, -1.1]])
EM_FIELDS = {"double_well": double_well,
             "cubic_pair": lambda: VectorField(dim=2, func=cubic_pair),
             "quadratic3": lambda: quadratic(Q3), "lorenz": lorenz}


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(sorted(EM_FIELDS)), seed=st.integers(0, 2 ** 31),
       count=st.integers(1, 5), steps=st.integers(1, 200),
       eps_list=st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.5, 3.0]),
                         min_size=1, max_size=3))
def test_stacked_levels_equal_one_call_per_eps(name, seed, count, steps,
                                               eps_list):
    field = EM_FIELDS[name]()
    x0s = np.linspace(-1.5, 1.5, count * field.dim).reshape(count, -1)
    stacked = euler_maruyama_ensembles(field, eps_list, x0s, 0.05, steps,
                                       master_seed=seed)
    assert len(stacked) == len(eps_list)
    for eps, ens in zip(eps_list, stacked):
        assert_ensembles_equal(ens, euler_maruyama_ensembles(
            field, [eps], x0s, 0.05, steps, master_seed=seed)[0])
        for m, traj in enumerate(ens):
            states, completed = reference_em(field, eps, x0s[m], 0.05, steps,
                                             _trajectory_rng(seed, m))
            assert traj.states.tobytes() == states.tobytes()
            assert traj.completed == completed


@pytest.mark.parametrize("vectorized", [True, False])
def test_nonfinite_row_at_one_level_ends_alone(vectorized):
    # the drift is NaN outside |x| < 2: at eps = 100 the noise leaves that
    # band within a few steps; at eps = 0 and 1e-6 the starts stay near 0
    field = VectorField(dim=1, vectorized=vectorized,
                        func=lambda x: np.where(abs(x) < 2.0, -x, np.nan))
    x0s = np.array([[0.0], [0.5]])
    eps_list = [0.0, 100.0, 1e-6]
    stacked = euler_maruyama_ensembles(field, eps_list, x0s, 0.1, 50,
                                       master_seed=3)
    assert [[t.completed for t in ens] for ens in stacked] == \
        [[True, True], [False, False], [True, True]]
    for eps, ens in zip(eps_list, stacked):
        assert_ensembles_equal(ens, euler_maruyama_ensembles(
            field, [eps], x0s, 0.1, 50, master_seed=3)[0])


def band(vectorized):
    # the drift is NaN outside the band |x_i| < 2: at eps = 1 rows leave it
    # at different steps, while the rows at eps = 0.01 keep drawing noise
    # after them, so the kick add runs on a shrinking set of rows
    field = VectorField(dim=2, vectorized=vectorized,
                        func=lambda x: np.where(abs(x) < 2.0, -x, np.nan))
    x0s = np.array([[0.0, 0.0], [1.0, -0.5], [1.9, 0.3], [-1.5, 1.5]])
    return field, x0s, noisy_apart


def noisy_apart(stacked):
    """At eps = 1 rows end at different steps, and every row at
    eps = 0.01 runs to the end."""
    ended = {len(t.states) for t in stacked[1] if not t.completed}
    return len(ended) >= 2 and all(t.completed for t in stacked[2])


def noiseless_apart(stacked):
    """At eps = 0 rows end at different steps while the start at 0 runs
    on, and the noisy rows end at different steps too."""
    def ended(levels):
        return {len(t.states) for ens in levels for t in ens
                if not t.completed}
    return (len(ended(stacked[:1])) >= 2 and stacked[0][0].completed
            and len(ended(stacked[1:])) >= 2)


def unstable_quadratic():
    # x_1 grows 1000-fold a step: at eps = 0 the starts at 1, 1e-100 and
    # 1e-200 are non-finite at states 103, 136 and 169, and the start at 0
    # runs on; the noise of the other levels ends their rows within a few
    # steps of each other
    Q = np.array([[19980.0, 1.0, 0.5], [0.0, -1.0, 2.0], [0.0, 0.0, -2.0]])
    x0s = np.array([[0.0, 0.0, 0.0], [1.0, -0.5, 0.3],
                    [1e-100, 0.0, 0.0], [1e-200, 0.0, 0.0]])
    return quadratic(Q), x0s, noiseless_apart


def unstable_lorenz():
    # forward Euler at dt = 0.05 is unstable here: these starts overflow
    # within 20-35 steps, and the start at the fixed point 0 runs on at
    # eps = 0
    x0s = 5.0 * np.array([[0.0, 0.0, 0.0], [1.0, -0.5, 0.3],
                          [1.9, 0.3, -1.0], [-1.5, 1.5, 2.0]])
    return lorenz(), x0s, noiseless_apart


@pytest.mark.parametrize("make", [
    lambda: band(True), lambda: band(False), unstable_quadratic,
    unstable_lorenz],
    # True and False: the band field vectorized or called row by row
    ids=["True", "False", "quadratic3", "lorenz"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rows_ending_apart_with_noise_match_reference(make, seed):
    field, x0s, apart = make()
    eps_list = [0.0, 1.0, 0.01]
    stacked = euler_maruyama_ensembles(field, eps_list, x0s, 0.05, 200,
                                       master_seed=seed)
    assert apart(stacked)
    for eps, ens in zip(eps_list, stacked):
        for m, traj in enumerate(ens):
            states, completed = reference_em(field, eps, x0s[m], 0.05, 200,
                                             _trajectory_rng(seed, m))
            assert traj.states.tobytes() == states.tobytes()  # also -0.0
            assert traj.completed == completed


def hurwitz_q(seed):
    """-(SPD) + skew, as the benchmark's stable 3x3 matrices: every
    eigenvalue has a negative real part, and Q is not symmetric."""
    rng = np.random.default_rng(seed)
    A, K = rng.standard_normal((2, 3, 3))
    return -(A @ A.T / 3.0 + 0.5 * np.eye(3)) + 0.5 * (K - K.T)


def em_3d_against_reference(seed, count, steps, eps_list, vectorized,
                            radius):
    """Euler-Maruyama of the stable linear field g = Q x, NaN where
    max|x_i| >= radius, from count starts inside that box: every state,
    length and completed flag of every level against reference_em, byte
    for byte.  Returns the lengths per level."""
    base = quadratic(hurwitz_q(seed))
    field = VectorField(dim=3, vectorized=vectorized, func=lambda x: np.where(
        np.abs(x).max(axis=-1, keepdims=True) < radius, base.func(x), np.nan))
    x0s = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 3))
    stacked = euler_maruyama_ensembles(field, eps_list, x0s, 0.05, steps,
                                       master_seed=seed)
    for eps, ens in zip(eps_list, stacked):
        assert len(ens) == count
        for m, traj in enumerate(ens):
            states, completed = reference_em(field, eps, x0s[m], 0.05, steps,
                                             _trajectory_rng(seed, m))
            assert traj.states.tobytes() == states.tobytes()  # also -0.0
            assert traj.completed == completed
    return [[len(t.states) for t in ens] for ens in stacked]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), count=st.integers(1, 4),
       steps=st.integers(1, 300), vectorized=st.booleans(),
       radius=st.sampled_from([1.5, 3.0, np.inf]),
       eps_list=st.lists(st.sampled_from([0.0, 0.01, 0.1, 0.5, 2.0]),
                         min_size=2, max_size=4).filter(
                             lambda levels: 0.0 in levels and any(levels)))
def test_em_3d_equals_reference(seed, count, steps, vectorized, radius,
                                eps_list):
    # at radius 1.5 the noisiest rows leave the box at different steps,
    # so the block they leave in is restored from its copy of the kicks
    # and stepped again, checked, while the other rows run on
    em_3d_against_reference(seed, count, steps, eps_list, vectorized, radius)


@pytest.mark.parametrize("vectorized", [True, False])
def test_em_3d_rows_ending_in_different_blocks(vectorized):
    # at eps = 0.5 the rows end at states 9, 9, 144 and 92: in the first,
    # third and second blocks of 64 steps; every row at 0 and 0.1 runs on
    lengths = em_3d_against_reference(1, 4, 300, [0.0, 0.1, 0.5],
                                      vectorized, 1.5)
    assert lengths == [[301] * 4, [301] * 4, [9, 9, 144, 92]]


def ramp(vectorized):
    """xdot = 1 below 200 and NaN from 200 on.  With dt = 1 the paths are
    exact integers: under Euler-Maruyama at eps = 0 the start at 201 - s
    first holds a non-finite state at state s, under RK4 (whose last stage
    looks one step ahead) the start at 200 - s does."""
    return VectorField(dim=1, vectorized=vectorized,
                       func=lambda x: np.where(x < 200.0, 1.0, np.nan))


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("steps", [1, 64, 65, 191])
def test_rows_ending_at_block_edges_match_reference(vectorized, steps):
    # the steps are checked for finiteness in blocks of 64: rows end just
    # before, at and after the first block's edge and inside the third
    field = ramp(vectorized)
    ends = np.array([63, 64, 65, 130])
    want = [min(s, steps + 1) for s in ends] + [steps + 1]
    x0s = np.append(201.0 - ends, 0.0)[:, None]
    [ens] = euler_maruyama_ensembles(field, [0.0], x0s, 1.0, steps)
    assert [len(t.states) for t in ens] == want
    for x0, traj in zip(x0s, ens):
        states, completed = reference_em(field, 0.0, x0, 1.0, steps, None)
        assert traj.states.tobytes() == states.tobytes()
        assert traj.completed == completed
    for x0, length in zip(x0s - 1.0, want):
        traj = integrate_rk4(field, x0, 1.0, steps)
        ref = reference_rk4(field, x0, 1.0, steps)
        assert len(traj.states) == length
        assert traj.states.tobytes() == ref.states.tobytes()
        assert traj.completed == ref.completed == (length == steps + 1)


def test_field_rejecting_nonfinite_input_never_sees_one():
    # the start at 100 turns NaN at state 101, inside the second block of
    # 64 steps; the field is called row by row and raises on a NaN, so the
    # block is stepped again and the NaN row cut before the field sees it
    def strict(x):
        if not np.isfinite(x).all():
            raise ValueError("non-finite input")
        return np.where(x < 200.0, 1.0, np.nan)

    field = VectorField(dim=1, func=strict)
    x0s = np.array([[0.0], [100.0], [-50.0]])
    stacked = euler_maruyama_ensembles(field, [0.0, 1e-4], x0s, 1.0, 191,
                                       master_seed=4)
    assert [len(t.states) for t in stacked[0]] == [192, 101, 192]
    for eps, ens in zip([0.0, 1e-4], stacked):
        assert [t.completed for t in ens] == [True, False, True]
        for m, traj in enumerate(ens):
            states, completed = reference_em(field, eps, x0s[m], 1.0, 191,
                                             _trajectory_rng(4, m))
            assert traj.states.tobytes() == states.tobytes()
            assert traj.completed == completed


@pytest.mark.parametrize("vectorized", [True, False])
def test_field_errors_inside_a_later_block(vectorized):
    # the start at 0 reaches 100 at step 100, in the second block of 64
    # steps; the start at -1000 turns NaN at state 1 and has ended by then
    def stop_at_100(x):
        if (x >= 100.0).any():
            raise FieldEvalError("stop")
        return np.where(x > -500.0, 1.0, np.nan)

    field = VectorField(dim=1, vectorized=vectorized, func=stop_at_100)
    x0s = np.array([[0.0], [-20.0], [-1000.0]])
    [ens] = euler_maruyama_ensembles(field, [0.0], x0s, 1.0, 191)
    assert [len(t.states) for t in ens] == [101, 101, 1]
    assert not any(t.completed for t in ens)
    for x0, traj in zip(x0s, ens):
        states, _ = reference_em(field, 0.0, x0, 1.0, len(traj.states) - 1,
                                 None)
        assert traj.states.tobytes() == states.tobytes()

    def wrong_shape_at_100(x):
        return np.zeros(x.shape[:-1] + (2,)) if (x >= 100.0).any() \
            else np.ones_like(x)

    field = VectorField(dim=1, vectorized=vectorized, func=wrong_shape_at_100)
    with pytest.raises(FieldShapeError, match="returned shape"):
        euler_maruyama_ensembles(field, [0.0], x0s, 1.0, 191)
    with pytest.raises(FieldShapeError, match="returned shape"):
        integrate_rk4(field, [0.0], 1.0, 191)


def test_zero_eps_level_stays_forward_euler():
    # xdot = x keeps -0.0 at -0.0 under forward Euler; a noise term scaled
    # to 0 would turn it into +0.0 whenever its normal is positive
    grow = VectorField(dim=1, func=lambda x: x, vectorized=True)
    x0s = np.array([[1.0], [-0.0]])
    noisy, exact = euler_maruyama_ensembles(grow, [0.1, 0.0], x0s, 0.1, 20)
    for x0, traj in zip(x0s, exact):
        x, euler = x0.copy(), [x0.copy()]
        for _ in range(20):
            x = x + 0.1 * x
            euler.append(x)
        assert traj.states.tobytes() == np.array(euler).tobytes()
    assert np.signbit(exact[1].states).all()
    assert not np.array_equal(noisy[0].states, exact[0].states)


def growth(vectorized):
    """xdot = x, under which forward Euler keeps a start at -0.0 at -0.0
    and a kick of +0.0 would turn it into +0.0."""
    return (VectorField(dim=1, func=lambda x: x, vectorized=vectorized),
            np.array([[1.0], [-2.0]]), None)


@pytest.mark.parametrize("make", [
    lambda: band(True), lambda: band(False), lambda: growth(True),
    lambda: growth(False), unstable_quadratic, unstable_lorenz],
    ids=["True", "False", "growth-True", "growth-False", "quadratic3",
         "lorenz"])
def test_all_levels_at_zero_match_reference(make, monkeypatch):
    # with no level above 0 nothing is drawn: every kick is -0.0, and
    # each step is forward Euler bit for bit, rows ending where the
    # reference's do
    def never(master_seed, index):
        pytest.fail("a noiseless run drew noise")

    monkeypatch.setattr(dynamics, "_trajectory_rng", never)
    field, x0s, _ = make()
    x0s = np.vstack([x0s, -0.0 * x0s[:1]])  # a start at -0.0 too
    stacked = euler_maruyama_ensembles(field, [0.0, 0.0, 0.0], x0s, 0.05,
                                       200, master_seed=7)
    assert len(stacked) == 3
    for ens in stacked:
        assert len(ens) == len(x0s)
        for x0, traj in zip(x0s, ens):
            states, completed = reference_em(field, 0.0, x0, 0.05, 200,
                                             None)
            assert traj.states.tobytes() == states.tobytes()  # also -0.0
            assert traj.completed == completed
    if make is unstable_quadratic:
        assert [len(t.states) for t in stacked[0]] == [201, 103, 136, 169, 201]


def test_negative_eps_level_rejected():
    def never(x):
        pytest.fail("field called with unchecked noise levels")

    field = VectorField(dim=1, func=never)
    # nan builds no noise and inf ends every row: neither is a level
    for eps_list in ([0.1, -0.1], [np.nan], [0.1, np.inf], [-np.inf]):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            euler_maruyama_ensembles(field, eps_list, np.zeros((2, 1)),
                                     0.1, 10)
    # a scalar is not a list of levels
    for eps_list in (0.1, -0.1, np.float64(0.1), [[0.1]]):
        with pytest.raises(ValueError, match="eps_list"):
            euler_maruyama_ensembles(field, eps_list, np.zeros((2, 1)),
                                     0.1, 10)


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_zero_starts_give_empty_ensembles(vectorized, eps):
    # no rows draw no noise: every eps gives what eps = 0 gives
    field = VectorField(dim=2, func=lambda x: -x, vectorized=vectorized)
    assert euler_maruyama_ensembles(field, [eps], np.zeros((0, 2)),
                                    0.1, 10) == [[]]
    stacked = euler_maruyama_ensembles(field, [0.0, eps], np.zeros((0, 2)),
                                       0.1, 10)
    assert stacked == [[], []]

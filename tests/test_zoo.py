import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradiform import (SystemSpec, analytic_potential, build_system,
                       eval_field, jacobian, sample_ball)
from gradiform.zoo import (REGISTRY, double_well, jj_circuit,
                           jj_circuit_linear, lorenz, ou,
                           quadratic, rotation)


class TestConstructors:
    def test_lorenz_example_point(self):
        g = eval_field(lorenz(10, 28, 8 / 3), [1.0, 1.0, 1.0])
        assert np.allclose(g, [0.0, 26.0, -5.0 / 3.0])

    def test_lorenz_divergence(self):
        sigma, beta = 10.0, 8.0 / 3.0
        J = jacobian(lorenz(sigma, 28.0, beta), [0.3, -1.2, 2.0])
        assert np.trace(J) == pytest.approx(-(sigma + 1.0 + beta))

    def test_lorenz_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lorenz(sigma=-1.0)
        with pytest.raises(ValueError):
            lorenz(beta=0.0)

    def test_jj_example_point(self):
        # zero bias, unit parameters, (y, delta, zeta) = (1, 0, 0)
        g = eval_field(jj_circuit(i=0, r=1, beta_c=1, beta_L=1),
                       [1.0, 0.0, 0.0])
        assert np.allclose(g, [1.0, -1.0, 1.0])

    def test_jj_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            jj_circuit(beta_c=0.0)
        with pytest.raises(ValueError):
            jj_circuit_linear(beta_L=-1.0)

    def test_jj_linear_matches_nonlinear_at_zero_phase(self):
        kw = dict(i=0.4, r=1.3, beta_c=0.7, beta_L=2.1)
        Jl = jacobian(jj_circuit_linear(**kw), np.zeros(3))
        Jn = jacobian(jj_circuit(**kw), np.zeros(3))
        assert np.allclose(Jl, Jn)

    def test_jj_linear_jacobian_entries(self):
        r, beta_c, beta_L = 2.0, 0.5, 4.0
        J = jacobian(jj_circuit_linear(r=r, beta_c=beta_c, beta_L=beta_L),
                     np.zeros(3))
        expected = np.array([[1.0, 0.0, 0.0],
                             [-r / beta_c, -1.0 / beta_c, -1.0 / beta_c],
                             [1.0 / beta_L, 0.0, -1.0 / beta_L]])
        assert np.array_equal(J, expected)

    def test_quadratic_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            quadratic(np.ones((2, 3)))

    def test_rotation_field(self):
        g = eval_field(rotation(), [1.0, 0.0])
        assert np.allclose(g, [0.0, 1.0])

    def test_double_well_descent_direction(self):
        field, V = double_well()
        # g = -dV/dx, so the fixed points sit at the potential extrema
        for x0 in (-1.0, 0.0, 1.0):
            assert eval_field(field, [x0])[0] == pytest.approx(0.0)
        assert V([1.0]) == pytest.approx(-0.25)
        assert V([0.0]) == 0.0

    def test_ou_potential(self):
        field, V = ou(theta=2.0)
        assert eval_field(field, [0.5])[0] == pytest.approx(-1.0)
        assert V([3.0]) == pytest.approx(9.0)
        with pytest.raises(ValueError):
            ou(theta=0.0)


class TestAnalyticJacobians:
    @pytest.mark.parametrize("name,builder,dim", [
        ("lorenz", lambda: lorenz(10, 28, 8 / 3), 3),
        ("jj_circuit", lambda: jj_circuit(i=0.2, r=1.1, beta_c=0.9,
                                          beta_L=1.4), 3),
        ("jj_circuit_linear", lambda: jj_circuit_linear(r=1.1, beta_c=0.9,
                                                        beta_L=1.4), 3),
        ("quadratic", lambda: quadratic([[1.0, 2.0], [3.0, 4.0]]), 2),
        ("rotation", rotation, 2),
        ("double_well", lambda: double_well()[0], 1),
        ("ou", lambda: ou(1.5)[0], 1),
    ])
    def test_matches_central_difference(self, name, builder, dim):
        field = builder()
        for x in sample_ball(dim, 16, 2.0, seed=hash(name) % 1000):
            Ja = jacobian(field, x, scheme="analytic")
            Jc = jacobian(field, x, scheme="central", h=1e-5)
            assert np.max(np.abs(Ja - Jc)) < 1e-5 * (1 + np.max(np.abs(Ja)))


def lorenz_ref(sigma, rho, beta):
    """lorenz on numpy scalars: the components unpacked with p.T."""
    def func(p):
        x, y, z = p.T
        return np.array([sigma * (y - x), rho * x - y - x * z,
                         -beta * z + x * y]).T

    def jac(p):
        x, y, z = p.T
        return np.array([[-sigma, sigma, 0.0], [rho - z, -1.0, -x],
                         [y, x, -beta]])

    return func, jac


def jj_circuit_ref(i, r, beta_c, beta_L):
    def func(p):
        y, delta, zeta = p.T
        return np.array([y, (-r * y + i - np.sin(delta) - zeta) / beta_c,
                         (-zeta + y) / beta_L]).T

    def jac(p):
        return np.array([[1.0, 0.0, 0.0],
                         [-r / beta_c, -np.cos(p.T[1]) / beta_c,
                          -1.0 / beta_c],
                         [1.0 / beta_L, 0.0, -1.0 / beta_L]])

    return func, jac


positive = st.floats(0.1, 50.0)
# any double but NaN, whose sign a NaN result need not keep
coordinate = st.floats(allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), which=st.sampled_from(["lorenz", "jj_circuit"]))
def test_one_point_equals_numpy_scalar_reference(data, which):
    # a lone point computes on Python floats, the reference on numpy
    # float64 scalars; both round every operation alike
    if which == "lorenz":
        params = data.draw(st.tuples(positive, positive, positive))
        field, ref = lorenz(*params), lorenz_ref(*params)
    else:
        params = data.draw(st.tuples(st.floats(-2.0, 2.0), positive,
                                     positive, positive))
        field, ref = jj_circuit(*params), jj_circuit_ref(*params)
    p = np.array(data.draw(st.lists(coordinate, min_size=field.dim,
                                    max_size=field.dim)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = (field.func(p), field.jac(p))
        want = (ref[0](p), ref[1](p))
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype == float
        assert g.tobytes() == w.tobytes()


class TestRegistry:
    def test_all_entries_build_with_defaults(self):
        for name, entry in REGISTRY.items():
            field = build_system(SystemSpec(name=name, params={}, dim=0))
            x = np.zeros(field.dim)
            assert np.all(np.isfinite(eval_field(field, x)))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            build_system(SystemSpec(name="nope", params={}, dim=0))

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            build_system(SystemSpec(name="lorenz",
                                    params={"gamma": 1.0}, dim=3))

    def test_param_override(self):
        field = build_system(SystemSpec(name="ou", params={"theta": 3.0},
                                        dim=1))
        assert eval_field(field, [1.0])[0] == pytest.approx(-3.0)

    def test_quadratic_from_entries(self):
        field = build_system(SystemSpec(
            name="quadratic", params={"q_0_0": 2.0, "q_0_1": 1.0,
                                      "q_1_0": 1.0, "q_1_1": 3.0}, dim=2))
        assert field.dim == 2
        assert np.allclose(eval_field(field, [1.0, 0.0]), [2.0, 1.0])

    def test_quadratic_bad_key(self):
        # one spelling per entry: a sign, space or leading zero would
        # wrap an index round or let two keys name one entry
        for key in ("sigma", "q_-1_0", "q_1_-1", "q_00_0", "q_+1_0",
                    "q_ 1_0", "q_1_0 ", "q_0", "q_0_0_0"):
            with pytest.raises(ValueError, match=re.escape(repr(key))):
                build_system(SystemSpec(name="quadratic",
                                        params={"q_0_0": 1.0, key: 1.0},
                                        dim=2))

    def test_analytic_potential_lookup(self):
        V = analytic_potential(SystemSpec(name="ou", params={"theta": 2.0},
                                          dim=1))
        assert V([1.0]) == pytest.approx(1.0)
        assert analytic_potential(SystemSpec(name="lorenz", params={},
                                             dim=3)) is None
        Vdw = analytic_potential(SystemSpec(name="double_well", params={},
                                            dim=1))
        assert Vdw([1.0]) == pytest.approx(-0.25)
        # one point gives a float, stacked points (M, 1) give (M,)
        X = np.array([[1.0], [0.0], [-2.0]])
        for pot, want in ((V, [1.0, 0.0, 4.0]), (Vdw, [-0.25, 0.0, 2.0])):
            assert np.ndim(pot([1.0])) == 0
            assert pot(X).shape == (3,)
            assert np.allclose(pot(X), want, rtol=1e-15, atol=0.0)
        # powers round differently on arrays than on scalars: each stacked
        # value is within 2 eps of the magnitudes of its terms
        x = np.linspace(-3.0, 3.0, 601)
        eps = np.finfo(float).eps
        for pot, terms in ((V, x ** 2), (Vdw, 0.25 * x ** 4 + 0.5 * x ** 2)):
            single = np.array([pot([c]) for c in x])
            assert np.all(np.abs(pot(x[:, None]) - single) <= 2 * eps * terms)

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradiform import (SystemSpec, VectorField, build_system, eval_field,
                       jacobian, sample_ball)
from gradiform.fields import _matvec
from gradiform.zoo import (REGISTRY, describe_system, double_well,
                           jj_circuit, jj_circuit_linear, lorenz, ou,
                           quadratic, rotation)


def assert_descends(field, V, h=1e-5):
    """g = -dV/dx on [-2, 2], by central differences of the closed form V."""
    x = np.linspace(-2.0, 2.0, 9)
    dV = (V(x + h) - V(x - h)) / (2 * h)
    assert np.allclose(eval_field(field, x[:, None])[:, 0], -dV,
                       rtol=1e-8, atol=1e-8)


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
        field = double_well()
        # g = -dV/dx, so the fixed points sit at the potential extrema
        for x0 in (-1.0, 0.0, 1.0):
            assert eval_field(field, [x0])[0] == pytest.approx(0.0)
        assert_descends(field, lambda x: 0.25 * x ** 4 - 0.5 * x ** 2)

    def test_ou_potential(self):
        field = ou(theta=2.0)
        assert eval_field(field, [0.5])[0] == pytest.approx(-1.0)
        assert_descends(field, lambda x: x ** 2)  # theta x^2 / 2
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
        ("double_well", lambda: double_well(), 1),
        ("ou", lambda: ou(1.5), 1),
    ])
    def test_matches_central_difference(self, name, builder, dim):
        field = builder()
        for x in sample_ball(dim, 16, 2.0, seed=hash(name) % 1000):
            Ja = jacobian(field, x)
            Jc = jacobian(VectorField(field.dim, field.func,
                                      vectorized=field.vectorized), x)
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


def jj_circuit_linear_ref(i, r, beta_c, beta_L):
    """The small-angle circuit's matrix and offset, typed out by hand."""
    J = np.array([[1.0, 0.0, 0.0],
                  [-r / beta_c, -1.0 / beta_c, -1.0 / beta_c],
                  [1.0 / beta_L, 0.0, -1.0 / beta_L]])
    return J, np.array([0.0, i / beta_c, 0.0])


signed = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0]))


@settings(max_examples=300, deadline=None)
@given(params=st.tuples(signed, signed, positive, positive),
       X=st.lists(st.lists(signed, min_size=3, max_size=3), min_size=1,
                  max_size=4))
@example(params=(-0.0, 1.0, 1.0, 1.0), X=[[1.0, 2.0, 3.0]])
@example(params=(-0.0, -0.0, 1.0, 1.0), X=[[1.0, 2.0, 3.0]])
def test_jj_circuit_linear_is_the_hand_typed_formula(params, X):
    # the small-angle circuit is jj_circuit's linearization: its matrix
    # and offset are the circuit's Jacobian and value at the origin
    i, r = params[:2]
    field = jj_circuit_linear(*params)
    J, b = jj_circuit_linear_ref(*params)
    b0 = jj_circuit(*params).func(np.zeros(3))
    X = np.vstack([X, np.zeros(3), -np.zeros(3)])  # the signed origins
    want = [_matvec(J, X) + b, _matvec(J, X[0]) + b]
    got = [field.func(X), field.func(X[0])]
    if i == 0.0 and np.signbit(i) and np.signbit(r):
        # the one exception: for i = -0.0 and a negative or -0.0 r, the
        # circuit's -r * 0.0 + i is +0.0 where i / beta_c is -0.0; that
        # can show only in a value that is exactly zero
        assert np.array_equal(b0, b) and not np.signbit(b0[1])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    else:
        assert b0.tobytes() == b.tobytes()
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert field.jac(X[0]).tobytes() == J.tobytes()
    assert all(Jx.tobytes() == J.tobytes() for Jx in field.jac(X))


def test_jj_circuit_linear_overflow_is_silent():
    # a parameter that overflows the matrix or offset gives inf with no
    # warning, as the formula's division of Python floats does; a report
    # then names the non-finite entry where it evaluates it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = jj_circuit_linear(i=1.0, beta_c=1e-310)
    J, _ = jj_circuit_linear_ref(1.0, 1.0, 1e-310, 1.0)
    assert np.isinf(J).any()
    assert field.jac(np.zeros(3)).tobytes() == J.tobytes()


KERNEL_FIELDS = {
    "lorenz": lambda data: lorenz(),
    "lorenz_drawn": lambda data: lorenz(
        *data.draw(st.tuples(positive, positive, positive))),
    "jj_circuit": lambda data: jj_circuit(),
    "double_well": lambda data: double_well(),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(KERNEL_FIELDS)))
def test_point_kernel_has_the_bits_of_func(data, name):
    # a lone RK4 start steps on the kernel, every other caller on func:
    # both give the same bits, overflows to inf and NaN included
    field = KERNEL_FIELDS[name](data)
    coords = st.one_of(st.floats(-5.0, 5.0), st.floats(-1e200, 1e200),
                       st.sampled_from([0.0, -0.0]))
    x = np.array(data.draw(st.lists(coords, min_size=field.dim,
                                    max_size=field.dim)))
    got = np.array(field.point(x.tolist()))
    want = field.func(x)
    assert got.shape == want.shape and got.dtype == want.dtype == float
    assert got.tobytes() == want.tobytes()


def test_kernel_fields():
    # the linear fields multiply through _matvec and have no kernel: a
    # lone start steps on their func
    have = {name for name in REGISTRY
            if build_system(SystemSpec(name, {}, 0)).point is not None}
    assert have == {"lorenz", "jj_circuit", "double_well"}


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
        # the builder's own keyword check: Python's TypeError names it
        with pytest.raises(TypeError, match="'gamma'"):
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

    def test_quadratic_default_entry(self):
        # with no entry given, the builder uses its one default, q_0_0
        field = build_system(SystemSpec(name="quadratic", params={}, dim=0))
        assert field.dim == 1
        assert eval_field(field, [2.0])[0] == -2.0

    def test_entries_are_the_builders(self):
        # one definition per system: the registry holds the builder
        # itself, whose keyword defaults are the system's
        assert REGISTRY["lorenz"]["build"] is lorenz
        assert all(set(entry) == {"build", "grid_range"}
                   for entry in REGISTRY.values())
        field = build_system(SystemSpec(name="lorenz",
                                        params={"rho": 14.0}, dim=0))
        assert eval_field(field, [1.0, 1.0, 1.0]).tolist() \
            == eval_field(lorenz(rho=14.0), [1.0, 1.0, 1.0]).tolist()

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_description_builds_the_default_system(self, name):
        # describe_system's defaults build the default system, whose dim
        # it gives (quadratic's is its entries': None); a copy each call
        info = describe_system(name)
        assert info["grid_range"] == REGISTRY[name]["grid_range"]
        field = build_system(SystemSpec(name=name, params=info["defaults"],
                                        dim=0))
        default = build_system(SystemSpec(name=name, params={}, dim=0))
        assert info["dim"] == (None if name == "quadratic" else field.dim)
        x = np.linspace(0.5, 1.5, field.dim)
        assert eval_field(field, x).tobytes() \
            == eval_field(default, x).tobytes()
        info["defaults"]["extra"] = 1.0
        assert "extra" not in describe_system(name)["defaults"]

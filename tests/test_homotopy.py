import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradiform import (OneForm, QuadratureRule, VectorField, antiexact_part,
                       decompose, eval_field, exact_part, jacobian, potential,
                       sample_ball, transform_field)
from gradiform.zoo import (jj_circuit, jj_circuit_linear, lorenz, quadratic,
                          rotation)

RULE = QuadratureRule.gauss_legendre(64)


def lorenz_potential(x, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    # term-by-term integration of sum_i x_i g_i(t x) over t in [0,1]
    return ((sigma + rho) * x[0] * x[1] / 2 - sigma * x[0] ** 2 / 2
            - x[1] ** 2 / 2 - beta * x[2] ** 2 / 2)


class TestQuadrature:
    def test_weights_sum_to_one(self):
        for n in (2, 8, 32, 64, 256):
            rule = QuadratureRule.gauss_legendre(n)
            assert abs(rule.weights.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("deg", range(10))
    def test_polynomial_exactness(self, deg):
        rule = QuadratureRule.gauss_legendre(8)  # exact through degree 15
        approx = rule.integrate(rule.nodes ** deg)
        assert abs(approx - 1.0 / (deg + 1)) < 1e-12

    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([-0.1]), weights=np.array([1.0]))

    @pytest.mark.parametrize("n", [1, 8, 64, 256])
    def test_shared_rule_is_leggauss_and_read_only(self, n):
        rule = QuadratureRule.gauss_legendre(n)
        x, w = np.polynomial.legendre.leggauss(n)
        assert rule.nodes.tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert rule.weights.tobytes() == (0.5 * w).tobytes()
        assert QuadratureRule.gauss_legendre(n) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.5
        with pytest.raises(ValueError):
            rule.weights[0] = 0.5


class TestPotential:
    def test_identity_field(self):
        form = OneForm(quadratic(np.eye(2)))
        assert potential(form, [1.0, 1.0], RULE) == pytest.approx(1.0)

    def test_lorenz_closed_form(self):
        form = OneForm(lorenz(10, 28, 8 / 3))
        x = np.array([1.0, 1.0, 1.0])
        assert potential(form, x, RULE) == pytest.approx(
            lorenz_potential(x), abs=1e-12)

    def test_quadratic_cross(self):
        form = OneForm(quadratic([[2.0, 1.0], [1.0, 3.0]]))
        assert potential(form, [1.0, 0.0], RULE) == pytest.approx(1.0)

    def test_zero_at_origin(self):
        form = OneForm(lorenz())
        assert potential(form, np.zeros(3), RULE) == 0.0

    def test_adaptive_matches_fixed(self):
        form = OneForm(lorenz())
        x = np.array([0.3, -1.2, 0.7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # converges before the cap
            adaptive = potential(form, x)
        assert adaptive == pytest.approx(potential(form, x, RULE), abs=1e-10)

    def test_adaptive_cap_warns(self):
        # a kink at t = 0.3 on the ray keeps Gauss-Legendre from converging
        kink = VectorField(dim=1, func=lambda x: np.abs(x - 0.3))
        with pytest.warns(RuntimeWarning, match="not converged at 256"):
            V = potential(OneForm(kink), [1.0])
        assert V == pytest.approx(0.29, abs=1e-4)


class TestExactAntiexact:
    def test_symmetric_field_all_exact(self):
        Q = np.array([[2.0, 1.0], [1.0, 3.0]])
        form = OneForm(quadratic(Q))
        x = np.array([0.7, -1.3])
        assert np.allclose(exact_part(form, x, RULE), Q @ x, atol=1e-12)
        assert np.allclose(antiexact_part(form, x, RULE), 0.0, atol=1e-12)

    def test_lorenz_parts(self):
        form = OneForm(lorenz(10, 28, 8 / 3))
        x = np.array([1.0, 1.0, 1.0])
        assert np.allclose(exact_part(form, x, RULE),
                           [9.0, 18.0, -8.0 / 3.0], atol=1e-10)
        ae = antiexact_part(form, x, RULE)
        assert np.allclose(ae, [-9.0, 8.0, 1.0], atol=1e-10)
        assert abs(np.dot(ae, x)) < 1e-10  # radial annihilation

    def test_rotation_all_antiexact(self):
        form = OneForm(rotation())
        x = np.array([1.0, 0.0])
        assert potential(form, x, RULE) == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(exact_part(form, x, RULE), 0.0, atol=1e-12)
        assert np.allclose(antiexact_part(form, x, RULE), [0.0, 1.0],
                           atol=1e-12)

    def test_origin_decomposition(self):
        field = VectorField(dim=2,
                            func=lambda x: np.array([1.0 + x[1], x[0] ** 2]))
        form = OneForm(field)
        x = np.zeros(2)
        ae = antiexact_part(form, x, RULE)
        ex = exact_part(form, x, RULE)
        assert np.allclose(ae, 0.0, atol=1e-12)
        assert np.allclose(ex, [1.0, 0.0], atol=1e-8)


class TestDecompose:
    def test_identity(self):
        d = decompose(OneForm(quadratic(np.eye(2))), [1.0, 1.0], RULE)
        assert d.potential == pytest.approx(1.0)
        assert np.allclose(d.exact_part, [1.0, 1.0])
        assert np.allclose(d.antiexact_part, 0.0, atol=1e-12)
        assert d.reconstruction_residual < 1e-12

    def test_lorenz_reconstruction(self):
        d = decompose(OneForm(lorenz(10, 28, 8 / 3)), [1.0, 1.0, 1.0], RULE)
        assert np.allclose(d.exact_part + d.antiexact_part,
                           [0.0, 26.0, -5.0 / 3.0], atol=1e-8)
        assert d.reconstruction_residual < 1e-8

    def test_gradient_consistency_finite_difference(self):
        form = OneForm(lorenz(10, 28, 8 / 3))
        x = np.array([0.4, -0.9, 1.1])
        ex = exact_part(form, x, RULE)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (potential(form, x + e, RULE)
                  - potential(form, x - e, RULE)) / (2 * h)
            assert abs(fd - ex[i]) < 1e-6

    def test_exact_part_curl_free(self):
        form = OneForm(lorenz(10, 28, 8 / 3))
        x = np.array([0.5, 0.8, -0.3])
        h = 1e-5
        J = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            J[:, j] = (exact_part(form, x + e, RULE)
                       - exact_part(form, x - e, RULE)) / (2 * h)
        assert np.max(np.abs(J - J.T)) < 1e-6


def dG(field, x):
    """Coefficient matrix J - J^T of dG at one point."""
    J = jacobian(field, x)
    return J - J.T


class TestDGMatrix:
    def test_symmetric_zero(self):
        A = dG(quadratic([[2.0, 1.0], [1.0, 3.0]]), [0.3, 0.4])
        assert np.all(A == 0.0)

    def test_lorenz_entries(self):
        A = dG(lorenz(10, 28, 8 / 3), [1.0, 1.0, 1.0])
        assert A[0][1] == pytest.approx(-17.0)
        assert A[1][2] == pytest.approx(-2.0)
        assert A[0][2] == pytest.approx(-1.0)
        assert np.allclose(A, -A.T)

    def test_jj_linear_entries(self):
        A = dG(jj_circuit_linear(r=1, beta_c=1, beta_L=1), np.zeros(3))
        assert A[0][1] == pytest.approx(1.0)
        assert A[1][2] == pytest.approx(-1.0)
        assert A[0][2] == pytest.approx(-1.0)


def random_cubic_field(seed):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((3, 3))
    C = rng.standard_normal((3, 3))

    def func(x):
        return Q @ x + C @ (x * x)

    def jac(x):
        return Q + C * (2.0 * x)[None, :]

    return VectorField(dim=3, func=func, jac=jac)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       coords=st.lists(st.floats(-2, 2), min_size=3, max_size=3))
def test_reconstruction_and_radial_annihilation(seed, coords):
    x = np.array(coords)
    field = random_cubic_field(seed)
    d = decompose(OneForm(field), x, RULE)
    assert d.reconstruction_residual < 1e-8 * (1 + np.max(np.abs(d.point)))
    assert abs(np.dot(d.antiexact_part, x)) < 1e-10 * (
        1 + np.max(np.abs(d.antiexact_part)) * np.max(np.abs(x)))


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["lorenz", "jj_circuit"]),
       coords=st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_decompose_matches_separate_parts(name, coords):
    # decompose samples the ray once; the parts computed one by one must
    # agree to the last bit
    form = OneForm(lorenz() if name == "lorenz" else jj_circuit(i=0.3))
    x = np.array(coords)
    d = decompose(form, x, RULE)
    assert d.potential == potential(form, x, RULE)
    assert np.array_equal(d.exact_part, exact_part(form, x, RULE))
    assert np.array_equal(d.antiexact_part, antiexact_part(form, x, RULE))


def _stack_fields():
    cubic = random_cubic_field(3)
    return {
        "lorenz": lorenz(), "jj_circuit": jj_circuit(i=0.3),
        "quadratic": quadratic([[1.0, 2.0, 0.5], [-1.0, 0.3, 2.0],
                                [0.7, -0.2, -1.5]]),
        "lorenz@D": transform_field(lorenz(), np.diag([1.0, 0.8, 1.3])),
        # written for single points: the pointwise fallback
        "cubic": VectorField(dim=3, func=cubic.func, jac=cubic.jac),
    }


STACK_FIELDS = _stack_fields()


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(STACK_FIELDS)),
       adaptive=st.booleans(),
       X=st.integers(1, 40).flatmap(lambda m: st.lists(
           st.lists(st.floats(-2, 2), min_size=3, max_size=3),
           min_size=m, max_size=m)).map(np.array))
def test_stacked_rows_equal_single_points(name, adaptive, X):
    # each point's ray quadrature, and with quad=None its refinement, does
    # not depend on how many points share the batch
    form = OneForm(STACK_FIELDS[name])
    quad = None if adaptive else RULE
    V = potential(form, X, quad)
    d = decompose(form, X, quad)
    assert V.shape == (len(X),)
    for m, x in enumerate(X):
        assert V[m] == potential(form, x, quad)
        one = decompose(form, x, quad)
        assert d.potential[m] == one.potential
        assert np.array_equal(d.exact_part[m], one.exact_part)
        assert np.array_equal(d.antiexact_part[m], one.antiexact_part)
        assert d.reconstruction_residual[m] == one.reconstruction_residual


@pytest.mark.parametrize("name", sorted(STACK_FIELDS))
def test_potential_matches_pointwise_loop(name):
    # reference: the integrand node by node through eval_field; the batch
    # sums nodes and coordinates in another order, so the two agree to
    # within the rounding of K + N terms of the integrand's magnitude
    field = STACK_FIELDS[name]
    X = sample_ball(3, 16, 2.0, seed=8)
    V = potential(OneForm(field), X, RULE)
    for x, v in zip(X, V):
        terms = np.array([w * x * eval_field(field, t * x)
                          for t, w in zip(RULE.nodes, RULE.weights)])
        bound = 2 * (len(RULE.nodes) + 3) * np.finfo(float).eps \
            * np.abs(terms).sum()
        assert abs(v - terms.sum()) <= bound


def test_adaptive_refines_each_point_on_its_own():
    # the kinked field needs all 256 nodes at x = 1 but converges at 0.2
    kink = OneForm(VectorField(dim=1, func=lambda x: np.abs(x - 0.3)))
    with pytest.warns(RuntimeWarning, match="at 1 point"):
        V = potential(kink, [[0.2], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert V[0] == potential(kink, [0.2])
    assert V[0] == pytest.approx(0.04, abs=1e-12)  # 0.2 * (0.3 - 0.1)

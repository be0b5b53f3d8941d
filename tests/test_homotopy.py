import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradiform import (MatrixFamily, QuadratureRule, VectorField,
                       antiexact_part, consistency_check, decompose,
                       eval_field, jacobian, loop_integral, potential,
                       sample_ball, transform_field)
from gradiform.cli import DEFAULT_CONFIG
from gradiform.homotopy import DEFAULT_ORDER
from gradiform.zoo import (double_well, jj_circuit, jj_circuit_linear,
                          lorenz, ou, quadratic, rotation)

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

    @pytest.mark.parametrize("weights, match", [
        ([0.5, 0.0], "weights must be positive"),
        ([1.0, -0.5], "weights must be positive"),
        ([1.0], "equal length"), ([[0.5, 0.5]], "equal length")])
    def test_rejects_bad_weights(self, weights, match):
        with pytest.raises(ValueError, match=match):
            QuadratureRule(nodes=[0.25, 0.75], weights=weights)

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
        field = quadratic(np.eye(2))
        assert potential(field, [1.0, 1.0], RULE) == pytest.approx(1.0)

    def test_lorenz_closed_form(self):
        field = lorenz(10, 28, 8 / 3)
        x = np.array([1.0, 1.0, 1.0])
        assert potential(field, x, RULE) == pytest.approx(
            lorenz_potential(x), abs=1e-12)

    def test_quadratic_cross(self):
        field = quadratic([[2.0, 1.0], [1.0, 3.0]])
        assert potential(field, [1.0, 0.0], RULE) == pytest.approx(1.0)

    def test_zero_at_origin(self):
        field = lorenz()
        assert potential(field, np.zeros(3), RULE) == 0.0

    def test_adaptive_matches_fixed(self):
        # quad=None is the shared DEFAULT_ORDER-node rule in every ray
        # integral, bit for bit and without a warning; the CLI's default
        # quadrature_order is the same number
        assert DEFAULT_ORDER == DEFAULT_CONFIG["quadrature_order"] == 64
        rule = QuadratureRule.gauss_legendre(DEFAULT_ORDER)
        field = lorenz()
        X = sample_ball(3, 5, 1.5, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert potential(field, X).tobytes() \
                == potential(field, X, rule).tobytes()
            assert antiexact_part(field, X).tobytes() \
                == antiexact_part(field, X, rule).tobytes()
            d, ref = decompose(field, X), decompose(field, X, rule)
            for name in ("potential", "exact_part", "antiexact_part",
                         "reconstruction_residual"):
                assert getattr(d, name).tobytes() \
                    == getattr(ref, name).tobytes()
            assert loop_integral(field, 0.7, axes=(0, 2)) \
                == loop_integral(field, 0.7, axes=(0, 2), quad=rule)
            family = MatrixFamily(dim=3, degree=1)
            theta = family.identity_params()
            assert consistency_check(field, family, theta, X) \
                == consistency_check(field, family, theta, X, rule)


class TestExactAntiexact:
    def test_symmetric_field_all_exact(self):
        Q = np.array([[2.0, 1.0], [1.0, 3.0]])
        field = quadratic(Q)
        x = np.array([0.7, -1.3])
        assert np.allclose(decompose(field, x, RULE).exact_part, Q @ x,
                           atol=1e-12)
        assert np.allclose(antiexact_part(field, x, RULE), 0.0, atol=1e-12)

    def test_lorenz_parts(self):
        field = lorenz(10, 28, 8 / 3)
        x = np.array([1.0, 1.0, 1.0])
        assert np.allclose(decompose(field, x, RULE).exact_part,
                           [9.0, 18.0, -8.0 / 3.0], atol=1e-10)
        ae = antiexact_part(field, x, RULE)
        assert np.allclose(ae, [-9.0, 8.0, 1.0], atol=1e-10)
        assert abs(np.dot(ae, x)) < 1e-10  # radial annihilation

    def test_rotation_all_antiexact(self):
        field = rotation()
        x = np.array([1.0, 0.0])
        assert potential(field, x, RULE) == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(decompose(field, x, RULE).exact_part, 0.0,
                           atol=1e-12)
        assert np.allclose(antiexact_part(field, x, RULE), [0.0, 1.0],
                           atol=1e-12)

    def test_origin_decomposition(self):
        field = VectorField(dim=2,
                            func=lambda x: np.array([1.0 + x[1], x[0] ** 2]))
        x = np.zeros(2)
        ae = antiexact_part(field, x, RULE)
        ex = decompose(field, x, RULE).exact_part
        assert np.allclose(ae, 0.0, atol=1e-12)
        assert np.allclose(ex, [1.0, 0.0], atol=1e-8)


class TestDecompose:
    def test_identity(self):
        d = decompose(quadratic(np.eye(2)), [1.0, 1.0], RULE)
        assert d.potential == pytest.approx(1.0)
        assert np.allclose(d.exact_part, [1.0, 1.0])
        assert np.allclose(d.antiexact_part, 0.0, atol=1e-12)
        assert d.reconstruction_residual < 1e-12

    def test_lorenz_reconstruction(self):
        d = decompose(lorenz(10, 28, 8 / 3), [1.0, 1.0, 1.0], RULE)
        assert np.allclose(d.exact_part + d.antiexact_part,
                           [0.0, 26.0, -5.0 / 3.0], atol=1e-8)
        assert d.reconstruction_residual < 1e-8

    def test_gradient_consistency_finite_difference(self):
        field = lorenz(10, 28, 8 / 3)
        x = np.array([0.4, -0.9, 1.1])
        ex = decompose(field, x, RULE).exact_part
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (potential(field, x + e, RULE)
                  - potential(field, x - e, RULE)) / (2 * h)
            assert abs(fd - ex[i]) < 1e-6

    def test_exact_part_curl_free(self):
        field = lorenz(10, 28, 8 / 3)
        x = np.array([0.5, 0.8, -0.3])
        h = 1e-5
        J = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            J[:, j] = (decompose(field, x + e, RULE).exact_part
                       - decompose(field, x - e, RULE).exact_part) / (2 * h)
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
    d = decompose(field, x, RULE)
    assert d.reconstruction_residual < 1e-8 * (1 + np.max(np.abs(d.point)))
    assert abs(np.dot(d.antiexact_part, x)) < 1e-10 * (
        1 + np.max(np.abs(d.antiexact_part)) * np.max(np.abs(x)))


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["lorenz", "jj_circuit"]),
       coords=st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_decompose_matches_separate_parts(name, coords):
    # decompose samples the ray once; the parts that have their own
    # entry point must agree with it to the last bit
    field = lorenz() if name == "lorenz" else jj_circuit(i=0.3)
    x = np.array(coords)
    d = decompose(field, x, RULE)
    assert d.potential == potential(field, x, RULE)
    assert np.array_equal(d.antiexact_part, antiexact_part(field, x, RULE))


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
       X=st.integers(1, 40).flatmap(lambda m: st.lists(
           st.lists(st.floats(-2, 2), min_size=3, max_size=3),
           min_size=m, max_size=m)).map(np.array))
def test_stacked_rows_equal_single_points(name, X):
    # each point's ray quadrature does not depend on how many points
    # share the batch
    field = STACK_FIELDS[name]
    V = potential(field, X, RULE)
    d = decompose(field, X, RULE)
    assert V.shape == (len(X),)
    for m, x in enumerate(X):
        assert V[m] == potential(field, x, RULE)
        one = decompose(field, x, RULE)
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
    V = potential(field, X, RULE)
    for x, v in zip(X, V):
        terms = np.array([w * x * eval_field(field, t * x)
                          for t, w in zip(RULE.nodes, RULE.weights)])
        bound = 2 * (len(RULE.nodes) + 3) * np.finfo(float).eps \
            * np.abs(terms).sum()
        assert abs(v - terms.sum()) <= bound


def _closed_case(data):
    """A gradient field g = -grad V and its closed form V(X) on stacked
    points: double_well, ou, or quadratic with Q = -(A A^T + c I)."""
    name = data.draw(st.sampled_from(["double_well", "ou", "quadratic"]))
    if name == "double_well":
        return 1, double_well(), lambda X: (0.25 * X[:, 0] ** 4
                                            - 0.5 * X[:, 0] ** 2)
    if name == "ou":
        theta = data.draw(st.floats(0.1, 10.0))
        return 1, ou(theta), lambda X: theta * X[:, 0] ** 2 / 2
    n = data.draw(st.integers(1, 4))
    A = data.draw(hnp.arrays(float, (n, n), elements=st.floats(-2, 2)))
    Q = -(A @ A.T + data.draw(st.floats(0.01, 1.0)) * np.eye(n))
    return n, quadratic(Q), lambda X: -0.5 * np.einsum("mi,ij,mj->m",
                                                        X, Q, X)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), count=st.integers(1, 32),
       radius=st.floats(0.01, 3.0), seed=st.integers(0, 10 ** 6))
def test_ray_potential_is_the_closed_form(data, count, radius, seed):
    # the Poincare lemma: for a closed form the ray potential is exact,
    # -k(G)(x) = V(x) - V(0), which graham's reference rests on.  Both
    # sides min-shifted, as graham compares them; 3000 random cases
    # measured at most 10 ulps of 1 + max|V| (double_well), 4 (quadratic)
    # and 3 (ou)
    dim, field, V = _closed_case(data)
    X = sample_ball(dim, count, radius, seed)
    ref, want = -potential(field, X, RULE), V(X)
    err = np.max(np.abs((ref - ref.min()) - (want - want.min())))
    assert err <= 32 * np.finfo(float).eps * (1.0 + np.max(np.abs(want)))

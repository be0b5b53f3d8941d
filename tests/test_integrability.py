from itertools import combinations

import numpy as np
import pytest

from gradiform import (FieldEvalError, QuadratureRule, Verdict, VectorField,
                       circle_loop, classify, eval_field, jacobian,
                       loop_integral, sample_ball)
from gradiform.integrability import Loop
from gradiform.zoo import jj_circuit, lorenz, quadratic, rotation

SAMPLES3 = sample_ball(3, 32, 1.5, seed=11)


def scaled_gradient_field():
    # f = h(x) grad V with h = 1 + x_1^2, V = |x|^2 / 2: Frobenius
    # integrable (integrating factor 1/h) but not closed
    def func(x):
        return (1.0 + x[0] ** 2) * x

    def jac(x):
        J = (1.0 + x[0] ** 2) * np.eye(3)
        J[:, 0] += 2.0 * x[0] * x
        return J

    return VectorField(dim=3, func=func, jac=jac)


def swirl4():
    """A nonlinear 4-d field, vectorized, without an analytic Jacobian."""
    def func(p):
        x0, x1, x2, x3 = p.T
        return np.array([x1 * x2 - x0, x2 * x3 + x0, x3 * x0 - x1,
                         x0 * x1 + x2]).T

    return VectorField(dim=4, func=func, vectorized=True)


def frobenius_reference(f, J):
    """The wedge obstruction triple by triple."""
    worst = 0.0
    for l, k, i in combinations(range(len(f)), 3):
        term = (f[l] * (J[i, k] - J[k, i])
                + f[k] * (J[l, i] - J[i, l])
                + f[i] * (J[k, l] - J[l, k]))
        worst = max(worst, abs(term))
    return worst


def loop_integral_reference(field, loop, rule, panels=8):
    """Circulation summed node by node, one field evaluation each, and
    the sum of the terms' magnitudes |w| |g_j v_j|."""
    total, magnitude = 0.0, 0.0
    width = 1.0 / panels
    for p in range(panels):
        for t, w in zip(rule.nodes, rule.weights):
            s = np.array([(p + t) * width])
            g = eval_field(field, loop.gamma(s)[0])
            v = loop.dgamma(s)[0]
            total += w * width * float(np.dot(g, v))
            magnitude += w * width * float(np.sum(np.abs(g * v)))
    return total, magnitude


class TestClosedness:
    """Closedness as classify reports it: the Jacobian asymmetry."""

    def test_symmetric_quadratic_closed(self):
        field = quadratic([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5],
                           [0.0, 0.5, 1.0]])
        rep = classify(field, SAMPLES3)
        assert rep.max_asymmetry == 0.0
        assert rep.verdict is Verdict.CLOSED

    def test_lorenz_not_closed(self):
        rep = classify(lorenz(), SAMPLES3)
        assert rep.verdict is not Verdict.CLOSED

    def test_jj_not_closed(self):
        rep = classify(jj_circuit(), SAMPLES3)
        assert rep.verdict is not Verdict.CLOSED

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            classify(lorenz(), np.empty((0, 3)))

    def test_overflowing_defect_is_a_field_error(self):
        # at |x| = 1e120 Lorenz's g x J overflows: the wedge obstruction
        # is non-finite, and no verdict comes from comparing it
        X = 1e120 * np.array([[0.6, -0.5, 0.6], [0.1, 0.2, 0.3]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FieldEvalError, match="asymmetry/defect"):
                classify(lorenz(), X)


class TestFrobeniusDefect:
    def test_gradient_field_zero(self):
        field = quadratic([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5],
                           [0.0, 0.5, 1.0]])
        for x in SAMPLES3[:8]:
            assert classify(field, x).frobenius_defect_max < 1e-12

    def test_lorenz_oracle(self):
        # f=(0,26,-5/3), curl f=(2,-1,17): |f.curl f| = 163/3
        val = classify(lorenz(10, 28, 8 / 3),
                       [1.0, 1.0, 1.0]).frobenius_defect_max
        assert val == pytest.approx(163.0 / 3.0, abs=1e-9)

    def test_dimension_two_is_zero(self):
        assert classify(rotation(), [0.3, 0.8]).frobenius_defect_max == 0.0

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="point has shape"):
            classify(lorenz(), np.ones(2))

    def test_four_dims_against_triple_loop(self):
        field = swirl4()
        X = sample_ball(4, 16, 1.5, seed=3)
        ref = [frobenius_reference(eval_field(field, x), jacobian(field, x))
               for x in X]
        for x, r in zip(X, ref):
            assert classify(field, x).frobenius_defect_max == r
        assert classify(field, X).frobenius_defect_max == max(ref)
        assert max(ref) > 0.1

    def test_quadratic_scaling(self):
        # defect is bilinear in f and its derivatives: scaling f by c
        # scales the defect by c^2
        x = np.array([0.4, -0.7, 1.1])
        base = classify(lorenz(), x).frobenius_defect_max
        lor = lorenz()
        scaled = VectorField(dim=3, func=lambda p: 3.0 * lor.func(p),
                             jac=lambda p: 3.0 * lor.jac(p))
        assert classify(scaled, x).frobenius_defect_max == pytest.approx(
            9.0 * base, rel=1e-12)


class TestLoopIntegral:
    def test_gradient_field_zero_circulation(self):
        field = quadratic([[2.0, 1.0], [1.0, 3.0]])
        assert abs(loop_integral(field, circle_loop())) < 1e-10

    def test_rotation_circulation(self):
        val = loop_integral(rotation(), circle_loop())
        assert val == pytest.approx(2.0 * np.pi, abs=1e-6)

    def test_lorenz_nonzero_witness(self):
        loop = circle_loop(radius=1.0, center=[0.0, 0.0, 1.0], dim=3)
        val = loop_integral(lorenz(), loop)
        # quadrature oracle: circulation of (g1, g2) around the circle;
        # dominated by the rho*x dy term giving ~ rho*pi minus sigma*pi
        assert abs(val) > 1.0

    @pytest.mark.parametrize("field, loop", [
        (lorenz(), circle_loop(radius=1.0, center=[0.0, 0.0, 1.0], dim=3)),
        (jj_circuit(), circle_loop(radius=1.0, dim=3, axes=(1, 2))),
        (lorenz(), circle_loop(radius=0.6, center=[0.3, -0.4, 0.8], dim=3,
                               axes=(0, 2))),
        (rotation(), circle_loop(radius=0.7)),
        (rotation(), circle_loop(radius=1.3, center=[0.2, -0.1]))])
    def test_matches_node_by_node_sum(self, field, loop):
        # the batch takes each g.v as an elementwise sum where the node
        # loop takes a BLAS dot; both then add the nodes in order.  Each
        # dot is within N eps of the magnitude of its products, and each
        # of the K additions rounds within eps of the magnitude so far
        rule = QuadratureRule.gauss_legendre(16)
        ref, magnitude = loop_integral_reference(field, loop, rule)
        bound = (2 * field.dim + 2 * 8 * 16) * np.finfo(float).eps
        assert abs(loop_integral(field, loop, rule) - ref) \
            <= bound * magnitude

    def test_open_curve_rejected(self):
        bad = Loop(gamma=lambda s: np.stack([s, 0.0 * s], axis=1),
                   dgamma=lambda s: np.stack([1.0 + 0.0 * s, 0.0 * s],
                                             axis=1))
        with pytest.raises(ValueError, match="not closed"):
            loop_integral(rotation(), bad)

    @pytest.mark.parametrize("gamma, dgamma", [
        # one point, not (K, N)
        (lambda s: np.array([1.0, 0.0]), circle_loop().dgamma),
        (lambda s: np.zeros((len(s), 3)), circle_loop().dgamma),  # wrong N
        (circle_loop().gamma, lambda s: np.zeros((len(s) + 1, 2)))])
    def test_values_not_k_by_n_rejected(self, gamma, dgamma):
        with pytest.raises(ValueError, match="expected"):
            loop_integral(rotation(), Loop(gamma, dgamma))

    def test_one_loop_evaluation(self):
        # the closedness check, then all nodes at once: gamma twice and
        # dgamma once, whatever the number of nodes
        base = circle_loop(radius=0.5, dim=3, axes=(0, 2))
        for order in (16, 64):
            calls = []

            def gamma(s):
                calls.append(("gamma", len(s)))
                return base.gamma(s)

            def dgamma(s):
                calls.append(("dgamma", len(s)))
                return base.dgamma(s)

            loop_integral(lorenz(), Loop(gamma, dgamma),
                          QuadratureRule.gauss_legendre(order))
            nodes = 8 * order
            assert calls == [("gamma", 2), ("gamma", nodes),
                             ("dgamma", nodes)]


class TestClassify:
    def test_field_calls_do_not_grow_with_samples(self):
        lor = lorenz()
        counts = []
        for n_samples in (4, 32):
            calls = []

            def func(x):
                calls.append(np.shape(x))
                return lor.func(x)

            classify(VectorField(dim=3, func=func, vectorized=True),
                     sample_ball(3, n_samples, 1.0, seed=4),
                     loops=[circle_loop(dim=3)])
            counts.append(len(calls))
        # g, its central-difference Jacobian and the loop: one call each
        assert counts == [3, 3]

    def test_symmetric_quadratic(self):
        field = quadratic([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5],
                           [0.0, 0.5, 1.0]])
        rep = classify(field, SAMPLES3)
        assert rep.verdict is Verdict.CLOSED
        assert rep.frobenius_defect_max <= 1e-8

    def test_lorenz_non_integrable(self):
        rep = classify(lorenz(), SAMPLES3)
        assert rep.verdict is Verdict.NON_INTEGRABLE

    def test_integrating_factor_case(self):
        rep = classify(scaled_gradient_field(), SAMPLES3)
        assert rep.verdict is Verdict.FROBENIUS_INTEGRABLE

    def test_loops_reported(self):
        rep = classify(rotation(), sample_ball(2, 8, 1.0, seed=2),
                       loops=[circle_loop()])
        assert len(rep.loop_integrals) == 1
        assert rep.loop_integrals[0][1] == pytest.approx(2 * np.pi, abs=1e-6)

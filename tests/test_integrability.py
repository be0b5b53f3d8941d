from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradiform import (FieldEvalError, QuadratureRule, Verdict, VectorField,
                       classify, eval_field, jacobian, loop_integral,
                       sample_ball)
from gradiform.integrability import PANELS
from gradiform.zoo import jj_circuit, lorenz, ou, quadratic, rotation

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


def circle_curve(radius, center, axes=(0, 1)):
    """The circle as a curve gamma(s) and its derivative dgamma(s),
    parameters (K,) to points (K, N): the reference for the nodes that
    loop_integral builds in place."""
    c, (i, j) = np.asarray(center, dtype=float), axes

    def gamma(s):
        p = np.tile(c, (len(s), 1))
        p[:, i] += radius * np.cos(2 * np.pi * s)
        p[:, j] += radius * np.sin(2 * np.pi * s)
        return p

    def dgamma(s):
        v = np.zeros((len(s), len(c)))
        v[:, i] = -2 * np.pi * radius * np.sin(2 * np.pi * s)
        v[:, j] = 2 * np.pi * radius * np.cos(2 * np.pi * s)
        return v

    return gamma, dgamma


def loop_integral_reference(field, circle, rule, panels=8):
    """Circulation around the circle that loop_integral's arguments
    circle (radius, center, axes) give, summed node by node, one field
    evaluation each, and the sum of the terms' magnitudes |w| |g_j v_j|."""
    gamma, dgamma = circle_curve(**circle)
    total, magnitude = 0.0, 0.0
    width = 1.0 / panels
    for p in range(panels):
        for t, w in zip(rule.nodes, rule.weights):
            s = np.array([(p + t) * width])
            g = eval_field(field, gamma(s)[0])
            v = dgamma(s)[0]
            total += w * width * float(np.dot(g, v))
            magnitude += w * width * float(np.sum(np.abs(g * v)))
    return total, magnitude


def curve_node_sum(field, circle, rule):
    """The circulation as a batched node sum over the curve closures:
    all nodes in one evaluation, the terms added in node order."""
    gamma, dgamma = circle_curve(**circle)
    width = 1.0 / PANELS
    s = ((np.arange(PANELS)[:, None] + rule.nodes) * width).ravel()
    terms = (np.tile(rule.weights, PANELS) * width
             * (eval_field(field, gamma(s)) * dgamma(s)).sum(axis=1))
    return float(np.cumsum(terms)[-1])


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
        assert abs(loop_integral(field)) < 1e-10

    def test_rotation_circulation(self):
        val = loop_integral(rotation())
        assert val == pytest.approx(2.0 * np.pi, abs=1e-6)

    def test_lorenz_nonzero_witness(self):
        val = loop_integral(lorenz(), 1.0, center=[0.0, 0.0, 1.0])
        # quadrature oracle: circulation of (g1, g2) around the circle;
        # dominated by the rho*x dy term giving ~ rho*pi minus sigma*pi
        assert abs(val) > 1.0

    @pytest.mark.parametrize("field, loop", [
        (lorenz(), dict(radius=1.0, center=[0.0, 0.0, 1.0])),
        (jj_circuit(), dict(radius=1.0, center=[0.0] * 3, axes=(1, 2))),
        (lorenz(), dict(radius=0.6, center=[0.3, -0.4, 0.8], axes=(0, 2))),
        (rotation(), dict(radius=0.7, center=[0.0, 0.0])),
        (rotation(), dict(radius=1.3, center=[0.2, -0.1]))])
    def test_matches_node_by_node_sum(self, field, loop):
        # the batch takes each g.v as an elementwise sum where the node
        # loop takes a BLAS dot; both then add the nodes in order.  Each
        # dot is within N eps of the magnitude of its products, and each
        # of the K additions rounds within eps of the magnitude so far
        rule = QuadratureRule.gauss_legendre(16)
        ref, magnitude = loop_integral_reference(field, loop, rule)
        bound = (2 * field.dim + 2 * 8 * 16) * np.finfo(float).eps
        assert abs(loop_integral(field, **loop, quad=rule) - ref) \
            <= bound * magnitude

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_curve_node_sum(self, data):
        # the circle built in place is the closures' circle, bit for bit
        dim = data.draw(st.integers(2, 4), label="dim")
        field = {2: rotation(), 3: lorenz(), 4: swirl4()}[dim]
        finite = st.floats(-3.0, 3.0, allow_nan=False)
        circle = dict(
            radius=data.draw(st.floats(0.0, 3.0), label="radius"),
            center=data.draw(st.lists(finite, min_size=dim, max_size=dim),
                             label="center"),
            axes=data.draw(st.lists(st.integers(0, dim - 1), min_size=2,
                                    max_size=2, unique=True), label="axes"))
        rule = QuadratureRule.gauss_legendre(
            data.draw(st.integers(1, 79), label="order"))
        assert loop_integral(field, **circle, quad=rule) \
            == curve_node_sum(field, circle, rule)

    def test_one_field_evaluation(self):
        # every node of the circle in one call, whatever the rule's order
        lor = lorenz()
        for order in (16, 64):
            calls = []

            def func(x):
                calls.append(np.shape(x))
                return lor.func(x)

            loop_integral(VectorField(dim=3, func=func, vectorized=True),
                          0.5, axes=(0, 2),
                          quad=QuadratureRule.gauss_legendre(order))
            assert calls == [(8 * order, 3)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kwargs", [
        dict(field=ou()), dict(field=ou(), center=[0.0]), dict(axes=(1, 1)),
        dict(axes=(0, 5)), dict(axes=(-1, 0)), dict(axes=(0,)),
        dict(field=lorenz(), axes=(0, 1, 2)), dict(axes=(0.0, 1)),
        dict(center=[0.0, 0.0, 0.0]), dict(center=[[0.0, 0.0]]),
        dict(field=lorenz(), axes=(2, 3)), dict(radius=np.inf),
        dict(radius=np.nan), dict(radius=-1.0), dict(center=[np.inf, 0.0])])
    def test_bad_circle_rejected_at_construction(self, kwargs):
        # each call builds its circle from the arguments and checks them
        # before any field call: N < 2, axes not two distinct indices in
        # [0, N), a center not a finite (N,), a radius outside [0, inf).
        # An inf/nan node would warn in the field's product first, and a
        # negative radius would return 2 pi silently
        with pytest.raises(ValueError, match="circle needs"):
            loop_integral(**{"field": rotation(), **kwargs})

    @pytest.mark.parametrize("center", [0.0, [[0.0, 0.0]]])
    def test_center_not_a_vector_rejected(self, center):
        with pytest.raises(ValueError, match="circle needs"):
            loop_integral(rotation(), center=center)

    @pytest.mark.parametrize("field, dim", [
        (lorenz(), 2), (rotation(), 3), (swirl4(), 3)])
    def test_circle_of_another_dimension_rejected(self, field, dim):
        with pytest.raises(ValueError, match="dimension"):
            loop_integral(field, center=np.zeros(dim))


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
                     sample_ball(3, n_samples, 1.0, seed=4))
            counts.append(len(calls))
        # g and its central-difference Jacobian: one call each
        assert counts == [2, 2]

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


# -- a non-closed form stays non-closed in any coordinates -----------------

PULLBACK_FIELDS = {
    "lorenz": lorenz(),
    "jj_circuit": jj_circuit(),
    "symmetric_q": quadratic([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5],
                              [0.0, 0.5, 1.0]]),
    "rotation_decay": quadratic([[-0.1, -1.0, 0.0], [1.0, -0.1, 0.0],
                                 [0.0, 0.0, -0.5]]),
}
# classify's default samples: 64 points of the radius-1.5 ball, seed 12345
CLASSIFY_SAMPLES = sample_ball(3, 64, 1.5, seed=12345)


def near_identity(a):
    """phi(y) = y + a (y_1^2, y_2^2, y_0^2) and M = dphi/dy, on stacked
    points; invertible in the radius-1.5 ball for a <= 0.3."""
    def phi(Y):
        return Y + a * Y[:, [1, 2, 0]] ** 2

    def dphi(Y):
        M = np.tile(np.eye(3), (len(Y), 1, 1))
        M[:, [0, 1, 2], [1, 2, 0]] = 2 * a * Y[:, [1, 2, 0]]
        return M

    return phi, dphi


def scaling(s):
    """phi(y) = s y and M = s I, on stacked points."""
    return (lambda Y: s * Y), (lambda Y: np.tile(s * np.eye(3),
                                                 (len(Y), 1, 1)))


def pullback(g, phi, dphi):
    """h(y) = M(y)^T g(phi(y)): the form G in the coordinates y.  No
    jac, so its Jacobian is central differences."""
    def func(Y):
        Y2 = np.atleast_2d(Y)
        H = np.einsum("mji,mj->mi", dphi(Y2), eval_field(g, phi(Y2)))
        return H if Y.ndim == 2 else H[0]

    return VectorField(dim=g.dim, func=func, vectorized=True)


def antisymmetric(J):
    return J - np.swapaxes(J, -1, -2)


MAPS = {"a=0.05": near_identity(0.05), "a=0.3": near_identity(0.3),
        "s=0.5": scaling(0.5), "s=3": scaling(3.0)}


class TestPullback:
    @pytest.mark.parametrize("name", sorted(PULLBACK_FIELDS))
    @pytest.mark.parametrize("map_name", sorted(MAPS))
    def test_antisymmetric_part_is_congruent(self, name, map_name):
        # J_h - J_h^T = M^T (J_g - J_g^T) M, so the antisymmetric part
        # vanishes in y exactly where it does in x.  The FD Jacobian of h
        # met this to at most 3.5e-11 (1 + max|J_h|); 1e-9 leaves ~30x
        g, (phi, dphi) = PULLBACK_FIELDS[name], MAPS[map_name]
        Y = CLASSIFY_SAMPLES
        M = dphi(Y)
        J_h = jacobian(pullback(g, phi, dphi), Y)
        expected = (np.swapaxes(M, -1, -2)
                    @ antisymmetric(jacobian(g, phi(Y))) @ M)
        deviation = np.max(np.abs(antisymmetric(J_h) - expected))
        assert deviation <= 1e-9 * (1.0 + np.max(np.abs(J_h)))
        if name != "symmetric_q":  # not closed in x, so not closed in y
            assert np.max(np.abs(expected)) >= 1e-3 * np.max(np.abs(J_h))

    # the verdict is compared only under the near-identity maps: today's
    # verdict rule has a scale, so y = x / s or g -> c g may move it
    @pytest.mark.parametrize("name, verdict", [
        ("lorenz", Verdict.NON_INTEGRABLE),
        ("jj_circuit", Verdict.NON_INTEGRABLE),
        ("symmetric_q", Verdict.CLOSED),
        ("rotation_decay", Verdict.NON_INTEGRABLE)])
    @pytest.mark.parametrize("a", [0.05, 0.3])
    def test_near_identity_keeps_the_verdict(self, name, verdict, a):
        g = PULLBACK_FIELDS[name]
        assert classify(g, CLASSIFY_SAMPLES).verdict is verdict
        h = pullback(g, *near_identity(a))
        assert classify(h, CLASSIFY_SAMPLES).verdict is verdict

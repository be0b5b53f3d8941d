import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradiform import (FieldEvalError, QuadratureRule, SystemSpec,
                       VectorField, antiexact_part, build_system, classify,
                       consistency_check, decompose, euler_maruyama_ensembles,
                       eval_field, integrate_rk4, jacobian,
                       lyapunov_check, potential, sample_ball,
                       transform_field)
from gradiform.fields import _matvec
from gradiform.zoo import (REGISTRY, jj_circuit, jj_circuit_linear, lorenz,
                           quadratic)


def identity_field(n=2):
    return VectorField(dim=n, func=lambda x: x.copy(),
                       jac=lambda x: np.eye(n))


def test_eval_identity():
    f = identity_field()
    assert np.allclose(eval_field(f, [3.0, -2.0]), [3.0, -2.0])


def test_eval_zero_field():
    f = VectorField(dim=3, func=lambda x: np.zeros(3))
    assert np.all(eval_field(f, [1.0, 2.0, 3.0]) == 0.0)


def test_eval_lorenz():
    g = eval_field(lorenz(10, 28, 8 / 3), [1.0, 1.0, 1.0])
    assert np.allclose(g, [0.0, 26.0, -5.0 / 3.0])


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_field(identity_field(2), [1.0, 2.0, 3.0])


def test_eval_nonfinite_flagged():
    f = VectorField(dim=1, func=lambda x: np.array([1.0 / x[0]]))
    with pytest.raises(FieldEvalError):
        eval_field(f, [0.0])


def test_jacobian_identity():
    assert np.allclose(jacobian(identity_field(3), np.ones(3)), np.eye(3))


def test_jacobian_lorenz_hand_oracle():
    # hand differentiation of the three Lorenz components at (1,1,1)
    expected = np.array([[-10.0, 10.0, 0.0],
                         [27.0, -1.0, -1.0],
                         [1.0, 1.0, -8.0 / 3.0]])
    J = jacobian(lorenz(10, 28, 8 / 3), [1.0, 1.0, 1.0])
    assert np.allclose(J, expected)


def test_jacobian_central_matches_analytic():
    lor = lorenz(10, 28, 8 / 3)
    x = np.array([1.0, 1.0, 1.0])
    Ja = jacobian(lor, x, scheme="analytic")
    Jc = jacobian(lor, x, scheme="central", h=1e-5)
    assert np.max(np.abs(Ja - Jc)) < 1e-6


def test_central_difference_order_two():
    f = VectorField(dim=1, func=lambda x: np.array([np.sin(x[0])]))
    x = np.array([0.7])
    exact = np.cos(0.7)
    e1 = abs(jacobian(f, x, scheme="central", h=1e-3)[0, 0] - exact)
    e2 = abs(jacobian(f, x, scheme="central", h=5e-4)[0, 0] - exact)
    assert e1 / e2 == pytest.approx(4.0, rel=0.1)


def test_reduce_matches_jj_circuit():
    # the second-order junction equation beta_c*dd(delta) + r*d(delta)
    # + (sin(delta) - i + zeta) = 0, in first-order form with
    # y = d(delta) and combined with the first-order zeta equation,
    # reproduces the 3-d circuit field
    i, r, beta_c, beta_L = 0.3, 1.2, 0.8, 1.5
    delta, y, zeta = 0.4, -0.2, 0.6
    dd_delta = -(r * y + np.sin(delta) - i + zeta) / beta_c
    circuit = jj_circuit(i=i, r=r, beta_c=beta_c, beta_L=beta_L)
    g = eval_field(circuit, [y, delta, zeta])
    assert g[0] == pytest.approx(y)  # d(delta) = y
    assert g[1] == pytest.approx(dd_delta)
    assert g[2] == pytest.approx((-zeta + y) / beta_L)


# -- the batched evaluation path --------------------------------------------

def _zoo_fields():
    fields = {name: build_system(SystemSpec(name, {}, 0))
              for name in REGISTRY}
    rng = np.random.default_rng(11)
    fields["jj_circuit_biased"] = jj_circuit(i=0.3, r=1.2, beta_c=0.7,
                                             beta_L=1.9)
    fields["jj_circuit_linear_biased"] = jj_circuit_linear(
        i=0.3, r=1.2, beta_c=0.7, beta_L=1.9)
    fields["quadratic3"] = quadratic(rng.standard_normal((3, 3)))
    return fields


ZOO_FIELDS = _zoo_fields()
EPS = np.finfo(float).eps


def _single_point_bound(name, field, X, G):
    """Allowed |batch - single point| of eval_field per entry, given the
    single-point values G: 0 where the batch computes exactly what a
    single point computes.

    double_well: x ** 3 rounds by up to 1 ulp differently on arrays than
    on scalars, which moves g = x - x ** 3 by at most that ulp plus one
    ulp of g.  Linear fields: a single point takes the BLAS product Q x,
    stacked rows an elementwise sum; each is within n eps sum_j |Q_ij x_j|
    of the exact value, so they differ by at most twice that.
    """
    if name == "double_well":
        return EPS * (np.abs(X) ** 3 + np.abs(G))
    if name.startswith(("quadratic", "jj_circuit_linear", "rotation")):
        Q = field.jac(X[0])
        return 2 * field.dim * EPS * (np.abs(X) @ np.abs(Q).T)
    return np.zeros_like(X)


def points(dim, max_rows=12):
    return st.integers(1, max_rows).flatmap(lambda m: st.lists(
        st.lists(st.floats(-3, 3), min_size=dim, max_size=dim),
        min_size=m, max_size=m)).map(np.array)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(ZOO_FIELDS)))
def test_zoo_batch_matches_single_points(data, name):
    field = ZOO_FIELDS[name]
    assert field.vectorized
    X = data.draw(points(field.dim))
    G = eval_field(field, X)
    single = np.array([eval_field(field, x) for x in X])
    assert np.all(np.abs(G - single)
                  <= _single_point_bound(name, field, X, single))
    # a row's bits do not depend on the batch it is in
    assert np.array_equal(G[-1:], eval_field(field, X[-1:]))
    for scheme in ("analytic", "central"):
        J = jacobian(field, X, scheme=scheme)
        assert np.array_equal(J, np.array([jacobian(field, x, scheme=scheme)
                                           for x in X]))


def matvec_left_to_right(A, x):
    """A x with each entry summed term by term, left to right."""
    out = []
    for row in A:
        s = 0.0
        for a, xj in zip(row, x):
            s += a * xj
        out.append(s)
    return np.array(out)


def matvec_last_axis(A, X):
    """Stacked rows as an (M, n, n) product summed over its last axis, a
    contiguous reduce that numpy sums pairwise from n = 8 terms on."""
    return (X[:, None, :] * A).sum(axis=-1)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12),
       M=st.one_of(st.just(1), st.just(2), st.integers(1, 50)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matvec_rows_do_not_depend_on_the_batch(n, M, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, (n, n))
    X = rng.standard_normal((M, n))
    X[rng.random((M, n)) < 0.1] = -0.0
    Y = _matvec(A, X)
    assert Y.shape == (M, n)
    last_axis = matvec_last_axis(A, X)
    for m, x in enumerate(X):
        # tobytes, so that the sign of a zero counts
        assert Y[m].tobytes() == _matvec(A, X[m:m + 1])[0].tobytes()
        assert Y[m].tobytes() == matvec_left_to_right(A, x).tobytes()
        if n <= 7:
            assert Y[m].tobytes() == last_axis[m].tobytes()


def test_eval_field_shapes_and_errors():
    f = identity_field(2)
    X = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(eval_field(f, X), X)
    assert np.array_equal(eval_field(f, X[0]), X[0])
    for bad in (np.ones((3, 3)), np.ones((2, 2, 2)), np.ones(3)):
        with pytest.raises(ValueError):
            eval_field(f, bad)
    wrong = VectorField(dim=2, func=lambda x: x[..., :1], vectorized=True)
    with pytest.raises(FieldEvalError, match="returned shape"):
        eval_field(wrong, X)
    with pytest.raises(FieldEvalError, match="returned shape"):
        eval_field(VectorField(dim=2, func=lambda x: x[:1]), X)
    blows = VectorField(dim=1, func=lambda x: 1.0 / (x - 1.0),
                        vectorized=True)
    with pytest.raises(FieldEvalError, match=r"non-finite.*\[1\.\]"):
        with np.errstate(divide="ignore"):
            eval_field(blows, [[0.0], [1.0], [2.0]])


def test_central_jacobian_one_batched_call():
    calls = []

    def func(X):
        calls.append(X.shape)
        return np.sin(X)

    f = VectorField(dim=3, func=func, vectorized=True)
    X = sample_ball(3, 5, 1.0, seed=2)
    J = jacobian(f, X)
    assert calls == [(2 * 3 * 5, 3)]
    for Jm, x in zip(J, X):
        assert np.allclose(Jm, np.diag(np.cos(x)), atol=1e-9)


def test_pointwise_callable_through_every_entry_point():
    # a field written for single points only takes the pointwise fallback;
    # its vectorized twin computes the same numbers in batches
    plain = VectorField(dim=2, func=lambda x: x.copy())
    twin = VectorField(dim=2, func=lambda x: x.copy(), vectorized=True)
    X = sample_ball(2, 7, 1.5, seed=4)
    rule = QuadratureRule.gauss_legendre(16)
    D = np.array([[2.0, 0.5], [0.0, 1.0]])

    def through(f):
        d = decompose(f, X, rule)
        traj = integrate_rk4(f, X[0], 0.01, 20)
        return [eval_field(f, X), jacobian(f, X),
                potential(f, X, rule), potential(f, X),
                antiexact_part(f, X, rule),
                d.potential, d.exact_part, d.antiexact_part,
                eval_field(transform_field(f, D), X),
                jacobian(transform_field(f, D), X),
                [t.states for t in euler_maruyama_ensembles(
                    f, [0.1], X, 0.01, 30, master_seed=3)[0]],
                traj.states,
                lyapunov_check(-potential(f, traj.states, rule),
                               traj).max_increase,
                classify(f, X).max_asymmetry,
                consistency_check(f, X[:3], rule)]

    for a, b in zip(through(plain), through(twin)):
        assert np.array_equal(np.asarray(a), np.asarray(b))
    assert np.allclose(potential(plain, X, rule),
                       0.5 * np.sum(X * X, axis=1))

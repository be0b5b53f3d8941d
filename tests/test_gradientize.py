import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradiform import (BarrierViolation, ConstantVerdict, MatrixFamily,
                       QuadratureRule, VectorField,
                       check_necessary_constant, consistency_check,
                       eval_field, general_residual, jacobian, potential,
                       sample_ball, solve_consistency_constant, solve_general,
                       solve_symmetrizer, transform_field,
                       transform_field_general)
from gradiform.fields import _central_difference, fd_step
from gradiform import gradientize
from gradiform.gradientize import (DEFAULT_TOL, _constant_solve_report,
                                  _min_norm_above_identity, _null_basis,
                                  _residual_sweep, _sym_basis)
from gradiform.zoo import (jj_circuit, jj_circuit_linear, lorenz, quadratic,
                           rotation)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])
RULE = QuadratureRule.gauss_legendre(64)
# diagonalizable with a repeated eigenvalue that np.linalg.eig returns as
# the complex pair 1 +- 6.7e-17i
_P = np.random.default_rng(76).standard_normal((3, 3))
SPLIT_PAIR = _P @ np.diag([1.0, 1.0, 2.0]) @ np.linalg.inv(_P)
# chosen_D of default Lorenz from the multi-start Nelder-Mead search that
# solve_symmetrizer used before its convex solve; the benchmark's
# simulate:lorenz-gradientize reference depends on it
LORENZ_D = np.array([[0.9957442817624582, 0.07302425155105127, 0.0],
                     [0.0, 0.6100403065730655, 0.0],
                     [0.0, 0.0, 0.6074441469147471]])


def random_real_diagonalizable(rng, n=3, cond_cap=50.0):
    while True:
        P = rng.standard_normal((n, n))
        if np.linalg.cond(P) < cond_cap:
            break
    lam = rng.uniform(-3.0, -0.5, n) + 0.5 * np.arange(n)
    return P @ np.diag(lam) @ np.linalg.inv(P)


def symmetrizer_nelder_mead(J):
    """The former solve_symmetrizer: maximise lambda_min(S) / |S|_F over the
    symmetrizer space by Nelder-Mead from 14 starts, 8 of them random."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    n = J.shape[0]
    sym_basis = _sym_basis(n)
    M = np.column_stack([(B @ J - J.T @ B).ravel() for B in sym_basis])
    basis = [sum(ci * Bi for ci, Bi in zip(c, sym_basis))
             for c in _null_basis(M)]
    best_S, best_min = None, -np.inf
    if basis:
        m = len(basis)

        def neg_min_eig(c):
            nc = np.linalg.norm(c)
            if nc < 1e-12:
                return 1.0
            S = sum(ci * Bi for ci, Bi in zip(c / nc, basis))
            return -float(np.linalg.eigvalsh(S)[0])

        rng = np.random.default_rng(0)
        starts = [np.eye(m)[k] for k in range(m)] \
            + [-np.eye(m)[k] for k in range(m)] \
            + [rng.standard_normal(m) for _ in range(8)]
        for c0 in starts:
            res = minimize(neg_min_eig, c0, method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14,
                                    "maxiter": 2000})
            if -res.fun > best_min:
                best_min = -res.fun
                c = res.x / np.linalg.norm(res.x)
                best_S = sum(ci * Bi for ci, Bi in zip(c, basis))
    if best_S is None or best_min <= 1e-8:
        return _constant_solve_report(J, basis, None, DEFAULT_TOL)
    S = 0.5 * (best_S + best_S.T)
    S /= np.linalg.eigvalsh(S)[-1]
    return _constant_solve_report(J, basis, np.linalg.cholesky(S).T,
                                  DEFAULT_TOL)


def assert_matches_nelder_mead(J):
    rep, ref = solve_symmetrizer(J), symmetrizer_nelder_mead(J)
    assert rep.verdict is ref.verdict
    if ref.chosen_D is None:
        return
    # both S = D^T D are scaled to lambda_max = 1
    S, S_ref = rep.chosen_D.T @ rep.chosen_D, ref.chosen_D.T @ ref.chosen_D

    def objective(S):
        return np.linalg.eigvalsh(S)[0] / np.linalg.norm(S)

    assert objective(S) >= objective(S_ref) * (1.0 - 1e-9)
    if rep.verdict is ConstantVerdict.GRADIENTIZED:
        assert np.max(np.abs(S - S_ref)) <= 1e-6


def consistency_matrix_reference(J):
    """The n^2 x n^2 matrix of D -> D - J^T D^T, entry by entry."""
    n = J.shape[0]
    M = np.eye(n * n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                M[i * n + j, j * n + k] -= J[k, i]
    return M


class TestConsistencyConstant:
    @pytest.mark.parametrize("J", [ROT, np.eye(3), np.random.default_rng(
        1).standard_normal((3, 3)), np.random.default_rng(2).standard_normal(
            (4, 4))])
    def test_nullspace_matches_entrywise_reference(self, J):
        ref = _null_basis(consistency_matrix_reference(J))
        basis = solve_consistency_constant(J).nullspace_basis
        assert len(basis) == len(ref)
        for B, v in zip(basis, ref):
            assert np.array_equal(B, v.reshape(J.shape))

    def test_rotation_nullspace_span(self):
        rep = solve_consistency_constant(ROT)
        assert len(rep.nullspace_basis) == 1
        B = rep.nullspace_basis[0]
        ref = np.array([[1.0, -1.0], [1.0, 1.0]])
        scale = B[0, 0] / ref[0, 0]
        assert np.allclose(B, scale * ref, atol=1e-10)
        assert rep.verdict is ConstantVerdict.CONSISTENCY_ONLY
        assert rep.necessary_residual > 1e-6

    def test_rotation_transformed_unchanged(self):
        rep = solve_consistency_constant(ROT)
        D = rep.chosen_D
        A = D @ ROT @ np.linalg.inv(D)
        assert np.allclose(A, ROT, atol=1e-10)  # D^T D = c I commutes

    def test_defective_never_gradientized(self):
        J = jacobian(jj_circuit_linear(r=1, beta_c=1, beta_L=1), np.zeros(3))
        rep = solve_consistency_constant(J)
        assert rep.verdict in (ConstantVerdict.INFEASIBLE,
                               ConstantVerdict.CONSISTENCY_ONLY)

    def test_identity_flag_tracks_symmetry(self):
        assert solve_consistency_constant(
            np.array([[2.0, 1.0], [1.0, 3.0]])).identity_solves_necessary
        assert not solve_consistency_constant(ROT).identity_solves_necessary

    def test_det_precondition_reported(self):
        rep = solve_consistency_constant(ROT)
        assert rep.det_precondition_gap == pytest.approx(0.0)


class TestCheckNecessary:
    def test_identity_symmetric(self):
        J = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert check_necessary_constant(np.eye(2), J) == 0.0

    def test_hand_arithmetic(self):
        D = np.array([[1.0, -1.0], [1.0, 1.0]])
        # D^T D = 2I, so the residual is max|2J - 2J^T| = 4
        assert check_necessary_constant(D, ROT) == pytest.approx(4.0)

    def test_zero_jacobian(self):
        D = np.array([[3.0, 1.0], [0.0, 2.0]])
        assert check_necessary_constant(D, np.zeros((2, 2))) == 0.0

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            check_necessary_constant(np.zeros((2, 2)), ROT)


class TestSymmetrizer:
    def test_symmetric_matrix(self):
        J = np.array([[2.0, 1.0], [1.0, 3.0]])
        rep = solve_symmetrizer(J)
        assert rep.verdict is ConstantVerdict.GRADIENTIZED
        assert rep.identity_solves_necessary
        assert rep.transformed_asymmetry < 1e-10

    def test_real_spectrum_upper_triangular(self):
        rep = solve_symmetrizer(np.array([[-1.0, 2.0], [0.0, -3.0]]))
        assert rep.verdict is ConstantVerdict.GRADIENTIZED
        assert rep.transformed_asymmetry < 1e-10

    def test_rotation_infeasible(self):
        assert solve_symmetrizer(ROT).verdict is ConstantVerdict.INFEASIBLE

    def test_defective_infeasible(self):
        J = jacobian(jj_circuit_linear(r=1, beta_c=1, beta_L=1), np.zeros(3))
        assert solve_symmetrizer(J).verdict is not \
            ConstantVerdict.GRADIENTIZED

    @pytest.mark.parametrize("seed", range(6))
    def test_random_real_diagonalizable(self, seed):
        J = random_real_diagonalizable(np.random.default_rng(seed))
        rep = solve_symmetrizer(J)
        assert rep.verdict is ConstantVerdict.GRADIENTIZED
        assert rep.transformed_asymmetry < 1e-8

    def test_lorenz_pinned(self):
        rep = solve_symmetrizer(jacobian(lorenz(), np.zeros(3)))
        assert np.max(np.abs(rep.chosen_D - LORENZ_D)) <= 1e-8

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           cond_cap=st.sampled_from([50.0, 500.0]))
    def test_matches_nelder_mead(self, seed, cond_cap):
        assert_matches_nelder_mead(random_real_diagonalizable(
            np.random.default_rng(seed), cond_cap=cond_cap))

    @pytest.mark.parametrize("J", [
        np.array([[-2.0]]), np.array([[2.0, 1.0], [1.0, 3.0]]),
        np.diag([1.0, 1.0, 2.0]), SPLIT_PAIR, ROT,
        jacobian(jj_circuit_linear(r=1, beta_c=1, beta_L=1), np.zeros(3))],
        ids=["1x1", "symmetric", "diag112", "split_pair", "rotation",
             "defective"])
    def test_matches_nelder_mead_fixed(self, J):
        assert_matches_nelder_mead(J)


def test_one_by_one_closed_form_equals_barrier_path(monkeypatch):
    # the barrier path, run on the basis padded with a zero matrix (its
    # coefficient stays 0), gives the same report bit for bit
    rng = np.random.default_rng(3)
    values = np.concatenate([
        rng.standard_normal(150) * 10.0 ** rng.integers(-6, 7, 150),
        rng.uniform(-3.0, 3.0, 46),
        [0.0, -0.0, 1.0, -1.0, 1e-300, -1e300, 5e-324]])
    closed = [solve_symmetrizer(np.array([[v]])) for v in values]

    def barrier(J, basis):
        c = _min_norm_above_identity(J, np.concatenate([basis, 0 * basis]))
        assert c[1] == 0.0
        return c[:1]

    monkeypatch.setattr(gradientize, "_min_norm_above_identity", barrier)
    for v, rep in zip(values, closed):
        ref = solve_symmetrizer(np.array([[v]]))
        assert rep.verdict is ref.verdict is ConstantVerdict.GRADIENTIZED
        assert rep.chosen_D.tobytes() == ref.chosen_D.tobytes()
        assert (rep.necessary_residual, rep.transformed_asymmetry,
                rep.consistency_residual) == (
            ref.necessary_residual, ref.transformed_asymmetry,
            ref.consistency_residual)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_one_element_basis_closed_form(sign):
    # the least |c| with c B >= I puts lambda_min(c B) at 1
    B = sign * np.array([[2.0, 0.5], [0.5, 1.0]])
    c = _min_norm_above_identity(np.eye(2), B[None])
    assert np.sign(c[0]) == sign
    assert np.linalg.eigvalsh(c[0] * B)[0] == pytest.approx(1.0, rel=1e-15)
    assert _min_norm_above_identity(np.eye(2),
                                    np.diag([1.0, -1.0])[None]) is None


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_flat_product_equals_tensordot(data, n):
    # the symmetrizer's Newton loop forms S(c) as (c @ flat).reshape(n, n)
    m = data.draw(st.integers(1, n * (n + 1) // 2))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    basis = data.draw(hnp.arrays(float, (m, n, n), elements=finite))
    c = data.draw(hnp.arrays(float, (m,), elements=finite))
    assert np.array_equal(np.tensordot(c, basis, 1),
                          (c @ basis.reshape(m, -1)).reshape(n, n))


class TestTransformField:
    def test_identity(self):
        lor = lorenz()
        t = transform_field(lor, np.eye(3))
        x = np.array([0.3, -0.7, 1.2])
        assert np.allclose(eval_field(t, x), eval_field(lor, x))

    def test_scaling_commutes_with_identity_field(self):
        ident = quadratic(np.eye(2))
        t = transform_field(ident, 2.0 * np.eye(2))
        x = np.array([0.5, -1.5])
        assert np.allclose(eval_field(t, x), x)

    def test_swap(self):
        field = VectorField(dim=2, func=lambda x: np.array(
            [x[0] + 2 * x[1], x[0] ** 2]))
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = transform_field(field, swap)
        x = np.array([0.7, -0.4])
        g = eval_field(field, swap @ x)
        assert np.allclose(eval_field(t, x), [g[1], g[0]])

    def test_jacobian_similarity(self):
        D = np.array([[1.0, 0.5], [0.0, 2.0]])
        field = quadratic([[1.0, 2.0], [3.0, 4.0]])
        t = transform_field(field, D)
        J = jacobian(t, np.array([0.2, 0.9]))
        expected = D @ np.array([[1.0, 2.0], [3.0, 4.0]]) @ np.linalg.inv(D)
        assert np.allclose(J, expected)

    def test_singular_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            transform_field(lorenz(), np.zeros((3, 3)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_necessary_condition_equivalence(seed):
    # D^T D J - J^T D^T D = D^T (A - A^T) D with A = D J D^{-1}
    rng = np.random.default_rng(seed)
    n = 3
    J = rng.standard_normal((n, n))
    D = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    if abs(np.linalg.det(D)) < 1e-3:
        return
    A = D @ J @ np.linalg.inv(D)
    lhs = D.T @ D @ J - J.T @ (D.T @ D)
    rhs = D.T @ (A - A.T) @ D
    assert np.allclose(lhs, rhs, atol=1e-8 * (1 + np.max(np.abs(lhs))))


@settings(max_examples=15, deadline=None)
@given(c=st.floats(0.1, 10.0))
def test_gauge_invariance(c):
    rep1 = solve_consistency_constant(ROT)
    D = rep1.chosen_D
    # scaling D leaves both residual verdict inputs invariant in the
    # relative sense: transformed field D J D^{-1} is unchanged
    A1 = D @ ROT @ np.linalg.inv(D)
    A2 = (c * D) @ ROT @ np.linalg.inv(c * D)
    assert np.allclose(A1, A2)


def monomials_reference(dim, degree):
    """Exponent tuples by recursive enumeration: each tuple, then its
    extensions by indices not below its last."""
    out = [()]

    def extend(prefix, remaining, start):
        for q in range(start, dim):
            out.append(prefix + (q,))
            if remaining > 1:
                extend(prefix + (q,), remaining - 1, q)

    if degree >= 1:
        extend((), degree, 0)
    return out


def family_reference(family, y, theta):
    """D(y) and dD/dy at one point, monomial by monomial."""
    c = np.asarray(theta, dtype=float).reshape(family.dim, family.dim, -1)
    mono = np.array([np.prod([y[q] for q in m]) if m else 1.0
                     for m in family.monomials])
    dmono = np.zeros((len(family.monomials), family.dim))
    for k, m in enumerate(family.monomials):
        for pos in range(len(m)):
            rest = m[:pos] + m[pos + 1:]
            dmono[k, m[pos]] += np.prod([y[q] for q in rest]) if rest else 1.0
    return c @ mono, np.einsum("ijk,kq->ijq", c, dmono)


def residual_reference(field, family, theta, samples):
    """The general residual sample by sample."""
    n = field.dim
    out = []
    for y in samples:
        Dm, dD = family_reference(family, y, theta)
        M = Dm + np.einsum("ijq,j->iq", dD, y)
        B = np.einsum("ijq,j->iq", dD, eval_field(field, y)) \
            + Dm @ jacobian(field, y)
        A = B @ np.linalg.inv(M)
        out.extend(A[i, k] - A[k, i]
                   for i in range(n) for k in range(i + 1, n))
    return np.array(out)


def perturbed_identity(family, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    return family.identity_params() \
        + scale * rng.standard_normal(family.n_params)


def counting(field):
    """A vectorized copy of field that records each call of func."""
    calls = []

    def func(x):
        calls.append(np.shape(x))
        return field.func(x)

    return VectorField(dim=field.dim, func=func, jac=field.jac,
                       vectorized=True), calls


class TestMatrixFamily:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_stacked_equals_rows(self, dim, degree):
        family = MatrixFamily(dim=dim, degree=degree)
        assert family.monomials == monomials_reference(dim, degree)
        rng = np.random.default_rng(10 * dim + degree)
        Y = rng.standard_normal((7, dim))
        theta = rng.standard_normal(family.n_params)
        D, dD = family.value(Y, theta), family.grad(Y, theta)
        assert D.shape == (7, dim, dim) and dD.shape == (7, dim, dim, dim)
        for m, y in enumerate(Y):
            ref_D, ref_dD = family_reference(family, y, theta)
            assert np.array_equal(D[m], ref_D)
            assert np.array_equal(D[m], family.value(y, theta))
            assert np.array_equal(dD[m], ref_dD)
            assert np.array_equal(dD[m], family.grad(y, theta))

    def test_grad_matches_central_differences(self):
        family = MatrixFamily(dim=3, degree=2)
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(family.n_params)
        h = 1e-5
        for y in rng.standard_normal((5, 3)):
            for q in range(3):
                e = np.zeros(3)
                e[q] = h
                # exact for quadratics up to rounding
                fd = (family.value(y + e, theta)
                      - family.value(y - e, theta)) / (2 * h)
                assert np.allclose(family.grad(y, theta)[:, :, q], fd,
                                   rtol=0, atol=1e-9)


class TestGeneralResidual:
    @pytest.mark.parametrize("make", [lorenz, jj_circuit])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_matches_per_sample_reference(self, make, degree):
        field = make()
        family = MatrixFamily(dim=3, degree=degree)
        theta = perturbed_identity(family, seed=degree)
        samples = sample_ball(3, 16, 1.0, seed=degree)
        assert np.array_equal(
            general_residual(field, family, theta, samples),
            residual_reference(field, family, theta, samples))

    def test_singular_D_is_barrier_violation(self):
        family = MatrixFamily(dim=3, degree=1)
        with pytest.raises(BarrierViolation):
            general_residual(lorenz(), family, np.zeros(family.n_params),
                             sample_ball(3, 4, 1.0, seed=1))

    @pytest.mark.parametrize("jac", [True, False])
    def test_field_calls_do_not_grow_with_samples(self, jac):
        lor = lorenz()
        family = MatrixFamily(dim=3, degree=1)
        counts = []
        for n_samples in (4, 32):
            field, calls = counting(VectorField(
                dim=3, func=lor.func, jac=lor.jac if jac else None,
                vectorized=True))
            general_residual(field, family, family.identity_params(),
                             sample_ball(3, n_samples, 1.0, seed=2))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2

    def test_closed_field_identity_theta(self):
        field = quadratic([[2.0, 1.0], [1.0, 3.0]])
        family = MatrixFamily(dim=2, degree=1)
        samples = sample_ball(2, 8, 1.0, seed=4)
        r = general_residual(field, family, family.identity_params(), samples)
        assert np.max(np.abs(r)) < 1e-12

    def test_constant_family_reduces_to_asymmetry(self):
        field = quadratic([[1.0, 2.0], [3.0, 4.0]])
        family = MatrixFamily(dim=2, degree=0)
        theta = family.identity_params()
        theta[0] = 2.0  # D = diag(2, 1)
        D = np.array([[2.0, 0.0], [0.0, 1.0]])
        A = D @ np.array([[1.0, 2.0], [3.0, 4.0]]) @ np.linalg.inv(D)
        samples = sample_ball(2, 4, 1.0, seed=5)
        r = general_residual(field, family, theta, samples)
        assert np.allclose(r, A[0, 1] - A[1, 0])

    def test_lorenz_identity_matches_dG(self):
        lor = lorenz()
        family = MatrixFamily(dim=3, degree=1)
        samples = sample_ball(3, 4, 1.0, seed=6)
        r = general_residual(lor, family, family.identity_params(), samples)
        r = r.reshape(len(samples), 3)
        for k, x in enumerate(samples):
            J = jacobian(lor, x)
            A = J - J.T
            assert np.allclose(r[k], [A[0, 1], A[0, 2], A[1, 2]])


@settings(max_examples=24, deadline=None)
@given(make=st.sampled_from([lorenz, jj_circuit]), degree=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1.0, 5e-3]))
def test_theta_jacobian_matches_central_differences(make, degree, seed,
                                                    scale):
    # scale 5e-3 puts |det D| near 1.25e-7, below the barrier's floor 1e-6,
    # so the barrier rows are active; the step scales with theta.  The
    # central difference errs by h^2 times the third derivative plus
    # rounding eps |r| / h, near 1e-10 of the largest entry; the bound is
    # 1e-6 of it
    family = MatrixFamily(dim=3, degree=degree)
    theta = scale * perturbed_identity(family, seed, scale=0.02)
    sweep = _residual_sweep(make(), family, sample_ball(3, 16, 1.0, seed=3))
    _, Jr = sweep(theta)
    h = 1e-6 * scale
    fd = np.empty_like(Jr)
    for p in range(theta.size):
        e = np.zeros(theta.size)
        e[p] = h
        fd[:, p] = (sweep(theta + e)[0] - sweep(theta - e)[0]) / (2 * h)
    if scale < 1.0:
        assert np.any(Jr[-16:] != 0.0)
    assert np.max(np.abs(Jr - fd)) <= 1e-6 * (1.0 + np.max(np.abs(Jr)))


class TestSolveGeneral:
    def test_closed_field_converges(self):
        field = quadratic([[2.0, 1.0], [1.0, 3.0]])
        family = MatrixFamily(dim=2, degree=1)
        rep = solve_general(field, family, sample_ball(2, 8, 1.0, seed=7))
        assert rep.converged
        assert rep.residual_norm < 1e-10

    def test_constant_case_matches_symmetrizer_verdict(self):
        J = np.array([[-1.0, 2.0], [0.0, -3.0]])
        field = quadratic(J)
        family = MatrixFamily(dim=2, degree=0)
        rep = solve_general(field, family, sample_ball(2, 8, 1.0, seed=8),
                            max_iter=300)
        srep = solve_symmetrizer(J)
        assert srep.verdict is ConstantVerdict.GRADIENTIZED
        assert rep.converged
        assert rep.residual_norm < 1e-8

    def test_jj_nonlinear_reports_without_ground_truth(self):
        field = jj_circuit_linear()
        family = MatrixFamily(dim=3, degree=1)
        rep = solve_general(field, family, sample_ball(3, 8, 0.5, seed=9),
                            max_iter=15)
        assert np.isfinite(rep.residual_norm)
        assert rep.iterations <= 15

    def test_damping_overflow_stops_cleanly(self):
        # the damping of this fit overflows to inf before max_iter; the
        # loop ends there, at the last accepted theta, without a warning
        field = jj_circuit()
        family = MatrixFamily(dim=3, degree=2)
        samples = sample_ball(3, 32, 1.5, seed=12345)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_general(field, family, samples)
        assert rep.iterations < 200
        assert np.all(np.isfinite(rep.theta_final))
        r = general_residual(field, family, rep.theta_final, samples)
        assert rep.residual_norm == float(np.sqrt(np.mean(r * r)))


class TestTransformFieldGeneral:
    def test_inverse_and_stacked_rows(self):
        field = lorenz()
        family = MatrixFamily(dim=3, degree=1)
        theta = perturbed_identity(family, seed=4)
        tfield = transform_field_general(field, family, theta)
        assert tfield.vectorized
        Y = sample_ball(3, 12, 1.0, seed=4)
        Ds = [family_reference(family, y, theta)[0] for y in Y]
        X = np.array([D @ y for D, y in zip(Ds, Y)])  # x = D(y) y
        F = eval_field(tfield, X)
        for m, (D, y) in enumerate(zip(Ds, Y)):
            assert np.array_equal(F[m], eval_field(tfield, X[m]))
            # f(x) = D(y) g(y) at the y with D(y) y = x
            expected = D @ eval_field(field, y)
            assert np.allclose(F[m], expected, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("make", [lorenz, jj_circuit])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_analytic_jacobian_matches_central(self, make, degree):
        family = MatrixFamily(dim=3, degree=degree)
        tfield = transform_field_general(
            make(), family, perturbed_identity(family, degree, scale=0.02))
        X = sample_ball(3, 10, 1.0, seed=5)
        J = jacobian(tfield, X, scheme="analytic")
        for m, x in enumerate(X):
            assert np.array_equal(J[m], jacobian(tfield, x))
        # central differences err by about h^2 times the third derivative
        # plus eps |f| / h, near 1e-10 here
        central = jacobian(tfield, X, scheme="central")
        assert np.max(np.abs(J - central)) \
            <= 1e-8 * (1.0 + np.max(np.abs(J)))


def consistency_check_fd(tfield, samples, quad=None):
    """The former consistency_check: central differences of the ray
    potential, 2n potentials per sample, against the field."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    dV = _central_difference(lambda P: potential(tfield, P, quad), samples,
                             fd_step(samples))
    return float(np.max(np.abs(dV - eval_field(tfield, samples))))


class TestConsistencyAndPotential:
    @pytest.mark.parametrize("quad", [RULE, None], ids=["rule64", "adaptive"])
    @pytest.mark.parametrize("case", [
        "lorenz-1", "lorenz-2", "jj_circuit-1", "jj_circuit-2", "rotation",
        "lorenz-diag123"])
    def test_matches_fd_of_potential(self, case, quad):
        # the homotopy formula makes the two equal; the central difference
        # of V errs by about h^2 times its third derivative (h = cbrt(eps)),
        # 5e-11 relative or less on these cases; the bound is 1e-8 relative
        name, _, spec = case.partition("-")
        if name == "rotation":
            tfield = rotation()
        elif spec == "diag123":
            tfield = transform_field(lorenz(), np.diag([1.0, 2.0, 3.0]))
        else:
            family = MatrixFamily(dim=3, degree=int(spec))
            make = lorenz if name == "lorenz" else jj_circuit
            tfield = transform_field_general(
                make(), family, perturbed_identity(family, 1, scale=0.02))
        samples = sample_ball(tfield.dim, 8, 1.0, seed=3)
        new = consistency_check(tfield, samples, quad)
        ref = consistency_check_fd(tfield, samples, quad)
        assert abs(new - ref) <= 1e-8 * ref

    def test_closed_transformed_field(self):
        field = quadratic([[2.0, 1.0], [1.0, 3.0]])
        samples = sample_ball(2, 6, 1.0, seed=10)
        assert consistency_check(field, samples, RULE) < 1e-6

    def test_rotation_violation_reported(self):
        val = consistency_check(rotation(), sample_ball(2, 6, 1.0, seed=11),
                                RULE)
        assert val > 0.1  # order-one violation, reported not raised

    def test_lorenz_after_constant_transform_nonzero(self):
        D = np.diag([1.0, 2.0, 3.0])
        t = transform_field(lorenz(), D)
        val = consistency_check(t, sample_ball(3, 4, 1.0, seed=12), RULE)
        assert val > 1e-2

    def test_potential_quadratic(self):
        field = quadratic([[2.0, 1.0], [1.0, 3.0]])
        t = transform_field(field, np.eye(2))
        val = potential(t, [1.0, 0.0], RULE)
        assert val == pytest.approx(1.0)

    def test_potential_gradient_after_symmetrizer(self):
        J = np.array([[-1.0, 2.0], [0.0, -3.0]])
        rep = solve_symmetrizer(J)
        D = rep.chosen_D
        t = transform_field(quadratic(J), D)
        for x in sample_ball(2, 6, 1.0, seed=13):
            f = eval_field(t, x)
            h = 1e-6
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (potential(t, x + e, RULE)
                      - potential(t, x - e, RULE)) / (2 * h)
                assert abs(fd - f[i]) < 1e-8

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradiform import (BarrierViolation, ConstantVerdict, MatrixFamily,
                       QuadratureRule, VectorField, antiexact_part,
                       consistency_check, eval_field, general_residual,
                       jacobian, potential, sample_ball,
                       solve_consistency_constant, solve_general,
                       solve_symmetrizer, transform_field)
from gradiform.fields import _central_difference, fd_step
from gradiform import gradientize
from gradiform.gradientize import (_constant_solve_report,
                                  _min_norm_above_identity, _null_basis,
                                  _residual_sweep, _sym_basis)
from gradiform.zoo import (double_well, jj_circuit, jj_circuit_linear,
                           lorenz, ou, quadratic, rotation)

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


def symmetrizer_basis(J):
    """A Frobenius-orthonormal basis of {S symmetric : S J = J^T S}."""
    sym_basis = _sym_basis(J.shape[0])
    M = np.column_stack([(B @ J - J.T @ B).ravel() for B in sym_basis])
    return [sum(ci * Bi for ci, Bi in zip(c, sym_basis))
            for c in _null_basis(M)]


def symmetrizer_nelder_mead(J):
    """The former solve_symmetrizer: maximise lambda_min(S) / |S|_F over the
    symmetrizer space by Nelder-Mead from 14 starts, 8 of them random."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    basis = symmetrizer_basis(J)
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
        return _constant_solve_report(J, basis, None)
    S = 0.5 * (best_S + best_S.T)
    S /= np.linalg.eigvalsh(S)[-1]
    return _constant_solve_report(J, basis, np.linalg.cholesky(S).T)


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


def chosen_D_reference(basis, n):
    """The search one draw at a time: the first draw of largest |det|."""
    if not basis:
        return None
    rng = np.random.default_rng(gradientize.SEARCH_SEED)
    best_det, chosen = 0.0, None
    for _ in range(gradientize.SEARCH_DRAWS):
        c = rng.standard_normal(len(basis))
        c /= np.linalg.norm(c)
        D = sum(ci * Bi for ci, Bi in zip(c, basis))
        D /= np.linalg.norm(D, "fro") / np.sqrt(n)
        d = abs(np.linalg.det(D))
        if d > best_det:
            best_det, chosen = d, D
    return chosen if best_det > gradientize.DET_FLOOR else None


def _orthogonal(seed, n):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (n, n)))[0]


def _spd_unit_det(seed, n):
    A = np.random.default_rng(seed).standard_normal((n, n))
    S = A @ A.T + np.eye(n)
    return S / np.linalg.det(S) ** (1.0 / n)


class TestConsistencyConstant:
    @pytest.mark.parametrize("J", [
        ROT, np.eye(1), np.eye(3), np.eye(4), _orthogonal(3, 2),
        _orthogonal(4, 3), _orthogonal(5, 4), _spd_unit_det(6, 2),
        np.random.default_rng(1).standard_normal((3, 3))],
        # nullspaces of 1, 1, 6, 10, 1, 2, 2, 1 and 0 matrices
        ids=["rot", "one", "eye3", "eye4", "orth2", "orth3", "orth4", "spd2",
             "random3"])
    def test_chosen_D_equals_draw_by_draw_search(self, J):
        rep = solve_consistency_constant(J)
        ref = chosen_D_reference(rep.nullspace_basis, J.shape[0])
        if ref is None:
            assert rep.chosen_D is None
        else:
            assert rep.chosen_D.tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(0, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_chosen_D_equals_draw_by_draw_search_on_form_preserving_J(
            self, n, m, seed):
        # J = expm(A^-1 K), A symmetric nondegenerate and K skew, keeps the
        # form A (J^T A J = A), so D = A J^(-1/2) solves D = J^T D^T and
        # the search always runs.  K lives on the leading m coordinates:
        # nullspaces of dimension 1 to 10, so the order in which each D
        # sums its terms shows
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = Q @ np.diag(rng.uniform(0.5, 2.0, n)
                        * rng.choice([-1.0, 1.0], n)) @ Q.T
        K = np.zeros((n, n))
        K[:m, :m] = rng.standard_normal((min(m, n),) * 2)
        rep = solve_consistency_constant(expm(np.linalg.solve(A, K - K.T)))
        assert rep.nullspace_basis
        ref = chosen_D_reference(rep.nullspace_basis, n)
        assert rep.chosen_D.tobytes() == ref.tobytes()

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


@pytest.mark.parametrize("solver", [solve_consistency_constant,
                                    solve_symmetrizer])
@pytest.mark.parametrize("J", [
    np.ones((2, 3)), np.ones(3), np.float64(1.0), np.ones((2, 2, 2)),
    [[1.0, np.nan], [0.0, 1.0]], [[np.inf]]],
    ids=["2x3", "vector", "scalar", "stack", "nan", "inf"])
def test_constant_solvers_take_only_a_finite_square_J(solver, J):
    with pytest.raises(ValueError, match="finite square matrix"):
        solver(J)


class TestCheckNecessary:
    """The necessary residual max|S J - J^T S|, S = D^T D, of a report."""

    def test_identity_symmetric(self):
        J = np.array([[2.0, 1.0], [1.0, 3.0]])
        rep = _constant_solve_report(J, [], np.eye(2))
        assert rep.necessary_residual == 0.0

    def test_hand_arithmetic(self):
        D = np.array([[1.0, -1.0], [1.0, 1.0]])
        # D^T D = 2I, so the residual is max|2J - 2J^T| = 4
        rep = _constant_solve_report(ROT, [], D)
        assert rep.necessary_residual == pytest.approx(4.0)

    def test_zero_jacobian(self):
        D = np.array([[3.0, 1.0], [0.0, 2.0]])
        rep = _constant_solve_report(np.zeros((2, 2)), [], D)
        assert rep.necessary_residual == 0.0


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


def kkt_residual(J):
    """The relative stationarity residual of solve_symmetrizer's S, which
    solves min |c| subject to S(c) = sum c_k B_k >= I: with S scaled to
    lambda_min = 1, the multiplier Z = V Y V^T >= 0 on the eigenvectors V
    of lambda <= 1 + 1e-6 must give <Z, B_k> = c_k (Boyd & Vandenberghe,
    Convex Optimization, ch. 5).  Y is fitted by least squares and must be
    positive semidefinite."""
    basis = np.array(symmetrizer_basis(J))
    D = solve_symmetrizer(J).chosen_D
    S = D.T @ D
    S /= np.linalg.eigvalsh(S)[0]
    c = np.einsum("kij,ij->k", basis, S)  # the basis is orthonormal
    w, V = np.linalg.eigh(S)
    V = V[:, w <= 1.0 + 1e-6]
    iu = np.triu_indices(V.shape[1])
    # <V Y V^T, B_k> = sum_ab Y_ab (V^T B_k V)_ab, Y symmetric
    A = (V.T @ basis @ V)[:, iu[0], iu[1]] \
        * np.where(iu[0] == iu[1], 1.0, 2.0)
    y = np.linalg.lstsq(A, c, rcond=None)[0]
    Y = np.zeros((V.shape[1],) * 2)
    Y[iu] = y
    Y = Y + Y.T - np.diag(np.diag(Y))
    assert np.linalg.eigvalsh(Y)[0] >= -1e-6 * np.max(np.abs(Y))
    return float(np.linalg.norm(A @ y - c) / np.linalg.norm(c))


# the benchmark survey's quadratic1: the second 3x3 draw of seed 7
QUADRATIC1 = np.round(np.random.default_rng(7).standard_normal((2, 3, 3))[1],
                      6)


def test_kkt_certificate():
    # 300 random real-diagonalizable 2x2 to 4x4 matrices, cond(P) capped at
    # 50 and at 500, and the fixed cases
    cases = [random_real_diagonalizable(np.random.default_rng(seed),
                                        2 + seed % 3, (50.0, 500.0)[seed % 2])
             for seed in range(300)]
    cases += [jacobian(lorenz(), np.zeros(3)), SPLIT_PAIR, QUADRATIC1]
    assert max(kkt_residual(J) for J in cases) <= 1e-6


def _stops_short(seed):
    # P diag(1, 1, 2) P^-1 with cond(P) 583 (seed 158) and 1605 (seed 29):
    # the optimal S has cond ~ 1e5, and the barrier's slack reaches the
    # rounding of S before the gap target
    rng = np.random.default_rng(seed)
    rng.standard_normal((3, 3))
    P = rng.standard_normal((3, 3))
    return P @ np.diag([1.0, 1.0, 2.0]) @ np.linalg.inv(P)


@pytest.mark.parametrize("seed, bound", [(158, 2.34e-5), (29, 2.40e-5)])
def test_kkt_certificate_where_the_path_stops_short(seed, bound):
    # the certificate sees the solver stop short here; the bound is the
    # residual of the path without a predictor, rounded up
    assert kkt_residual(_stops_short(seed)) <= bound


def test_lorenz_solve_eigendecompositions(monkeypatch):
    # 29 eigh/eigvalsh calls on Lorenz's J(0); a path without the tangent
    # predictor takes 71
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _f=getattr(np.linalg, name), **kw):
            calls.append(1)
            return _f(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    J = jacobian(lorenz(), np.zeros(3))
    assert solve_symmetrizer(J).verdict is ConstantVerdict.GRADIENTIZED
    assert len(calls) <= 40


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

    @pytest.mark.parametrize("field", [lorenz(), double_well(),
                                       jj_circuit(), quadratic(np.eye(2))])
    def test_carries_the_degree(self, field):
        # x = D y keeps a polynomial's degree; a field with none has none
        D = np.eye(field.dim) + 0.5 * np.tri(field.dim, k=-1)
        assert transform_field(field, D).degree == field.degree

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # at build time, not at the first evaluation far from the cause
        with pytest.raises(ValueError, match="finite"):
            transform_field(rotation(), [[bad, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("D", [np.eye(2), np.eye(3)[:2], np.ones(3)])
    def test_wrong_shape_rejected(self, D):
        with pytest.raises(ValueError, match="match the field dimension"):
            transform_field(lorenz(), D)


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


def family_at(family, y, theta):
    """D and dD/dy (dD[..., i, j, q] = d D_ij / d y_q) at one point y
    (dim,) or at stacked points (..., dim)."""
    return family._evaluate(theta, family._tables(y))


def constant_family(D):
    """The degree-0 family and the theta that give the constant D."""
    D = np.asarray(D, dtype=float)
    return MatrixFamily(dim=len(D), degree=0), D.ravel()


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
        D, dD = family_at(family, Y, theta)
        assert D.shape == (7, dim, dim) and dD.shape == (7, dim, dim, dim)
        for m, y in enumerate(Y):
            ref_D, ref_dD = family_reference(family, y, theta)
            assert np.array_equal(D[m], ref_D)
            assert np.array_equal(D[m], family_at(family, y, theta)[0])
            assert np.array_equal(dD[m], ref_dD)
            assert np.array_equal(dD[m], family_at(family, y, theta)[1])

    @pytest.mark.parametrize("dim, degree", [(0, 1), (-1, 1), (2, -1)])
    def test_bad_family_rejected_when_built(self, dim, degree):
        with pytest.raises(ValueError, match="dim >= 1 and degree >= 0"):
            MatrixFamily(dim=dim, degree=degree)

    @pytest.mark.parametrize("size", [0, 35, 37])
    def test_wrong_sized_theta_rejected(self, size):
        family = MatrixFamily(dim=3, degree=1)  # 9 entries x 4 monomials
        with pytest.raises(ValueError, match=r"must have shape \(36,\)"):
            family_at(family, np.zeros(3), np.zeros(size))

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
                fd = (family_at(family, y + e, theta)[0]
                      - family_at(family, y - e, theta)[0]) / (2 * h)
                assert np.allclose(family_at(family, y, theta)[1][:, :, q], fd,
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

    def test_consistency_residual_takes_the_default_rule(self):
        # the report's check is consistency_check on the first 8 samples
        # with the 64-node rule, whatever rule a caller uses elsewhere
        field = lorenz()
        family = MatrixFamily(dim=3, degree=1)
        samples = sample_ball(3, 12, 1.0, seed=21)
        rep = solve_general(field, family, samples, max_iter=3)
        assert rep.consistency_residual == consistency_check(
            field, family, rep.theta_final, samples[:8],
            QuadratureRule.gauss_legendre(64))
        assert np.isfinite(rep.consistency_residual)

    @pytest.mark.parametrize("field", [ou(), double_well(),
                                       quadratic([[-1.0]])],
                             ids=["ou", "double_well", "quadratic"])
    def test_one_dimensional_field_is_closed_at_the_start(self, field):
        # a 1-D form is always closed: its residual has no i < k entry,
        # so its rms is 0 and the identity start needs no iteration
        family = MatrixFamily(dim=1, degree=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_general(field, family, sample_ball(1, 8, 1.0, seed=3))
        assert (rep.converged, rep.iterations, rep.residual_norm) \
            == (True, 0, 0.0)
        assert np.array_equal(rep.theta_final, family.identity_params())

    @pytest.mark.parametrize("samples", [[], np.empty((0, 2))])
    def test_no_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be nonempty"):
            solve_general(rotation(), MatrixFamily(dim=2, degree=1), samples)

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


# two points of the plane, for the fits whose every exit is pinned below
EXIT_SAMPLES = np.array([[1.0, 0.5], [-0.3, 0.8]])


class TestSolveGeneralExits:
    def test_zero_gradient_stops_at_the_start(self):
        # the rotation's Jacobian K is normal (K K^T = K^T K), so every
        # first-order change of a constant D leaves |D K D^-1 - (.)^T|
        # unchanged: the gradient is 0 at the identity
        family = MatrixFamily(dim=2, degree=0)
        rep = solve_general(rotation(), family, EXIT_SAMPLES, max_iter=3)
        assert (rep.iterations, rep.converged) == (1, False)
        assert np.array_equal(rep.theta_final, family.identity_params())
        assert rep.residual_norm == 2.0
        assert rep.consistency_residual == 1.0  # |g| = |x|, at (1, 0.5)

    def test_barrier_refuses_a_step(self, monkeypatch):
        # for g = Q x, Q = [[0, b], [c, 0]], with b + c = 1 and
        # b - c = 2 + DAMPING0, the first damped step takes D_11 from 1
        # to 0 up to rounding: the barrier refuses it, once
        refused = []
        make = gradientize._residual_sweep

        def counted(*args):
            sweep = make(*args)

            def run(theta):
                try:
                    return sweep(theta)
                except BarrierViolation:
                    refused.append(theta)
                    raise
            return run

        monkeypatch.setattr(gradientize, "_residual_sweep", counted)
        b, c = 3.001 / 2, -1.001 / 2
        family = MatrixFamily(dim=2, degree=0)
        rep = solve_general(quadratic([[0.0, b], [c, 0.0]]), family,
                            EXIT_SAMPLES, max_iter=3)
        assert len(refused) == 1 and abs(refused[0][0]) < 1e-12
        assert (rep.iterations, rep.converged) == (3, False)
        assert np.array_equal(rep.theta_final, family.identity_params())
        assert rep.residual_norm == pytest.approx(2.001, rel=1e-12)
        assert rep.consistency_residual == pytest.approx(1.0005, rel=1e-12)

    def test_tiny_step_stops_the_fit(self):
        # Q is 1e8 times a diagonal plus an antisymmetric 5e-15: the
        # first step, of norm about 7e-15, is accepted and ends the fit,
        # with the rms above TARGET_RMS
        Q = 1e8 * np.array([[-1.0, 5e-15], [-5e-15, -2.0]])
        family = MatrixFamily(dim=2, degree=0)
        rep = solve_general(quadratic(Q), family, EXIT_SAMPLES, max_iter=20)
        assert (rep.iterations, rep.converged) == (1, False)
        step = rep.theta_final - family.identity_params()
        assert 0 < np.linalg.norm(step) < 1e-14
        assert rep.residual_norm == pytest.approx(4.9975e-10, rel=1e-4)
        assert rep.consistency_residual == pytest.approx(2.49875e-10,
                                                         rel=1e-4)

    @pytest.mark.parametrize("x2, message", [
        (1.0, "singular dx/dy while inverting"),
        (4e-14, "singular dx/dy at an inverted point")],
        ids=["newton", "after_newton"])
    def test_inversion_failure_is_an_infinite_residual(self, x2, message):
        # D(y) = diag(1, 1 - y_1) is regular at the sample (4, x2), where
        # D_22 = -3, and exactly singular on its ray at t = 1/4, where
        # y_1 = 1.  At x2 = 1 Newton's first matrix there is singular; at
        # x2 = 4e-14 the start already solves x = D(y) y within the
        # tolerance, and dx/dy at it is singular
        theta = MatrixFamily(dim=2, degree=1).identity_params()
        theta[10] = -1.0  # the y_1 coefficient of D_22

        class Start(MatrixFamily):
            def identity_params(self):
                return theta.copy()

        quarter = QuadratureRule(nodes=[0.25], weights=[1.0])
        sample = np.array([[4.0, x2]])
        with pytest.raises(BarrierViolation, match=message):
            consistency_check(rotation(), Start(dim=2, degree=1), theta,
                              sample, quarter)
        rep = solve_general(rotation(), Start(dim=2, degree=1), sample,
                            max_iter=0, quad=quarter)
        assert (rep.iterations, rep.consistency_residual) == (0, np.inf)
        assert np.array_equal(rep.theta_final, theta)

def transform_field_general(field, family, theta):
    """The reference for consistency_check: the transformed field
    f(x) = D(y) g(y), y solving x = D(y) y, with its Jacobian B M^-1
    (B = df/dy, M = dx/dy) at that y, as gradiform once exported it.

    A vectorized field: Newton iteration from y = x inverts all points in
    lockstep, each stopping at its own tolerance.  theta is copied.
    """
    n, theta = field.dim, np.array(theta, dtype=float)

    def invert(X):
        Y = X.copy()
        todo = np.arange(len(X))
        for _ in range(50):
            D, dD = family_at(family, Y[todo], theta)
            res = np.matmul(D, Y[todo, :, None])[:, :, 0] - X[todo]
            done = np.max(np.abs(res), axis=1) \
                < 1e-13 * (1.0 + np.max(np.abs(X[todo]), axis=1))
            todo, D, dD, res = todo[~done], D[~done], dD[~done], res[~done]
            if not todo.size:
                return Y
            M = D + np.einsum("sijq,sj->siq", dD, Y[todo])
            try:
                Y[todo] -= np.linalg.solve(M, res[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                raise BarrierViolation("singular dx/dy while inverting")
        raise RuntimeError("coordinate inversion did not converge at "
                           f"{X[todo[0]]}")

    def func(x):
        Y = invert(np.reshape(x, (-1, n)))
        f = np.matmul(family_at(family, Y, theta)[0],
                      eval_field(field, Y)[:, :, None])[:, :, 0]
        return f.reshape(np.shape(x))

    def jac(x):
        Y = invert(np.reshape(x, (-1, n)))
        D, dD = family_at(family, Y, theta)
        B, M = gradientize._chain_rule(D, dD, Y, eval_field(field, Y),
                                       jacobian(field, Y))
        try:
            A = B @ np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise BarrierViolation("singular dx/dy at an inverted point")
        return A.reshape(np.shape(x) + (n,))

    return VectorField(dim=n, func=func, jac=jac, vectorized=True)


class TestTransformFieldGeneral:
    """The reference field itself: its inverse and its Jacobian."""


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
        J = jacobian(tfield, X)
        for m, x in enumerate(X):
            assert np.array_equal(J[m], jacobian(tfield, x))
        # central differences err by about h^2 times the third derivative
        # plus eps |f| / h, near 1e-10 here
        central = jacobian(VectorField(tfield.dim, tfield.func,
                                       vectorized=tfield.vectorized), X)
        assert np.max(np.abs(J - central)) \
            <= 1e-8 * (1.0 + np.max(np.abs(J)))


def _value_or_error(check):
    try:
        return check()
    except (BarrierViolation, RuntimeError) as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(make=st.sampled_from([lorenz, jj_circuit]), degree=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.0, 0.05),
       order=st.sampled_from([16, 64]))
# the inversion of this one does not converge: RuntimeError from both
@example(make=lorenz, degree=2, seed=9, scale=0.05, order=16)
def test_consistency_check_equals_reference_field(make, degree, seed, scale,
                                                  order):
    # the antiexact part of the reference field at the same points, bit
    # for bit, or the same exception from both
    field, family = make(), MatrixFamily(dim=3, degree=degree)
    theta = perturbed_identity(family, seed, scale=scale)
    X = sample_ball(3, 8, 1.5, seed=seed)
    quad = QuadratureRule.gauss_legendre(order)
    new = _value_or_error(
        lambda: consistency_check(field, family, theta, X, quad))
    ref = _value_or_error(lambda: float(np.max(np.abs(antiexact_part(
        transform_field_general(field, family, theta), X, quad)))))
    assert new == ref


def consistency_check_fd(tfield, samples, quad=None):
    """The former consistency_check: central differences of the ray
    potential, 2n potentials per sample, against the field."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    dV = _central_difference(lambda P: potential(tfield, P, quad), samples,
                             fd_step(samples))
    return float(np.max(np.abs(dV - eval_field(tfield, samples))))


class TestConsistencyAndPotential:
    @pytest.mark.parametrize("quad", [RULE, None], ids=["rule64", "default"])
    @pytest.mark.parametrize("case", [
        "lorenz-1", "lorenz-2", "jj_circuit-1", "jj_circuit-2", "rotation",
        "lorenz-diag123"])
    def test_matches_fd_of_potential(self, case, quad):
        # the homotopy formula makes the two equal; the central difference
        # of V errs by about h^2 times its third derivative (h = cbrt(eps)),
        # 5e-11 relative or less on these cases; the bound is 1e-8 relative
        # rotation and diag123 take the constant-D path, against fields
        # built without it
        name, _, spec = case.partition("-")
        if name == "rotation":
            field = tfield = rotation()
            family, theta = constant_family(np.eye(2))
        elif spec == "diag123":
            field, D = lorenz(), np.diag([1.0, 2.0, 3.0])
            family, theta = constant_family(D)
            tfield = transform_field(field, D)
        else:
            field = lorenz() if name == "lorenz" else jj_circuit()
            family = MatrixFamily(dim=3, degree=int(spec))
            theta = perturbed_identity(family, 1, scale=0.02)
            tfield = transform_field_general(field, family, theta)
        samples = sample_ball(tfield.dim, 8, 1.0, seed=3)
        new = consistency_check(field, family, theta, samples, quad)
        ref = consistency_check_fd(tfield, samples, quad)
        assert abs(new - ref) <= 1e-8 * ref

    def test_closed_transformed_field(self):
        field = quadratic([[2.0, 1.0], [1.0, 3.0]])
        family = MatrixFamily(dim=2, degree=1)
        samples = sample_ball(2, 6, 1.0, seed=10)
        assert consistency_check(field, family, family.identity_params(),
                                 samples, RULE) < 1e-6

    def test_rotation_violation_reported(self):
        val = consistency_check(rotation(), *constant_family(np.eye(2)),
                                sample_ball(2, 6, 1.0, seed=11), RULE)
        assert val > 0.1  # order-one violation, reported not raised

    def test_lorenz_after_constant_transform_nonzero(self):
        val = consistency_check(lorenz(), *constant_family(
            np.diag([1.0, 2.0, 3.0])), sample_ball(3, 4, 1.0, seed=12), RULE)
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


# -- oracles: fields and matrices with a gradientizing D known by
# construction ---------------------------------------------------------------

ORACLE_SAMPLES = sample_ball(3, 32, 1.0, 12345)


def manufactured_field(a, seed):
    """g(y) = D*(y)^-1 grad V(D*(y) y) for theta* = identity + a N(0, 1)
    in MatrixFamily(3, 1) and V(x) = x^T Q x / 2 - sum_i x_i^4 / 4, with
    Q = -(B B^T / 3 + I / 2) negative definite: D* g = grad V(x) is closed,
    so the family holds a solution.  Its Jacobian is closed-form:
    J_g = D^-1 (H_V(x) M - dD.g), H_V = Q - 3 diag(x^2), M = D + dD.y."""
    family = MatrixFamily(3, 1)
    rng = np.random.default_rng(seed)
    theta = family.identity_params() + a * rng.standard_normal(
        family.n_params)
    B = rng.standard_normal((3, 3))
    Q = -(B @ B.T / 3.0 + 0.5 * np.eye(3))

    def parts(y):
        D, dD = family._evaluate(theta, family._tables(y))
        x = np.matmul(D, y[..., None])[..., 0]
        grad = np.matmul(Q, x[..., None])[..., 0] - x ** 3
        return D, dD, x, np.linalg.solve(D, grad[..., None])[..., 0]

    def jac(y):
        D, dD, x, g = parts(y)
        M = D + np.einsum("...ijq,...j->...iq", dD, y)
        H = Q - 3.0 * x[..., None, :] ** 2 * np.eye(3)
        return np.linalg.solve(
            D, H @ M - np.einsum("...ijq,...j->...iq", dD, g))

    return VectorField(dim=3, func=lambda y: parts(y)[3], jac=jac,
                       vectorized=True)


@pytest.mark.parametrize("a, seed", [(0.05, 0), (0.2, 1)])
def test_manufactured_jacobian_is_the_central_difference(a, seed):
    field, h = manufactured_field(a, seed), 1e-6
    fd = np.stack([(field.func(ORACLE_SAMPLES + h * e)
                    - field.func(ORACLE_SAMPLES - h * e)) / (2 * h)
                   for e in np.eye(3)], axis=-1)
    assert np.abs(jacobian(field, ORACLE_SAMPLES) - fd).max() <= 1e-8


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.0, 0.05), seed=st.integers(0, 2 ** 32 - 1))
@example(a=0.05, seed=0)
@example(a=0.05, seed=1)
@example(a=0.05, seed=2)
def test_solve_general_closes_manufactured_fields(a, seed):
    # the theta found is not c theta*, so closedness is checked, not theta
    rep = solve_general(manufactured_field(a, seed), MatrixFamily(3, 1),
                        ORACLE_SAMPLES, max_iter=200)
    assert rep.converged
    assert rep.consistency_residual < 1e-8


@pytest.mark.parametrize("seed", [
    1, 2, pytest.param(0, marks=pytest.mark.xfail(
        strict=True, reason="LM stalls at rms 2e-2 after about 100 "
        "iterations: ROADMAP items 1 (stop reason) and 9 (series start)"))])
def test_solve_general_closes_larger_manufactured_draws(seed):
    rep = solve_general(manufactured_field(0.2, seed), MatrixFamily(3, 1),
                        ORACLE_SAMPLES, max_iter=200)
    assert rep.converged
    assert rep.consistency_residual < 1e-8


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_consistency_nullspace_holds_the_invariant_form_solution(n, seed):
    # for symmetric nondegenerate A and skew K, J = expm(A^-1 K) keeps A:
    # J^T A J = A, and then D0 = A (I + J)^-1 solves D = J^T D^T
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(seed)
    P = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = P @ np.diag(rng.uniform(0.5, 2.0, n)
                    * rng.choice([-1.0, 1.0], n)) @ P.T
    G = rng.standard_normal((n, n))
    J = expm(np.linalg.solve(A, G - G.T))
    D0 = A @ np.linalg.inv(np.eye(n) + J)
    rep = solve_consistency_constant(J)
    basis = np.array([Bi.ravel() for Bi in rep.nullspace_basis])
    d = (D0 / np.linalg.norm(D0)).ravel()
    assert np.linalg.norm(d - basis.T @ (basis @ d)) <= 1e-10
    # in the nullspace S J - J^T S = (D^T)^2 - D^2 for S = D^T D; D^2 is
    # not symmetric, since that would force J = J^T
    D = rep.chosen_D
    ref = np.max(np.abs(D.T @ D.T - D @ D))
    assert abs(rep.necessary_residual - ref) \
        <= 1e-12 * np.max(np.abs(D)) ** 2 * (1.0 + np.max(np.abs(J)))
    assert rep.verdict is ConstantVerdict.CONSISTENCY_ONLY


@pytest.mark.parametrize("n", [2, 3, 4])
def test_consistency_identity_form_gradientized(n):
    # K = 0: J = expm(0) = I, whose nullspace is every symmetric D
    rep = solve_consistency_constant(np.eye(n))
    assert rep.nullspace_dim == n * (n + 1) // 2
    assert rep.verdict is ConstantVerdict.GRADIENTIZED

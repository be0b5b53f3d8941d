"""Generalized change of variables x = D(y) y that renders the
transformed one-form closed: constant-matrix solvers and the
collocation solver for position-dependent D."""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations_with_replacement
from typing import Optional

import numpy as np

from .fields import (VectorField, _apply, _as_points, _check_finite,
                     _matvec, eval_field, jacobian)
from .homotopy import QuadratureRule, _antiexact_integral, _ray, _rule
from .integrability import DEFAULT_TOL, _relative_asymmetry

NULLSPACE_RTOL = 1e-10
DET_FLOOR = 1e-10
SEARCH_DRAWS = 64
SEARCH_SEED = 0  # the random draws of solve_consistency_constant
EIG_COND_MAX = 1e6  # a larger cond(P) puts the symmetrizer optimum < 1e-8
PATH_GROWTH = 200.0  # the predictor's first try; then its square roots
GAP_RTOL = 1e-10
NEWTON_TOL = 1e-2  # above the decrement's rounding floor at the path's end
NEWTON_MAX_STEPS = 50
# solve_general: LM start damping and stopping rms, log-barrier
DAMPING0 = 1e-3
TARGET_RMS = 1e-10
BARRIER_DET_FLOOR = 1e-6


class BarrierViolation(RuntimeError):
    """D(y; theta) singular at a collocation sample."""


class ConstantVerdict(enum.Enum):
    GRADIENTIZED = "Gradientized"
    CONSISTENCY_ONLY = "ConsistencyOnlySolution"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class ConstantSolveReport:
    nullspace_basis: list
    nullspace_dim: int  # len(nullspace_basis)
    chosen_D: Optional[np.ndarray]
    necessary_residual: float
    transformed_asymmetry: float
    consistency_residual: float
    verdict: ConstantVerdict
    # |det J - 1|: an invertible solution of D = J^T D^T forces det J = 1
    det_precondition_gap: float
    identity_solves_necessary: bool


def _square(J) -> np.ndarray:
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or not np.isfinite(J).all():
        raise ValueError("J must be a finite square matrix")
    return J


def _constant_solve_report(J: np.ndarray, basis: list,
                           D: Optional[np.ndarray]) -> ConstantSolveReport:
    """Residuals and verdict of a constant solve that chose an invertible
    D, or found none (None): the Infeasible report, its residuals inf.
    The necessary residual is max|S J - J^T S| with S = D^T D."""
    necessary = asym = consistency = np.inf
    verdict = ConstantVerdict.INFEASIBLE
    if D is not None:
        S = D.T @ D
        necessary = float(np.max(np.abs(S @ J - J.T @ S)))
        A = D @ J @ np.linalg.inv(D)
        asym = _relative_asymmetry(A)
        # for a linear field the exact-part gradient is sym(A) x
        consistency = 0.5 * float(np.max(np.abs(A - A.T)))
        if (necessary / (1.0 + float(np.max(np.abs(J)))) <= DEFAULT_TOL
                and asym <= DEFAULT_TOL):
            verdict = ConstantVerdict.GRADIENTIZED
        else:
            verdict = ConstantVerdict.CONSISTENCY_ONLY
    return ConstantSolveReport(
        nullspace_basis=basis, nullspace_dim=len(basis), chosen_D=D,
        necessary_residual=necessary, transformed_asymmetry=asym,
        consistency_residual=consistency,
        verdict=verdict, det_precondition_gap=abs(np.linalg.det(J) - 1.0),
        identity_solves_necessary=_relative_asymmetry(J) <= DEFAULT_TOL)


def _null_basis(M: np.ndarray) -> list[np.ndarray]:
    """Right-singular vectors of M with sigma <= rtol * sigma_max."""
    _, s, vt = np.linalg.svd(M)
    smax = s[0] if s.size else 0.0
    null = [vt[i] for i in range(vt.shape[0])
            if i >= s.size or s[i] <= NULLSPACE_RTOL * max(smax, 1.0)]
    return null


def solve_consistency_constant(J) -> ConstantSolveReport:
    """Nullspace of the linear map D -> D - J^T D^T, then an invertible
    representative found by seeded random coefficient search.

    The equation is the constant-matrix consistency relation
    D (D^T)^{-1} = J^T written as a homogeneous linear system.  The
    verdict's threshold is integrability.DEFAULT_TOL.
    """
    J = _square(J)
    n = J.shape[0]
    # vec ordering (i, j) -> i*n + j; (J^T D^T)_{ij} = sum_k J[k, i] D[j, k]
    M = np.eye(n * n) - np.einsum("ja,bi->ijab", np.eye(n), J).reshape(
        n * n, n * n)
    basis = [v.reshape(n, n) for v in _null_basis(M)]

    chosen = None
    if basis:
        # norms are the dot products np.linalg.norm takes, so D and the pick
        # (the first of largest |det|) equal a draw-by-draw search's
        C = np.random.default_rng(SEARCH_SEED).standard_normal(
            (SEARCH_DRAWS, len(basis)))
        C /= np.sqrt(C[:, None, :] @ C[:, :, None])[:, 0]
        D = np.add.reduce(C[:, :, None, None] * np.array(basis), axis=1,
                          initial=0.0)
        F = D.reshape(SEARCH_DRAWS, -1)
        D /= np.sqrt(F[:, None, :] @ F[:, :, None]) / np.sqrt(n)
        dets = np.abs(np.linalg.det(D))
        best = int(np.argmax(dets))
        if dets[best] > DET_FLOOR:
            chosen = D[best]
    return _constant_solve_report(J, basis, chosen)


def _sym_basis(n: int) -> np.ndarray:
    """A Frobenius-orthonormal basis of symmetric matrices: (i, j), i <= j."""
    i, j = np.triu_indices(n)
    k = np.arange(len(i))
    out = np.zeros((len(i), n, n))
    out[k, i, j] = out[k, j, i] = np.where(i == j, 1.0, 1.0 / np.sqrt(2.0))
    return out


def _min_norm_above_identity(J: np.ndarray, basis: np.ndarray
                             ) -> Optional[np.ndarray]:
    """argmin |c| subject to S(c) = sum c_k B_k >= I, by log-barrier path
    following (Boyd & Vandenberghe, Convex Optimization, ch. 11) from P^-T
    P^-1 (J = P diag(w) P^-1) scaled to lambda_min = 2; None when P is
    ill-conditioned or that start is not positive definite.  The damped
    Newton step needs no line search: the barrier is self-concordant.
    Each centring starts from the path's tangent, linear in 1/t, at mu t:
    the largest mu of PATH_GROWTH and its square roots that stays feasible.

    A one-element basis (n = 1) takes the closed form c = 1 / lambda, for
    the eigenvalue lambda of B nearest 0 on the side of B's sign; None when
    B is indefinite."""
    if len(basis) == 1:
        lo, hi = np.linalg.eigvalsh(basis[0])[[0, -1]]
        return (np.array([1.0 / lo]) if lo > 0 else
                np.array([1.0 / hi]) if hi < 0 else None)
    _, P = np.linalg.eig(J)
    if np.linalg.cond(P) > EIG_COND_MAX:
        return None
    Pinv = np.linalg.inv(P)
    # P^-H P^-1: its real part also covers a repeated eigenvalue that
    # rounding split into a complex pair
    c = np.einsum("kij,ij->k", basis, (Pinv.conj().T @ Pinv).real)
    m, n = basis.shape[:2]
    # S(c) = (c @ flat).reshape(n, n), the product tensordot(c, basis, 1)
    # forms, bit for bit
    flat, eye, eye_m = basis.reshape(m, -1), np.eye(n).ravel(), np.eye(m)
    lam = np.linalg.eigvalsh((c @ flat).reshape(n, n))[0]
    if not lam > 0:
        return None
    c *= 2.0 / lam
    t = 10.0 / (c @ c)
    centred, h, mus = c, 0.0 * c, [1.0]
    while True:
        for mu in mus:
            c = centred - t * (1.0 - 1.0 / mu) * h
            lam, Q = np.linalg.eigh((c @ flat - eye).reshape(n, n))
            if lam[0] > 0:
                break
        else:  # the slack fell below the rounding of S
            return centred
        t *= mu
        for _ in range(NEWTON_MAX_STEPS):
            # Bt_k = W^1/2 B_k W^1/2 for W = (S - I)^-1, in its eigenbasis:
            # tr(W B_k) = tr(Bt_k) and tr(W B_k W B_l) = <Bt_k, Bt_l>
            Qs = Q / np.sqrt(lam)
            A = (Qs.T @ basis @ Qs).reshape(m, -1)
            g = t * c - A @ eye
            # one solve gives the Newton step -H^-1 g and the path's
            # tangent dc/dt = -H^-1 c, h = H^-1 c
            x, h = np.linalg.solve(t * eye_m + A @ A.T, np.array([g, c]).T).T
            decrement = max(g @ x, 0.0) ** 0.5
            c = c - x / (1.0 + decrement)
            if decrement < NEWTON_TOL:
                break
            lam, Q = np.linalg.eigh((c @ flat - eye).reshape(n, n))
            if lam[0] <= 0:
                return centred
        centred = c
        if n / t < GAP_RTOL * (c @ c):  # the duality gap of the barrier
            return c
        mus = PATH_GROWTH ** 0.5 ** np.arange(4)


def solve_symmetrizer(J) -> ConstantSolveReport:
    """Find symmetric positive-definite S with S J = J^T S, then D from
    the Cholesky factorization S = D^T D.

    S is the unique maximiser of lambda_min(S) / |S|_F over the
    symmetrizer space (min |S|_F subject to S >= I), scaled to
    lambda_max(S) = 1.  Infeasible when the space is empty, J is defective
    (cond(P) > EIG_COND_MAX), the start is not positive definite (as for
    any complex spectrum), or the optimum is at most 1e-8.  The verdict's
    threshold is integrability.DEFAULT_TOL.
    """
    J = _square(J)
    n = J.shape[0]
    sym_basis = _sym_basis(n)
    k = len(sym_basis)
    coeffs = np.array(_null_basis(
        (sym_basis @ J - J.T @ sym_basis).reshape(k, -1).T)).reshape(-1, k)
    # each B = sum_i coeffs_i sym_i, summed in order from +0.0: an entry
    # that is zero in every term is 0.0, never -0.0
    basis = np.add.reduce(coeffs[:, :, None, None] * sym_basis, axis=1,
                          initial=0.0)

    c = _min_norm_above_identity(J, basis) if len(basis) else None
    S = None if c is None else np.tensordot(c / np.linalg.norm(c), basis, 1)
    w = [0.0] if S is None else np.linalg.eigvalsh(S)
    # D^T D = S / lambda_max(S), with D upper triangular
    D = None if w[0] <= 1e-8 else np.linalg.cholesky(S / w[-1]).T
    return _constant_solve_report(J, list(basis), D)


def transform_field(field: VectorField, D) -> VectorField:
    """f(x) = D g(D^{-1} x); Jacobian D J_g(D^{-1} x) D^{-1}.

    The transformed field is vectorized: stacked points go through the
    base field in one batch, and the base field's values get their own
    shape check.  The field keeps its own copy of D.
    """
    D = np.array(D, dtype=float)
    n = field.dim
    if D.shape != (n, n) or not np.isfinite(D).all():
        raise ValueError("D must be finite and match the field dimension")
    Dinv = np.linalg.inv(D)  # raises LinAlgError when singular

    def func(x):
        return _matvec(D, _apply(field, field.func, _matvec(Dinv, x),
                                 (n,), "field"))

    def jac(x):
        return D @ jacobian(field, _matvec(Dinv, x)) @ Dinv

    return VectorField(dim=n, func=func, jac=jac, vectorized=True,
                       degree=field.degree)


@dataclass(frozen=True)
class MatrixFamily:
    """Matrix function D(y) with polynomial entries up to total degree d.

    Parameters theta are ordered entry-major: for each (i, j) the
    monomial coefficients in the order of self.monomials.
    """

    dim: int
    degree: int = 1

    def __post_init__(self):
        if self.dim < 1 or self.degree < 0:
            raise ValueError(f"a family needs dim >= 1 and degree >= 0; "
                             f"got dim {self.dim}, degree {self.degree}")

    @cached_property
    def monomials(self) -> list[tuple[int, ...]]:
        # constant term first, then each index tuple before its extensions
        return [()] + sorted(chain.from_iterable(
            combinations_with_replacement(range(self.dim), d)
            for d in range(1, self.degree + 1)))

    @property
    def n_params(self) -> int:
        return self.dim * self.dim * len(self.monomials)

    def identity_params(self) -> np.ndarray:
        theta = np.zeros(self.n_params)
        # the constant term of each diagonal entry (i, i)
        theta[::(self.dim + 1) * len(self.monomials)] = 1.0
        return theta

    def _coeffs(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(
                f"theta must have shape ({self.n_params},)")
        return theta.reshape(self.dim, self.dim, len(self.monomials))

    def _tables(self, y) -> tuple[np.ndarray, np.ndarray]:
        """Each monomial at points y (..., dim), (..., n_mono), and its
        derivatives (..., n_mono, dim); they do not depend on theta."""
        y = np.asarray(y, dtype=float)
        mono = np.stack([np.prod(y[..., list(m)], axis=-1)
                         for m in self.monomials], axis=-1)
        dmono = np.zeros(mono.shape + (self.dim,))
        for k, m in enumerate(self.monomials):
            for pos, q in enumerate(m):
                rest = list(m[:pos] + m[pos + 1:])
                dmono[..., k, q] += np.prod(y[..., rest], axis=-1)
        return mono, dmono

    def _evaluate(self, theta, tables) -> tuple[np.ndarray, np.ndarray]:
        """D (..., dim, dim) and its gradient (..., dim, dim, dim) from the
        monomial tables; D takes one matrix-vector product per point and
        row block, so a point's bits do not depend on its batch."""
        c = self._coeffs(theta)
        mono, dmono = tables
        return (np.matmul(c, mono[..., None, :, None])[..., 0],
                np.einsum("ijk,...kq->...ijq", c, dmono))


@dataclass(frozen=True)
class GeneralSolveReport:
    theta_final: np.ndarray
    residual_norm: float
    consistency_residual: float
    iterations: int
    converged: bool


def general_residual(field: VectorField, family: MatrixFamily, theta,
                     samples) -> np.ndarray:
    """Antisymmetrized cross-derivative residuals of the transformed form.

    Derived by the chain rule from f_i(x) = sum_j D_{ij}(y(x)) g_j(y(x))
    with x = D(y) y: with B = df/dy and M = dx/dy, the cross-derivative
    matrix is A = B M^{-1} and the residual stacks (A - A^T)_{ik}, i < k,
    per collocation sample.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    return _residual_sweep(field, family, samples)(theta)[0][:-len(samples)]


def _chain_rule(D, dD, Y, G, Jg) -> tuple[np.ndarray, np.ndarray]:
    """B = df/dy and M = dx/dy at the points Y for f = D(y) g(y) and
    x = D(y) y, from D, dD and g, J_g at Y."""
    return (np.einsum("sijq,sj->siq", dD, G) + D @ Jg,
            D + np.einsum("sijq,sj->siq", dD, Y))


def _residual_sweep(field: VectorField, family: MatrixFamily,
                    samples: np.ndarray):
    """sweep(theta) -> (r, dr/dtheta): the general residual, then one
    log-barrier term per sample, for all samples at once, and its exact
    Jacobian in theta.  g, its Jacobian, the monomial tables and the
    theta-derivatives of B and M do not depend on theta: they are
    computed here, once."""
    n = field.dim
    G = eval_field(field, samples)
    Jg = jacobian(field, samples)
    tables = family._tables(samples)
    mono, dmono = tables
    upper = np.triu_indices(n, 1)
    # D and dD are linear in theta, so are B and M: d/dtheta_(a, j, k)
    # moves only row a of each, by Bp[s, j, k] and Mp[s, j, k]
    Bp = dmono[:, None] * G[:, :, None, None] \
        + mono[:, None, :, None] * Jg[:, :, None, :]
    Mp = dmono[:, None] * samples[:, :, None, None] \
        + mono[:, None, :, None] * np.eye(n)[:, None, :]

    def sweep(theta):
        D, dD = family._evaluate(theta, tables)
        dets = np.abs(np.linalg.det(D))
        B, M = _chain_rule(D, dD, samples, G, Jg)
        singular = (dets <= 1e-12) | (np.abs(np.linalg.det(M)) <= 1e-12)
        if singular.any():
            raise BarrierViolation("singular D(y) or dx/dy at sample "
                                   f"{samples[np.argmax(singular)]}")
        Minv = np.linalg.inv(M)
        A = B @ Minv
        # the barrier is zero while |det D(y)| is above its floor
        r = np.concatenate([
            (A - np.swapaxes(A, 1, 2))[:, upper[0], upper[1]].ravel(),
            np.maximum(0.0, np.log(BARRIER_DET_FLOOR / dets))])
        # dA/dtheta_(a, j, k) = (e_a Bp - A e_a Mp)[s, j, k] M^-1, row i,
        # column l, per sample s
        BW, MW = Bp @ Minv[:, None], Mp @ Minv[:, None]
        dA = np.einsum("ai,sjkl->sajkil", np.eye(n), BW) \
            - np.einsum("sia,sjkl->sajkil", A, MW)
        dr = np.moveaxis((dA - np.swapaxes(dA, -1, -2))[
            ..., upper[0], upper[1]], -1, 1).reshape(-1, family.n_params)
        # d/dtheta of -log|det D| is -tr(D^-1 dD/dtheta) where it is active
        active = dets < BARRIER_DET_FLOOR
        db = -(active[:, None, None] * np.swapaxes(np.linalg.inv(D), 1, 2)
               )[..., None] * mono[:, None, None, :]
        return r, np.concatenate([dr, db.reshape(len(samples), -1)])

    return sweep


def solve_general(field: VectorField, family: MatrixFamily, samples,
                  max_iter: int = 200,
                  quad: QuadratureRule | None = None) -> GeneralSolveReport:
    """Damped least squares (Levenberg-Marquardt with gain-ratio damping)
    on the stacked residual at the collocation samples, plus a log-barrier
    keeping D(y) invertible; at most max_iter iterations, fewer when the
    damping overflows.  The consistency check of the result integrates
    its rays with quad (the shared default rule when None)."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("samples must be nonempty")
    sweep = _residual_sweep(field, family, samples)

    def rms(r):  # 0 for N = 1: a 1-D form is closed, with no i < k entry
        general = r[:r.size - len(samples)]
        return float(np.sqrt(np.mean(general * general))) \
            if general.size else 0.0

    theta = family.identity_params()
    r, Jr = sweep(theta)
    lam = DAMPING0
    nu = 2.0
    iterations = 0
    while not rms(r) < TARGET_RMS and iterations < max_iter:
        iterations += 1
        H = Jr.T @ Jr
        grad = Jr.T @ r
        if np.linalg.norm(grad, np.inf) < 1e-14:
            break
        # a Python float product: inf, not an overflow warning
        if not np.isfinite(lam * float(np.max(np.diag(H)))):
            break
        step = np.linalg.solve(H + lam * np.diag(np.maximum(np.diag(H),
                                                            1e-12)), -grad)
        try:
            r_new, J_new = sweep(theta + step)
            actual = float(r @ r - r_new @ r_new)
        except BarrierViolation:  # a singular step is a rejected step
            actual = -np.inf
        if actual > 0:
            predicted = float(-step @ (2.0 * grad + H @ step))
            gain = actual / predicted if predicted > 0 else -1.0
            theta = theta + step
            r, Jr = r_new, J_new
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
            if np.linalg.norm(step) < 1e-14:
                break
        else:
            lam *= nu
            nu *= 2.0

    final_rms = rms(r)
    converged = final_rms < TARGET_RMS
    try:
        consistency = consistency_check(field, family, theta, samples[:8],
                                        quad)
    except (BarrierViolation, RuntimeError):
        consistency = np.inf
    return GeneralSolveReport(theta_final=theta, residual_norm=final_rms,
                              consistency_residual=consistency,
                              iterations=iterations, converged=converged)


def _invert(family: MatrixFamily, theta, X: np.ndarray) -> np.ndarray:
    """The y solving x = D(y) y at each row x of X: Newton iteration from
    y = x on all rows in lockstep, each stopping at its own tolerance."""
    Y = X.copy()
    todo = np.arange(len(X))
    for _ in range(50):
        D, dD = family._evaluate(theta, family._tables(Y[todo]))
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


def consistency_check(field: VectorField, family: MatrixFamily, theta,
                      samples, quad: QuadratureRule | None = None) -> float:
    """Max deviation of the gradient of the ray potential of f(x) =
    D(y) g(y), x = D(y) y, from f.  By the homotopy formula F = d(kF) +
    k(dF) that is the antiexact part k(dF), which takes f's Jacobian
    B M^-1 (B = df/dy, M = dx/dy) at each ray point's inverse y."""
    # the configured rule, whatever field.degree: f(x) is not polynomial
    X, rule = _as_points(field, samples).reshape(-1, field.dim), _rule(quad)
    ray = _ray(X, rule)
    Y = _invert(family, theta, ray)
    D, dD = family._evaluate(theta, family._tables(Y))
    B, M = _chain_rule(D, dD, Y, eval_field(field, Y), jacobian(field, Y))
    try:
        A = B @ np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise BarrierViolation("singular dx/dy at an inverted point")
    _check_finite(ray, A, "Jacobian entry")
    Js = A.reshape((len(rule.nodes),) + X.shape + X.shape[1:])
    return float(np.max(np.abs(_antiexact_integral(X, rule, Js))))

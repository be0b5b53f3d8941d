"""Vector fields and their Jacobians."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# cube root of machine epsilon: balances truncation vs round-off for
# central differences
_H0 = float(np.finfo(float).eps) ** (1.0 / 3.0)


class FieldEvalError(RuntimeError):
    """Raised when a field evaluation produces non-finite values."""


class FieldShapeError(FieldEvalError):
    """Raised when a field or its Jacobian returns values of the wrong
    shape: a fault in the field, which the integrators do not take for a
    numerical stop."""


@dataclass(frozen=True)
class VectorField:
    """A vector field g on a star-shaped ball about the origin.

    ``func`` maps a point in R^dim to a vector in R^dim.  ``jac``, when
    present, returns the matrix of partial derivatives with row i,
    column j holding d g_i / d x_j.

    With ``vectorized=True`` both also take stacked points: ``func`` maps
    (M, dim) to (M, dim) and ``jac`` maps (M, dim) to (M, dim, dim), row
    by row, while a single point (dim,) still gives (dim,) and
    (dim, dim).  ``eval_field`` and ``jacobian`` then evaluate a whole
    batch in one call; other fields are called point by point.

    ``point``, when present, is ``func`` at one point on Python floats: a
    list of dim floats in, dim values out, with ``func``'s bits.  A lone
    start of ``integrate_rk4`` steps on it, with no numpy call per stage.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    vectorized: bool = False
    point: Optional[Callable[[list], Sequence[float]]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")



def _as_points(field: VectorField, X) -> np.ndarray:
    """X as a float array of one point (dim,) or of stacked points
    (M, dim); any other shape is a ValueError."""
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != field.dim:
        raise ValueError(
            f"point has shape {X.shape}, field dimension is {field.dim}")
    return X


def _apply(field: VectorField, fn, X: np.ndarray, shape: tuple,
           what: str) -> np.ndarray:
    """fn at the points X, each value of the given shape.  A vectorized
    field, or a single point, takes one call and one shape check; any
    other field is called row by row, the only pointwise evaluation
    path."""
    if field.vectorized or X.ndim == 1:
        out = np.asarray(fn(X), dtype=float)
        if out.shape != X.shape[:-1] + shape:
            raise FieldShapeError(f"{what} returned shape {out.shape}, "
                                  f"expected {X.shape[:-1] + shape}")
        return out
    out = np.empty((len(X),) + shape)
    for m, x in enumerate(X):
        val = np.asarray(fn(x), dtype=float)
        if val.shape != shape:
            raise FieldShapeError(
                f"{what} returned shape {val.shape}, expected {shape}")
        out[m] = val
    return out


def _check_finite(X: np.ndarray, values: np.ndarray, what: str) -> None:
    """FieldEvalError naming the first point whose values are not finite."""
    ok = np.isfinite(values)
    if not ok.all():
        bad = ~ok.reshape(X.shape[:-1] + (-1,)).all(axis=-1)
        x = X[bad][0] if X.ndim == 2 else X
        raise FieldEvalError(f"non-finite {what} at x={x}")


def eval_field(field: VectorField, X) -> np.ndarray:
    """g at one point X (dim,) -> (dim,), or at stacked points (M, dim)
    -> (M, dim).

    The shape and finiteness checks run once per batch.
    """
    X = _as_points(field, X)
    G = _apply(field, field.func, X, (field.dim,), "field")
    _check_finite(X, G, "field value")
    return G


def fd_step(x: np.ndarray) -> np.ndarray:
    """Per-coordinate central-difference step h = cbrt(eps)*max(1, |x_i|)."""
    return _H0 * np.maximum(1.0, np.abs(x))


def _central_difference(f, X: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Derivative of f at the points X (..., n) by central differences,
    from one call of f on all 2n shifted copies of every point: the last
    axis of the result holds (f(x + h_j e_j) - f(x - h_j e_j)) / (2 h_j).

    f maps stacked points (K, n) to values (K, ...).
    """
    n = X.shape[-1]
    shifts = np.moveaxis(steps[..., :, None] * np.eye(n), -2, 0)  # h_j e_j
    P = np.stack([X + shifts, X - shifts])  # (2, n, ..., n)
    F = np.asarray(f(P.reshape(-1, n)), dtype=float)
    F = F.reshape(P.shape[:-1] + F.shape[1:])
    diff = np.moveaxis(F[0] - F[1], 0, -1)  # (..., values, n)
    return diff / (2.0 * steps.reshape(
        X.shape[:-1] + (1,) * (diff.ndim - X.ndim) + (n,)))


def jacobian(field: VectorField, X) -> np.ndarray:
    """Matrix J with J[i, j] = d g_i / d x_j at one point X (dim,), or
    one such matrix per row of stacked points (M, dim) -> (M, dim, dim).

    The field's ``jac`` when it has one; otherwise central differences
    at the per-coordinate step ``fd_step``, evaluating all 2*dim*M
    shifted points in one ``eval_field`` call.
    """
    X = _as_points(field, X)
    if field.jac is not None:
        J = _apply(field, field.jac, X, (field.dim, field.dim),
                   "analytic Jacobian")
    else:
        J = _central_difference(lambda P: eval_field(field, P), X,
                                fd_step(X))
    _check_finite(X, J, "Jacobian entry")
    return J


def _matvec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A x at one point, or at each row of stacked points (M, n).

    Every row is summed elementwise, not by BLAS, because a BLAS product
    rounds each row differently with the number of rows.  The products
    P[j, i, m] = A[i, j] X[m, j] are laid out in C order, batch axis
    innermost, and summed over the leading axis j: term by term, left to
    right, for every M.  So a row's bits do not depend on the batch it is
    in, a batch of one included (a reduce over a contiguous axis would
    sum 8 or more terms pairwise), and a single point (n,) is summed as a
    batch of one.  The result is the transposed (M, n) view of the (n, M)
    sums.
    """
    if X.ndim == 1:
        return _matvec(A, X[None])[0]
    P = np.multiply(A.T[:, :, None], X.T[:, None, :], order="C")
    return np.add.reduce(P, axis=0).T

"""Vector fields, Jacobians, and second-order reductions."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# cube root of machine epsilon: balances truncation vs round-off for
# central differences
_H0 = float(np.finfo(float).eps) ** (1.0 / 3.0)


class FieldEvalError(RuntimeError):
    """Raised when a field evaluation produces non-finite values."""


@dataclass(frozen=True)
class VectorField:
    """A vector field g on a star-shaped ball about the origin.

    ``func`` maps a point in R^dim to a vector in R^dim.  ``jac``, when
    present, returns the matrix of partial derivatives with row i,
    column j holding d g_i / d x_j.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain_radius: float = 10.0
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not self.domain_radius > 0:
            raise ValueError("domain_radius must be positive")


@dataclass(frozen=True)
class SecondOrderSystem:
    """beta_c * xdd + damping * xd + g(x) = 0, component-wise."""

    beta_c: np.ndarray
    field: VectorField
    damping: np.ndarray = None

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta_c, dtype=float))
        if beta.shape != (self.field.dim,):
            beta = np.broadcast_to(beta, (self.field.dim,)).copy()
        if np.any(beta <= 0):
            raise ValueError("beta_c entries must be strictly positive")
        object.__setattr__(self, "beta_c", beta)
        damp = self.damping
        if damp is None:
            damp = np.ones(self.field.dim)
        damp = np.broadcast_to(np.atleast_1d(np.asarray(damp, dtype=float)),
                               (self.field.dim,)).copy()
        object.__setattr__(self, "damping", damp)


def eval_field(field: VectorField, x) -> np.ndarray:
    """Evaluate g(x), checking shapes and finiteness."""
    x = np.asarray(x, dtype=float)
    if x.shape != (field.dim,):
        raise ValueError(
            f"point has shape {x.shape}, field dimension is {field.dim}")
    g = np.asarray(field.func(x), dtype=float)
    if g.shape != (field.dim,):
        raise FieldEvalError(
            f"field returned shape {g.shape}, expected ({field.dim},)")
    if not np.all(np.isfinite(g)):
        raise FieldEvalError(f"non-finite field value at x={x}")
    return g


def fd_step(x: np.ndarray) -> np.ndarray:
    """Per-coordinate central-difference step h = cbrt(eps)*max(1, |x_i|)."""
    return _H0 * np.maximum(1.0, np.abs(x))


def _central_difference(f, x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Derivative of f at x by central differences: the last axis of the
    result holds (f(x + h_j e_j) - f(x - h_j e_j)) / (2 h_j)."""
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = steps[j]
        cols.append((f(x + e) - f(x - e)) / (2.0 * steps[j]))
    return np.stack(cols, axis=-1)


def jacobian(field: VectorField, x, scheme: str = "auto",
             h: Optional[float] = None) -> np.ndarray:
    """Matrix J with J[i, j] = d g_i / d x_j at x.

    scheme: "analytic" requires field.jac; "central" forces finite
    differences (step h, default per-coordinate fd_step); "auto" uses
    the analytic Jacobian when available.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (field.dim,):
        raise ValueError(
            f"point has shape {x.shape}, field dimension is {field.dim}")
    if scheme not in ("auto", "analytic", "central"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "analytic" and field.jac is None:
        raise ValueError("field has no analytic Jacobian")
    if field.jac is not None and scheme in ("auto", "analytic"):
        J = np.asarray(field.jac(x), dtype=float)
        if J.shape != (field.dim, field.dim):
            raise FieldEvalError(f"analytic Jacobian has shape {J.shape}")
    else:
        if h is not None:
            if not h > 0:
                raise ValueError("finite-difference step must be positive")
            steps = np.full(field.dim, float(h))
        else:
            steps = fd_step(x)
        J = _central_difference(lambda p: eval_field(field, p), x, steps)
    if not np.all(np.isfinite(J)):
        raise FieldEvalError(f"non-finite Jacobian entry at x={x}")
    return J


def reduce_second_order(sos: SecondOrderSystem) -> VectorField:
    """First-order reduction of beta*xdd + c*xd + g = 0 on (x, xbar).

    xbar = beta_c * xd, so xd = xbar/beta_c and
    xbard = -damping*xbar/beta_c - g(x).
    """
    n = sos.field.dim
    beta = sos.beta_c
    damp = sos.damping
    inner = sos.field

    def func(z):
        x, xbar = z[:n], z[n:]
        g = eval_field(inner, x)
        return np.concatenate([xbar / beta, -damp * xbar / beta - g])

    def jac(z):
        x = z[:n]
        J = np.zeros((2 * n, 2 * n))
        J[:n, n:] = np.diag(1.0 / beta)
        J[n:, :n] = -jacobian(inner, x)
        J[n:, n:] = np.diag(-damp / beta)
        return J

    return VectorField(dim=2 * n, func=func, jac=jac,
                       domain_radius=inner.domain_radius,
                       name=f"{inner.name}+reduced" if inner.name else "reduced")

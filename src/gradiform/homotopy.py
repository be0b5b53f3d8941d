"""Canonical one-forms, the ray-integral homotopy operator, and the
exact/antiexact decomposition g = exact + antiexact."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import VectorField, _as_points, eval_field, jacobian

DEFAULT_ORDER = 32
MAX_ORDER = 256
ADAPT_RTOL = 1e-10
RULE_CACHE_SIZE = 32  # shared Gauss-Legendre rules kept, by order


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on [0, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d and equal length")
        if np.any(nodes < 0) or np.any(nodes > 1):
            raise ValueError("nodes must lie in [0, 1]")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    @lru_cache(maxsize=RULE_CACHE_SIZE)
    def gauss_legendre(cls, n: int) -> "QuadratureRule":
        """n-node Gauss-Legendre rule mapped from [-1, 1] to [0, 1].

        Rules are built once per order and shared: a repeat call returns
        the same object, whose arrays are read-only.
        """
        x, w = np.polynomial.legendre.leggauss(n)
        rule = cls(nodes=0.5 * (x + 1.0), weights=0.5 * w)
        rule.nodes.flags.writeable = False
        rule.weights.flags.writeable = False
        return rule

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Weighted sum over the leading axis of per-node values.

        The nodes are summed one after another, whatever the trailing
        shape, so stacking more points does not change a point's bits.
        """
        values = np.asarray(values, dtype=float)
        w = self.weights.reshape((-1,) + (1,) * (values.ndim - 1))
        return np.cumsum(w * values, axis=0)[-1]


@dataclass(frozen=True)
class OneForm:
    """G = sum_j g_j dx_j for the coefficient field g."""

    field: VectorField


@dataclass(frozen=True)
class Decomposition:
    """The split at one point; for stacked points (M, N) every field
    gains a leading axis of length M."""

    point: np.ndarray
    potential: float
    exact_part: np.ndarray
    antiexact_part: np.ndarray
    reconstruction_residual: float


def _points(form: OneForm, x):
    """x as stacked points (M, N), and whether it was a single point."""
    X = _as_points(form.field, x)
    return X.reshape(-1, X.shape[-1]), X.ndim == 1


def _resolve(quad):
    if quad is None:
        return QuadratureRule.gauss_legendre(DEFAULT_ORDER)
    return quad


def _adaptive(evaluate, quad, X):
    """evaluate(rule, X) gives one row of values per point of X.  With a
    rule, evaluate once; with quad=None, refine by node doubling, each
    point on its own until its row converges."""
    if quad is not None:
        return evaluate(quad, X)
    order = DEFAULT_ORDER
    out = evaluate(QuadratureRule.gauss_legendre(order), X)
    todo = np.arange(len(X))
    while order < MAX_ORDER and todo.size:
        order *= 2
        cur = evaluate(QuadratureRule.gauss_legendre(order), X[todo])
        flat = cur.reshape(len(todo), -1)
        scale = 1.0 + np.max(np.abs(flat), axis=1)
        change = np.max(np.abs(flat - out[todo].reshape(len(todo), -1)),
                        axis=1)
        out[todo] = cur
        converged = change < ADAPT_RTOL * scale
        todo, change, scale = (todo[~converged], change[~converged],
                               scale[~converged])
    if todo.size:
        worst = int(np.argmax(change / scale))
        warnings.warn(f"ray quadrature not converged at {MAX_ORDER} nodes "
                      f"at {todo.size} point(s) (last change "
                      f"{change[worst]:.3e}, tolerance "
                      f"{ADAPT_RTOL * scale[worst]:.3e})", RuntimeWarning,
                      stacklevel=3)
    return out


# The ray samples g(t x) and J(t x) at the rule's nodes t for every point
# x, node-major: (K, M, N) and (K, M, N, N).  The integrands built from
# them reduce over coordinates elementwise, so each point's value is the
# same whatever M is; each part samples only what it integrates.
def _ray(X: np.ndarray, rule) -> np.ndarray:
    return (rule.nodes[:, None, None] * X).reshape(-1, X.shape[1])


def _ray_values(field: VectorField, X: np.ndarray, rule) -> np.ndarray:
    return eval_field(field, _ray(X, rule)).reshape(
        (len(rule.nodes),) + X.shape)


def _ray_jacobians(field: VectorField, X: np.ndarray, rule) -> np.ndarray:
    return jacobian(field, _ray(X, rule)).reshape(
        (len(rule.nodes),) + X.shape + X.shape[1:])


def _potential_integral(X, rule, G):
    return rule.integrate((X * G).sum(axis=-1))


def _exact_integral(X, rule, G, Js):
    t = rule.nodes[:, None, None]
    JTx = (Js * X[:, :, None]).sum(axis=-2)
    return rule.integrate(t * JTx + G)


def _antiexact_integral(X, rule, Js):
    t = rule.nodes[:, None, None]
    A = Js - np.swapaxes(Js, -1, -2)
    return rule.integrate(t * (A * X[:, None, :]).sum(axis=-1))


def potential(form: OneForm, x, quad: QuadratureRule | None = None):
    """k(G)(x) = integral_0^1 sum_i x_i g_i(t x) dt along the ray to x.

    A float for one point x (N,); an array (M,) for stacked points
    (M, N), whose rows equal the single-point values bit for bit.
    """
    X, single = _points(form, x)
    V = _adaptive(lambda rule, X: _potential_integral(
        X, rule, _ray_values(form.field, X, rule)), quad, X)
    return float(V[0]) if single else V


def exact_part(form: OneForm, x,
               quad: QuadratureRule | None = None) -> np.ndarray:
    """Coefficients of d(kG): the gradient of the ray potential.

    Component j is integral_0^1 [ t (J(tx)^T x)_j + g_j(tx) ] dt.
    Stacked points (M, N) give one row per point.
    """
    X, single = _points(form, x)
    ex = _adaptive(lambda rule, X: _exact_integral(
        X, rule, _ray_values(form.field, X, rule),
        _ray_jacobians(form.field, X, rule)), quad, X)
    return ex[0] if single else ex


def antiexact_part(form: OneForm, x,
                   quad: QuadratureRule | None = None) -> np.ndarray:
    """Coefficients of k(dG): the residual killed by the ray operator.

    Component i is integral_0^1 t [ (J - J^T)(tx) x ]_i dt; its dot
    product with x vanishes by antisymmetry of the integrand kernel.
    Stacked points (M, N) give one row per point.
    """
    X, single = _points(form, x)
    ae = _adaptive(lambda rule, X: _antiexact_integral(
        X, rule, _ray_jacobians(form.field, X, rule)), quad, X)
    return ae[0] if single else ae


def decompose(form: OneForm, x,
              quad: QuadratureRule | None = None) -> Decomposition:
    """Potential, exact and antiexact parts at x from one pass over the
    ray; with quad=None the three are refined together.  Stacked points
    (M, N) give one Decomposition with a leading axis M."""
    X, single = _points(form, x)
    n = X.shape[1]
    g = eval_field(form.field, X)

    def evaluate(rule, X):
        G = _ray_values(form.field, X, rule)
        Js = _ray_jacobians(form.field, X, rule)
        return np.concatenate([_potential_integral(X, rule, G)[:, None],
                               _exact_integral(X, rule, G, Js),
                               _antiexact_integral(X, rule, Js)], axis=1)

    parts = _adaptive(evaluate, quad, X)
    pot, ex, ae = parts[:, 0], parts[:, 1:1 + n], parts[:, 1 + n:]
    res = np.max(np.abs(g - ex - ae), axis=1)
    if single:
        return Decomposition(point=X[0], potential=float(pot[0]),
                             exact_part=ex[0], antiexact_part=ae[0],
                             reconstruction_residual=float(res[0]))
    return Decomposition(point=X, potential=pot, exact_part=ex,
                         antiexact_part=ae, reconstruction_residual=res)

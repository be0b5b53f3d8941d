"""The ray-integral homotopy operator on the one-form G = sum_j g_j dx_j
of a vector field g, and the exact/antiexact decomposition
g = exact + antiexact.  Every function here takes the field g itself."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import VectorField, _as_points, eval_field, jacobian

DEFAULT_ORDER = 64  # the rule a call without one uses
RULE_CACHE_SIZE = 32  # shared Gauss-Legendre rules kept, by order


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on [0, 1], held as read-only copies of the arrays
    given, so that no write can move them past the checks."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d and equal length")
        if np.any(nodes < 0) or np.any(nodes > 1):
            raise ValueError("nodes must lie in [0, 1]")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    @lru_cache(maxsize=RULE_CACHE_SIZE)
    def gauss_legendre(cls, n: int) -> "QuadratureRule":
        """n-node Gauss-Legendre rule mapped from [-1, 1] to [0, 1].

        Rules are built once per order and shared: a repeat call returns
        the same object.
        """
        x, w = np.polynomial.legendre.leggauss(n)
        return cls(nodes=0.5 * (x + 1.0), weights=0.5 * w)

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Weighted sum over the leading axis of per-node values.

        The nodes are summed one after another, whatever the trailing
        shape, so stacking more points does not change a point's bits.
        """
        values = np.asarray(values, dtype=float)
        w = self.weights.reshape((-1,) + (1,) * (values.ndim - 1))
        return np.cumsum(w * values, axis=0)[-1]


@dataclass(frozen=True)
class Decomposition:
    """The split at one point; for stacked points (M, N) every field
    gains a leading axis of length M."""

    point: np.ndarray
    potential: float
    exact_part: np.ndarray
    antiexact_part: np.ndarray
    reconstruction_residual: float


def _rule(quad: QuadratureRule | None) -> QuadratureRule:
    """The rule given, or the shared DEFAULT_ORDER-node rule for None."""
    return quad or QuadratureRule.gauss_legendre(DEFAULT_ORDER)


def _points(field: VectorField, x, quad: QuadratureRule | None):
    """x as stacked points (M, N), whether it was a single point, and
    the rule to integrate with."""
    X = _as_points(field, x)
    return X.reshape(-1, X.shape[-1]), X.ndim == 1, _rule(quad)


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


def potential(field: VectorField, x, quad: QuadratureRule | None = None):
    """k(G)(x) = integral_0^1 sum_i x_i g_i(t x) dt along the ray to x.

    A float for one point x (N,); an array (M,) for stacked points
    (M, N), whose rows equal the single-point values bit for bit.
    """
    X, single, rule = _points(field, x, quad)
    V = _potential_integral(X, rule, _ray_values(field, X, rule))
    return float(V[0]) if single else V


def antiexact_part(field: VectorField, x,
                   quad: QuadratureRule | None = None) -> np.ndarray:
    """Coefficients of k(dG): the residual killed by the ray operator.

    Component i is integral_0^1 t [ (J - J^T)(tx) x ]_i dt; its dot
    product with x vanishes by antisymmetry of the integrand kernel.
    Stacked points (M, N) give one row per point.
    """
    X, single, rule = _points(field, x, quad)
    ae = _antiexact_integral(X, rule, _ray_jacobians(field, X, rule))
    return ae[0] if single else ae


def decompose(field: VectorField, x,
              quad: QuadratureRule | None = None) -> Decomposition:
    """Potential, exact and antiexact parts at x from one pass over the
    ray.  Stacked points (M, N) give one Decomposition with a leading
    axis M.  The exact part d(kG) has component
    j = integral_0^1 [t (J(tx)^T x)_j + g_j(tx)] dt."""
    X, single, rule = _points(field, x, quad)
    g = eval_field(field, X)
    G = _ray_values(field, X, rule)
    Js = _ray_jacobians(field, X, rule)
    pot = _potential_integral(X, rule, G)
    ex = _exact_integral(X, rule, G, Js)
    ae = _antiexact_integral(X, rule, Js)
    res = np.max(np.abs(g - ex - ae), axis=1)
    if single:
        return Decomposition(point=X[0], potential=float(pot[0]),
                             exact_part=ex[0], antiexact_part=ae[0],
                             reconstruction_residual=float(res[0]))
    return Decomposition(point=X, potential=pot, exact_part=ex,
                         antiexact_part=ae, reconstruction_residual=res)

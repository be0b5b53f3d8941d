"""Canonical one-forms, the ray-integral homotopy operator, and the
exact/antiexact decomposition g = exact + antiexact."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import VectorField, eval_field, jacobian

DEFAULT_ORDER = 32
MAX_ORDER = 256
ADAPT_RTOL = 1e-10


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
    def gauss_legendre(cls, n: int) -> "QuadratureRule":
        """n-node Gauss-Legendre rule mapped from [-1, 1] to [0, 1]."""
        x, w = np.polynomial.legendre.leggauss(n)
        return cls(nodes=0.5 * (x + 1.0), weights=0.5 * w)

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Weighted sum over the leading axis of per-node values."""
        values = np.asarray(values, dtype=float)
        return np.tensordot(self.weights, values, axes=(0, 0))


@dataclass(frozen=True)
class OneForm:
    """G = sum_j g_j dx_j for the coefficient field g."""

    field: VectorField

    def __call__(self, x, xi) -> float:
        return float(np.dot(eval_field(self.field, np.asarray(x, float)),
                            np.asarray(xi, float)))


@dataclass(frozen=True)
class Decomposition:
    point: np.ndarray
    potential: float
    exact_part: np.ndarray
    antiexact_part: np.ndarray
    reconstruction_residual: float


def _resolve(quad):
    if quad is None:
        return QuadratureRule.gauss_legendre(DEFAULT_ORDER)
    return quad


def _adaptive(evaluate, quad):
    """Evaluate with the given rule, or refine by node doubling when None."""
    if quad is not None:
        return evaluate(quad)
    order = DEFAULT_ORDER
    prev = evaluate(QuadratureRule.gauss_legendre(order))
    while order < MAX_ORDER:
        order *= 2
        cur = evaluate(QuadratureRule.gauss_legendre(order))
        scale = 1.0 + float(np.max(np.abs(cur)))
        change = float(np.max(np.abs(cur - prev)))
        if change < ADAPT_RTOL * scale:
            return cur
        prev = cur
    warnings.warn(f"ray quadrature not converged at {MAX_ORDER} nodes "
                  f"(last change {change:.3e}, tolerance "
                  f"{ADAPT_RTOL * scale:.3e})", RuntimeWarning, stacklevel=3)
    return prev


# The ray samples g(t x) and J(t x) at the rule's nodes t, and the
# integrands built from them; each part samples only what it integrates
def _ray_values(field: VectorField, x: np.ndarray, rule) -> list:
    return [eval_field(field, t * x) for t in rule.nodes]


def _ray_jacobians(field: VectorField, x: np.ndarray, rule,
                   scheme: str) -> list:
    return [jacobian(field, t * x, scheme=scheme) for t in rule.nodes]


def _potential_integral(x, rule, G):
    return rule.integrate(np.array([np.dot(x, g) for g in G]))


def _exact_integral(x, rule, G, Js):
    return rule.integrate(np.array([t * (J.T @ x) + g
                                    for t, g, J in zip(rule.nodes, G, Js)]))


def _antiexact_integral(x, rule, Js):
    return rule.integrate(np.array([t * ((J - J.T) @ x)
                                    for t, J in zip(rule.nodes, Js)]))


def potential(form: OneForm, x, quad: QuadratureRule | None = None) -> float:
    """k(G)(x) = integral_0^1 sum_i x_i g_i(t x) dt along the ray to x."""
    x = np.asarray(x, dtype=float)
    return float(_adaptive(lambda rule: _potential_integral(
        x, rule, _ray_values(form.field, x, rule)), quad))


def exact_part(form: OneForm, x, quad: QuadratureRule | None = None,
               scheme: str = "auto") -> np.ndarray:
    """Coefficients of d(kG): the gradient of the ray potential.

    Component j is integral_0^1 [ t (J(tx)^T x)_j + g_j(tx) ] dt.
    """
    x = np.asarray(x, dtype=float)
    return np.asarray(_adaptive(lambda rule: _exact_integral(
        x, rule, _ray_values(form.field, x, rule),
        _ray_jacobians(form.field, x, rule, scheme)), quad))


def antiexact_part(form: OneForm, x, quad: QuadratureRule | None = None,
                   scheme: str = "auto") -> np.ndarray:
    """Coefficients of k(dG): the residual killed by the ray operator.

    Component i is integral_0^1 t [ (J - J^T)(tx) x ]_i dt; its dot
    product with x vanishes by antisymmetry of the integrand kernel.
    """
    x = np.asarray(x, dtype=float)
    return np.asarray(_adaptive(lambda rule: _antiexact_integral(
        x, rule, _ray_jacobians(form.field, x, rule, scheme)), quad))


def decompose(form: OneForm, x, quad: QuadratureRule | None = None,
              scheme: str = "auto") -> Decomposition:
    """Potential, exact and antiexact parts at x from one pass over the
    ray; with quad=None the three are refined together."""
    x = np.asarray(x, dtype=float)
    g = eval_field(form.field, x)

    def evaluate(rule):
        G = _ray_values(form.field, x, rule)
        Js = _ray_jacobians(form.field, x, rule, scheme)
        return np.concatenate([[_potential_integral(x, rule, G)],
                               _exact_integral(x, rule, G, Js),
                               _antiexact_integral(x, rule, Js)])

    parts = _adaptive(evaluate, quad)
    pot, ex, ae = float(parts[0]), parts[1:1 + x.size], parts[1 + x.size:]
    res = float(np.max(np.abs(g - ex - ae)))
    return Decomposition(point=x, potential=pot, exact_part=ex,
                         antiexact_part=ae, reconstruction_residual=res)


def dG_matrix(field: VectorField, x, scheme: str = "auto") -> np.ndarray:
    """Coefficient matrix A = J - J^T of dG; antisymmetric by construction."""
    J = jacobian(field, x, scheme=scheme)
    return J - J.T

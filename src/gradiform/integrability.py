"""Classification of a field as closed, Frobenius-integrable, or neither."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from .fields import VectorField, eval_field, jacobian
from .homotopy import DEFAULT_ORDER, QuadratureRule

DEFAULT_TOL = 1e-8
PANELS = 8


class Verdict(enum.Enum):
    CLOSED = "Closed"
    FROBENIUS_INTEGRABLE = "FrobeniusIntegrable"
    NON_INTEGRABLE = "NonIntegrable"


@dataclass(frozen=True)
class ClosednessReport:
    max_asymmetry: float
    frobenius_defect_max: float
    verdict: Verdict
    loop_integrals: list = dc_field(default_factory=list)


@dataclass(frozen=True)
class Loop:
    """Closed C^1 curve s in [0, 1] -> R^N, with optional derivative.

    gamma and dgamma map parameters s (K,) to points (K, N), one row per
    parameter.
    """

    gamma: Callable[[np.ndarray], np.ndarray]
    dgamma: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = "loop"

    def velocity(self, s: np.ndarray) -> np.ndarray:
        if self.dgamma is not None:
            return np.asarray(self.dgamma(s), dtype=float)
        h = 1e-6
        lo, hi = np.maximum(0.0, s - h), np.minimum(1.0, s + h)
        return ((np.asarray(self.gamma(hi), float)
                 - np.asarray(self.gamma(lo), float)) / (hi - lo)[:, None])


def circle_loop(radius: float = 1.0, center=None, dim: int = 2,
                axes=(0, 1)) -> Loop:
    """Unit-speed-parameterized circle in the (axes[0], axes[1]) plane."""
    c = np.zeros(dim) if center is None else np.asarray(center, float)
    i, j = axes

    def gamma(s):
        p = np.tile(c, (len(s), 1))
        p[:, i] += radius * np.cos(2 * np.pi * s)
        p[:, j] += radius * np.sin(2 * np.pi * s)
        return p

    def dgamma(s):
        v = np.zeros((len(s), dim))
        v[:, i] = -2 * np.pi * radius * np.sin(2 * np.pi * s)
        v[:, j] = 2 * np.pi * radius * np.cos(2 * np.pi * s)
        return v

    return Loop(gamma=gamma, dgamma=dgamma, label=f"circle(r={radius})")


def _relative_asymmetry(J: np.ndarray):
    """max|J - J^T| / (1 + max|J|) of each matrix J (..., n, n)."""
    return (np.max(np.abs(J - np.swapaxes(J, -1, -2)), axis=(-2, -1))
            / (1.0 + np.max(np.abs(J), axis=(-2, -1))))


def _wedge_defect(g: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Max over index triples l < k < i of the wedge obstruction
    |g_l (J_ik - J_ki) + g_k (J_li - J_il) + g_i (J_kl - J_lk)| at each
    point, from values g (..., n) and Jacobians J (..., n, n)."""
    l, k, i = np.array(list(combinations(range(g.shape[-1]), 3)),
                       dtype=int).reshape(-1, 3).T
    term = (g[..., l] * (J[..., i, k] - J[..., k, i])
            + g[..., k] * (J[..., l, i] - J[..., i, l])
            + g[..., i] * (J[..., k, l] - J[..., l, k]))
    return np.max(np.abs(term), axis=-1, initial=0.0)  # 0 when N < 3


def _loop_values(fn, s: np.ndarray, n: int) -> np.ndarray:
    """fn(s) as points (K, n), K = len(s); any other shape is a
    ValueError."""
    P = np.asarray(fn(s), dtype=float)
    if P.shape != (len(s), n):
        raise ValueError(f"loop gave shape {P.shape} for {len(s)} "
                         f"parameters, expected {(len(s), n)}")
    return P


def loop_integral(field: VectorField, loop: Loop,
                  quad: QuadratureRule | None = None) -> float:
    """Circulation of the field's one-form along a closed parameterized
    curve, by the rule on each of PANELS equal panels of [0, 1]."""
    n = field.dim
    start, end = _loop_values(loop.gamma, np.array([0.0, 1.0]), n)
    if np.max(np.abs(start - end)) > 1e-9 * (1.0 + np.max(np.abs(start))):
        raise ValueError("loop is not closed: gamma(0) != gamma(1)")
    rule = quad or QuadratureRule.gauss_legendre(DEFAULT_ORDER)
    width = 1.0 / PANELS
    s = ((np.arange(PANELS)[:, None] + rule.nodes) * width).ravel()
    points = _loop_values(loop.gamma, s, n)
    velocity = _loop_values(loop.velocity, s, n)
    terms = (np.tile(rule.weights, PANELS) * width
             * (eval_field(field, points) * velocity).sum(axis=1))
    return float(np.cumsum(terms)[-1])  # in node order, one after another


def classify(field: VectorField, samples, tol: float = DEFAULT_TOL,
             loops=(), quad: QuadratureRule | None = None
             ) -> ClosednessReport:
    """Closed, else FrobeniusIntegrable (local) when the wedge obstruction
    vanishes at every sample (N,) or (M, N), else NonIntegrable.  The
    obstruction is |g . curl g| for N = 3, and 0 for N < 3."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("at least one sample point is required")
    J = jacobian(field, samples)
    asym = float(np.max(_relative_asymmetry(J)))
    defect = float(np.max(_wedge_defect(eval_field(field, samples), J)))
    if asym <= tol:
        verdict = Verdict.CLOSED
    elif defect <= tol:
        verdict = Verdict.FROBENIUS_INTEGRABLE
    else:
        verdict = Verdict.NON_INTEGRABLE
    loop_vals = [(loop.label, loop_integral(field, loop, quad))
                 for loop in loops]
    return ClosednessReport(max_asymmetry=asym, frobenius_defect_max=defect,
                            verdict=verdict, loop_integrals=loop_vals)

"""Classification of a field as closed, Frobenius-integrable, or neither,
and the circulation around a circle: the Stokes witness that a one-form
is not closed."""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fields import VectorField, _check_finite, eval_field, jacobian
from .homotopy import QuadratureRule, _rule

DEFAULT_TOL = 1e-8  # the one threshold of "symmetric up to rounding"
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


def loop_integral(field: VectorField, radius: float = 1.0, center=None,
                  axes=(0, 1), quad: QuadratureRule | None = None) -> float:
    """Circulation of the field's one-form around the circle center +
    radius (cos 2 pi s e_i + sin 2 pi s e_j), s in [0, 1], in the plane
    of axes (i, j), about the origin for None.  By the rule (DEFAULT_ORDER
    nodes for None) on each of PANELS equal panels of [0, 1], with one
    field evaluation for all nodes.  A field of dimension N < 2, axes
    not two distinct indices in [0, N), or a center not of shape (N,) is
    a ValueError."""
    n = field.dim
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    # two distinct axes in [0, N) exist only for N >= 2
    if (c.shape != (n,) or len(axes) != 2 or axes[0] == axes[1]
            or not all(isinstance(a, (int, np.integer)) and 0 <= a < n
                       for a in axes)):
        raise ValueError(f"a circle needs a field of dimension N >= 2, two "
                         f"distinct axes in [0, N) and a center (N,); got "
                         f"N = {n}, axes {axes!r} and center shape {c.shape}")
    rule = _rule(quad)
    width = 1.0 / PANELS
    s = ((np.arange(PANELS)[:, None] + rule.nodes) * width).ravel()
    (i, j), angle = axes, 2 * np.pi * s
    points = np.tile(c, (len(s), 1))
    points[:, i] += radius * np.cos(angle)
    points[:, j] += radius * np.sin(angle)
    velocity = np.zeros_like(points)
    velocity[:, i] = -2 * np.pi * radius * np.sin(angle)
    velocity[:, j] = 2 * np.pi * radius * np.cos(angle)
    terms = (np.tile(rule.weights, PANELS) * width
             * (eval_field(field, points) * velocity).sum(axis=1))
    return float(np.cumsum(terms)[-1])  # in node order, one after another


def classify(field: VectorField, samples) -> ClosednessReport:
    """Closed when the relative Jacobian asymmetry is at most DEFAULT_TOL
    at every sample (N,) or (M, N), else FrobeniusIntegrable (local) when
    the wedge obstruction is at most DEFAULT_TOL there, else
    NonIntegrable.  The obstruction is |g . curl g| for N = 3, and 0 for
    N < 3.  A non-finite asymmetry or obstruction is a FieldEvalError."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("at least one sample point is required")
    J = jacobian(field, samples)
    asym = _relative_asymmetry(J)
    defect = _wedge_defect(eval_field(field, samples), J)
    _check_finite(samples, np.stack([asym, defect], -1), "asymmetry/defect")
    asym, defect = float(np.max(asym)), float(np.max(defect))
    if asym <= DEFAULT_TOL:
        verdict = Verdict.CLOSED
    elif defect <= DEFAULT_TOL:
        verdict = Verdict.FROBENIUS_INTEGRABLE
    else:
        verdict = Verdict.NON_INTEGRABLE
    return ClosednessReport(max_asymmetry=asym, frobenius_defect_max=defect,
                            verdict=verdict)

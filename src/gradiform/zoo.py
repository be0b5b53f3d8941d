"""Concrete systems: Lorenz, Josephson-junction circuits, and synthetic
test fields, all with analytic Jacobians.

Every field here is vectorized: it takes a single point or stacked
points (see ``VectorField``).  ``lorenz`` and ``jj_circuit`` unpack
components with ``_unpack``: a single point computes on Python floats,
which round as numpy's float64 scalars do at a fraction of their cost,
and stacked points compute the same expressions on columns.
``double_well`` unpacks with ``p.T`` (numpy scalars for one point): a
Python float power raises ``OverflowError`` where numpy gives inf.  The
linear fields multiply through ``fields._matvec``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .fields import VectorField, _matvec


@dataclass(frozen=True)
class SystemSpec:
    name: str
    params: dict
    dim: int


def _unpack(p):
    """The components of one point (dim,) as Python floats, or the columns
    of stacked points (M, dim)."""
    return p.tolist() if p.ndim == 1 else p.T


def lorenz(sigma: float = 10.0, rho: float = 28.0,
           beta: float = 8.0 / 3.0) -> VectorField:
    """g1 = sigma(y-x), g2 = rho x - y - xz, g3 = -beta z + xy."""
    if sigma <= 0 or rho <= 0 or beta <= 0:
        raise ValueError("lorenz parameters must be positive")

    def func(p):
        x, y, z = _unpack(p)
        return np.array([sigma * (y - x), rho * x - y - x * z,
                         -beta * z + x * y]).T

    def jac(p):
        x, y, z = _unpack(p)
        J = np.empty(p.shape + (3,))
        J[..., 0, :] = (-sigma, sigma, 0.0)
        J[..., 1, 0] = rho - z
        J[..., 1, 1] = -1.0
        J[..., 1, 2] = -x
        J[..., 2, 0] = y
        J[..., 2, 1] = x
        J[..., 2, 2] = -beta
        return J

    return VectorField(dim=3, func=func, jac=jac, vectorized=True)


def jj_circuit(i: float = 0.0, r: float = 1.0, beta_c: float = 1.0,
               beta_L: float = 1.0) -> VectorField:
    """Josephson junction circuit in the variable order (y, delta, zeta):
    g1 = y, g2 = (-r y + i - sin(delta) - zeta)/beta_c,
    g3 = (-zeta + y)/beta_L."""
    if beta_c <= 0 or beta_L <= 0:
        raise ValueError("beta_c and beta_L must be positive")

    def func(p):
        y, delta, zeta = _unpack(p)
        return np.array([y,
                         (-r * y + i - np.sin(delta) - zeta) / beta_c,
                         (-zeta + y) / beta_L]).T

    const = np.array([[1.0, 0.0, 0.0],
                      [-r / beta_c, 0.0, -1.0 / beta_c],
                      [1.0 / beta_L, 0.0, -1.0 / beta_L]])

    def jac(p):
        J = np.empty(p.shape + (3,))
        J[...] = const
        J[..., 1, 1] = -np.cos(_unpack(p)[1]) / beta_c
        return J

    return VectorField(dim=3, func=func, jac=jac, vectorized=True)


def jj_circuit_linear(i: float = 0.0, r: float = 1.0, beta_c: float = 1.0,
                      beta_L: float = 1.0) -> VectorField:
    """Small-angle circuit: sin(delta) replaced by delta; constant Jacobian."""
    if beta_c <= 0 or beta_L <= 0:
        raise ValueError("beta_c and beta_L must be positive")
    J = np.array([[1.0, 0.0, 0.0],
                  [-r / beta_c, -1.0 / beta_c, -1.0 / beta_c],
                  [1.0 / beta_L, 0.0, -1.0 / beta_L]])
    b = np.array([0.0, i / beta_c, 0.0])

    return VectorField(dim=3, func=lambda p: _matvec(J, p) + b,
                       jac=_constant_jacobian(J), vectorized=True)


def quadratic(Q) -> VectorField:
    """Linear field g(x) = Q x with exact Jacobian Q."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be square")
    return VectorField(dim=Q.shape[0], func=lambda x: _matvec(Q, x),
                       jac=_constant_jacobian(Q), vectorized=True)


def _constant_jacobian(Q):
    """Jacobian of a linear field: Q at one point, Q broadcast over the
    rows of stacked points."""
    return lambda x: Q if x.ndim == 1 else np.broadcast_to(
        Q, x.shape[:1] + Q.shape)


def rotation() -> VectorField:
    """Planar rotation g = (-y, x): fully antiexact, potential 0."""
    return quadratic(np.array([[0.0, -1.0], [1.0, 0.0]]))


def double_well():
    """1-d field g = -dV/dx for V = x^4/4 - x^2/2; returns (field, V).

    V maps one point (1,) to a float and stacked points (M, 1) to (M,).
    """

    # x ** 3 on an array rounds differently from x ** 3 on a scalar (by at
    # most one unit in the last place), so a single point and the same
    # point inside a batch can differ in the last bit
    def func(x):
        x0 = x.T[0]
        return np.array([x0 - x0 ** 3]).T

    def jac(x):
        x0 = x.T[0]
        return np.array([[1.0 - 3.0 * x0 ** 2]]).T

    def V(x):
        x0 = np.asarray(x, dtype=float).T[0]
        return 0.25 * x0 ** 4 - 0.5 * x0 ** 2

    return VectorField(dim=1, func=func, jac=jac, vectorized=True), V


def ou(theta: float = 1.0):
    """1-d linear relaxation g = -theta x; returns (field, V) with
    V = theta x^2 / 2 (the drift is already the descent flow), V taking
    points as in ``double_well``."""
    if theta <= 0:
        raise ValueError("theta must be positive")

    field = VectorField(dim=1, func=lambda x: -theta * x,
                        jac=lambda x: np.full(x.shape + (1,), -theta),
                        vectorized=True)

    def V(x):
        return 0.5 * theta * np.asarray(x, dtype=float).T[0] ** 2

    return field, V


def _build_quadratic(params):
    idx = {}
    for key, val in params.items():
        # one spelling per entry: no sign, space or leading zero
        m = re.fullmatch(r"q_(0|[1-9][0-9]*)_(0|[1-9][0-9]*)", key)
        if m is None:
            raise ValueError(f"unknown parameter {key!r} for quadratic "
                             "(expected q_<row>_<col>, indices 0, 1, 2, ...)")
        idx[(int(m[1]), int(m[2]))] = float(val)
    if not idx:
        raise ValueError("quadratic requires at least one q_i_j parameter")
    n = 1 + max(max(i, j) for i, j in idx)
    Q = np.zeros((n, n))
    for (i, j), v in idx.items():
        Q[i, j] = v
    return quadratic(Q)


# name -> (builder taking a params dict, default params, analytic potential
# builder or None); the CLI resolves systems through this table
REGISTRY = {
    "lorenz": {
        "build": lambda p: lorenz(**p),
        "defaults": {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
        "potential": None,
        "dim": 3,
    },
    "jj_circuit": {
        "build": lambda p: jj_circuit(**p),
        "defaults": {"i": 0.0, "r": 1.0, "beta_c": 1.0, "beta_L": 1.0},
        "potential": None,
        "dim": 3,
    },
    "jj_circuit_linear": {
        "build": lambda p: jj_circuit_linear(**p),
        "defaults": {"i": 0.0, "r": 1.0, "beta_c": 1.0, "beta_L": 1.0},
        "potential": None,
        "dim": 3,
    },
    "quadratic": {
        "build": _build_quadratic,
        "defaults": {"q_0_0": -1.0},
        "potential": None,
        "dim": None,
    },
    "rotation": {
        "build": lambda p: rotation(),
        "defaults": {},
        "potential": None,
        "dim": 2,
    },
    "double_well": {
        "build": lambda p: double_well()[0],
        "defaults": {},
        "potential": lambda p: double_well()[1],
        "dim": 1,
    },
    "ou": {
        "build": lambda p: ou(**p)[0],
        "defaults": {"theta": 1.0},
        "potential": lambda p: ou(**p)[1],
        "dim": 1,
    },
}


def build_system(spec: SystemSpec) -> VectorField:
    """Resolve a named system with defaults; unknown names or parameter
    keys are rejected."""
    if spec.name not in REGISTRY:
        raise ValueError(f"unknown system {spec.name!r}; "
                         f"known: {sorted(REGISTRY)}")
    entry = REGISTRY[spec.name]
    if spec.name == "quadratic":
        params = dict(spec.params) if spec.params else dict(entry["defaults"])
        return entry["build"](params)
    unknown = set(spec.params) - set(entry["defaults"])
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)} for "
                         f"system {spec.name!r}")
    params = {**entry["defaults"], **spec.params}
    return entry["build"](params)


def analytic_potential(spec: SystemSpec):
    """Known closed-form potential for a system, or None."""
    entry = REGISTRY.get(spec.name)
    if entry is None or entry["potential"] is None:
        return None
    return entry["potential"]({**entry["defaults"], **spec.params})

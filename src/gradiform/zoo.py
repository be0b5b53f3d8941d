"""Concrete systems: Lorenz, Josephson-junction circuits, and synthetic
test fields, all with analytic Jacobians.

Every field here is vectorized: it takes a single point or stacked
points (see ``VectorField``).  ``lorenz``, ``jj_circuit`` and
``double_well`` write their arithmetic once, as the ``point`` kernel on
Python floats, which round as numpy's float64 scalars do at a fraction
of their cost.  ``func`` runs it on one point's floats and on the
columns of stacked points (``_unpack``), but for ``double_well``'s
``x - x * x * x`` on the whole (M, 1) array; so one point equals its
batch row bit for bit.  The linear fields multiply through
``fields._matvec``, whose summation order a kernel would have to repeat
term by term, and have none.

Each system is stated once: its defaults in its builder's signature,
``jj_circuit_linear`` as ``jj_circuit``'s linearization at the origin,
and no potential (``graham`` takes a closed field's ray potential).
"""
from __future__ import annotations

import inspect
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

    def point(p):
        x, y, z = p
        return [sigma * (y - x), rho * x - y - x * z, -beta * z + x * y]

    def func(p):
        return np.array(point(_unpack(p))).T

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

    return VectorField(dim=3, func=func, jac=jac, vectorized=True,
                       point=point, degree=2)


def jj_circuit(i: float = 0.0, r: float = 1.0, beta_c: float = 1.0,
               beta_L: float = 1.0) -> VectorField:
    """Josephson junction circuit in the variable order (y, delta, zeta):
    g1 = y, g2 = (-r y + i - sin(delta) - zeta)/beta_c,
    g3 = (-zeta + y)/beta_L."""
    if beta_c <= 0 or beta_L <= 0:
        raise ValueError("beta_c and beta_L must be positive")

    def point(p):
        y, delta, zeta = p
        return [y, (-r * y + i - np.sin(delta) - zeta) / beta_c,
                (-zeta + y) / beta_L]

    def func(p):
        return np.array(point(_unpack(p))).T

    const = np.array([[1.0, 0.0, 0.0],
                      [-r / beta_c, 0.0, -1.0 / beta_c],
                      [1.0 / beta_L, 0.0, -1.0 / beta_L]])

    def jac(p):
        J = np.empty(p.shape + (3,))
        J[...] = const
        J[..., 1, 1] = -np.cos(_unpack(p)[1]) / beta_c
        return J

    return VectorField(dim=3, func=func, jac=jac, vectorized=True,
                       point=point)


def jj_circuit_linear(i: float = 0.0, r: float = 1.0, beta_c: float = 1.0,
                      beta_L: float = 1.0) -> VectorField:
    """jj_circuit linearized at the origin (sin(delta) -> delta)."""
    g = jj_circuit(i=i, r=r, beta_c=beta_c, beta_L=beta_L)
    with np.errstate(all="ignore"):  # an overflow gives inf, as floats do
        J, b = g.jac(np.zeros(3)), g.func(np.zeros(3))
    return VectorField(dim=3, func=lambda p: _matvec(J, p) + b,
                       jac=_constant_jacobian(J), vectorized=True, degree=1)


def quadratic(Q) -> VectorField:
    """Linear field g(x) = Q x with exact Jacobian Q, from a copy of Q."""
    Q = np.array(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be square")
    return VectorField(dim=Q.shape[0], func=lambda x: _matvec(Q, x),
                       jac=_constant_jacobian(Q), vectorized=True, degree=1)


def _constant_jacobian(Q):
    """Jacobian of a linear field: a read-only view of Q, broadcast over
    the rows of stacked points."""
    return lambda x: np.broadcast_to(Q, x.shape[:-1] + Q.shape)


def rotation() -> VectorField:
    """Planar rotation g = (-y, x): fully antiexact, potential 0."""
    return quadratic(np.array([[0.0, -1.0], [1.0, 0.0]]))


def double_well() -> VectorField:
    """1-d field g = -dV/dx for V = x^4/4 - x^2/2."""

    # x * x * x, not x ** 3, which numpy computes slowly on arrays of
    # negative bases; products round alike on an array and on a Python
    # float (whose * gives inf without raising): one point is a batch row
    def point(p):
        x0, = p
        return [x0 - x0 * x0 * x0]

    def func(x):
        return x - x * x * x if x.ndim == 2 else np.array(point(x.tolist()))

    def jac(x):
        x0 = x.T[0]
        return np.array([[1.0 - 3.0 * (x0 * x0)]]).T

    return VectorField(dim=1, func=func, jac=jac, vectorized=True,
                       point=point, degree=3)


def ou(theta: float = 1.0) -> VectorField:
    """1-d linear relaxation g = -theta x = -dV/dx for V = theta x^2 / 2
    (the drift is already the descent flow)."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    return VectorField(dim=1, func=lambda x: -theta * x,
                       jac=lambda x: np.full(x.shape + (1,), -theta),
                       vectorized=True, degree=1)


# quadratic's entries when none is given
_QUADRATIC_DEFAULTS = {"q_0_0": -1.0}


def _build_quadratic(**params):
    idx = {}
    for key, val in (params or _QUADRATIC_DEFAULTS).items():
        # one spelling per entry: no sign, space or leading zero
        m = re.fullmatch(r"q_(0|[1-9][0-9]*)_(0|[1-9][0-9]*)", key)
        if m is None:
            raise ValueError(f"unknown parameter {key!r} for quadratic "
                             "(expected q_<row>_<col>, indices 0, 1, 2, ...)")
        idx[(int(m[1]), int(m[2]))] = float(val)
    n = 1 + max(max(i, j) for i, j in idx)
    Q = np.zeros((n, n))
    for (i, j), v in idx.items():
        Q[i, j] = v
    return quadratic(Q)


# name -> its builder (whose keyword defaults are the system's) and grid
REGISTRY = {
    "lorenz": {"build": lorenz, "grid_range": [-30.0, 50.0]},
    "jj_circuit": {"build": jj_circuit, "grid_range": [-2.0, 2.0]},
    "jj_circuit_linear": {"build": jj_circuit_linear,
                          "grid_range": [-2.0, 2.0]},
    "quadratic": {"build": _build_quadratic, "grid_range": [-2.0, 2.0]},
    "rotation": {"build": rotation, "grid_range": [-2.0, 2.0]},
    "double_well": {"build": double_well, "grid_range": [-2.0, 2.0]},
    "ou": {"build": ou, "grid_range": [-2.0, 2.0]},
}


def build_system(spec: SystemSpec) -> VectorField:
    """Build a named system, the builder's defaults filling in the rest.
    Unknown names raise ValueError; the builder rejects unknown params."""
    if spec.name not in REGISTRY:
        raise ValueError(f"unknown system {spec.name!r}; "
                         f"known: {sorted(REGISTRY)}")
    return REGISTRY[spec.name]["build"](**spec.params)


def describe_system(name: str) -> dict:
    """Defaults, the dim and degree they build (quadratic's dim: None)
    and grid range."""
    build, quad = REGISTRY[name]["build"], name == "quadratic"
    field = build()
    return {"defaults": dict(_QUADRATIC_DEFAULTS) if quad else {
                k: p.default
                for k, p in inspect.signature(build).parameters.items()},
            "dim": None if quad else field.dim, "degree": field.degree,
            "grid_range": REGISTRY[name]["grid_range"]}

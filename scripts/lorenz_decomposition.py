#!/usr/bin/env python3
"""Decompose the Lorenz one-form over a ball of sample points and print
how the exact/antiexact split behaves as the ball grows.

Example:
    python3 scripts/lorenz_decomposition.py --radius 2.0 --count 200
"""
import argparse

import numpy as np

from gradiform import QuadratureRule, classify, decompose, sample_ball
from gradiform.zoo import lorenz


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sigma", type=float, default=10.0)
    ap.add_argument("--rho", type=float, default=28.0)
    ap.add_argument("--beta", type=float, default=8.0 / 3.0)
    ap.add_argument("--radius", type=float, default=2.0)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--order", type=int, default=64,
                    help="quadrature order for the ray integrals")
    args = ap.parse_args()

    field = lorenz(args.sigma, args.rho, args.beta)
    quad = QuadratureRule.gauss_legendre(args.order)
    pts = sample_ball(3, args.count, args.radius, args.seed)

    rep = classify(field, pts)
    print(f"verdict: {rep.verdict.value}")
    print(f"max Jacobian asymmetry: {rep.max_asymmetry:.3e}")
    print(f"max Frobenius defect:   {rep.frobenius_defect_max:.3e}")

    d = decompose(field, pts, quad)  # all points in one batch
    ex_norm = np.linalg.norm(d.exact_part, axis=1)
    ae_norm = np.linalg.norm(d.antiexact_part, axis=1)
    radii = np.linalg.norm(pts, axis=1)
    print(f"max reconstruction residual over {args.count} points: "
          f"{np.max(d.reconstruction_residual):.3e}")

    order = np.argsort(radii)
    print("\n    |x|    |exact|   |antiexact|   antiexact share")
    for k in order[:: max(1, args.count // 10)]:
        total = ex_norm[k] + ae_norm[k]
        share = ae_norm[k] / total if total else 0.0
        print(f"  {radii[k]:6.3f}  {ex_norm[k]:9.3f}  {ae_norm[k]:11.3f}"
              f"   {share:8.3f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Estimate the stationary potential of the noisy double well from
ensemble histograms and compare it with x^4/4 - x^2/2 at several noise
strengths.  The reference is the ray potential -k(G), which equals
V - V(0) for a closed form such as this one.

Example:
    python3 scripts/graham_double_well.py --eps 0.05 0.1 0.2 --steps 200000
"""
import argparse

import numpy as np

from gradiform import (euler_maruyama_ensembles, graham_estimate, potential,
                       stationary_density)
from gradiform.zoo import double_well


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", type=float, nargs="+", default=[0.05, 0.1, 0.2])
    ap.add_argument("--ensemble", type=int, default=8)
    ap.add_argument("--steps", type=int, default=200_000)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--bins", type=int, default=30)
    ap.add_argument("--range", type=float, default=1.8,
                    help="histogram covers [-range, range]")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    field = double_well()
    # start half the walkers in each well so low-noise runs still see both
    x0s = np.array([[(-1.0) ** k] for k in range(args.ensemble)])

    ensembles = euler_maruyama_ensembles(field, args.eps, x0s, args.dt,
                                         args.steps, master_seed=args.seed)
    for eps, ens in zip(args.eps, ensembles):
        dens = stationary_density(ens, bins=args.bins,
                                  ranges=[(-args.range, args.range)])
        est = graham_estimate(dens, eps)
        centers = dens.centers(0)
        finite = np.isfinite(est)
        ref = -potential(field, centers[:, None])
        ref -= ref[finite].min()
        sup = np.max(np.abs(est[finite] - ref[finite]))
        print(f"eps={eps:g}: {dens.total} post-burn-in samples, "
              f"{finite.sum()}/{args.bins} occupied cells, "
              f"sup |estimate - V| = {sup:.4f}")
        for c, e, r in zip(centers[finite], est[finite], ref[finite]):
            print(f"    x={c:7.3f}   estimate={e:8.4f}   V={r:8.4f}")


if __name__ == "__main__":
    main()

"""Deterministic quasi-random sample plans in the domain ball."""
from __future__ import annotations

import math

import numpy as np

# Cephes ndtri: P0/Q0 on exp(-2) < y < 1 - exp(-2), P1/Q1 in the tails for
# sqrt(-2 log y) < 8, i.e. y > exp(-32); Q0 and Q1 have an implicit leading 1
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
# the quantile's input clip; it keeps sqrt(-2 log y) <= 7.44, inside P1/Q1
_CLIP = 1e-12


def _horner(x, coef, monic=False):
    acc = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Standard normal quantile for y0 in [exp(-32), 1 - exp(-32)].

    The Cephes ``ndtri`` rational approximation with its branches and
    Horner order; it is within 4 ulp of the C version, where numpy's log
    differs from the C library's.  Both branches are evaluated everywhere:
    one select is cheaper than masked indexing.
    """
    upper = y0 > 1.0 - _EXP_M2
    central = (y0 > _EXP_M2) & ~upper
    yc = y0 - 0.5
    y2 = yc * yc
    mid = (yc + yc * (y2 * _horner(y2, _P0) / _horner(y2, _Q0, True))
           ) * _SQRT_2PI
    # the tails in y = min(y0, 1 - y0), negated below the median
    x = np.sqrt(-2.0 * np.log(np.minimum(y0, 1.0 - y0)))
    z = 1.0 / x
    tail = x - np.log(x) / x - z * _horner(z, _P1) / _horner(z, _Q1, True)
    return np.where(central, mid, tail * (2.0 * upper - 1.0))


def _primes(n: int) -> list[int]:
    found: list[int] = []
    k = 2
    while len(found) < n:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def _halton(dim: int, count: int, seed: int) -> np.ndarray:
    """count points of the scrambled Halton sequence in [0, 1)^dim.

    Owen's random-permutation scrambling (A. B. Owen, "A randomized Halton
    algorithm in R", arXiv:1706.02808): per prime base b, ceil(54/log2 b) - 1
    digit permutations shuffled from one shared ``default_rng(seed)``, and
    point i is the left-to-right sum of perm[k, digit_k(i)] * b^-(k+1) over
    every digit k.  tests/test_sampling.py pins it bit for bit to the
    reference implementation of the same algorithm.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((dim, count))
    tails = []
    for j, b in enumerate(_primes(dim)):
        ndig = math.ceil(54 / math.log2(b)) - 1
        perm = rng.permuted(np.repeat(np.arange(b)[None], ndig, axis=0),
                           axis=1)
        scale = [1.0 / b]
        for _ in range(ndig - 1):
            scale.append(scale[-1] / b)
        terms = perm * np.array(scale)[:, None]
        # digit k of the index i = d b^k + r is d, so the sum through digit
        # k is terms[k, d] + (the sum through digit k - 1 at r), built for
        # every index up to count; digits past that are 0 for all of them.
        # Each point still adds one digit at a time, left to right, so it
        # rounds as the per-point loop of the reference does.
        v = np.zeros(1)
        k = 0
        while v.size < count:
            v = (terms[k, :-(-count // v.size), None] + v).ravel()
            k += 1
        out[j] = v[:count]
        tails.append(terms[k:, 0])
    # the trailing digits are the same for every point: add them for all
    # bases at once, one digit per step; the +0 that pads the shorter tails
    # leaves a sum unchanged
    const = np.zeros((dim, max(map(len, tails))))
    for j, tail in enumerate(tails):
        const[j, :len(tail)] = tail
    for c in const.T:
        out += c[:, None]
    return out.T.copy()


def sample_ball(dim: int, count: int, radius: float = 1.0,
                seed: int = 0) -> np.ndarray:
    """count quasi-random (scrambled Halton) points in the ball |x| <= radius.

    Deterministic for a fixed (dim, count, radius, seed).
    """
    if dim < 1 or count < 1:
        raise ValueError(f"dim and count must be at least 1; got dim "
                         f"{dim}, count {count}")
    if not 0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and >= 0; got {radius}")
    if dim == 1:
        u = _halton(1, count, seed)
        return radius * (2.0 * u - 1.0)
    # direction from a Gaussian quantile map, length from the radial CDF
    u = _halton(dim + 1, count, seed)
    z = _ndtri(np.clip(u[:, :dim], _CLIP, 1 - _CLIP))
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0] = 1.0
    r = radius * u[:, dim] ** (1.0 / dim)
    return (z / norms[:, None]) * r[:, None]

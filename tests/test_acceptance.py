"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL
line so the suite output doubles as a checklist.
"""
import json
import time

import numpy as np
import pytest

from gradiform import (ConstantVerdict, QuadratureRule, Verdict,
                       antiexact_part, circle_loop, classify, decompose,
                       euler_maruyama_ensembles, eval_field, graham_estimate,
                       integrate_rk4, jacobian, loop_integral, potential,
                       sample_ball, solve_consistency_constant,
                       solve_symmetrizer, stationary_density,
                       transform_field)
from gradiform.cli import main
from gradiform.fields import VectorField
from gradiform.zoo import jj_circuit, jj_circuit_linear, lorenz, ou, quadratic, rotation

RULE = QuadratureRule.gauss_legendre(64)
LORENZ = lorenz(10.0, 28.0, 8.0 / 3.0)
POINTS = sample_ball(3, 100, 2.0, seed=101)


def emit(capsys, num, label, ok):
    with capsys.disabled():
        print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num}: {label}"


def lorenz_potential(x, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    return ((sigma + rho) * x[0] * x[1] / 2 - sigma * x[0] ** 2 / 2
            - x[1] ** 2 / 2 - beta * x[2] ** 2 / 2)


def random_polynomial_field(seed):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((3, 3))
    C = rng.standard_normal((3, 3))

    def func(x):
        return Q @ x + C @ (x * x)

    def jac(x):
        return Q + C * (2.0 * x)[None, :]

    return VectorField(dim=3, func=func, jac=jac)


def random_real_diagonalizable(rng, n=3, cond_cap=50.0):
    while True:
        P = rng.standard_normal((n, n))
        if np.linalg.cond(P) < cond_cap:
            break
    lam = rng.uniform(-3.0, -0.5, n) + 0.5 * np.arange(n)
    return P @ np.diag(lam) @ np.linalg.inv(P)


def test_criterion_01_decomposition_identity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for x in POINTS:
        d = decompose(LORENZ, x, RULE)
        g = eval_field(LORENZ, x)
        worst = max(worst, float(np.max(np.abs(
            g - d.exact_part - d.antiexact_part))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    emit(capsys, 1, f"decomposition identity (max residual {worst:.2e}, "
         f"{elapsed:.2f} s)", ok)


def test_criterion_02_lorenz_potential_closed_form(capsys):
    worst = max(abs(potential(LORENZ, x, RULE) - lorenz_potential(x))
                for x in POINTS)
    emit(capsys, 2, f"homotopy potential closed form (max err {worst:.2e})",
         worst < 1e-9)


def test_criterion_03_radial_annihilation(capsys):
    fields = [LORENZ, jj_circuit()] + [random_polynomial_field(s)
                                       for s in range(20)]
    worst = 0.0
    for field in fields:
        for x in sample_ball(3, 10, 1.5, seed=77):
            ae = antiexact_part(field, x, RULE)
            worst = max(worst, abs(float(np.dot(ae, x))))
    emit(capsys, 3, f"radial annihilation (max |<antiexact,x>| {worst:.2e})",
         worst < 1e-10)


def test_criterion_04_exact_part_curl_free(capsys):
    h = 1e-5
    worst = 0.0
    for x in POINTS[:5]:
        J = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            J[:, j] = (decompose(LORENZ, x + e, RULE).exact_part
                       - decompose(LORENZ, x - e, RULE).exact_part) / (2 * h)
        worst = max(worst, float(np.max(np.abs(J - J.T))))
    emit(capsys, 4, f"exact part curl-free (max FD asymmetry {worst:.2e})",
         worst < 1e-6)


def test_criterion_05_closed_round_trip(capsys):
    Q = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
    field = quadratic(Q)
    samples = sample_ball(3, 32, 1.5, seed=5)
    rep = classify(field, samples)
    grad_err = max(float(np.max(np.abs(decompose(field, x, RULE).exact_part
                                       - Q @ x))) for x in samples)
    loop3 = circle_loop(radius=1.0, dim=3)
    circ = abs(loop_integral(field, loop3))
    rot = loop_integral(rotation(), circle_loop())
    ok = (rep.verdict is Verdict.CLOSED and grad_err < 1e-8
          and circ < 1e-10 and abs(rot - 2.0 * np.pi) < 1e-6)
    emit(capsys, 5, f"closed round trip (grad err {grad_err:.2e}, loop "
         f"{circ:.2e}, rotation loop {rot:.6f})", ok)


def test_criterion_06_frobenius_oracle(capsys):
    val = classify(LORENZ, [1.0, 1.0, 1.0]).frobenius_defect_max
    Q = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
    grad_worst = max(classify(quadratic(Q), x).frobenius_defect_max
                     for x in sample_ball(3, 16, 1.5, seed=6))
    ok = abs(val - 163.0 / 3.0) < 1e-9 and grad_worst < 1e-12
    emit(capsys, 6, f"Frobenius defect (Lorenz {val:.9f} vs 163/3, "
         f"gradient max {grad_worst:.2e})", ok)


def test_criterion_07_constant_gradientization(capsys):
    rng = np.random.default_rng(2024)
    worst_asym = 0.0
    worst_grad = 0.0
    check_pts = sample_ball(3, 2, 0.8, seed=7)
    for _ in range(50):
        J = random_real_diagonalizable(rng)
        rep = solve_symmetrizer(J)
        assert rep.verdict is ConstantVerdict.GRADIENTIZED
        worst_asym = max(worst_asym, rep.transformed_asymmetry)
        t = transform_field(quadratic(J), rep.chosen_D)
        h = 1e-6
        for x in check_pts:
            f = eval_field(t, x)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (potential(t, x + e, RULE)
                      - potential(t, x - e, RULE)) / (2 * h)
                worst_grad = max(worst_grad, abs(fd - f[i]))
    crep = solve_consistency_constant(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    B = crep.nullspace_basis[0]
    ref = np.array([[1.0, -1.0], [1.0, 1.0]])
    span_ok = (len(crep.nullspace_basis) == 1
               and np.allclose(B, (B[0, 0] / ref[0, 0]) * ref, atol=1e-10))
    ok = (worst_asym < 1e-8 and worst_grad < 1e-6 and span_ok
          and crep.verdict is not ConstantVerdict.GRADIENTIZED)
    emit(capsys, 7, f"constant gradientization (asym {worst_asym:.2e}, "
         f"grad err {worst_grad:.2e}, rotation nullspace ok {span_ok})", ok)


def test_criterion_08_symmetric_identity_solution(capsys):
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(10):
        A = rng.standard_normal((3, 3))
        J = A + A.T
        rep = solve_consistency_constant(J)
        ok = ok and rep.identity_solves_necessary
    emit(capsys, 8, "symmetric Jacobian admits the identity solution", ok)


def test_criterion_09_jj_circuit(capsys):
    sym_ok = True
    for r, bc, bL in [(1.0, 1.0, 1.0), (2.0, 0.5, 4.0), (0.3, 1.7, 0.9)]:
        J = jacobian(jj_circuit_linear(r=r, beta_c=bc, beta_L=bL),
                     np.zeros(3))
        expected = np.array([[1.0, 0.0, 0.0],
                             [-r / bc, -1.0 / bc, -1.0 / bc],
                             [1.0 / bL, 0.0, -1.0 / bL]])
        sym_ok = sym_ok and np.array_equal(J, expected)
    J1 = jacobian(jj_circuit_linear(r=1, beta_c=1, beta_L=1), np.zeros(3))
    lam = np.sort(np.linalg.eigvals(J1).real)
    spectrum_ok = np.allclose(lam, [-1.0, -1.0, 1.0], atol=1e-12)
    # eigenvalue -1 is defective: its eigenspace is one-dimensional
    defective = np.linalg.matrix_rank(J1 + np.eye(3), tol=1e-10) == 2
    rep = solve_symmetrizer(J1)
    ok = (sym_ok and spectrum_ok and defective
          and rep.verdict is not ConstantVerdict.GRADIENTIZED)
    emit(capsys, 9, f"JJ circuit Jacobian and defective infeasibility "
         f"(verdict {rep.verdict.value})", ok)


def test_criterion_10_graham_ou(capsys):
    field, V = ou(theta=1.0)
    eps = 0.05
    t0 = time.perf_counter()
    x0s = np.zeros((10, 1))
    [ens] = euler_maruyama_ensembles(field, [eps], x0s, 1e-3, 125_000,
                                     master_seed=7)
    dens = stationary_density(ens, bins=30, ranges=[(-1.5, 1.5)])
    est = graham_estimate(dens, eps)
    elapsed = time.perf_counter() - t0
    post_burn = dens.total
    centers = dens.centers(0)
    ref = 0.5 * centers ** 2
    finite = np.isfinite(est)
    ref = ref - np.min(ref[finite])
    window = (np.abs(centers) <= 1.0) & finite
    sup = float(np.max(np.abs(est[window] - ref[window])))
    ok = sup < 0.1 and elapsed < 30.0 and post_burn >= 1_000_000
    emit(capsys, 10, f"Graham estimate vs x^2/2 (sup {sup:.4f}, "
         f"{post_burn} samples, {elapsed:.1f} s)", ok)


def test_criterion_11_integrator_orders(capsys):
    decay = VectorField(dim=1, func=lambda x: -x)
    exact = np.exp(-1.0)
    e1 = abs(integrate_rk4(decay, [1.0], 0.1, 10).states[-1][0] - exact)
    e2 = abs(integrate_rk4(decay, [1.0], 0.05, 20).states[-1][0] - exact)
    ratio = e1 / e2
    [[em]] = euler_maruyama_ensembles(decay, [0.0], [[1.0]], 0.1, 30,
                                      master_seed=0)
    x = np.array([1.0])
    bit_equal = True
    for k in range(1, 31):
        x = x + 0.1 * (-x)
        bit_equal = bit_equal and em.states[k][0] == x[0]
    ok = 12.0 <= ratio <= 20.0 and bit_equal
    emit(capsys, 11, f"integrator orders (RK4 ratio {ratio:.2f}, "
         f"noise-free path bit-equal {bit_equal})", ok)


def test_criterion_12_deterministic_reports(capsys, tmp_path):
    def run(cmd, extra, name):
        out = tmp_path / name
        code = main([cmd] + extra + ["--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        data.pop("timings")
        return json.dumps(data, sort_keys=True)

    graham_args = ["--set", "system.name=ou",
                   "--set", "simulation.steps=5000",
                   "--set", "simulation.ensemble=2",
                   "--set", "simulation.grid_bins=10"]
    ok = (run("classify", [], "c1.json") == run("classify", [], "c2.json")
          and run("graham", graham_args, "g1.json")
          == run("graham", graham_args, "g2.json")
          and run("decompose", ["--set", "samples.count=8"], "d1.json")
          == run("decompose", ["--set", "samples.count=8"], "d2.json"))
    emit(capsys, 12, "repeated runs byte-identical modulo timings", ok)

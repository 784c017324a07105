"""Acceptance gate: the eleven headline guarantees, one test each.

Each test prints a single ``acceptance NN <name>: PASS/FAIL`` verdict
line (visible with ``pytest -s``; under plain ``pytest -v`` the test
outcome itself is the per-criterion signal).  Tolerances here are the
contract; loosening them is never the fix for a failure.
"""

import math
import time

import numpy as np

from popcode_mi.cli import _build_parser, _resolve, _run_fig1, _run_fig2
from popcode_mi.fisher import GaussianPrior, GridPrior
from popcode_mi.mi import exact_gaussian_mi, gap_bounds, i_f, i_g, i_g_plus
from popcode_mi.models import (
    CorrelatedGaussianPopulation,
    LinearGaussianModel,
    decorrelation_transform,
)
from popcode_mi.optimize import build_problem, capacity_prior, gradient, maximize, objective
from popcode_mi.transform import partition_info, reduce_check_A, reduce_check_B

PERIOD = math.pi


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def random_spd(rng: np.random.Generator, k: int) -> np.ndarray:
    a = rng.standard_normal((k, k))
    return a @ a.T + 0.5 * np.eye(k)


def test_01_linear_gaussian_exactness():
    """I_G reproduces the closed-form Gaussian-channel MI and equals I_G+."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_exact = worst_pair = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 11))
        n = int(rng.integers(1, 201))
        mixing = rng.standard_normal((k, n))
        cov = random_spd(rng, k)
        model = LinearGaussianModel(mixing, np.zeros(k), cov)
        prior = GaussianPrior(np.zeros(k), cov)
        exact = exact_gaussian_mi(model)
        v_g = i_g(model.fisher(), prior).value
        v_gp = i_g_plus(model.fisher(), prior).value
        worst_exact = max(worst_exact, abs(v_g - exact))
        worst_pair = max(worst_pair, abs(v_g - v_gp))
    elapsed = time.perf_counter() - start
    ok = worst_exact < 1e-9 and worst_pair <= 1e-9 and elapsed < 10.0
    _verdict(1, "linear-Gaussian exactness", ok,
             f"max |I_G - exact| {worst_exact:.2e}, max |I_G - I_G+| "
             f"{worst_pair:.2e}, {elapsed:.1f}s")


def test_02_degenerate_fisher_is_flagged():
    """Identical mixing columns: I_F diverges, I_G keeps its closed form."""
    rng = np.random.default_rng(202)
    all_flagged = True
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(2, 100))
        a = rng.standard_normal(k)
        model = LinearGaussianModel(np.tile(a[:, None], (1, n)), np.zeros(k), np.eye(k))
        prior = GaussianPrior(np.zeros(k), np.eye(k))
        v_f = i_f(model.fisher(), prior)
        all_flagged &= v_f.degenerate and v_f.value == -math.inf
        v_g = i_g(model.fisher(), prior).value
        worst = max(worst, abs(v_g - 0.5 * math.log1p(n * float(a @ a))))
    ok = all_flagged and worst < 1e-10
    _verdict(2, "degenerate-J detection", ok,
             f"all flagged {all_flagged}, max |I_G - closed form| {worst:.2e}")


def test_03_poisson_sweep_tracks_monte_carlo():
    """Every approximation stays within 2% and 3 error bars of the MC reference."""
    args = _build_parser().parse_args(["fig1", "--seed", "303"])
    cfg = _resolve("fig1", args)
    cfg["n_list"] = [10, 14, 20, 30, 50, 100]
    start = time.perf_counter()
    header, rows, _ = _run_fig1(cfg)
    elapsed = time.perf_counter() - start
    col = {name: header.index(name) for name in header}
    worst_rel = worst_bands = 0.0
    for row in rows:
        std = row[col["DI_std"]]
        for key in ("DI_G", "DI_G+", "DI_F"):
            worst_rel = max(worst_rel, abs(row[col[key]]))
            worst_bands = max(worst_bands, abs(row[col[key]]) / (3.0 * std))
    ok = worst_rel < 0.02 and worst_bands <= 1.0 and elapsed < 600.0
    _verdict(3, "Poisson sweep vs Monte Carlo", ok,
             f"max |rel err| {worst_rel:.2%}, max |err|/3std {worst_bands:.2f}, "
             f"{elapsed:.0f}s")


def test_04_gap_ordering_and_bounds():
    """0 <= I_G - I_F <= varsigma/2 and 0 <= I_G+ - I_F <= varsigma_plus/2."""
    rng = np.random.default_rng(404)
    ok = True
    worst_slack = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        prior = GaussianPrior(np.zeros(k), random_spd(rng, k))
        j = np.stack([random_spd(rng, k) for _ in range(m)])
        gap_g = i_g(j, prior).value - i_f(j, prior).value
        gap_gp = i_g_plus(j, prior).value - i_f(j, prior).value
        bounds = gap_bounds(j, prior)
        ok &= 0.0 <= gap_g <= bounds.varsigma / 2.0 + 1e-10
        ok &= 0.0 <= gap_gp <= bounds.varsigma_plus / 2.0 + 1e-10
        worst_slack = max(worst_slack, gap_g - bounds.varsigma / 2.0,
                          gap_gp - bounds.varsigma_plus / 2.0)
    _verdict(4, "gap ordering and bounds", ok,
             f"worst upper-bound slack {worst_slack:.2e}")


def test_05_decorrelation_inverse_root():
    """The closed-form M satisfies M Sigma M^T = I for uniform correlations."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        c = float(rng.uniform(-1.0 / (n - 1) + 1e-3, 0.999))
        a = float(rng.uniform(0.1, 10.0))
        pop = CorrelatedGaussianPopulation(a, c)
        mat = decorrelation_transform(pop, n)
        sigma = pop.covariance(n)
        worst = max(worst, float(np.linalg.norm(mat @ sigma @ mat.T - np.eye(n))))
    ok = worst < 1e-10
    _verdict(5, "decorrelation identity", ok, f"max Frobenius defect {worst:.2e}")


def test_06_transform_equivariance():
    """I_G is invariant under invertible linear changes of the input."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(5, 60))
        mixing = rng.standard_normal((k, n))
        cov = random_spd(rng, k)
        base = i_g(mixing @ mixing.T, GaussianPrior(np.zeros(k), cov)).value
        t = rng.standard_normal((k, k))
        while abs(np.linalg.det(t)) < 1e-2:
            t = rng.standard_normal((k, k))
        mixed = np.linalg.solve(t.T, mixing)
        moved = i_g(mixed @ mixed.T, GaussianPrior(np.zeros(k), t @ cov @ t.T)).value
        worst = max(worst, abs(moved - base))
    ok = worst < 1e-9
    _verdict(6, "transform equivariance", ok, f"max |I_G drift| {worst:.2e}")


def test_07_spectrum_gap_grid():
    """The Fisher shortfall is negative, grows with K, and shrinks with N."""
    args = _build_parser().parse_args(["fig2", "--seed", "707"])
    cfg = _resolve("fig2", args)
    cfg["workers"] = 2
    start = time.perf_counter()
    header, rows, _ = _run_fig2(cfg)
    elapsed = time.perf_counter() - start
    col = {name: header.index(name) for name in header}
    rel = {(row[col["w"]], row[col["N"]]): row[col["DI_F"]] for row in rows}
    widths, n_list = cfg["widths"], cfg["n_list"]
    all_negative = all(v < 0.0 for v in rel.values())
    grow_k = all(abs(rel[(widths[i + 1], n)]) >= abs(rel[(widths[i], n)])
                 for n in n_list for i in range(len(widths) - 1))
    shrink_n = all(abs(rel[(w, n_list[i + 1])]) <= abs(rel[(w, n_list[i])])
                   for w in widths for i in range(len(n_list) - 1))
    ok = all_negative and grow_k and shrink_n
    _verdict(7, "spectrum-gap grid shape", ok,
             f"negative {all_negative}, monotone in K {grow_k}, "
             f"monotone in N {shrink_n}, {elapsed:.0f}s")


def test_08_block_reduction_identities():
    """Schur-factored log-dets match, and decoupled blocks factor exactly."""
    rng = np.random.default_rng(808)
    worst_schur = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        k1 = int(rng.integers(1, k))
        m = int(rng.integers(1, 5))
        j = np.stack([random_spd(rng, k) for _ in range(m)])
        blocked = partition_info(j, random_spd(rng, k), k1, h_x=0.4)
        for i in range(m):
            g11, g12, g22 = blocked.g11[i], blocked.g12[i], blocked.g22[i]
            lhs = np.linalg.slogdet(blocked.g[i])[1]
            rhs = (np.linalg.slogdet(g11)[1]
                   + np.linalg.slogdet(g22 - g12.T @ np.linalg.solve(g11, g12))[1])
            worst_schur = max(worst_schur, abs(lhs - rhs))

    def full_i_g(blocked):
        logdets = np.array([np.linalg.slogdet(g)[1] for g in blocked.g])
        return (0.5 * (float(blocked.weights @ logdets) - blocked.k * math.log(2 * math.pi * math.e))
                + blocked.h_x)

    j = np.zeros((3, 5, 5))
    for i in range(3):
        j[i, :2, :2] = random_spd(rng, 2)
        j[i, 2:, 2:] = random_spd(rng, 3)
    diag = partition_info(j, np.diag(rng.uniform(0.5, 2.0, 5)), 2, h_x=0.3)
    check_a = reduce_check_A(diag)
    dev_a = abs(check_a.value - full_i_g(diag))

    j = np.zeros((3, 4, 4))
    for i in range(3):
        j[i, :2, :2] = random_spd(rng, 2)
    tail = partition_info(j, np.diag(rng.uniform(0.5, 2.0, 4)), 2, h_x=-0.2)
    check_b = reduce_check_B(tail)
    dev_b = abs(check_b.value - full_i_g(tail))

    ok = (worst_schur < 1e-10 and check_a.trace_mean == 0.0 and dev_a < 1e-12
          and check_b.trace_mean == 0.0 and dev_b < 1e-12)
    _verdict(8, "block-reduction identities", ok,
             f"max Schur defect {worst_schur:.2e}, block-diag dev {dev_a:.2e}, "
             f"tail-free dev {dev_b:.2e}")


def test_09_objective_concavity():
    """The density objective never dips below its chords."""
    thetas = np.array([-0.45, 0.0, 0.45])
    flat = build_problem(thetas, GridPrior.uniform(PERIOD, m=300), n=8)
    curved = build_problem(thetas, GridPrior.von_mises(PERIOD, m=300), n=8)
    rng = np.random.default_rng(909)
    worst = math.inf
    for _ in range(100):
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        lam = float(rng.uniform())
        slack = (objective(lam * a + (1 - lam) * b, flat)
                 - lam * objective(a, flat) - (1 - lam) * objective(b, flat))
        worst = min(worst, slack)
    for _ in range(100):
        a = 0.1 + 0.7 * rng.dirichlet(np.ones(3))
        b = 0.1 + 0.7 * rng.dirichlet(np.ones(3))
        lam = float(rng.uniform())
        slack = (objective(lam * a + (1 - lam) * b, curved)
                 - lam * objective(a, curved) - (1 - lam) * objective(b, curved))
        worst = min(worst, slack)
    ok = worst >= -1e-9
    _verdict(9, "objective concavity", ok, f"min chord slack {worst:.2e}")


def test_10_optimizer_certificate():
    """Frank-Wolfe reaches the brute-force optimum with a clean certificate."""
    start = time.perf_counter()
    prior = GridPrior.von_mises(PERIOD, m=300)
    prob = build_problem(np.array([-0.45, 0.0, 0.45]), prior, n=8)
    res = maximize(prob)

    denom = 140  # (141 * 142) / 2 = 10011 barycentric grid points
    best_grid = -math.inf
    for i in range(denom + 1):
        for j in range(denom + 1 - i):
            alpha = np.array([i, j, denom - i - j]) / denom
            best_grid = max(best_grid, objective(alpha, prob))
    value = objective(res.alpha, prob)

    alpha0 = np.array([0.5, 0.2, 0.3])
    grad = gradient(alpha0, prob)
    h = 1e-6
    worst_fd = 0.0
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (objective(alpha0 + e, prob) - objective(alpha0 - e, prob)) / (2 * h)
        worst_fd = max(worst_fd, abs(grad[k] - fd) / abs(fd))
    elapsed = time.perf_counter() - start

    ok = (abs(value - best_grid) <= 1e-3
          and res.report.equality_violation < 1e-4
          and res.report.inequality_violation < 1e-4
          and worst_fd < 1e-5
          and elapsed < 60.0)
    _verdict(10, "optimizer certificate", ok,
             f"|FW - grid| {abs(value - best_grid):.2e}, KKT "
             f"{max(res.report.equality_violation, res.report.inequality_violation):.2e}, "
             f"FD rel err {worst_fd:.2e}, {elapsed:.0f}s")


def test_11_capacity_density():
    """Constant J gives the uniform density; delta-function tuning tracks |dg/dx|."""
    m = 400
    nodes = np.linspace(-1.0, 1.0, m, endpoint=False) + 1.0 / m
    pstar, _ = capacity_prior(np.full(m, 7.0), nodes, 2.0)
    dev_const = float(np.max(np.abs(pstar - 0.5)))

    slope = 3.0 * nodes**2
    pstar_delta, _ = capacity_prior(slope**2, nodes, 2.0)
    target = slope / (np.sum(slope) * (2.0 / m))
    dev_delta = float(np.max(np.abs(pstar_delta - target)))

    ok = dev_const < 1e-10 and dev_delta < 1e-8
    _verdict(11, "capacity-achieving density", ok,
             f"uniform dev {dev_const:.2e}, |dg/dx| dev {dev_delta:.2e}")

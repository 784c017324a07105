"""The benchmark's workloads: inputs made from a seed, the timed
operations, and the checks of their outputs.

Each workload builds a list of :class:`Op`.  ``run`` is the timed call
into popcode_mi's public API; it resolves the function through its
module at call time, so the tracer's wrappers see it.  ``check`` runs
after the timed region and turns the result into an :class:`Outcome`:
the problems found (an empty list means the output is correct), a digest
of the output for the byte-identity check across passes, and the
converged flags of any Frank-Wolfe solves.

``tiny=True`` shrinks every workload to a fraction of a second for the
harness self-test; the checks are the same.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from popcode_mi import cli, mi, optimize, transform
from popcode_mi.fisher import GaussianPrior
from popcode_mi.mi import LOG_2PI_E


@dataclass
class Outcome:
    problems: list
    digest: str = ""
    solves: list = field(default_factory=list)  # converged flag per Frank-Wolfe solve
    mc_rel_std: Optional[float] = None


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _digest(value) -> str:
    """Digest of a result: raw bytes of arrays, ``repr`` of scalars."""
    h = hashlib.sha256()

    def feed(v):
        if dataclasses.is_dataclass(v):
            for f in dataclasses.fields(v):
                feed(getattr(v, f.name))
        elif isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


# -- CLI workloads -------------------------------------------------------------


def _cli_op(name, experiment, cfg, seed, workdir, check_output) -> Op:
    """One ``popcode_mi.cli.main`` call; ``check_output(rows, sidecar)``
    returns an Outcome for the CSV rows and the JSON sidecar."""
    cfg_path = os.path.join(workdir, f"{name}.config.json")
    out = os.path.join(workdir, f"{name}.csv")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(dict(cfg, experiment=experiment, workers=nproc()), fh)
    for stale in (out, out + ".json"):
        if os.path.exists(stale):
            os.remove(stale)
    argv = [experiment, "--config", cfg_path, "--seed", str(seed), "--out", out]

    def check(code):
        if code != 0:
            return Outcome([f"{name}: exit code {code}"])
        with open(out, "rb") as fh:
            raw = fh.read()
        with open(out + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        outcome = check_output(list(csv.DictReader(io.StringIO(raw.decode()))), sidecar)
        outcome.problems = [f"{name}: {p}" for p in outcome.problems]
        outcome.digest = hashlib.sha256(raw).hexdigest()
        return outcome

    return Op(name, lambda: cli.main(argv), check)


def mc_sweep(seed, tiny, workdir):
    cfg = {"n_list": [30, 200], "repeats": 2, "j_max": 50_000, "i_max": 100, "m": 500}
    if tiny:
        cfg = {"n_list": [100], "repeats": 1, "j_max": 5_000, "i_max": 20, "m": 100}

    def check(rows, sidecar):
        problems = []
        if [int(r["N"]) for r in rows] != cfg["n_list"]:
            problems.append(f"rows for N = {[r['N'] for r in rows]}, expected {cfg['n_list']}")
        stds = []
        for r in rows:
            std = float(r["DI_std"])
            stds.append(std)
            for key in ("DI_G", "DI_G+", "DI_F"):
                err = abs(float(r[key]))
                # The bands of the Poisson-sweep acceptance criterion.
                if not (err < 0.02 and err <= 3.0 * std):
                    problems.append(f"N={r['N']}: |{key}| = {err:.3e} outside 2% and 3 DI_std = {3 * std:.3e}")
        return Outcome(problems, mc_rel_std=float(np.mean(stds)) if stds else None)

    return [_cli_op("fig1", "fig1", cfg, seed, workdir, check)]


def gram_gap(seed, tiny, workdir):
    cfg = {"widths": [10, 20, 30], "n_list": [20_000, 100_000]}
    if tiny:
        cfg = {"widths": [2, 3], "n_list": [300, 1_000]}

    def check(rows, sidecar):
        problems, rel = [], {}
        for r in rows:
            cell = (int(r["w"]), int(r["N"]))
            i_g, i_f, di_f = float(r["I_G"]), float(r["I_F"]), float(r["dI_F"])
            # I_F - I_G and dI_F come from two independent log-det formulas.
            if not abs((i_f - i_g) - di_f) <= 1e-9 * abs(di_f):
                problems.append(f"cell {cell}: I_F - I_G = {i_f - i_g!r} but dI_F = {di_f!r}")
            rel[cell] = float(r["DI_F"])
            if not rel[cell] < 0.0:
                problems.append(f"cell {cell}: DI_F = {rel[cell]!r} is not negative")
        widths, ns = cfg["widths"], cfg["n_list"]
        if set(rel) != {(w, n) for w in widths for n in ns}:
            return Outcome(problems + [f"cells {sorted(rel)} do not cover the grid"])
        for n in ns:
            for a, b in zip(widths, widths[1:]):
                if not abs(rel[(b, n)]) >= abs(rel[(a, n)]):
                    problems.append(f"N={n}: |DI_F| falls from w={a} to w={b}")
        for w in widths:
            for a, b in zip(ns, ns[1:]):
                if not abs(rel[(w, b)]) <= abs(rel[(w, a)]):
                    problems.append(f"w={w}: |DI_F| grows from N={a} to N={b}")
        return Outcome(problems)

    return [_cli_op("fig2", "fig2", cfg, seed, workdir, check)]


def _check_density(budget: bool, certify: bool):
    def check(rows, sidecar):
        problems = []
        alpha = np.array([float(r["alpha"]) for r in rows])
        if not (alpha.min() >= 0.0 and abs(alpha.sum() - 1.0) <= 1e-9):
            problems.append(f"alpha off the simplex: min {alpha.min()!r}, sum {alpha.sum()!r}")
        if budget and not sidecar["power_slack"] >= 0.0:
            problems.append(f"power slack {sidecar['power_slack']!r} is negative")
        if certify:
            kkt = sidecar["kkt"]
            for key in ("equality_violation", "inequality_violation"):
                if not kkt[key] < 1e-4:
                    problems.append(f"KKT {key} {kkt[key]!r} >= 1e-4")
        return Outcome(problems, solves=[bool(sidecar["converged"])])

    return check


def _check_capacity(period: float):
    def check(rows, sidecar):
        problems = []
        p = np.array([float(r["p_star"]) for r in rows])
        mass = float(p.sum()) * period / p.size
        if not (p.min() >= 0.0 and abs(mass - 1.0) <= 1e-9):
            problems.append(f"p_star is not a density: min {p.min()!r}, rectangle-rule mass {mass!r}")
        if not math.isfinite(sidecar["capacity"]):
            problems.append(f"capacity {sidecar['capacity']!r} is not finite")
        return Outcome(problems)

    return check


def density_opt(seed, tiny, workdir):
    # The bundled configs for every seed, which only reaches --seed: these
    # experiments draw no random numbers.  Drawing the tuning shape from the
    # seed would change the solvers' work (objective calls) by a few percent.
    k1_small, k1_large, iters_small, iters_large, m = 10, 50, 2000, 1000, 500
    if tiny:
        k1_small, k1_large, iters_small, iters_large, m = 5, 8, 50, 50, 100
    base = dict(k1=k1_small, n=100, m=m, tol=1e-8, max_iters=10_000)
    budget = dict(base, avg_power=12.0, max_iters=iters_small)
    return [
        _cli_op("optimize", "optimize", base, seed, workdir, _check_density(False, True)),
        _cli_op("optimize_power_k10", "optimize", budget, seed, workdir, _check_density(True, False)),
        _cli_op("optimize_power_k50", "optimize", dict(budget, k1=k1_large, max_iters=iters_large),
                seed, workdir, _check_density(True, False)),
        _cli_op("capacity", "capacity", dict(n=30, m=m), seed, workdir, _check_capacity(math.pi)),
    ]


# -- library workload ------------------------------------------------------------


def _spd_stack(rng, m: int, k: int) -> np.ndarray:
    a = rng.standard_normal((m, k, k + 2)) / math.sqrt(k + 2)
    return a @ a.transpose(0, 2, 1) + 0.1 * np.eye(k)


def _logdets(stack) -> np.ndarray:
    sign, logdet = np.linalg.slogdet(stack)
    return np.where(sign > 0, logdet, -np.inf)


def _close(got, want, rtol=1e-9) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def density_problem_2d(nodes_per_axis: int) -> optimize.OptimizationProblem:
    """Population-density problem for a 2-D stimulus under N(0, diag(1, 1/4)).

    Nine candidate classes of Poisson neurons with Gaussian-bump tuning
    sit on a 3 x 3 grid.  The x-average is a tensor Gauss-Hermite rule,
    not a random sample, so the solve and its iteration count are the
    same for every seed.
    """
    sd = np.array([1.0, 0.5])
    nodes, w = np.polynomial.hermite_e.hermegauss(nodes_per_axis)
    xs = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), -1).reshape(-1, 2) * sd
    weights = np.outer(w, w).ravel() / np.sum(w) ** 2
    grid = np.linspace(-1.0, 1.0, 3)
    centers = np.array([(a, 0.5 * b) for a in grid for b in grid])
    diff = xs[:, None, :] - centers[None, :, :]
    bump = 20.0 * np.exp(-np.sum(diff**2, axis=-1))
    rate = bump + 0.5
    grad = -2.0 * diff * bump[..., None]
    s_values = grad[..., :, None] * grad[..., None, :] / rate[..., None, None]
    prior = GaussianPrior(np.zeros(2), np.diag(sd**2))
    return optimize.OptimizationProblem(
        kind="I_G", thetas=np.arange(len(centers), dtype=float), n=20, s_values=s_values,
        p_values=np.broadcast_to(prior.precision(), (xs.shape[0], 2, 2)).copy(),
        weights=weights, h_x=prior.entropy())


def stack_logdet(seed, tiny, workdir):
    m, k, nodes_per_axis = (50, 4, 3) if tiny else (2000, 8, 8)
    rng = np.random.default_rng(seed)
    j = 10.0 * _spd_stack(rng, m, k)
    prior = GaussianPrior(np.zeros(k), _spd_stack(rng, 1, k)[0])
    precision, h_x = prior.precision(), prior.entropy()
    k1 = k // 2
    blocked = transform.partition_info(j, precision, k1, h_x=h_x)
    prob = density_problem_2d(nodes_per_axis)

    def mi_value(stack):
        return 0.5 * (float(np.mean(_logdets(stack))) - k * LOG_2PI_E) + h_x

    expected = {"mi.i_f": j, "mi.i_g": j + precision, "mi.i_g_plus": j + precision}

    def check_mi(name):
        def check(res):
            want = mi_value(expected[name])
            ok = not res.degenerate and _close(res.value, want)
            return Outcome([] if ok else [f"{name} = {res.value!r}, slogdet gives {want!r}"], _digest(res))
        return check

    def check_gap(res):
        problems = []
        # Trace of J^{-1/2} P J^{-1/2} equals the trace of J^{-1} P.
        want = float(np.mean(np.trace(np.linalg.solve(j, np.broadcast_to(precision, j.shape)),
                                      axis1=1, axis2=2)))
        if not _close(res.varsigma, want, 1e-8):
            problems.append(f"varsigma = {res.varsigma!r}, solve gives {want!r}")
        gap = mi_value(j + precision) - mi_value(j)
        if not -1e-10 <= gap <= res.varsigma / 2.0 + 1e-10:
            problems.append(f"I_G - I_F = {gap!r} outside [0, varsigma/2 = {res.varsigma / 2.0!r}]")
        return Outcome(problems, _digest(res))

    def check_reduction(which):
        def check(res):
            g11, g12 = blocked.g11, blocked.g12
            coupling = np.swapaxes(g12, 1, 2) @ np.linalg.solve(g11, g12)
            if which == "A":
                second, inner = blocked.g22, coupling
            else:
                second, inner = blocked.p22, blocked.j22 - coupling
            traces = np.trace(np.linalg.solve(second, inner), axis1=1, axis2=2)
            logdet = float(np.mean(_logdets(g11) + _logdets(second)))
            value = 0.5 * (logdet - k * LOG_2PI_E) + h_x
            problems = []
            if not _close(res.value, value):
                problems.append(f"reduce_check_{which} value {res.value!r}, slogdet gives {value!r}")
            if not _close(res.trace_mean, float(np.mean(traces)), 1e-8):
                problems.append(f"reduce_check_{which} trace {res.trace_mean!r}, "
                                f"solve gives {float(np.mean(traces))!r}")
            return Outcome(problems, _digest(res))
        return check

    def check_select(res):
        diag_means = np.mean(np.diagonal(j, axis1=1, axis2=2), axis=0)
        want = k
        for size in range(1, k):
            gamma = float(np.mean(_logdets(j[:, :size, :size] + np.eye(size))))
            if np.sum(diag_means[size:]) <= 0.01 * gamma:
                want = size
                break
        return Outcome([] if res == want else [f"select_k1 = {res!r}, expected {want}"], _digest(res))

    def check_maximize(res):
        problems = []
        if not (res.alpha.min() >= 0.0 and abs(res.alpha.sum() - 1.0) <= 1e-9):
            problems.append(f"alpha off the simplex: sum {res.alpha.sum()!r}")
        for key in ("equality_violation", "inequality_violation"):
            if not getattr(res.report, key) < 1e-4:
                problems.append(f"KKT {key} {getattr(res.report, key)!r} >= 1e-4")
        return Outcome(problems, _digest(res), solves=[bool(res.converged)])

    return [
        Op("mi.i_f", lambda: mi.i_f(j, prior), check_mi("mi.i_f")),
        Op("mi.i_g", lambda: mi.i_g(j, prior), check_mi("mi.i_g")),
        Op("mi.i_g_plus", lambda: mi.i_g_plus(j, prior), check_mi("mi.i_g_plus")),
        Op("mi.gap_bounds", lambda: mi.gap_bounds(j, prior), check_gap),
        Op("transform.reduce_check_A", lambda: transform.reduce_check_A(blocked), check_reduction("A")),
        Op("transform.reduce_check_B", lambda: transform.reduce_check_B(blocked), check_reduction("B")),
        Op("transform.select_k1", lambda: transform.select_k1(j), check_select),
        Op("optimize.maximize", lambda: optimize.maximize(prob), check_maximize),
    ]


WORKLOADS = {
    "mc_sweep": mc_sweep,
    "gram_gap": gram_gap,
    "density_opt": density_opt,
    "stack_logdet": stack_logdet,
}

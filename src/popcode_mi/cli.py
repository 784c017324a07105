"""Experiment runner: seeded, config-driven reproductions of the numerical
studies, emitting CSV tables with a JSON provenance sidecar.

Four experiments are exposed as subcommands:

* ``fig1`` — 1-D Poisson population sweep over population sizes N,
  comparing I_F/I_G/I_G+ against the Monte Carlo reference with bootstrap
  error bars (``--repeats`` independent MC runs per N).
* ``fig2`` — spectrum-vs-Fisher gap over a (patch width w, population N)
  grid, from a real patch file or a synthetic power-law spectrum.
* ``optimize`` — Frank-Wolfe maximization of the information over the
  population density, with the KKT certificate and constraint slacks.
* ``capacity`` — capacity-achieving stimulus density for a fixed
  population, with the redundancy of the configured prior.

Configuration is one JSON object; every flag mirrors a config key and
overrides it.  Identical config + seed reproduce CSV output files
byte-for-byte (the sidecar records wall time, so it is exempt).  Exit
codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy

from . import __version__
from .fisher import GridPrior
from .mc import MCConfig, mc_mutual_information
from .mi import i_f, i_g, i_g_plus
from .models import PoissonPopulation, VonMisesTuning
from .optimize import build_problem, capacity_prior, maximize, objective, redundancy
from .transform import (
    fig2_gap_from_gram,
    load_patches,
    patch_covariance,
    power_law_spectrum,
    random_mixing_gram,
)

__all__ = ["main", "entry", "ConfigError"]

LN2 = math.log(2.0)

_DESK_N_LIST = [2, 3, 4, 6, 10, 14, 20, 30, 50, 100]
_PAPER_N_LIST = _DESK_N_LIST + [200, 400, 700, 1000]

_SHARED_DEFAULTS = {
    "seed": 0,
    "out": None,
    "bits": False,
    "paper_scale": False,
    "workers": None,
    "period": math.pi,
    "center_span": 1.0,
    "amplitude": 20.0,
    "width": 0.5,
    "prior_width": math.pi / 4,
}

_EXPERIMENT_DEFAULTS = {
    "fig1": {
        "n_list": None,  # resolved per scale below
        "j_max": None,
        "i_max": 100,
        "m": None,
        "repeats": 10,
    },
    "fig2": {
        "widths": list(range(2, 31, 2)),
        "n_list": [10_000, 20_000, 50_000, 100_000],
        "patch_file": None,
        "spectrum_exponent": 2.0,
    },
    "optimize": {
        "k1": 10,
        "theta_span": 1.0,
        "n": 100,
        "m": 500,
        "objective": "I_G",
        "tol": 1e-8,
        "max_iters": 10_000,
        "peak_power": None,
        "avg_power": None,
    },
    "capacity": {
        "n": 30,
        "m": 500,
    },
}


class ConfigError(Exception):
    """Invalid configuration: bad file, unknown key, or bad value."""


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return cfg


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bools, which are ints in Python."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(experiment: str, cfg: dict):
    def pos(key):
        _require(isinstance(cfg[key], (int, float)) and not isinstance(cfg[key], bool)
                 and 0 < cfg[key] < math.inf,
                 f"{key} must be a positive finite number, got {cfg[key]!r}")

    def pos_int(key):
        _require(_is_int(cfg[key]) and cfg[key] >= 1,
                 f"{key} must be a positive integer, got {cfg[key]!r}")

    def pos_int_list(key):
        _require(isinstance(cfg[key], list) and cfg[key]
                 and all(_is_int(v) and v >= 1 for v in cfg[key]),
                 f"{key} must be a nonempty list of positive integers, got {cfg[key]!r}")

    for key in ("period", "center_span", "amplitude", "width", "prior_width"):
        pos(key)
    _require(_is_int(cfg["seed"]) and 0 <= cfg["seed"] < 2**64,
             f"seed must be an unsigned 64-bit integer, got {cfg['seed']!r}")
    if cfg["workers"] is not None:
        pos_int("workers")
    if experiment == "fig1":
        for key in ("j_max", "i_max", "m", "repeats"):
            pos_int(key)
        _require(cfg["m"] >= 2, f"m must be at least 2, got {cfg['m']}")
        pos_int_list("n_list")
    elif experiment == "fig2":
        pos_int_list("widths")
        pos_int_list("n_list")
        pos("spectrum_exponent")
        if cfg["patch_file"] is not None:
            _require(isinstance(cfg["patch_file"], str), "patch_file must be a path string")
    elif experiment == "optimize":
        for key in ("k1", "n", "m", "max_iters"):
            pos_int(key)
        pos("theta_span")
        pos("tol")
        _require(cfg["objective"] in ("I_G", "I_F"),
                 f"objective must be 'I_G' or 'I_F', got {cfg['objective']!r}")
        for key in ("peak_power", "avg_power"):
            if cfg[key] is not None:
                pos(key)
    elif experiment == "capacity":
        pos_int("n")
        pos_int("m")


def _resolve(experiment: str, args: argparse.Namespace) -> dict:
    cfg = dict(_SHARED_DEFAULTS)
    cfg.update(_EXPERIMENT_DEFAULTS[experiment])
    file_cfg = _load_config(args.config) if args.config else {}
    declared = file_cfg.pop("experiment", None)
    if declared is not None and declared != experiment:
        raise ConfigError(f"config is for experiment {declared!r} but {experiment!r} was requested")
    unknown = set(file_cfg) - set(cfg)
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")
    cfg.update(file_cfg)
    # Flags override config fields.
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    if args.bits:
        cfg["bits"] = True
    if args.paper_scale:
        cfg["paper_scale"] = True
    if experiment == "fig1":
        scale_paper = cfg["paper_scale"]
        if args.paper_scale or cfg["j_max"] is None:
            cfg["j_max"] = 500_000 if scale_paper else 50_000
        if args.paper_scale or cfg["m"] is None:
            cfg["m"] = 1000 if scale_paper else 500
        if cfg["n_list"] is None:
            cfg["n_list"] = list(_PAPER_N_LIST if scale_paper else _DESK_N_LIST)
    if cfg["out"] is None:
        cfg["out"] = f"{experiment}.csv"
    _validate(experiment, cfg)
    return cfg


def _config_hash(experiment: str, cfg: dict) -> str:
    """Hash of the resolved configuration, minus output path, seed and workers.

    The seed rides alongside in its own column, and neither the output
    location nor the worker count affects the numbers, so reruns of one
    experiment at a new seed, path or worker count share their hash
    lineage only when the science matches.
    """
    hashed = {k: v for k, v in cfg.items() if k not in ("out", "seed", "workers")}
    hashed["experiment"] = experiment
    blob = json.dumps(hashed, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def _write_csv(path: str, header: list, rows: list):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_sidecar(out_path: str, experiment: str, cfg: dict, wall_time: float, extra: dict):
    payload = {
        "experiment": experiment,
        "config": cfg,
        "config_hash": _config_hash(experiment, cfg),
        "seed": cfg["seed"],
        "units": "bits" if cfg["bits"] else "nats",
        "version": __version__,
        "wall_time_s": wall_time,
        "environment": _environment(cfg),
    }
    payload.update(extra)
    with open(out_path + ".json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _environment(cfg: dict) -> dict:
    """Library versions the output's bits rest on, and the worker count used.

    The Monte Carlo columns depend on numpy's ``exp``/``log1p`` and on the
    BLAS behind the likelihood matmul, so both are recorded with the run.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "workers": _worker_count(cfg),
    }


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"cannot serialize {type(value)!r}")


def _scale(value: float, bits: bool) -> float:
    return value / LN2 if bits else value


def _centers(n: int, span: float) -> np.ndarray:
    """Evenly spaced tuning centers covering [-span/2, span/2]."""
    if n == 1:
        return np.zeros(1)
    return np.arange(n) * span / (n - 1) - span / 2.0


def _ring_population(cfg: dict, n: int) -> PoissonPopulation:
    """``n`` Poisson neurons with the configured tuning, centers spread by ``_centers``."""
    return PoissonPopulation(tuple(
        VonMisesTuning(cfg["amplitude"], cfg["width"], cfg["period"], c)
        for c in _centers(n, cfg["center_span"])))


def _worker_count(cfg: dict) -> int:
    return cfg["workers"] or os.cpu_count() or 1


def _run_fig1(cfg: dict) -> tuple[list, list, dict]:
    prior = GridPrior.von_mises(cfg["period"], cfg["prior_width"], cfg["m"])
    seed_rng = np.random.default_rng(cfg["seed"])
    run_seeds = seed_rng.integers(0, 2**63, size=(len(cfg["n_list"]), cfg["repeats"]))

    populations = {n: _ring_population(cfg, n) for n in cfg["n_list"]}

    def one_mc(n: int, rep: int):
        mc_cfg = MCConfig(j_max=cfg["j_max"], i_max=cfg["i_max"], m=cfg["m"],
                          seed=int(run_seeds[cfg["n_list"].index(n), rep]))
        return mc_mutual_information(populations[n], prior, mc_cfg)

    tasks = [(n, rep) for n in cfg["n_list"] for rep in range(cfg["repeats"])]
    with ThreadPoolExecutor(max_workers=_worker_count(cfg)) as pool:
        mc_runs = list(pool.map(lambda t: one_mc(*t), tasks))
    by_n = {n: [] for n in cfg["n_list"]}
    for (n, _), res in zip(tasks, mc_runs):
        by_n[n].append(res)

    bits = cfg["bits"]
    chash = _config_hash("fig1", cfg)
    rows = []
    for n in cfg["n_list"]:
        j_values = populations[n].fisher_values(prior.nodes)
        v_f = i_f(j_values, prior)
        v_g = i_g(j_values, prior)
        v_gp = i_g_plus(j_values, prior)
        i_mc = float(np.mean([r.i_mc for r in by_n[n]]))
        i_std = float(np.mean([r.i_std for r in by_n[n]]))
        rows.append([
            n,
            _scale(i_mc, bits),
            _scale(i_std, bits),
            _scale(v_g.value, bits),
            _scale(v_gp.value, bits),
            _scale(v_f.value, bits),
            (v_g.value - i_mc) / i_mc,
            (v_gp.value - i_mc) / i_mc,
            (v_f.value - i_mc) / i_mc,
            i_std / i_mc,
            chash,
            cfg["seed"],
        ])
    header = ["N", "I_MC", "I_std", "I_G", "I_G+", "I_F",
              "DI_G", "DI_G+", "DI_F", "DI_std", "config_hash", "seed"]
    return header, rows, {}


def _fig2_spectra(cfg: dict) -> dict:
    """Per-width prior spectra, from the patch file or the synthetic law."""
    if cfg["patch_file"] is not None:
        try:
            patches = load_patches(cfg["patch_file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot ingest patch file: {exc}") from None
        k_file = patches.shape[1]
        matched = [w for w in cfg["widths"] if w * w == k_file]
        if not matched:
            raise ConfigError(
                f"patch file has K = {k_file} pixels per patch; no configured width w "
                f"satisfies w^2 = K (widths: {cfg['widths']})"
            )
        eigvals = np.linalg.eigvalsh(patch_covariance(patches))[::-1]
        # Per-patch mean removal makes the covariance exactly singular along
        # the constant direction; zero out eigenvalues below numerical rank
        # (same tolerance rule as numpy.linalg.matrix_rank) so rounding noise
        # of either sign reads as the zero it represents.
        tol = eigvals.max() * k_file * np.finfo(float).eps if eigvals.size else 0.0
        eigvals = np.where(eigvals > tol, eigvals, 0.0)
        return {w: eigvals for w in matched}
    return {w: power_law_spectrum(w * w, cfg["spectrum_exponent"]) for w in cfg["widths"]}


def _run_fig2(cfg: dict) -> tuple[list, list, dict]:
    spectra = _fig2_spectra(cfg)
    widths = [w for w in cfg["widths"] if w in spectra]
    cells = [(w, n) for w in widths for n in cfg["n_list"]]
    seed_rng = np.random.default_rng(cfg["seed"])
    cell_seeds = seed_rng.integers(0, 2**63, size=len(cells))

    def one_cell(idx: int, pool: ThreadPoolExecutor):
        w, n = cells[idx]
        rng = np.random.default_rng(int(cell_seeds[idx]))
        gram = random_mixing_gram(w * w, n, rng, pool=pool)
        return fig2_gap_from_gram(gram, spectra[w])

    # Largest cells (N K^2 flops) first: idle threads then help the cells
    # still running with their remaining column blocks.
    order = sorted(range(len(cells)), key=lambda i: cells[i][1] * cells[i][0] ** 4, reverse=True)
    with ThreadPoolExecutor(max_workers=_worker_count(cfg)) as pool:
        futures = {i: pool.submit(one_cell, i, pool) for i in order}
        gaps = [futures[i].result() for i in range(len(cells))]

    bits = cfg["bits"]
    chash = _config_hash("fig2", cfg)
    rows = []
    for (w, n), gap in zip(cells, gaps):
        rows.append([
            w, w * w, n,
            _scale(gap.i_g, bits),
            _scale(gap.i_f, bits),
            _scale(gap.di_f, bits),
            gap.rel_di_f,
            chash,
            cfg["seed"],
        ])
    header = ["w", "K", "N", "I_G", "I_F", "dI_F", "DI_F", "config_hash", "seed"]
    extra = {"source": "patch_file" if cfg["patch_file"] else "synthetic_power_law"}
    return header, rows, extra


def _run_optimize(cfg: dict) -> tuple[list, list, dict]:
    prior = GridPrior.von_mises(cfg["period"], cfg["prior_width"], cfg["m"])
    thetas = _centers(cfg["k1"], cfg["theta_span"])
    prob = build_problem(
        thetas, prior, cfg["n"], kind=cfg["objective"],
        amplitude=cfg["amplitude"], width=cfg["width"],
        peak_power=cfg["peak_power"], avg_power=cfg["avg_power"],
    )
    result = maximize(prob, tol=cfg["tol"], max_iters=cfg["max_iters"])
    bits = cfg["bits"]
    chash = _config_hash("optimize", cfg)
    rows = [
        [k, thetas[k], result.alpha[k], result.report.gradient[k], chash, cfg["seed"]]
        for k in range(cfg["k1"])
    ]
    header = ["k", "theta", "alpha", "gradient", "config_hash", "seed"]
    slack = None
    if prob.power_cost is not None:
        slack = float(prob.power_budget - prob.power_cost @ result.alpha)
    extra = {
        "objective": _scale(float(result.trace[-1]), bits),
        "objective_trace": [_scale(float(v), bits) for v in result.trace],
        "duality_gap": result.gap,
        "iterations": result.iterations,
        "converged": result.converged,
        "kkt": {
            "lambda1": result.report.lambda1,
            "power_multiplier": result.report.power_multiplier,
            "equality_violation": result.report.equality_violation,
            "inequality_violation": result.report.inequality_violation,
        },
        "power_slack": slack,
    }
    return header, rows, extra


def _run_capacity(cfg: dict) -> tuple[list, list, dict]:
    prior = GridPrior.von_mises(cfg["period"], cfg["prior_width"], cfg["m"])
    j_values = _ring_population(cfg, cfg["n"]).fisher_values(prior.nodes)
    pstar, cap = capacity_prior(j_values, prior.nodes, cfg["period"])
    value = i_g(j_values, prior).value
    bits = cfg["bits"]
    chash = _config_hash("capacity", cfg)
    rows = [
        [float(x), float(p), float(j), chash, cfg["seed"]]
        for x, p, j in zip(prior.nodes, pstar, j_values)
    ]
    header = ["x", "p_star", "J", "config_hash", "seed"]
    extra = {
        "capacity": _scale(cap, bits),
        "i_g": _scale(value, bits),
        "redundancy": redundancy(value, cap),
    }
    return header, rows, extra


_RUNNERS = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "optimize": _run_optimize,
    "capacity": _run_capacity,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popcode-mi",
        description="Information approximations for neural population codes: "
                    "experiment tables with seeded, reproducible output.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, help_text in (
        ("fig1", "1-D Poisson population sweep vs the Monte Carlo reference"),
        ("fig2", "spectrum-vs-Fisher gap over a (patch width, population size) grid"),
        ("optimize", "maximize information over the population density"),
        ("capacity", "capacity-achieving stimulus density and redundancy"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file (flags override its keys)")
        p.add_argument("--paper-scale", action="store_true", dest="paper_scale",
                       help="full-scale sample counts instead of the laptop defaults")
        p.add_argument("--seed", type=int, default=None, help="unsigned 64-bit RNG seed")
        p.add_argument("--out", default=None, help="output CSV path (sidecar adds .json)")
        p.add_argument("--bits", action="store_true",
                       help="report information in bits instead of nats")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args.experiment, args)
    except ConfigError as exc:
        print(f"popcode-mi: configuration error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        header, rows, extra = _RUNNERS[args.experiment](cfg)
    except ConfigError as exc:
        print(f"popcode-mi: configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"popcode-mi: numerical failure: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
    try:
        _write_csv(cfg["out"], header, rows)
        _write_sidecar(cfg["out"], args.experiment, cfg, wall, extra)
    except OSError as exc:
        print(f"popcode-mi: configuration error: cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"popcode-mi {args.experiment}: {len(rows)} rows -> {cfg['out']} "
          f"(+ {cfg['out']}.json) in {wall:.2f}s")
    return 0


def entry():
    sys.exit(main())

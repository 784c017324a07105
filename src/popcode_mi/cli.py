"""Experiment runner: seeded, config-driven reproductions of the numerical
studies, emitting CSV tables with a JSON provenance sidecar.

Four experiments are exposed as subcommands:

* ``fig1`` — 1-D Poisson population sweep over population sizes N,
  comparing I_F/I_G/I_G+ against the Monte Carlo reference and its standard
  error (``--repeats`` independent MC runs per N).
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
import contextlib
import copy
import csv
import functools
import hashlib
import json
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from . import __version__
from .fisher import GridPrior
from .mc import MCConfig, mc_mutual_information
from .mi import i_f, i_g, i_g_plus
from .models import PoissonPopulation
from .optimize import build_problem, capacity_prior, maximize, redundancy
from .transform import (
    fig2_gap_from_gram,
    load_patches,
    patch_covariance,
    power_law_spectrum,
    random_mixing_gram,
)

__all__ = ["main", "entry", "ConfigError"]

LN2 = math.log(2.0)

# Information-valued outputs, in nats (per unit weight or cost for ``gradient``
# and ``kkt``) from the runners: ``--bits`` divides these CSV columns and
# sidecar keys, each value of a list or dict, by ln 2, and nothing else.
_INFO_COLUMNS = frozenset({"I_MC", "I_std", "I_G", "I_G+", "I_F", "dI_F", "gradient"})
_INFO_KEYS = frozenset({"objective", "objective_trace", "capacity", "i_g", "duality_gap", "kkt"})


class ConfigError(Exception):
    """Invalid configuration: bad file, unknown key, or bad value."""


def _check(ok, what: str):
    """A key check: unless ``ok(value)``, a ConfigError naming the key."""
    def check(key, value):
        if not ok(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
    return check


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bools, which are ints in Python."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


def _patch_path(key, value):
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a path string")


_positive = _check(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                   and 0 < v < math.inf, "a positive finite number")
_count = _check(_is_count, "a positive integer")
_grid_size = _check(lambda v: v >= 2, "at least 2")  # after _count
_counts = _check(lambda v: isinstance(v, list) and v != [] and all(map(_is_count, v)),
                 "a nonempty list of positive integers")
_distinct = _check(lambda v: len(set(v)) == len(v), "free of repeated values")
_flag = _check(lambda v: isinstance(v, bool), "true or false")
_seed = _check(lambda v: _is_int(v) and 0 <= v < 2**64, "an unsigned 64-bit integer")
_out_path = _check(lambda v: isinstance(v, str) and v != "", "a non-empty path string")


class _Scaled(NamedTuple):
    """A default with a laptop and a full-scale value, picked by ``paper_scale``."""

    laptop: object
    paper: object


_LAPTOP_N_LIST = [2, 3, 4, 6, 10, 14, 20, 30, 50, 100]

# Every config key, declared once as (default, *checks).  A key whose
# default is null may be null; a null ``out`` is ``<experiment>.csv``.  Each
# experiment accepts the run keys and exactly the keys its runner reads.
_RUN_KEYS = {
    "seed": (0, _seed),
    "out": (None, _out_path),
    "bits": (False, _flag),
    "workers": (None, _count),  # null: one per CPU
}

# The von Mises prior and tuning curves; a ring population adds its centers' span.
_CURVE_KEYS = {
    "period": (math.pi, _positive),
    "prior_width": (math.pi / 4, _positive),
    "amplitude": (20.0, _positive),
    "width": (0.5, _positive),
}
_RING_KEYS = {**_CURVE_KEYS, "center_span": (1.0, _positive)}

_EXPERIMENT_KEYS = {
    "fig1": {
        **_RING_KEYS,
        "paper_scale": (False, _flag),
        "n_list": (_Scaled(_LAPTOP_N_LIST, _LAPTOP_N_LIST + [200, 400, 700, 1000]),
                   _counts, _distinct),
        "j_max": (_Scaled(50_000, 500_000), _count),
        "m": (_Scaled(500, 1000), _count, _grid_size),
        "repeats": (10, _count),
    },
    "fig2": {
        "widths": (list(range(2, 31, 2)), _counts, _distinct),
        "n_list": ([10_000, 20_000, 50_000, 100_000], _counts, _distinct),
        "patch_file": (None, _patch_path),
        "spectrum_exponent": (2.0, _positive),
    },
    "optimize": {
        **_CURVE_KEYS,
        "k1": (10, _count),
        "theta_span": (1.0, _positive),
        "n": (100, _count),
        "m": (500, _count, _grid_size),
        "objective": ("I_G", _check(lambda v: v in ("I_G", "I_F"), "'I_G' or 'I_F'")),
        "tol": (1e-8, _positive),
        "max_iters": (10_000, _count),
        "avg_power": (None, _positive),
    },
    "capacity": {
        **_RING_KEYS,
        "n": (30, _count),
        "m": (500, _count, _grid_size),
    },
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:  # ValueError: a bad path or undecodable text
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return cfg


def _resolve(experiment: str, args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then flags; every key checked.

    A scaled (fig1) key takes its ``paper_scale`` value when the config
    leaves it null or unset, and always under the ``--paper-scale`` flag.
    """
    keys = {**_RUN_KEYS, **_EXPERIMENT_KEYS[experiment]}
    cfg = {key: None if isinstance(default, _Scaled) else copy.copy(default)
           for key, (default, *_) in keys.items()}
    file_cfg = _load_config(args.config) if args.config else {}
    declared = file_cfg.pop("experiment", None)
    if declared is not None and declared != experiment:
        raise ConfigError(f"config is for experiment {declared!r} but {experiment!r} was requested")
    if experiment == "fig1" and "i_max" in file_cfg:
        # The bootstrap's replicate count, retired by its closed-form limit.  perfbench's
        # mc_sweep config still sets it; this shim goes with the benchmark change that
        # drops i_max from perfbench.
        _count("i_max", file_cfg.pop("i_max"))
        print("popcode-mi fig1: config key i_max is ignored: I_std is the bootstrap's "
              "closed-form limit", file=sys.stderr)
    unknown = set(file_cfg) - set(cfg)
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")
    cfg.update(file_cfg)
    for key in ("seed", "out", "bits", "paper_scale"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if cfg["out"] is None:
        cfg["out"] = f"{experiment}.csv"
    for key, (default, *checks) in keys.items():
        if isinstance(default, _Scaled) and (cfg[key] is None or args.paper_scale):
            cfg[key] = copy.copy(default.paper if cfg["paper_scale"] else default.laptop)
        if cfg[key] is not None or default is not None:
            for check in checks:
                check(key, cfg[key])
    return cfg


def _config_hash(experiment: str, cfg: dict) -> str:
    """Hash of the resolved configuration, minus out, seed, workers and paper_scale.

    The seed rides alongside in its own column, the output path and worker
    count do not affect the numbers, and the keys ``paper_scale`` picks are
    hashed at their resolved values: two runs share a hash exactly when
    the science matches.
    """
    hashed = {k: v for k, v in cfg.items() if k not in ("out", "seed", "workers", "paper_scale")}
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


def _write_sidecar(experiment: str, cfg: dict, chash: str, wall_time: float, extra: dict):
    payload = {
        "experiment": experiment,
        "config": cfg,
        "config_hash": chash,
        "seed": cfg["seed"],
        "units": "bits" if cfg["bits"] else "nats",
        "version": __version__,
        "wall_time_s": wall_time,
        "environment": _environment(cfg),
    }
    payload.update(extra)
    with open(cfg["out"] + ".json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _environment(cfg: dict) -> dict:
    """Library versions the output's bits rest on, and the thread counts used.

    The Monte Carlo columns depend on numpy's ``exp``/``log`` and on the
    BLAS behind the likelihood matmul, so both are recorded with the run.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "workers": _worker_count(cfg),
        "blas_threads": None if _openblas() is None else 1,
    }


def _centers(n: int, span: float) -> np.ndarray:
    """Evenly spaced tuning centers covering [-span/2, span/2]."""
    if n == 1:
        return np.zeros(1)
    return np.arange(n) * span / (n - 1) - span / 2.0


def _ring_population(cfg: dict, n: int) -> PoissonPopulation:
    """``n`` Poisson neurons with the configured tuning, centers spread by ``_centers``."""
    return PoissonPopulation(cfg["amplitude"], cfg["width"], cfg["period"],
                             _centers(n, cfg["center_span"]))


def _worker_count(cfg: dict) -> int:
    """The configured workers, or one per CPU this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cfg["workers"] or cpus or 1


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, loaded on first use; None, with one warning, if absent."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        name = [f for f in os.listdir(libs)
                if f.startswith("libscipy_openblas64_-") and f.endswith(".so")][0]
        lib = ctypes.CDLL(os.path.join(libs, name))
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        lib.scipy_openblas_set_num_threads64_.restype = None
    except (IndexError, OSError, AttributeError):
        warnings.warn("numpy's bundled OpenBLAS is not reachable, so CSV bytes may depend "
                      "on OPENBLAS_NUM_THREADS")
        return None
    return lib


@contextlib.contextmanager
def _one_blas_thread():
    """Hold BLAS at one thread, restoring its count on exit.

    The thread pools are the parallelism: a threaded BLAS under them
    oversubscribes the CPUs, and its sums split by thread count change bits.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


def _child_seeds(cfg: dict, shape) -> np.ndarray:
    """Seeds of independent generators, drawn from the configured seed."""
    return default_rng(cfg["seed"]).integers(0, 2**63, size=shape)


def _run_fig1(cfg: dict) -> tuple[list, list, dict]:
    prior = GridPrior.von_mises(cfg["period"], cfg["prior_width"], cfg["m"])
    n_list, repeats = cfg["n_list"], cfg["repeats"]
    run_seeds = _child_seeds(cfg, (len(n_list), repeats))
    populations = [_ring_population(cfg, n) for n in n_list]

    def one_mc(i: int, rep: int):
        mc_cfg = MCConfig(j_max=cfg["j_max"], m=cfg["m"], seed=int(run_seeds[i, rep]))
        return mc_mutual_information(populations[i], prior, mc_cfg)

    # Largest populations (the longest runs) first, so the pool does not end
    # on one long run; each run has its own seed, so the order moves no bits.
    tasks = [(i, rep) for i in range(len(n_list)) for rep in range(repeats)]
    order = sorted(tasks, key=lambda t: n_list[t[0]], reverse=True)
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=_worker_count(cfg)) as pool:
        futures = {t: pool.submit(one_mc, *t) for t in order}
        mc_runs = [futures[t].result() for t in tasks]

    rows, calibration, unresolved = [], {}, []
    for i, n in enumerate(n_list):
        j_values = populations[i].fisher_values(prior.nodes)
        v_f = i_f(j_values, prior)
        v_g = i_g(j_values, prior)
        v_gp = i_g_plus(j_values, prior)
        runs = mc_runs[i * repeats:(i + 1) * repeats]
        i_mc = float(np.mean([r.i_mc for r in runs]))
        i_std = float(np.mean([r.i_std for r in runs]))
        # Near 1 when each run's standard error matches the runs' own scatter.
        calibration[n] = (float(np.std([r.i_mc for r in runs], ddof=1)) / i_std
                          if repeats > 1 and i_std > 0.0 else None)
        if abs(i_mc) > 3.0 * i_std:
            rel = [(v - i_mc) / i_mc for v in (v_g.value, v_gp.value, v_f.value)] + [i_std / i_mc]
        else:  # I_MC is not resolved from 0: an error relative to it means nothing
            rel = [math.nan] * 4
            unresolved.append(str(n))
        rows.append([n, i_mc, i_std, v_g.value, v_gp.value, v_f.value, *rel])
    if unresolved:
        print(f"popcode-mi fig1: I_MC is within 3 I_std of 0 at N = {', '.join(unresolved)} "
              f"(width {cfg['width']!r}, amplitude {cfg['amplitude']!r}), so DI_G, DI_G+, DI_F "
              "and DI_std are nan", file=sys.stderr)
    header = ["N", "I_MC", "I_std", "I_G", "I_G+", "I_F", "DI_G", "DI_G+", "DI_F", "DI_std"]
    return header, rows, {"mc": {"repeat_std_over_i_std": calibration}}


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
    widths, n_list, gaps = list(spectra), cfg["n_list"], {}
    # Widest (longest) stream first.  Its blocks go through pool.map and are summed
    # here, never in a pool task; its gaps run on the pool during the next width.
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=_worker_count(cfg)) as pool:
        for w, seed in sorted(zip(widths, _child_seeds(cfg, len(widths))), reverse=True):
            grams = random_mixing_gram(w * w, max(n_list), int(seed), pool, n_list)
            for n in n_list:
                gaps[w, n] = pool.submit(fig2_gap_from_gram, grams[n], spectra[w])
    rows = [[w, w * w, n, *astuple(gaps[w, n].result())] for w in widths for n in n_list]
    header = ["w", "K", "N", "I_G", "I_F", "dI_F", "DI_F"]
    extra = {"source": "patch_file" if cfg["patch_file"] else "synthetic_power_law"}
    return header, rows, extra


def _run_optimize(cfg: dict) -> tuple[list, list, dict]:
    prior = GridPrior.von_mises(cfg["period"], cfg["prior_width"], cfg["m"])
    thetas = _centers(cfg["k1"], cfg["theta_span"])
    prob = build_problem(
        thetas, prior, cfg["n"], kind=cfg["objective"],
        amplitude=cfg["amplitude"], width=cfg["width"], avg_power=cfg["avg_power"],
    )
    result = maximize(prob, tol=cfg["tol"], max_iters=cfg["max_iters"])
    if not result.converged:
        print(f"popcode-mi optimize: not converged within max_iters = {cfg['max_iters']}; "
              f"duality gap {result.gap:.3g}", file=sys.stderr)
    rows = [[k, thetas[k], result.alpha[k], result.report.gradient[k]] for k in range(cfg["k1"])]
    header = ["k", "theta", "alpha", "gradient"]
    slack = None
    if prob.power_cost is not None:
        slack = float(prob.power_budget - prob.power_cost @ result.alpha)
    extra = {
        "objective": float(result.trace[-1]),
        "objective_trace": [float(v) for v in result.trace],
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
    if not cap > 0.0:
        raise ValueError(f"the asymptotic capacity is {cap:.6g} nats, not positive, so the "
                         f"redundancy is undefined: n = {cfg['n']}, amplitude = {cfg['amplitude']!r} "
                         f"and width = {cfg['width']!r} give too little Fisher information")
    value = i_g(j_values, prior).value
    rows = [[float(x), float(p), float(j)] for x, p, j in zip(prior.nodes, pstar, j_values)]
    header = ["x", "p_star", "J"]
    extra = {"capacity": cap, "i_g": value, "redundancy": redundancy(value, cap)}
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
        if name == "fig1":
            p.add_argument("--paper-scale", action="store_true", default=None, dest="paper_scale",
                           help="full-scale sample counts instead of the laptop defaults")
        p.add_argument("--seed", type=int, default=None, help="unsigned 64-bit RNG seed")
        p.add_argument("--out", default=None, help="output CSV path (sidecar adds .json)")
        p.add_argument("--bits", action="store_true", default=None,
                       help="report information in bits instead of nats")
    return parser


def _bits(value):
    """An information value in nats, or a list or dict of them, in bits."""
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    return [_bits(v) for v in value] if isinstance(value, list) else value / LN2


def _in_bits(header: list, rows: list, extra: dict) -> tuple[list, dict]:
    """The runner's outputs with every information value divided by ln 2."""
    info = [name in _INFO_COLUMNS for name in header]
    rows = [[v / LN2 if is_info else v for v, is_info in zip(row, info)] for row in rows]
    return rows, {key: _bits(value) if key in _INFO_KEYS else value for key, value in extra.items()}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args.experiment, args)
        start = time.perf_counter()
        with _one_blas_thread():
            header, rows, extra = _RUNNERS[args.experiment](cfg)
        wall = time.perf_counter() - start
        if cfg["bits"]:
            rows, extra = _in_bits(header, rows, extra)
        chash = _config_hash(args.experiment, cfg)
        try:
            _write_csv(cfg["out"], header + ["config_hash", "seed"],
                       [row + [chash, cfg["seed"]] for row in rows])
            _write_sidecar(args.experiment, cfg, chash, wall, extra)
        except (OSError, ValueError) as exc:  # ValueError: a path open() rejects
            raise ConfigError(f"cannot write output: {exc}") from None
    except ConfigError as exc:
        print(f"popcode-mi: configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"popcode-mi: numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"popcode-mi {args.experiment}: {len(rows)} rows -> {cfg['out']} "
          f"(+ {cfg['out']}.json) in {wall:.2f}s")
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

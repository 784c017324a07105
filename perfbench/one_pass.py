"""One pass of one workload, in a process of its own.

Usage: python3 perfbench/one_pass.py --workload NAME --seed N --trace 0|1
                                     --workdir DIR --spawned T [--tiny]

``--spawned`` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this process, so set-up time covers interpreter start,
imports and input generation up to the first timed call.  The pass prints
one JSON object as its last line of standard output.  With ``--trace 1``
the calls into each layer are wrapped in spans, whose per-name summary is
included and whose full list is written to ``DIR/spans.csv``.

With ``--imports-only`` the process imports the package, reports where
it was found and the library versions, and exits: the parent uses it to
check that the program is present and to warm the file cache.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def _environment() -> dict:
    import numpy
    import scipy

    import popcode_mi

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "package": os.path.dirname(popcode_mi.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def install_spans(tracer):
    """Wrap each layer's public functions where their callers look them up.

    ``_linalg`` keeps its own names unwrapped (its spans are named ``linalg.*``,
    as metric names start with a letter), so the per-node
    factorizations inside ``logdet_grid`` are its self time.
    """
    from popcode_mi import cli, fisher, mc, mi, models, optimize, transform

    def mc_counts(t, args, kwargs, result):
        model, cfg = args[0], args[2]
        t.count("mc.samples", cfg.j_max)
        t.count("mc.loglik_flops", 2 * cfg.j_max * cfg.m * model.size)

    def gram_counts(t, args, kwargs, result):
        k, n = args[0], args[1]
        t.count("transform.random_mixing_gram.columns", n)
        t.count("transform.gram_flops", 2 * n * k * k)

    def logdet_counts(t, args, kwargs, result):
        t.count("linalg.logdet_grid.matrices", len(result))

    def fw_counts(t, args, kwargs, result):
        t.count("optimize.maximize.iterations", result.iterations)

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "mc_mutual_information", "mc.mc_mutual_information", mc_counts)
    tracer.wrap(mc, "logsumexp", "mc.logsumexp")
    tracer.wrap(models.PoissonPopulation, "rate_matrix", "models.rate_matrix")
    tracer.wrap(models.PoissonPopulation, "fisher_values", "models.fisher_values")
    tracer.wrap(fisher.GridPrior, "von_mises", "fisher.GridPrior.von_mises")
    for owner in (cli, mi):
        for name in ("i_f", "i_g", "i_g_plus"):
            tracer.wrap(owner, name, f"mi.{name}")
    tracer.wrap(mi, "gap_bounds", "mi.gap_bounds")
    tracer.wrap(mi, "logdet_grid", "linalg.logdet_grid", logdet_counts)
    for owner in (mi, optimize, transform):
        tracer.wrap(owner, "chol_logdet", "linalg.chol_logdet")
    for owner in (mi, transform):
        tracer.wrap(owner, "sym_inv_sqrt", "linalg.sym_inv_sqrt")
    tracer.wrap(cli, "random_mixing_gram", "transform.random_mixing_gram", gram_counts)
    tracer.wrap(cli, "fig2_gap_from_gram", "transform.fig2_gap_from_gram")
    for name in ("reduce_check_A", "reduce_check_B", "select_k1"):
        tracer.wrap(transform, name, f"transform.{name}")
    for owner in (cli, optimize):
        tracer.wrap(owner, "maximize", "optimize.maximize", fw_counts)
    tracer.wrap(cli, "build_problem", "optimize.build_problem")
    tracer.wrap(optimize, "objective", "optimize.objective")
    tracer.wrap(optimize, "gradient", "optimize.gradient")


def run_pass(workload, seed, trace, workdir, tiny):
    """Set up, run the workload's operations timed, then check them."""
    from tracing import Tracer
    from workloads import WORKLOADS, Outcome

    ops = WORKLOADS[workload](seed, tiny, workdir)
    tracer = Tracer() if trace else None
    results = []
    with tracer if tracer else contextlib.nullcontext():
        if tracer:
            install_spans(tracer)
        first_call = time.monotonic()
        wall = 0.0
        for op_id, op in enumerate(ops, start=1):
            start = time.perf_counter()
            try:
                result = tracer.operation(op_id, f"op:{op.name}", op.run) if tracer else op.run()
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{op.name}: {type(exc).__name__}: {exc}"
            wall += time.perf_counter() - start
            results.append((op, result, error))
    outcomes = {}
    for op, result, error in results:
        if error is None:
            try:
                outcome = op.check(result)
            except Exception as exc:
                outcome = Outcome([f"{op.name}: check raised {type(exc).__name__}: {exc}"])
        else:
            outcome = Outcome([error])
        outcomes[op.name] = outcome
    report = {
        "first_call": first_call,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": {name: {"problems": o.problems, "digest": o.digest, "solves": o.solves}
                for name, o in outcomes.items()},
        "mc_rel_std": next((o.mc_rel_std for o in outcomes.values() if o.mc_rel_std is not None), None),
    }
    if tracer:
        report["layers"] = tracer.summary()
        report["counts"] = dict(tracer.counts)
        tracer.write(os.path.join(workdir, "spans.csv"))
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--imports-only", action="store_true")
    args = parser.parse_args(argv)
    if args.imports_only:
        print(json.dumps(_environment()))
        return 0
    report = run_pass(args.workload, args.seed, bool(args.trace), args.workdir, args.tiny)
    report["setup_s"] = report.pop("first_call") - args.spawned
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

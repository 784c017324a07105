"""popcode-mi benchmark: run one workload for a fixed time and report metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0

The workloads are defined in ``workloads.py`` and documented in this
directory's README.  Every pass of a workload runs in a fresh process
(``one_pass.py``) with one BLAS thread and the CLI's thread pool sized to
the CPUs this process may use, so set-up time and peak memory are those
of one pass.  Passes repeat while the next one is expected to end within
``--seconds`` (at least three are run) and each metric is reported as the
median over passes with its quartiles.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics, including the tracing overhead (traced minus untraced
wall time).  Every pass's outputs are checked, in both modes; an
operation that raises, exits non-zero, fails its check, or writes output
that differs from the first pass at the same seed counts as failed.

A table of every metric goes to standard output first; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without the program (``src/popcode_mi``) the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc_sweep", "gram_gap", "density_opt", "stack_logdet")
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# Units of the table-only metrics, which BENCHMARK.json does not carry.
TABLE_UNITS = {"fail_frac": "fraction", "unconverged_frac": "fraction", "mc_rel_std": "ratio"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    """Environment of the benchmark's own processes: the checkout's
    sources first on the path, and one BLAS/OpenMP thread."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args, timeout):
    """Run one_pass.py; return its last line of output as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py")] + args
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise BenchError(f"pass exited with status {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    """Library versions, thread settings, source revision and size."""
    try:
        info = _child(["--imports-only"], 60.0)
    except (BenchError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        raise BenchError(f"cannot import the program from {ROOT}/src: {exc}") from None
    expected = os.path.join(ROOT, "src", "popcode_mi")
    if os.path.realpath(info.pop("package")) != os.path.realpath(expected):
        raise BenchError(f"popcode_mi was not imported from {expected}")
    sha = "unavailable"  # a checkout exported without its repository
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            sha = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    info.update(nproc=len(os.sched_getaffinity(0)), blas_threads=1,
                pool_workers=len(os.sched_getaffinity(0)), git_sha=sha, src_lines=src_lines)
    return info


def run_passes(workload, seed, seconds, trace, tiny, workdir):
    """Passes until the next one would end after ``seconds``; with
    tracing, every other pass is traced.  Returns a list of
    (traced, report or None, error)."""
    passes, durations = [], []
    start = time.monotonic()
    while len(passes) < MIN_PASSES + trace or (
            time.monotonic() - start + statistics.median(durations) <= seconds):
        traced = bool(trace and len(passes) % 2 == 1)
        args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
                "--workdir", workdir]
        if tiny:
            args.append("--tiny")
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        spawned = time.monotonic()
        try:
            passes.append((traced, _child(args + ["--spawned", repr(spawned)], remaining), None))
        except (BenchError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            passes.append((traced, None, str(exc)))
            break
        durations.append(time.monotonic() - spawned)
    return passes


def _quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def aggregate(passes):
    """Failures, end-to-end samples and per-layer samples of a run."""
    attempted = failed = solves = unconverged = 0
    problems, first_digest = [], {}
    for _, report, error in passes:
        if report is None:
            attempted, failed = attempted + 1, failed + 1
            problems.append(error)
            continue
        for name, op in report["ops"].items():
            attempted += 1
            bad = list(op["problems"])
            if not bad and first_digest.setdefault(name, op["digest"]) != op["digest"]:
                bad.append(f"{name}: output differs from the first pass at this seed")
            failed += bool(bad)
            problems.extend(bad)
            solves += len(op["solves"])
            unconverged += op["solves"].count(False)

    plain = [r for traced, r, _ in passes if r is not None and not traced]
    traced = [r for t, r, _ in passes if r is not None and t]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    scalars = {
        "fail_frac": failed / attempted,
        "ok_frac": 1.0 - failed / attempted,
        "unconverged_frac": unconverged / solves if solves else 0.0,
        "converged_frac": 1.0 - unconverged / solves if solves else 1.0,
    }
    rel_std = [r["mc_rel_std"] for r in plain + traced if r["mc_rel_std"] is not None]
    if rel_std:
        scalars["mc_rel_std"] = rel_std[0]

    layers = {}
    for r in traced:
        values = {f"{name}.{key}": v for name, entry in r["layers"].items()
                  for key, v in entry.items() if not name.startswith("op:")}
        values.update(r["counts"])
        values["cli.overhead_s"] = values.pop("cli.main.self_s", 0.0)
        iterations = values.get("optimize.maximize.iterations", 0.0)
        values["optimize.objective.calls_per_iter"] = (
            values.get("optimize.objective.calls", 0.0) / iterations if iterations else 0.0)
        values["mc.rel_std"] = scalars.get("mc_rel_std", 0.0)
        for key, v in values.items():
            layers.setdefault(key, []).append(v)
    if traced and plain:
        layers["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced) - statistics.median(samples["wall_s"])]
    return attempted, failed, problems, samples, scalars, layers, len(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a fraction of a second (harness self-test)")
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        env = environment()
        workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
        os.makedirs(workdir, exist_ok=True)
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace, args.tiny, workdir)
        for traced in {False, bool(args.trace)}:
            if not any(report for t, report, _ in passes if report and t == traced):
                raise BenchError(f"no {'traced' if traced else 'untraced'} pass completed: "
                                 + "; ".join(e for _, _, e in passes if e))
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted, failed, problems, samples, scalars, layers, n_traced = aggregate(passes)
    units = dict(TABLE_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    computed = {name for _, report, _ in passes if report for name in report.get("counts", ())}
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"({n_traced} traced)  attempted {attempted}  failed {failed}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"{'metric':44s} {'median':>14s} {'q1':>14s} {'q3':>14s}  unit")
    table = dict(samples, mc_rel_std=[])
    table.update({k: [v] for k, v in scalars.items()})
    table.update(sorted(layers.items()))
    for name, values in table.items():
        label = units.get(name, "") + (" (computed)" if name in computed else "")
        if values:
            med, q1, q3 = _quartiles(values)
            print(f"{name:44s} {med:14.6g} {q1:14.6g} {q3:14.6g}  {label}")
        else:
            print(f"{name:44s} {'n/a':>14s} {'':14s} {'':14s}  {label}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        values = table.get(metric["name"])
        if values is None and args.trace:
            values = [0.0]  # a layer this workload never reaches
        if not values:
            print(f"perfbench: metric {metric['name']} was not measured", file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": _quartiles(values)[0], "unit": metric["unit"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, environment=env, problems=problems, samples=table), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` keeps to the benchmark file format (names, units,
  bounds, workloads that ``run.py`` knows);
* a tiny pass of every workload, untraced and traced, prints every
  metric ``BENCHMARK.json`` names, each with its unit, with no failure on
  the current program, and that every per-layer metric is reached by at
  least one workload;
* a deliberately wrong result fails its workload's output check, and a
  failed check or a changed output digest counts in ``fail_frac``;
* without the program the benchmark exits non-zero and prints no result.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def expect(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           f"BENCHMARK.json keys {sorted(spec)}")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "a metric name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"),
               f"malformed metric {m}")
    for m in spec["end_to_end"]:
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"]), "setup_s missing or without the largest bound")


def run_tiny(workload, trace, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def check_emitted(spec):
    reached = set()
    for workload in run.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_tiny(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: {result['failed']} of {result['attempted']} operations failed")
            units = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{where}: metrics or units differ from BENCHMARK.json")
            reached |= {k for k, v in result["metrics"].items() if v["value"]}
    unreached = {m["name"] for m in spec["per_layer"]} - reached
    expect(not unreached, f"per-layer metrics no workload reaches: {sorted(unreached)}")


def _corrupt_value(value):
    if isinstance(value, int):
        return value + 1
    first = dataclasses.fields(value)[0].name
    return dataclasses.replace(value, **{first: getattr(value, first) * 2.0 + 1.0})


def _corrupt_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1] = ["-1e9" if re.search(r"[.e]", cell) and re.fullmatch(r"[-+0-9.e]+", cell) else cell
               for cell in rows[1]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def check_wrong_results():
    """Every operation's check rejects a corrupted result."""
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import workloads

    workdir = os.path.join(run.ROOT, ".perfbench_work", "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for workload, build in workloads.WORKLOADS.items():
        for op in build(1, True, workdir):
            result = op.run()
            expect(not op.check(result).problems, f"{workload}/{op.name}: check fails a correct result")
            out = os.path.join(workdir, f"{op.name}.csv")
            if os.path.exists(out):  # a CLI operation: corrupt the table it wrote
                _corrupt_csv(out)
                bad = op.check(result)
            else:
                bad = op.check(_corrupt_value(result))
            expect(bad.problems, f"{workload}/{op.name}: a wrong result passed its check")


def check_counting():
    """A failed check and a changed digest each count as one failure."""
    def report(problems, digest):
        return {"ops": {"a": {"problems": problems, "digest": digest, "solves": [True]},
                        "b": {"problems": [], "digest": "same", "solves": [False]}},
                "wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 10.0, "mc_rel_std": None}

    passes = [(False, report([], "x"), None), (False, report(["wrong"], "x"), None),
              (False, report([], "y"), None)]
    attempted, failed, problems, _, scalars, _, _ = run.aggregate(passes)
    expect((attempted, failed) == (6, 2), f"counted {failed} failures of {attempted}, expected 2 of 6")
    expect(abs(scalars["fail_frac"] - 2 / 6) < 1e-12 and abs(scalars["ok_frac"] - 4 / 6) < 1e-12,
           f"fail_frac {scalars['fail_frac']}, ok_frac {scalars['ok_frac']}")
    expect(abs(scalars["unconverged_frac"] - 0.5) < 1e-12, "unconverged_frac miscounted")


def check_without_program():
    bare = os.path.join(run.ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = run_tiny("density_opt", 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the program: exit {proc.returncode}, output {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    check_counting()
    check_wrong_results()
    check_without_program()
    check_emitted(spec)
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

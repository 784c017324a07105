"""A seeded stress set for the density optimizer: 60 scalar problems.

Each draw takes, in this order: K1 in {10, 20, 50} candidate classes, a
span of 0.5-2.5 and a tuning width of 0.3-1.0, M in {100, 300, 500} prior
nodes, N in {5, 30, 300} neurons, the objective I_G or I_F, and K1 sorted
centres uniform over the span.  The prior is the bundled von Mises one
(period pi, width pi/4); amplitude and tolerance are the defaults.

Run as a script to solve the whole set, print each solve's steps and the
total time, and exit 1 if any solve does not converge:

    PYTHONPATH=src python tests/stress_problems.py
"""

import math
import sys
import time

import numpy as np

from popcode_mi.fisher import GridPrior
from popcode_mi.optimize import OptimizationProblem, build_problem, maximize

SEED = 2026
COUNT = 60


def stress_problem(index: int, avg_power=None) -> OptimizationProblem:
    """Problem ``index`` (0-based) of the set, with an optional average-power budget."""
    rng = np.random.default_rng(SEED)
    for _ in range(index + 1):
        k1 = int(rng.choice([10, 20, 50]))
        span = rng.uniform(0.5, 2.5)
        width = rng.uniform(0.3, 1.0)
        m = int(rng.choice([100, 300, 500]))
        n = int(rng.choice([5, 30, 300]))
        kind = str(rng.choice(["I_G", "I_F"]))
        thetas = np.sort(rng.uniform(-span / 2, span / 2, k1))
    prior = GridPrior.von_mises(period=math.pi, width=math.pi / 4, m=m)
    return build_problem(thetas, prior, n, kind=kind, width=width, avg_power=avg_power)


def main() -> int:
    start, unconverged, steps = time.perf_counter(), [], []
    for index in range(COUNT):
        prob = stress_problem(index)
        res = maximize(prob)
        steps.append(res.iterations)
        if not res.converged:
            unconverged.append(index)
        print(f"{index:2d}  K1 {prob.k1:2d}  M {prob.weights.size:3d}  N {prob.n:3d}  {prob.kind}  "
              f"steps {res.iterations:5d}  gap {res.gap:.2e}  converged {res.converged}")
    print(f"{COUNT} problems in {time.perf_counter() - start:.2f} s; median steps "
          f"{np.median(steps):g}, max {max(steps)}; unconverged: {unconverged or 'none'}")
    return 1 if unconverged else 0


if __name__ == "__main__":
    sys.exit(main())

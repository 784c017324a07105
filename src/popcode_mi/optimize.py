"""Optimal population densities: concave maximization of I_G (or I_F) over
the simplex of subclass weights, with KKT certification.

The decision variable is the weight vector alpha over a fixed grid of
tuning-parameter candidates theta_k.  Because J(x) is linear in alpha and
ln det is concave on the PD cone, the objective

    I[alpha] = (1/2) <ln det((N sum_k alpha_k S(x; theta_k) + P(x)) / 2 pi e)> + H(X)

is concave, so a Frank-Wolfe scheme converges to the global optimum and
its duality gap doubles as a stopping certificate.  Two power constraints
are supported: a peak-rate cap (handled by construction — the optimal
tuning amplitude saturates it, so amplitudes are set to the cap) and an
average-power budget, which restricts the linear subproblem to a
half-space-cut simplex solved exactly as a two-coordinate knapsack.

Channel capacity on a stimulus grid comes from the square-root-
determinant (Jeffreys-type) prior; the redundancy of any given prior is
measured against that capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

# chol_logdet stays importable here: perfbench wraps it by module attribute.
from ._linalg import chol_logdet, cholesky_stack, logdet_grid, sym_sqrt  # noqa: F401
from .fisher import GridPrior
from .mi import LOG_2PI_E
from .models import _positive, _tuning_params, _von_mises

__all__ = [
    "OptimizationProblem",
    "build_problem",
    "objective",
    "gradient",
    "maximize",
    "FWResult",
    "KKTReport",
    "kkt_check",
    "capacity_prior",
    "gaussian_capacity",
    "redundancy",
]


@dataclass(frozen=True)
class OptimizationProblem:
    """A fixed theta-grid instance of the density optimization.

    ``s_values`` holds the per-subclass Fisher kernels on the x-sample:
    shape (M, K1) for scalar stimuli or (M, K1, K, K) in general.
    ``p_values`` is the prior curvature per node ((M,) or (M, K, K));
    it enters only when ``kind == "I_G"``.  ``weights`` are the x-average
    weights (prior masses for quadrature nodes, uniform for i.i.d.
    samples) and ``h_x`` the prior entropy, so objective values are the
    information itself in nats.  An average-power budget is the pair
    ``power_cost`` (per-subclass expected cost c_k) and ``power_budget``.
    """

    kind: str
    thetas: np.ndarray
    n: int
    s_values: np.ndarray
    p_values: np.ndarray
    weights: np.ndarray
    h_x: float
    power_cost: Optional[np.ndarray] = None
    power_budget: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("I_G", "I_F"):
            raise ValueError(f"objective kind must be 'I_G' or 'I_F', got {self.kind!r}")
        s = np.asarray(self.s_values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        thetas = np.asarray(self.thetas, dtype=float)
        p = np.asarray(self.p_values, dtype=float)
        object.__setattr__(self, "s_values", s)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "p_values", p)
        if s.ndim not in (2, 4):
            raise ValueError(f"s_values must be (M, K1) or (M, K1, K, K), got shape {s.shape}")
        m, k1 = s.shape[0], s.shape[1]
        if thetas.shape[0] != k1:
            raise ValueError(f"{thetas.shape[0]} thetas for {k1} kernel columns")
        if k1 < 1 or m < 1:
            raise ValueError("need at least one subclass and one x-sample point")
        if w.shape != (m,):
            raise ValueError(f"need {m} x-weights, got shape {w.shape}")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"x-weights must sum to 1, got {float(w.sum())!r}")
        if self.n < 1:
            raise ValueError(f"population size must be at least 1, got {self.n}")
        expected_p = (m,) if s.ndim == 2 else (m, s.shape[2], s.shape[3])
        if p.shape != expected_p:
            raise ValueError(f"p_values shape {p.shape}, expected {expected_p}")
        if (self.power_cost is None) != (self.power_budget is None):
            raise ValueError("power_cost and power_budget must be given together")
        if self.power_cost is not None:
            cost = np.asarray(self.power_cost, dtype=float)
            object.__setattr__(self, "power_cost", cost)
            if cost.shape != (k1,):
                raise ValueError(f"need {k1} power costs, got shape {cost.shape}")
            if self.power_budget <= 0:
                raise ValueError(f"power budget must be positive, got {self.power_budget}")

    @property
    def k1(self) -> int:
        return self.s_values.shape[1]

    @property
    def scalar(self) -> bool:
        return self.s_values.ndim == 2


def build_problem(thetas, prior: GridPrior, n: int, *, kind: str = "I_G",
                  amplitude: float = 20.0, width: float = 0.5,
                  response_kind: str = "poisson", noise_sigma: float = 1.0,
                  peak_power: Optional[float] = None,
                  avg_power: Optional[float] = None) -> OptimizationProblem:
    """Set up a 1-D tuning-center optimization on a grid prior's nodes.

    Candidate subclasses are von Mises curves centered at ``thetas`` with
    a common amplitude and width.  A peak-power cap replaces the
    amplitude outright (the optimum always saturates it); an
    average-power budget becomes the knapsack constraint with per-class
    cost <f(x; theta_k)> (Poisson) or <f^2> (Gaussian noise).
    """
    if peak_power is not None:
        amplitude = _positive("peak power", peak_power)
    if response_kind not in ("poisson", "gaussian"):
        raise ValueError(f"response_kind must be 'poisson' or 'gaussian', got {response_kind!r}")
    amplitude, conc, thetas = _tuning_params(amplitude, width, prior.period, np.atleast_1d(thetas))
    rates, derivs, _ = _von_mises(amplitude, conc, thetas, prior.period, prior.nodes)
    if response_kind == "poisson":
        s_values = derivs**2 / rates
        cost = prior.masses @ rates
    else:
        s_values = derivs**2 / _positive("noise sigma", noise_sigma) ** 2
        cost = prior.masses @ rates**2
    power_cost = power_budget = None
    if avg_power is not None:
        power_cost, power_budget = cost, _positive("average power budget", avg_power)
    return OptimizationProblem(
        kind=kind, thetas=thetas, n=n, s_values=s_values,
        p_values=prior.curvature_values(), weights=prior.masses,
        h_x=prior.entropy(), power_cost=power_cost, power_budget=power_budget,
    )


def _weights_of(alpha) -> np.ndarray:
    return np.asarray(getattr(alpha, "weights", alpha), dtype=float)


def _g_scalar(alpha: np.ndarray, prob: OptimizationProblem) -> np.ndarray:
    g = prob.n * (prob.s_values @ alpha)
    if prob.kind == "I_G":
        g = g + prob.p_values
    return g


def _g_stack(alpha: np.ndarray, prob: OptimizationProblem) -> np.ndarray:
    g = prob.n * np.einsum("mkab,k->mab", prob.s_values, alpha)
    if prob.kind == "I_G":
        g = g + prob.p_values
    return g


def objective(alpha, prob: OptimizationProblem) -> float:
    """The information value I[alpha] in nats; -inf outside the PD region."""
    alpha = _weights_of(alpha)
    if prob.scalar:
        g = _g_scalar(alpha, prob)
        if np.any(g <= 0):
            return -math.inf
        mean = float(np.dot(prob.weights, np.log(g)))
        k = 1
    else:
        g = _g_stack(alpha, prob)
        k = g.shape[1]
        logdets = logdet_grid(g)
        if np.any(np.isneginf(logdets)):
            return -math.inf
        mean = float(np.dot(prob.weights, logdets))
    return 0.5 * (mean - k * LOG_2PI_E) + prob.h_x


def gradient(alpha, prob: OptimizationProblem) -> np.ndarray:
    """d I / d alpha_k = (N/2) <Tr(G(x)^{-1} S(x; theta_k))>."""
    alpha = _weights_of(alpha)
    if prob.scalar:
        g = _g_scalar(alpha, prob)
        if np.any(g <= 0):
            idx = int(np.argmax(g <= 0))
            raise ValueError(f"G is singular at node {idx}; gradient undefined on the boundary")
        return 0.5 * prob.n * ((prob.weights / g) @ prob.s_values)
    g = _g_stack(alpha, prob)
    _, failed = cholesky_stack(g)
    if np.any(failed):
        idx = int(np.argmax(failed))
        raise ValueError(f"G is singular at node {idx}; gradient undefined on the boundary")
    # Tr(G^{-1} S_k) summed against the weights, for every k at once.
    out = np.einsum("m,mab,mkba->k", prob.weights, np.linalg.inv(g), prob.s_values)
    return 0.5 * prob.n * out


def _linear_argmax(grad: np.ndarray, prob: OptimizationProblem) -> np.ndarray:
    """Exact solution of the Frank-Wolfe linear subproblem.

    Unconstrained simplex: the best vertex (ties -> lowest index).  With
    an average-power budget the feasible set is the simplex cut by one
    half-space; the LP optimum then uses at most two coordinates and is
    found by scanning vertices and in-budget two-coordinate mixes.
    """
    if prob.power_cost is None:
        s = np.zeros(grad.size)
        s[int(np.argmax(grad))] = 1.0
        return s
    cost, budget = prob.power_cost, prob.power_budget
    best_val, best = -math.inf, None
    for i in range(grad.size):
        if cost[i] <= budget and grad[i] > best_val:
            best_val, best = grad[i], (i,)
    for i in range(grad.size):
        if cost[i] >= budget:
            continue
        for j in range(grad.size):
            if cost[j] <= budget:
                continue
            t = (budget - cost[i]) / (cost[j] - cost[i])
            val = (1.0 - t) * grad[i] + t * grad[j]
            if val > best_val:
                best_val, best = val, (i, j, t)
    if best is None:
        raise ValueError(f"infeasible power constraint: min cost {float(cost.min())!r} exceeds budget {budget!r}")
    s = np.zeros(grad.size)
    if len(best) == 1:
        s[best[0]] = 1.0
    else:
        i, j, t = best
        s[i], s[j] = 1.0 - t, t
    return s


@dataclass(frozen=True)
class KKTReport:
    """First-order optimality certificate for a weight vector.

    On the active set the gradient must be flat at the level lambda1
    (plus ``power_multiplier * cost`` when the power budget binds);
    off the active set it must not exceed that level.  The two violation
    numbers are the maximum deviations from those conditions.
    """

    lambda1: float
    power_multiplier: float
    gradient: np.ndarray
    equality_violation: float
    inequality_violation: float


def kkt_check(alpha, prob: OptimizationProblem, active_tol: float = 1e-6) -> KKTReport:
    """Measure how far alpha is from satisfying the KKT conditions."""
    alpha = _weights_of(alpha)
    grad = gradient(alpha, prob)
    active = alpha > active_tol
    if not np.any(active):
        raise ValueError(f"degenerate density: no weight exceeds active_tol = {active_tol}")
    power_mult = 0.0
    if prob.power_cost is not None:
        slack = prob.power_budget - float(prob.power_cost @ alpha)
        binding = slack <= 1e-8 * max(1.0, prob.power_budget)
    else:
        binding = False
    if binding:
        # Stationarity with a binding budget: g_k = lambda1 + mu c_k on
        # the active set; fit both multipliers by least squares.
        design = np.column_stack([np.ones(int(active.sum())), prob.power_cost[active]])
        coef, *_ = np.linalg.lstsq(design, grad[active], rcond=None)
        lambda1, power_mult = float(coef[0]), float(coef[1])
        level = lambda1 + power_mult * prob.power_cost
    else:
        lambda1 = float(np.dot(alpha[active], grad[active]) / np.sum(alpha[active]))
        level = np.full(grad.size, lambda1)
    equality = float(np.max(np.abs(grad[active] - level[active])))
    if np.all(active):
        inequality = 0.0
    else:
        inequality = float(max(0.0, np.max(grad[~active] - level[~active])))
    return KKTReport(lambda1=lambda1, power_multiplier=power_mult, gradient=grad,
                     equality_violation=equality, inequality_violation=inequality)


@dataclass(frozen=True)
class FWResult:
    """Optimizer output: the weights, their certificate, and the path."""

    alpha: np.ndarray
    report: KKTReport
    trace: np.ndarray
    gap: float
    iterations: int
    converged: bool


def _line_search(alpha: np.ndarray, direction: np.ndarray, upper: float,
                 prob: OptimizationProblem) -> float:
    """Maximize the concave 1-D slice objective(alpha + gamma*direction).

    Returns the exact upper bound when the slice is still increasing
    there, so steps that should remove a weight remove it exactly
    (a bounded Brent search alone never lands on the boundary).
    """

    def phi(gamma: float) -> float:
        return objective(alpha + gamma * direction, prob)

    res = minimize_scalar(lambda g: -phi(g), bounds=(0.0, upper),
                          method="bounded", options={"xatol": 1e-12})
    # res.fun is -phi at exactly res.x, so the maximum need not be re-evaluated.
    if phi(upper) >= -res.fun:
        return upper
    return float(res.x)


def maximize(prob: OptimizationProblem, init=None, tol: float = 1e-8,
             max_iters: int = 10_000, line_search: bool = True) -> FWResult:
    """Globally maximize the concave objective over the feasible weights.

    Runs Frank-Wolfe with the exact linear subproblem; the duality gap
    ``grad . (s - alpha)`` upper-bounds the remaining suboptimality, so
    iteration stops once it falls below ``tol``.  With ``line_search``
    (default) steps are pairwise — mass moves from the worst supported
    subclass to the best one with an exact 1-D search — which converges
    linearly and leaves no stray support, so the returned weights satisfy
    the KKT conditions tightly.  Without it, the classic step 2/(t+2)
    toward the subproblem optimum is used.  Hitting the iteration cap
    returns the best iterate with its gap reported (``converged=False``).
    """
    if init is None:
        alpha = np.full(prob.k1, 1.0 / prob.k1)
        if prob.power_cost is not None and prob.power_cost @ alpha > prob.power_budget:
            cheapest = float(prob.power_cost.min())
            if cheapest > prob.power_budget:
                raise ValueError(
                    f"infeasible power constraint: min cost {cheapest!r} "
                    f"exceeds budget {prob.power_budget!r}"
                )
            # Cost is linear, so blend the uniform point toward the cheapest
            # vertex exactly as far as the budget requires; keeping every
            # class supported keeps the start inside the objective's domain.
            uniform_cost = float(prob.power_cost @ alpha)
            vertex = np.zeros(prob.k1)
            vertex[int(np.argmin(prob.power_cost))] = 1.0
            t = (uniform_cost - prob.power_budget) / (uniform_cost - cheapest)
            alpha = (1.0 - t) * alpha + t * vertex
    else:
        alpha = _weights_of(init).copy()
        if abs(alpha.sum() - 1.0) > 1e-9 or np.any(alpha < 0):
            raise ValueError("initial weights must lie on the simplex")
        if prob.power_cost is not None and prob.power_cost @ alpha > prob.power_budget + 1e-12:
            raise ValueError("initial weights violate the power budget")

    trace = [objective(alpha, prob)]
    gap = math.inf
    converged = False
    pairwise = line_search and prob.power_cost is None
    for t in range(max_iters):
        grad = gradient(alpha, prob)
        s = _linear_argmax(grad, prob)
        gap = float(grad @ (s - alpha))
        if gap < tol:
            converged = True
            break
        if pairwise:
            best = int(np.argmax(s))
            support = np.flatnonzero(alpha > 0)
            worst = int(support[np.argmin(grad[support])])
            if worst == best:
                direction, upper = s - alpha, 1.0
            else:
                direction = np.zeros(prob.k1)
                direction[best], direction[worst] = 1.0, -1.0
                upper = float(alpha[worst])
            gamma = _line_search(alpha, direction, upper, prob)
        else:
            direction = s - alpha
            if line_search:
                gamma = _line_search(alpha, direction, 1.0, prob)
            else:
                gamma = 2.0 / (t + 2.0)
        # Domain safeguard: with an indefinite prior-curvature term the
        # objective is -inf outside an open subset of the simplex, and a
        # fixed-schedule step can land there.  The current iterate is
        # finite and the domain is open, so halving always recovers.  Each
        # candidate is clipped back onto the simplex before it is evaluated,
        # so the accepted value is the trace entry for the new iterate.
        for _ in range(200):
            candidate = np.clip(alpha + gamma * direction, 0.0, None)
            candidate /= candidate.sum()
            value = objective(candidate, prob)
            if value > -math.inf:
                break
            gamma *= 0.5
        else:
            raise ValueError(
                f"objective is not finite near the iterate at step {t}; "
                "the feasible region may contain no positive-definite point"
            )
        alpha = candidate
        trace.append(value)
    report = kkt_check(alpha, prob)
    return FWResult(alpha=alpha, report=report, trace=np.array(trace),
                    gap=gap, iterations=len(trace) - 1, converged=converged)


def capacity_prior(j, nodes, support_length: float):
    """Capacity-achieving stimulus density on a uniform 1-D grid.

    ``j`` gives the information matrix per node — an (M,) array of
    scalars, an (M, K, K) stack, or a callable ``x -> matrix``.  The
    optimal density is proportional to ``det(.)^{1/2}`` (Jeffreys form
    when J is used), and the capacity is
    ``ln integral det(./2 pi e)^{1/2} dx`` by the rectangle rule.

    Returns ``(pstar, capacity)`` with ``pstar`` integrating to 1.
    """
    nodes = np.asarray(nodes, dtype=float)
    dx = support_length / nodes.size
    if callable(j):
        mats = np.stack([np.atleast_2d(np.asarray(j(x), dtype=float)) for x in nodes])
    else:
        mats = np.asarray(j, dtype=float)
        if mats.ndim == 1:
            mats = mats.reshape(-1, 1, 1)
    if mats.shape[0] != nodes.size:
        raise ValueError(f"{mats.shape[0]} matrices for {nodes.size} grid nodes")
    k = mats.shape[1]
    if k == 1:
        dets = mats[:, 0, 0]
        if np.any(dets <= 0):
            idx = int(np.argmax(dets <= 0))
            raise ValueError(f"determinant not positive at node {idx}: {dets[idx]!r}")
        log_root = 0.5 * np.log(dets)
    else:
        logdets = logdet_grid(mats)
        if np.any(np.isneginf(logdets)):
            idx = int(np.argmax(np.isneginf(logdets)))
            raise ValueError(f"determinant not positive at node {idx}")
        log_root = 0.5 * logdets
    shift = log_root.max()
    z = float(np.sum(np.exp(log_root - shift)) * dx)
    if z == 0.0:
        raise ValueError("degenerate capacity prior: normalizer is zero")
    pstar = np.exp(log_root - shift) / z
    capacity = math.log(z) + shift - 0.5 * k * LOG_2PI_E
    return pstar, capacity


def gaussian_capacity(j0: np.ndarray, cov0: np.ndarray) -> float:
    """Capacity with a Gaussian input of fixed covariance and constant J.

    C = (1/2) ln det(cov0 J0 + I), evaluated through the symmetric
    square root of cov0 for stability.
    """
    j0 = np.atleast_2d(np.asarray(j0, dtype=float))
    cov0 = np.atleast_2d(np.asarray(cov0, dtype=float))
    s = sym_sqrt(cov0)
    eigs = np.linalg.eigvalsh(s @ j0 @ s)
    return float(0.5 * np.sum(np.log1p(eigs)))


def redundancy(info, capacity: float) -> float:
    """R = 1 - I/C, the unused fraction of channel capacity."""
    value = float(getattr(info, "value", info))
    if capacity <= 0:
        raise ValueError(f"redundancy undefined: capacity must be positive, got {capacity}")
    return 1.0 - value / capacity

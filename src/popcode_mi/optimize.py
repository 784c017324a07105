"""Optimal population densities: concave maximization of I_G (or I_F) over
the simplex of subclass weights, with KKT certification.

The decision variable is the weight vector alpha over a fixed grid of
tuning-parameter candidates theta_k.  Because J(x) is linear in alpha and
ln det is concave on the PD cone, the objective

    I[alpha] = (1/2) <ln det((N sum_k alpha_k S(x; theta_k) + P(x)) / 2 pi e)> + H(X)

is concave, so pairwise Frank-Wolfe on the simplex, each step solved exactly
from the closed form of I along a line, converges to the global optimum,
linearly, and its duality gap doubles as a stopping certificate.  A step
costs one factorization of G: the gradient, the exact step and the new
value all read its inverse Cholesky factors.  A peak-rate cap needs no
constraint: the optimum saturates it, so it is the tuning amplitude
itself.  An average-power budget c.alpha <= B is priced by its Lagrange
multiplier mu: each fixed-mu problem max I - mu c.alpha is again a simplex
problem, mu is found by a secant search on the budget's slack, and
gap + mu * slack certifies the result.

Channel capacity on a stimulus grid comes from the square-root-
determinant (Jeffreys-type) prior; the redundancy of any given prior is
measured against that capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# chol_logdet stays importable here: perfbench wraps it by module attribute.
from ._linalg import chol_logdet, inverse_factors, logdet_grid  # noqa: F401
from .fisher import GridPrior
from .mi import LOG_2PI_E, _info, _mean_logdet, _node_weights
from .models import _count, _nonnegative, _positive, _tuning_params, _von_mises

__all__ = [
    "OptimizationProblem",
    "build_problem",
    "objective",
    "gradient",
    "maximize",
    "FWResult",
    "KKTReport",
    "capacity_prior",
    "redundancy",
]


@dataclass(frozen=True)
class OptimizationProblem:
    """A fixed theta-grid instance of the density optimization.

    ``s_values`` holds the per-subclass Fisher kernels on the x-sample:
    shape (M, K1) for scalar stimuli or (M, K1, K, K) in general.
    ``p_values`` is the prior curvature per node ((M,) or (M, K, K));
    it enters only when ``kind == "I_G"``.  ``weights`` are the node
    weights of the x-average (prior masses for quadrature nodes, uniform
    for i.i.d. samples; finite, nonnegative and summing to 1) and ``h_x``
    the prior entropy, so objective values are the information itself in
    nats.  An average-power budget is the pair ``power_cost``
    (per-subclass expected cost c_k) and ``power_budget``.
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
        thetas = np.asarray(self.thetas, dtype=float)
        p = np.asarray(self.p_values, dtype=float)
        object.__setattr__(self, "s_values", s)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "p_values", p)
        if s.ndim not in (2, 4):
            raise ValueError(f"s_values must be (M, K1) or (M, K1, K, K), got shape {s.shape}")
        m, k1 = s.shape[0], s.shape[1]
        if thetas.shape[0] != k1:
            raise ValueError(f"{thetas.shape[0]} thetas for {k1} kernel columns")
        if k1 < 1 or m < 1:
            raise ValueError("need at least one subclass and one x-sample point")
        # Through asarray, None is a malformed weight vector here, not "uniform".
        object.__setattr__(self, "weights", _node_weights(np.asarray(self.weights, dtype=float), m))
        _count("population size", self.n)
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
            _nonnegative("power cost", cost, "subclass")
            object.__setattr__(self, "power_budget", _positive("power budget", self.power_budget))

    @property
    def k1(self) -> int:
        return self.s_values.shape[1]

    @property
    def scalar(self) -> bool:
        return self.s_values.ndim == 2


def build_problem(thetas, prior: GridPrior, n: int, *, kind: str = "I_G",
                  amplitude: float = 20.0, width: float = 0.5,
                  avg_power: Optional[float] = None) -> OptimizationProblem:
    """Set up a 1-D tuning-center optimization on a grid prior's nodes.

    Candidate subclasses are Poisson neurons with von Mises curves centered
    at ``thetas`` and a common amplitude and width, so S = f'^2 / f.  A
    peak-rate cap is the ``amplitude`` (the optimum always saturates it);
    an average-power budget bounds c.alpha, with per-class cost
    c_k = <f(x; theta_k)>, the mean rate.
    """
    amplitude, conc, thetas = _tuning_params(amplitude, width, prior.period, np.atleast_1d(thetas))
    rates, derivs, _ = _von_mises(amplitude, conc, thetas, prior.period, prior.nodes)
    power_cost = power_budget = None
    if avg_power is not None:
        power_cost, power_budget = prior.masses @ rates, _positive("average power budget", avg_power)
    return OptimizationProblem(
        kind=kind, thetas=thetas, n=n, s_values=derivs**2 / rates,
        p_values=prior.curvature_values(), weights=prior.masses,
        h_x=prior.entropy(), power_cost=power_cost, power_budget=power_budget,
    )


def _g(alpha: np.ndarray, prob: OptimizationProblem) -> np.ndarray:
    """G(x) = N sum_k alpha_k S(x; theta_k), plus P(x) for I_G, at every node."""
    if prob.scalar:
        g = prob.n * (prob.s_values @ alpha)
    else:
        g = prob.n * np.einsum("mkab,k->mab", prob.s_values, alpha)
    return g + prob.p_values if prob.kind == "I_G" else g


@dataclass(frozen=True)
class _Iterate:
    """G at the weights ``alpha``, factored once: what a Frank-Wolfe step reads.

    ``g`` is G at every node ((M,) or (M, K, K)), ``logdets`` its pivot-rule
    log-determinants, ``value`` the objective, and ``linv`` the inverse
    lower Cholesky factors L^-1 (G = L L^T) when K > 1, else None.
    """

    alpha: np.ndarray
    g: np.ndarray
    logdets: np.ndarray
    value: float
    linv: Optional[np.ndarray]


def _iterate(alpha: np.ndarray, prob: OptimizationProblem) -> _Iterate:
    g = _g(alpha, prob)
    if prob.scalar:
        logdets, linv, k = logdet_grid(g.reshape(-1, 1, 1)), None, 1
    else:
        (logdets, linv), k = inverse_factors(g), g.shape[1]
    value = _info(_mean_logdet(logdets, prob.weights), k, prob.h_x)
    return _Iterate(alpha=alpha, g=g, logdets=logdets, value=value, linv=linv)


def objective(alpha, prob: OptimizationProblem) -> float:
    """I[alpha] in nats; -inf where G is singular at a node of positive weight."""
    return _iterate(np.asarray(alpha, dtype=float), prob).value


def _gradient_at(it: _Iterate, prob: OptimizationProblem, mu: float) -> np.ndarray:
    """:func:`gradient` at a factored iterate, with G^-1 = L^-T L^-1 when K > 1."""
    singular = it.logdets == -np.inf
    if np.any(singular):
        raise ValueError(f"G is singular at node {int(np.argmax(singular))}; "
                         "gradient undefined on the boundary")
    if prob.scalar:
        grad = 0.5 * prob.n * ((prob.weights / it.g) @ prob.s_values)
    else:
        # Tr(G^{-1} S_k) summed against the weights, for every k at once.
        ginv = np.swapaxes(it.linv, 1, 2) @ it.linv
        grad = 0.5 * prob.n * np.einsum("m,mab,mkba->k", prob.weights, ginv, prob.s_values)
    return grad - mu * prob.power_cost if mu else grad


def gradient(alpha, prob: OptimizationProblem, mu: float = 0.0) -> np.ndarray:
    """d I / d alpha_k = (N/2) <Tr(G(x)^{-1} S(x; theta_k))>, minus mu c_k.

    Raises naming the first node where G is singular, whatever its weight.
    """
    return _gradient_at(_iterate(np.asarray(alpha, dtype=float), prob), prob, mu)


@dataclass(frozen=True)
class KKTReport:
    """First-order optimality certificate for a weight vector.

    On the active set the information's ``gradient`` must be flat at the
    level ``lambda1 + power_multiplier * cost``; off it, it must not exceed
    that level.  The violations are the maximum deviations from both.
    """

    lambda1: float
    power_multiplier: float
    gradient: np.ndarray
    equality_violation: float
    inequality_violation: float


def _kkt_report(it: _Iterate, prob: OptimizationProblem, mu: float) -> KKTReport:
    """How far the iterate is from the KKT conditions at the power multiplier
    ``mu`` (0 without a binding budget).  The active set is the weights above
    1e-6, never empty on the simplex for K1 < 10^6; ``lambda1`` is the
    alpha-weighted mean of ``grad - mu c`` on it."""
    alpha, grad = it.alpha, _gradient_at(it, prob, 0.0)
    active = alpha > 1e-6
    shifted = grad - mu * prob.power_cost if mu else grad
    lambda1 = float(np.dot(alpha[active], shifted[active]) / np.sum(alpha[active]))
    equality = float(np.max(np.abs(shifted[active] - lambda1)))
    off = shifted[~active] - lambda1
    inequality = float(max(0.0, np.max(off))) if off.size else 0.0
    return KKTReport(lambda1=lambda1, power_multiplier=mu, gradient=grad,
                     equality_violation=equality, inequality_violation=inequality)


@dataclass(frozen=True)
class FWResult:
    """Optimizer output: the weights, their certificate, and the path.

    ``gap`` bounds ``I* - objective(alpha)``; ``iterations`` counts the
    Frank-Wolfe steps of every inner solve.  ``trace`` holds the
    information at the start and after each step, then that of ``alpha``
    if the path did not end there, so ``trace[-1]`` is the value at alpha.
    """

    alpha: np.ndarray
    report: KKTReport
    trace: np.ndarray
    gap: float
    iterations: int
    converged: bool


def _line_search(it: _Iterate, direction: np.ndarray, upper: float,
                 prob: OptimizationProblem, mu: float) -> float:
    """Exact maximizer over [0, upper] of ``I - mu c.alpha`` along direction.

    f(gamma) = (1/2) <sum_i ln(1 + gamma lambda_i)> - gamma mu c.d, lambda_i the
    eigenvalues of L^-1 D L^-T (G = L L^T, D = N sum_k d_k S_k), is concave
    below min over lambda < 0 of -1/lambda.  Returns ``upper`` while f rises
    there (a step then empties a subclass exactly), 0 when f'(0) <= 0, else
    Newton's root of f'.
    ``it`` is the factored iterate the step starts from.
    """
    if prob.scalar:
        lam, w = prob.n * (prob.s_values @ direction) / it.g, prob.weights
    else:
        delta = prob.n * np.einsum("mkab,k->mab", prob.s_values, direction)
        lam = np.linalg.eigvalsh(it.linv @ delta @ np.swapaxes(it.linv, 1, 2)).ravel()
        w = np.repeat(prob.weights, it.g.shape[1])
    price = mu * float(prob.power_cost @ direction) if mu else 0.0

    def slope(gamma: float) -> tuple[float, float, float]:  # f', -f'', sum of |f' terms|
        r = lam / (1.0 + gamma * lam)
        return (0.5 * float(w @ r) - price, 0.5 * float(w @ (r * r)),
                0.5 * float(w @ np.abs(r)) + abs(price))

    edge = float(np.min(-1.0 / lam[lam < 0.0], initial=math.inf))
    if upper < edge and slope(upper)[0] >= 0.0:
        return upper
    lo, hi, gamma = 0.0, min(upper, edge), 0.0
    for _ in range(100):
        d1, curv, size = slope(gamma)
        if abs(d1) <= 4.0 * np.finfo(float).eps * size:
            break  # f' is zero to the rounding of its terms
        lo, hi = (gamma, hi) if d1 > 0.0 else (lo, gamma)
        if hi == 0.0:
            return 0.0  # the bracket is [0, 0]: f'(0) < 0, or no room to move
        step = gamma + d1 / curv
        gamma = step if lo < step < hi else 0.5 * (lo + hi)
    return gamma


def _frank_wolfe(prob: OptimizationProblem, it: _Iterate, mu: float, tol: float,
                 max_iters: int, trace: list):
    """Maximize ``I - mu c.alpha`` over the simplex from the iterate ``it``
    (see ``maximize``), appending each new iterate's information to ``trace``.
    Returns ``(it, gap, steps, converged)``, with the gap of the last gradient."""
    gap = math.inf
    for t in range(max_iters):
        alpha = it.alpha
        grad = _gradient_at(it, prob, mu)
        s = np.zeros(prob.k1)
        best = int(np.argmax(grad))
        s[best] = 1.0
        gap = float(grad @ (s - alpha))
        if gap < tol:
            return it, gap, t, True
        support = np.flatnonzero(alpha > 0)
        worst = int(support[np.argmin(grad[support])])
        direction = np.zeros(prob.k1)
        direction[best], direction[worst] = 1.0, -1.0
        gamma = _line_search(it, direction, float(alpha[worst]), prob, mu)
        alpha = np.clip(alpha + gamma * direction, 0.0, None)
        alpha /= alpha.sum()
        # Rebuilt from the renormalised alpha, not updated as G + gamma D,
        # so the value is objective(alpha) to the bit.
        it = _iterate(alpha, prob)
        if it.value == -math.inf:
            raise ValueError(f"objective is -inf after step {t}: the step left its domain")
        trace.append(it.value)
    return it, gap, max_iters, False


def maximize(prob: OptimizationProblem, tol: float = 1e-8,
             max_iters: int = 10_000) -> FWResult:
    """Globally maximize the concave objective over the feasible weights,
    starting from uniform weights.

    Frank-Wolfe steps are pairwise — mass moves from the worst supported
    subclass to the best one by the exact maximizing step — which converges
    linearly and leaves no stray support; a step costs one factorization
    of G.  A solve stops once the duality gap ``grad . (s - alpha)`` falls
    below ``tol > 0``.

    An average-power budget ``c.alpha <= B`` is priced by its multiplier
    mu >= 0.  A free optimum within budget (up to the rounding of c.alpha)
    is the answer, with mu = 0.  Otherwise a safeguarded secant search on
    the slack ``B - c.alpha(mu)`` solves ``I - mu c.alpha`` per trial mu,
    each solve starting from the previous one's iterate.  It returns the
    last feasible iterate, or its mix with the last over-budget one, as
    soon as the certificate ``gap_mu + mu * slack >= I* - I(alpha)`` of
    either falls below ``tol``.  ``max_iters`` caps the steps of all
    solves together; hitting it returns the last feasible iterate (or the
    last iterate with an infinite gap if none met the budget yet).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _count("max_iters", max_iters)
    cost, budget = prob.power_cost, prob.power_budget
    if cost is not None and float(cost.min()) > budget:
        raise ValueError(f"infeasible power constraint: min cost {float(cost.min())!r} "
                         f"exceeds budget {budget!r}")
    it = _iterate(np.full(prob.k1, 1.0 / prob.k1), prob)
    trace = [it.value]
    it, gap, steps, converged = _frank_wolfe(prob, it, 0.0, tol, max_iters, trace)
    alpha, mu, eps = it.alpha, 0.0, np.finfo(float).eps
    # c carries rounding of order eps c, so a smaller overshoot is within budget.
    if cost is not None and float(cost @ alpha) - budget > 4.0 * prob.k1 * eps * budget:
        # (mu, iterate, slack) of the last over-budget solve; hi adds the
        # certificate of the last feasible one.
        lo, hi = (0.0, it, budget - float(cost @ alpha)), None
        prev = (lo[0], lo[2])  # (mu, slack) of the last solve, for the secant
        # First guess: the free optimum's marginal information per unit cost.
        mu = float(_gradient_at(it, prob, 0.0) @ alpha) / float(cost @ alpha)
        # Beyond mu_max the rounding of mu c swamps a certificate of size tol.
        mu_max = 0.25 * tol / (eps * prob.k1 * float(cost.max()))
        while converged:
            if not 0.0 < mu < mu_max:
                raise ValueError(f"power multiplier search failed at mu = {mu!r}: the budget sits "
                                 "within rounding of the cheapest cost or at the domain's edge")
            it, gap, taken, converged = _frank_wolfe(
                prob, it, mu, 0.5 * tol, max_iters - steps, trace)
            alpha = it.alpha
            steps += taken
            slack = budget - float(cost @ alpha)
            if not converged:
                break
            if slack >= 0.0:
                hi = (mu, it, slack, gap + mu * slack)
                if hi[3] < tol:
                    break
            else:
                lo = (mu, it, slack)
            # Aim at the slack tol / (4 mu): positive, so the root is approached
            # from the feasible side, and small enough for the certificate.
            target = 0.25 * tol / mu
            if hi is not None and hi[2] > target:
                # Where the objective is flat, inexact solves pin the slack down poorly;
                # the mix of both sides' iterates at the target slack is certified instead.
                t = (hi[2] - target) / (hi[2] - lo[2])
                mix = _iterate(hi[1].alpha + t * (lo[1].alpha - hi[1].alpha), prob)
                mu_t, slack_t = hi[0] + t * (lo[0] - hi[0]), budget - float(cost @ mix.alpha)
                grad = _gradient_at(mix, prob, mu_t)
                cert = float(np.max(grad) - grad @ mix.alpha) + mu_t * slack_t
                if slack_t >= 0.0 and cert < tol:
                    hi = (mu_t, mix, slack_t, cert)
                    break
            (mu0, slack0), prev = prev, (mu, slack)
            root = (mu - (slack - target) * (mu - mu0) / (slack - slack0)
                    if slack != slack0 else math.nan)
            if hi is None:
                mu = 1.25 * root if root > mu else 2.0 * mu
            elif lo[0] < root < hi[0] and abs(slack - target) <= 0.5 * abs(slack0 - target):
                mu = root
            elif hi[0] - lo[0] > 4.0 * eps * hi[0]:
                mu = 0.5 * (lo[0] + hi[0])  # the secant left the bracket or stalled
            else:
                converged = False
        if hi is None:
            gap = math.inf  # no iterate met the budget before the step cap
        else:
            if it is not hi[1]:
                trace.append(hi[1].value)
            mu, it, _, gap = hi
    report = _kkt_report(it, prob, mu)
    return FWResult(alpha=it.alpha, report=report, trace=np.array(trace),
                    gap=gap, iterations=steps, converged=converged)


def capacity_prior(j, nodes, support_length: float):
    """Capacity-achieving stimulus density on a uniform 1-D grid.

    ``j`` gives the information matrix per node — an (M,) array of
    scalars or an (M, K, K) stack.  The optimal density is proportional to ``det(.)^{1/2}`` (Jeffreys form
    when J is used), and the capacity is
    ``ln integral det(./2 pi e)^{1/2} dx`` by the rectangle rule over the
    grid's ``support_length``, which must be positive and finite.  ``nodes``
    is the grid itself, a non-empty 1-D array.

    Returns ``(pstar, capacity)`` with ``pstar`` integrating to 1.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or not nodes.size:
        raise ValueError(f"nodes must be a non-empty 1-D grid, got shape {nodes.shape}")
    dx = _positive("support_length", support_length) / nodes.size
    mats = np.asarray(j, dtype=float)
    if mats.ndim == 1:
        mats = mats.reshape(-1, 1, 1)
    if mats.shape[0] != nodes.size:
        raise ValueError(f"{mats.shape[0]} matrices for {nodes.size} grid nodes")
    k = mats.shape[1]
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


def redundancy(info: float, capacity: float) -> float:
    """R = 1 - I/C, the unused fraction of channel capacity."""
    return 1.0 - float(info) / _positive("capacity", capacity)

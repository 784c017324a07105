"""Density optimization on the simplex, KKT certification, and capacity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

from popcode_mi.fisher import GaussianPrior, GridPrior
from popcode_mi.mi import exact_gaussian_mi, i_g
from popcode_mi.models import LinearGaussianModel
from popcode_mi.optimize import (
    OptimizationProblem,
    _iterate,
    _kkt_report,
    _line_search,
    build_problem,
    capacity_prior,
    gradient,
    maximize,
    objective,
    redundancy,
)

PERIOD = math.pi


@pytest.fixture(scope="module")
def toy():
    """Three symmetric candidate centers on a 300-node prior."""
    prior = GridPrior.von_mises(period=PERIOD, m=300)
    return build_problem(np.array([-0.45, 0.0, 0.45]), prior, n=8)


@pytest.fixture(scope="module")
def toy_prior():
    return GridPrior.von_mises(period=PERIOD, m=300)


def simplex(rng, k):
    w = rng.dirichlet(np.ones(k))
    return w / w.sum()


class TestObjective:
    def test_equals_i_g_of_the_mixture(self, toy_prior):
        """The objective is exactly I_G for J = N sum_k alpha_k S_k."""
        thetas = np.array([-0.4, -0.1, 0.2, 0.5])
        prob = build_problem(thetas, toy_prior, n=40)
        alpha = np.array([0.3, 0.2, 0.4, 0.1])
        j = prob.n * (prob.s_values @ alpha)
        assert objective(alpha, prob) == pytest.approx(
            i_g(j, toy_prior).value, abs=1e-12)

    def test_invariant_under_subclass_permutation(self, toy_prior):
        thetas = np.array([-0.3, 0.1, 0.4])
        alpha = np.array([0.5, 0.2, 0.3])
        perm = np.array([2, 0, 1])
        a = objective(alpha, build_problem(thetas, toy_prior, n=20))
        b = objective(alpha[perm], build_problem(thetas[perm], toy_prior, n=20))
        assert a == pytest.approx(b, rel=1e-14)

    def test_invariant_under_mass_splitting(self, toy_prior):
        """Duplicating a center and splitting its mass changes nothing."""
        a = objective(np.array([0.6, 0.4]),
                      build_problem(np.array([-0.2, 0.3]), toy_prior, n=20))
        b = objective(np.array([0.6, 0.25, 0.15]),
                      build_problem(np.array([-0.2, 0.3, 0.3]), toy_prior, n=20))
        assert a == pytest.approx(b, rel=1e-14)

    def test_minus_inf_outside_the_domain(self, toy_prior):
        """A node where J vanishes, or is NaN, makes the log-det objective diverge."""
        import dataclasses

        prob = build_problem(np.array([0.0]), toy_prior, n=1, kind="I_F")
        for value in (0.0, math.nan):
            s = prob.s_values.copy()
            s[150] = value
            assert objective(np.array([1.0]), dataclasses.replace(prob, s_values=s)) == -math.inf


class TestGradient:
    def test_matches_finite_differences(self, toy):
        alpha = np.array([0.5, 0.2, 0.3])
        g = gradient(alpha, toy)
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (objective(alpha + e, toy) - objective(alpha - e, toy)) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=1e-5)

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_concavity_along_random_chords(self, seed):
        """f(lam a + (1-lam) b) >= lam f(a) + (1-lam) f(b) - 1e-9."""
        rng = np.random.default_rng(seed)
        prior = GridPrior.von_mises(m=120)
        prob = build_problem(np.array([-0.5, -0.15, 0.2, 0.45]), prior, n=12)
        a, b = simplex(rng, 4), simplex(rng, 4)
        lam = float(rng.uniform())
        mid = lam * a + (1 - lam) * b
        lhs = objective(mid, prob)
        rhs = lam * objective(a, prob) + (1 - lam) * objective(b, prob)
        assert lhs >= rhs - 1e-9


class TestMaximize:
    def test_certificate_and_trace(self, toy):
        res = maximize(toy, tol=1e-8)
        assert res.converged
        assert res.gap < 1e-8
        trace = np.asarray(res.trace)
        assert np.all(np.diff(trace) >= -1e-12)
        assert res.report.equality_violation < 1e-6
        assert res.report.inequality_violation <= 0.0 + 1e-12

    def test_symmetric_problem_symmetric_solution(self, toy):
        res = maximize(toy, tol=1e-9)
        assert res.alpha[0] == pytest.approx(res.alpha[2], abs=1e-6)

    def test_beats_every_vertex(self, toy):
        best = maximize(toy).alpha
        val = objective(best, toy)
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            assert val >= objective(e, toy) - 1e-10

    def test_dominant_subclass_takes_all(self):
        """A class whose kernel is pointwise larger takes all the mass.

        Both candidates sit at the same center but differ in amplitude, so
        their kernels are proportional; a flat prior keeps the objective
        finite on the whole simplex.
        """
        import dataclasses

        uni = GridPrior.uniform(period=PERIOD, m=300)
        prob = build_problem(np.array([0.0, 0.0]), uni, n=10, amplitude=20.0)
        strong = build_problem(np.array([0.0]), uni, n=10, amplitude=30.0)
        prob = dataclasses.replace(
            prob, s_values=np.column_stack([prob.s_values[:, 0],
                                            strong.s_values[:, 0]]))
        res = maximize(prob, tol=1e-10)
        np.testing.assert_allclose(res.alpha, [0.0, 1.0], atol=1e-8)

    def test_agrees_with_an_independent_solver(self, toy):
        """scipy's SLSQP on the simplex finds no better point than the certified one."""
        res = maximize(toy, tol=1e-8)
        ref = minimize(lambda a: -objective(a, toy), np.full(3, 1 / 3),
                       jac=lambda a: -gradient(a, toy), method="SLSQP", bounds=[(0.0, 1.0)] * 3,
                       constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0}],
                       options={"ftol": 1e-14, "maxiter": 500})
        assert ref.success
        assert objective(res.alpha, toy) >= -ref.fun - res.gap
        assert objective(res.alpha, toy) == pytest.approx(-ref.fun, abs=1e-8)

    @pytest.mark.parametrize("max_iters", [-3, 0, True, 2.5])
    def test_rejects_a_bad_step_cap(self, toy, max_iters):
        with pytest.raises(ValueError,
                           match=f"^max_iters must be an integer of at least 1, got {max_iters!r}$"):
            maximize(toy, max_iters=max_iters)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_rejects_non_positive_tol(self, toy, tol):
        with pytest.raises(ValueError, match="^tol must be positive"):
            maximize(toy, tol=tol)


def bump_problem_2d():
    """Four Poisson classes with Gaussian-bump tuning on a 2-D stimulus x ~ N(0, diag(1, 1/4)),
    averaged by a 5 x 5 Gauss-Hermite rule: ``s_values`` has shape (25, 4, 2, 2)."""
    sd = np.array([1.0, 0.5])
    nodes, w = np.polynomial.hermite_e.hermegauss(5)
    xs = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), -1).reshape(-1, 2) * sd
    centers = np.array([[-0.8, -0.3], [-0.2, 0.4], [0.5, -0.1], [0.9, 0.3]])
    diff = xs[:, None, :] - centers[None]
    bump = 20.0 * np.exp(-np.sum(diff**2, axis=-1))
    slope = -2.0 * diff * bump[..., None]
    s_values = slope[..., :, None] * slope[..., None, :] / (bump + 0.5)[..., None, None]
    prior = GaussianPrior(np.zeros(2), np.diag(sd**2))
    return OptimizationProblem(
        kind="I_G", thetas=np.arange(4.0), n=20, s_values=s_values,
        p_values=np.broadcast_to(prior.precision(), (xs.shape[0], 2, 2)).copy(),
        weights=np.outer(w, w).ravel() / np.sum(w) ** 2, h_x=prior.entropy(),
        power_cost=np.array([1.0, 1.3, 0.8, 1.1]), power_budget=1.0)


SLICE_PROBLEMS = {
    "scalar I_G": lambda: build_problem(np.array([-0.45, -0.1, 0.2, 0.45]),
                                        GridPrior.von_mises(period=PERIOD, m=300), n=8,
                                        avg_power=1e9),
    "scalar I_F": lambda: build_problem(np.array([-0.45, -0.1, 0.2, 0.45]),
                                        GridPrior.von_mises(period=PERIOD, m=300), n=8,
                                        kind="I_F", avg_power=1e9),
    "2-D I_G": bump_problem_2d,
}


def slice_spectrum(alpha, direction, prob):
    """lambda and weights with I(alpha + gamma d) - I(alpha) = (1/2) sum w ln(1 + gamma lambda),
    from the eigenvalues of G^-1 D (G at alpha, D = N sum_k d_k S_k)."""
    if prob.scalar:
        g = prob.n * (prob.s_values @ alpha) + (prob.p_values if prob.kind == "I_G" else 0.0)
        return prob.n * (prob.s_values @ direction) / g, prob.weights
    g = prob.n * np.einsum("mkab,k->mab", prob.s_values, alpha) + prob.p_values
    delta = prob.n * np.einsum("mkab,k->mab", prob.s_values, direction)
    lam = np.linalg.eigvals(np.linalg.solve(g, delta)).real
    return lam.ravel(), np.repeat(prob.weights, lam.shape[1])


def random_slice(rng, prob):
    """A random interior point and a pairwise direction with its step bound."""
    while True:
        alpha = rng.dirichlet(np.ones(prob.k1))
        if objective(alpha, prob) > -math.inf:
            break
    i, j = rng.choice(prob.k1, size=2, replace=False)
    direction = np.zeros(prob.k1)
    direction[i], direction[j] = 1.0, -1.0
    return alpha, direction, float(alpha[j])


def domain_edge(lam):
    falling = lam < 0
    return float(np.min(-1.0 / lam[falling])) if np.any(falling) else math.inf


class TestOneFactorizationPerStep:
    """A Frank-Wolfe step factors G once: gradient, exact step and new value all
    read the inverse Cholesky factors of that factorization."""

    @staticmethod
    def count_calls(monkeypatch, prob):
        counts = dict.fromkeys(("cholesky", "inv", "solve"), 0)
        for name in counts:
            def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        res = maximize(prob)
        monkeypatch.undo()
        assert res.converged
        return res, counts

    def test_free_solve(self, monkeypatch):
        """One factorization per step, plus the start; the KKT report reuses the last."""
        import dataclasses

        prob = dataclasses.replace(bump_problem_2d(), power_cost=None, power_budget=None)
        res, counts = self.count_calls(monkeypatch, prob)
        assert counts["cholesky"] <= res.iterations + 1
        assert counts["inv"] == counts["solve"] == 0
        assert res.report.equality_violation <= 1e-6

    def test_power_search(self, monkeypatch):
        """The budget's secant search adds one factorization per mixed certificate it
        tries (four on this problem), never one more per step."""
        res, counts = self.count_calls(monkeypatch, bump_problem_2d())
        assert res.iterations > 50
        assert counts["cholesky"] <= res.iterations + 5
        assert counts["inv"] == counts["solve"] == 0
        assert res.report.equality_violation <= 1e-6


class TestExactStep:
    """The line search maximizes the closed form of the objective along a step."""

    @pytest.mark.parametrize("name", list(SLICE_PROBLEMS))
    def test_objective_slice_has_the_closed_form(self, name):
        prob = SLICE_PROBLEMS[name]()
        rng = np.random.default_rng(11)
        for _ in range(25):
            alpha, direction, upper = random_slice(rng, prob)
            lam, w = slice_spectrum(alpha, direction, prob)
            gamma = rng.uniform(0.02, 0.98) * min(upper, domain_edge(lam))
            got = objective(alpha + gamma * direction, prob) - objective(alpha, prob)
            assert got == pytest.approx(0.5 * w @ np.log1p(gamma * lam), rel=1e-12)

    @pytest.mark.parametrize("name", list(SLICE_PROBLEMS))
    def test_step_maximizes_the_slice(self, name):
        """The step scores at least as well as bounded Brent and is a stationary point,
        or it is the step bound with the slice still rising there."""
        prob = SLICE_PROBLEMS[name]()
        rng = np.random.default_rng(12)
        eps = np.finfo(float).eps
        kinds = set()
        for draw in range(40):
            mu = 0.0 if draw % 3 == 0 else rng.uniform(0.01, 0.5)
            alpha = rng.dirichlet(np.ones(prob.k1))
            if draw % 2:  # a small weight to give up, so the step bound binds
                j = int(rng.integers(prob.k1))
                alpha[j] *= 1e-3
                alpha /= alpha.sum()
            if objective(alpha, prob) == -math.inf:
                continue
            grad = gradient(alpha, prob, mu)
            i = int(np.argmax(grad))
            if draw % 2 == 0:
                j = int(np.argmin(grad))
            if i == j:
                continue
            direction = np.zeros(prob.k1)
            direction[i], direction[j] = 1.0, -1.0
            upper = float(alpha[j])

            def phi(gamma):
                point = alpha + gamma * direction
                return objective(point, prob) - mu * float(prob.power_cost @ point)

            gamma = _line_search(_iterate(alpha, prob), direction, upper, prob, mu)
            lam, _ = slice_spectrum(alpha, direction, prob)
            hi = min(upper, domain_edge(lam) * (1.0 - 1e-9))
            ref = minimize_scalar(lambda g: -phi(g), bounds=(0.0, hi), method="bounded",
                                  options={"xatol": 1e-12})
            assert 0.0 < gamma <= upper
            assert phi(gamma) >= -ref.fun - 4 * eps * abs(ref.fun)
            grad = gradient(alpha + gamma * direction, prob, mu)
            slope, size = grad @ direction, np.abs(grad) @ np.abs(direction)
            if gamma == upper and slope >= 0.0:
                kinds.add("bound")
            else:
                assert abs(slope) <= 1e-9 * size
                kinds.add("root")
        assert kinds == {"bound", "root"}

    def test_descent_direction_returns_zero_at_once(self, toy):
        """With f'(0) < 0 the step is 0 after two slope evaluations (at the bound
        and at 0), not after the Newton loop's full budget."""
        import dataclasses

        class CountingWeights(np.ndarray):
            calls = 0

            def __matmul__(self, other):
                CountingWeights.calls += 1
                return np.asarray(self) @ other

        alpha = np.full(toy.k1, 1.0 / toy.k1)
        grad = gradient(alpha, toy)
        direction = np.zeros(toy.k1)
        best, worst = int(np.argmax(grad)), int(np.argmin(grad))
        direction[worst], direction[best] = 1.0, -1.0
        assert grad @ direction < 0.0
        counted = dataclasses.replace(toy)
        object.__setattr__(counted, "weights", toy.weights.view(CountingWeights))
        gamma = _line_search(_iterate(alpha, toy), direction, float(alpha[best]), counted, 0.0)
        assert gamma == 0.0
        assert CountingWeights.calls <= 2 * 3  # a slope evaluation is three weighted sums


class TestKKT:
    def test_violations_small_at_the_optimum(self, toy):
        res = maximize(toy, tol=1e-9)
        report = res.report
        assert report.equality_violation < 1e-5
        assert report.inequality_violation <= 1e-12
        g = report.gradient
        active = res.alpha > 1e-6
        np.testing.assert_allclose(g[active], report.lambda1,
                                   rtol=0, atol=1e-5)

    def test_violation_grows_away_from_the_optimum(self, toy):
        res = maximize(toy, tol=1e-9)
        base = res.report.equality_violation
        nudged = res.alpha + np.array([0.15, -0.05, -0.10])
        nudged = np.clip(nudged, 0, None)
        nudged /= nudged.sum()
        assert _kkt_report(_iterate(nudged, toy), toy, 0.0).equality_violation > base


class TestPowerConstraints:
    def test_average_power_budget_is_respected(self, toy_prior):
        """Budget between the cheapest class and the uniform mixture binds."""
        thetas = np.linspace(-0.5, 0.5, 6)
        free = build_problem(thetas, toy_prior, n=30)
        probe = build_problem(thetas, toy_prior, n=30, avg_power=1e9)
        cheapest = float(probe.power_cost.min())
        uniform_cost = float(probe.power_cost @ np.full(6, 1 / 6))
        assert cheapest < uniform_cost
        budget = 0.5 * (cheapest + uniform_cost)
        prob = build_problem(thetas, toy_prior, n=30, avg_power=budget)
        res = maximize(prob, tol=1e-8)
        assert res.converged
        assert res.gap < 1e-8
        assert float(prob.power_cost @ res.alpha) <= budget + 1e-8
        free_res = maximize(free, tol=1e-8)
        assert objective(res.alpha, prob) <= objective(free_res.alpha, free) + 1e-10

    def test_binding_budget_reports_a_multiplier(self, toy_prior):
        thetas = np.linspace(-0.5, 0.5, 6)
        probe = build_problem(thetas, toy_prior, n=30, avg_power=1e9)
        budget = 0.5 * (float(probe.power_cost.min())
                        + float(probe.power_cost @ np.full(6, 1 / 6)))
        prob = build_problem(thetas, toy_prior, n=30, avg_power=budget)
        res = maximize(prob, tol=1e-4)
        assert res.report.power_multiplier > 0.0


def desk_problem(k1, avg_power=None):
    """The CLI's desk ``optimize`` problem: M = 500, N = 100, centers over a span of 1."""
    prior = GridPrior.von_mises(period=PERIOD, width=PERIOD / 4, m=500)
    thetas = np.arange(k1) / (k1 - 1) - 0.5
    return build_problem(thetas, prior, n=100, avg_power=avg_power)


@pytest.fixture(scope="module")
def toy_grid(toy):
    """test_10's 10,011-point barycentric grid with each point's value and cost."""
    denom = 140
    points = np.array([[i, j, denom - i - j] for i in range(denom + 1)
                       for j in range(denom + 1 - i)]) / denom
    cost = build_problem(toy.thetas, GridPrior.von_mises(period=PERIOD, m=300), n=8,
                         avg_power=1e9).power_cost
    return points, np.array([objective(a, toy) for a in points]), points @ cost, cost


class TestPowerMultiplier:
    """The budget is priced by its Lagrange multiplier; the certificate bounds I* - I."""

    def test_binding_budget_is_certified(self):
        budget = 10.33  # between the cheapest class (10.19) and the free optimum (10.47)
        prob = desk_problem(50, avg_power=budget)
        res = maximize(prob, tol=1e-8)
        slack = budget - float(prob.power_cost @ res.alpha)
        assert res.converged
        assert res.gap < 1e-8
        assert res.report.power_multiplier > 0.0
        assert res.report.equality_violation < 1e-6
        assert 0.0 <= slack <= 1e-6 * budget
        assert res.trace[-1] == objective(res.alpha, prob)

    def test_slack_budget_returns_the_free_solve_bit_for_bit(self):
        free = maximize(desk_problem(10))
        res = maximize(desk_problem(10, avg_power=12.0))
        assert res.report.power_multiplier == 0.0
        assert res.alpha.tobytes() == free.alpha.tobytes()
        assert res.report.gradient.tobytes() == free.report.gradient.tobytes()
        assert res.trace.tobytes() == free.trace.tobytes()
        assert (res.gap, res.iterations, res.converged) == (free.gap, free.iterations, free.converged)

    @settings(max_examples=25)
    @given(st.floats(0.0, 1.0))
    @example(0.01)  # inexact solves leave the slack noisy; the certified mix ends the search
    def test_certificate_bounds_the_grid_optimum(self, toy, toy_grid, u):
        """No budget-feasible grid point beats I(alpha) by more than the gap."""
        points, values, costs, cost = toy_grid
        free_cost = float(cost @ maximize(toy).alpha)
        budget = float(cost.min()) + u * (free_cost - float(cost.min()))
        prob = build_problem(toy.thetas, GridPrior.von_mises(period=PERIOD, m=300), n=8,
                             avg_power=budget)
        res = maximize(prob)
        assert res.converged
        # Feasible up to the rounding of c.alpha, which maximize allows the free solve.
        assert float(cost @ res.alpha) - budget <= 12 * np.finfo(float).eps * budget
        feasible = costs <= budget
        if np.any(feasible):
            assert objective(res.alpha, prob) >= values[feasible].max() - res.gap

    def test_budget_at_the_common_cost_returns_the_free_solve(self):
        """Under a flat prior every class costs the same up to rounding."""
        uni = GridPrior.uniform(period=PERIOD, m=100)
        thetas = np.array([-0.4, 0.1, 0.5])
        free = maximize(build_problem(thetas, uni, n=20))
        prob = build_problem(thetas, uni, n=20, avg_power=1e9)
        res = maximize(build_problem(thetas, uni, n=20, avg_power=float(prob.power_cost.min())))
        assert res.converged and res.report.power_multiplier == 0.0
        assert res.alpha.tobytes() == free.alpha.tobytes()

    def test_step_cap_returns_the_last_feasible_iterate(self):
        """Cut in its last solve, the search returns the previous feasible iterate."""
        budget = 10.33
        prob = desk_problem(10, avg_power=budget)
        cap = maximize(prob).iterations - 1
        res = maximize(prob, max_iters=cap)
        assert not res.converged
        assert res.iterations == cap
        assert 1e-8 <= res.gap < math.inf
        assert float(prob.power_cost @ res.alpha) <= budget
        assert res.trace[-1] == objective(res.alpha, prob)


def domain_edge_problem(above_cheapest):
    """Every vertex has I = -inf; the budget keeps the weight near the unique cheapest one."""
    prior = GridPrior.von_mises(period=PERIOD, m=300)
    thetas = np.array([-0.45, 0.0, 0.40])
    cost = build_problem(thetas, prior, n=8, avg_power=1e9).power_cost
    return build_problem(thetas, prior, n=8, avg_power=float(cost.min()) + above_cheapest)


class TestDomainEdgeBudget:
    @pytest.mark.filterwarnings("error")
    def test_budget_at_the_domain_edge_fails_fast(self):
        prob = domain_edge_problem(1e-4)
        assert all(objective(e, prob) == -math.inf for e in np.eye(3))
        with pytest.raises(ValueError, match="^power multiplier search failed at mu = "):
            maximize(prob)

    @pytest.mark.filterwarnings("error")
    def test_budget_just_inside_converges(self):
        prob = domain_edge_problem(1e-3)
        res = maximize(prob)
        assert res.converged and res.gap < 1e-8
        assert float(prob.power_cost @ res.alpha) <= prob.power_budget


class TestBuildProblemValidation:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(amplitude=math.nan), "amplitude must be positive and finite, got nan"),
        (dict(amplitude=math.inf), "amplitude must be positive and finite, got inf"),
        (dict(width=math.nan), "width must be positive and finite, got nan"),
        (dict(avg_power=math.inf), "average power budget must be positive and finite, got inf"),
        (dict(width=math.inf), "width must be positive and finite, got inf"),
        (dict(avg_power=math.nan), "average power budget must be positive and finite, got nan"),
    ])
    def test_rejects_non_finite_parameter(self, toy_prior, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_problem(np.array([-0.2, 0.2]), toy_prior, n=5, **kwargs)

    def test_rejects_non_finite_theta_by_index(self, toy_prior):
        with pytest.raises(ValueError, match=r"^center must be finite, got nan at theta index 1$"):
            build_problem(np.array([0.0, math.nan, 0.3]), toy_prior, n=5)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(weights=[math.nan, 0.5, 0.25, 0.25]),
         "node weight must be finite and nonnegative, got nan at node 0"),
        (dict(weights=[1.5, -0.5, 0.0, 0.0]),
         "node weight must be finite and nonnegative, got -0.5 at node 1"),
        (dict(power_budget=math.nan), "power budget must be positive and finite, got nan"),
        (dict(power_cost=[1.0, math.inf]),
         "power cost must be finite and nonnegative, got inf at subclass 1"),
        (dict(power_cost=[-1.0, 1.0]),
         "power cost must be finite and nonnegative, got -1.0 at subclass 0"),
    ])
    def test_problem_rejects_bad_weights_and_budgets(self, kwargs, message):
        fields = dict(kind="I_F", thetas=[0.0, 1.0], n=1, s_values=np.ones((4, 2)),
                      p_values=np.zeros(4), weights=np.full(4, 0.25), h_x=0.0,
                      power_cost=[1.0, 2.0], power_budget=1.5)
        with pytest.raises(ValueError, match=f"^{message}$"):
            OptimizationProblem(**{**fields, **kwargs})


class TestCapacity:
    def test_constant_fisher_gives_uniform_density(self):
        nodes = np.linspace(-1.0, 1.0, 400, endpoint=False) + 1.0 / 400
        pstar, cap = capacity_prior(np.full(400, 7.0), nodes, 2.0)
        np.testing.assert_allclose(pstar, 0.5, atol=1e-10)
        assert cap == pytest.approx(
            math.log(2.0 * math.sqrt(7.0 / (2 * math.pi * math.e))), rel=1e-12)

    def test_deterministic_map_density_follows_the_jacobian(self):
        """J = g'(x)^2 for r = g(x): p* tracks |g'| = 3x^2 up to 1e-8."""
        m = 2000
        nodes = np.linspace(0.5, 1.5, m, endpoint=False) + 0.5 / m
        gprime = 3.0 * nodes**2
        pstar, _ = capacity_prior(gprime**2, nodes, 1.0)
        expected = gprime / (np.sum(gprime) * (1.0 / m))
        np.testing.assert_allclose(pstar, expected, atol=1e-8)

    def test_matrix_stack_input(self):
        nodes = np.linspace(-0.5, 0.5, 100, endpoint=False) + 0.005
        mats = np.stack([np.diag([4.0, 9.0]) for _ in nodes])
        pstar, cap = capacity_prior(mats, nodes, 1.0)
        np.testing.assert_allclose(pstar, 1.0, atol=1e-10)
        assert cap == pytest.approx(math.log(math.sqrt(36.0)) - math.log(2 * math.pi * math.e),
                                    rel=1e-10)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_degenerate_node_rejected(self, bad):
        nodes = np.linspace(-0.5, 0.5, 50, endpoint=False) + 0.01
        j = np.full(50, 2.0)
        j[10] = bad
        with pytest.raises(ValueError, match="^determinant not positive at node 10$"):
            capacity_prior(j, nodes, 1.0)

    @pytest.mark.parametrize("nodes", [np.zeros((2, 2)), np.zeros(0)], ids=["2x2", "empty"])
    def test_nodes_must_be_a_nonempty_1d_grid(self, nodes):
        """A 2-D array whose size matches J is not a grid, and an empty one
        is not a ZeroDivisionError."""
        with pytest.raises(ValueError, match=r"^nodes must be a non-empty 1-D grid, got shape \("):
            capacity_prior(np.full(nodes.size, 2.0), nodes, 1.0)

    @pytest.mark.parametrize("length", [math.nan, -2.0, math.inf])
    def test_support_length_must_be_positive_and_finite(self, length):
        """Not a NaN or zero density, nor a bare math domain error."""
        nodes = np.linspace(-0.5, 0.5, 50, endpoint=False) + 0.01
        with pytest.raises(ValueError,
                           match=rf"^support_length must be positive and finite, got {length!r}$"):
            capacity_prior(np.full(50, 2.0), nodes, length)


class TestGaussianCapacity:
    """C = (1/2) ln det(cov J0 + I) for a Gaussian input of fixed covariance
    and constant J0 = A A^T, the exact MI of the linear-Gaussian channel."""

    @staticmethod
    def capacity(mixing, cov):
        return exact_gaussian_mi(LinearGaussianModel(mixing, np.zeros(len(cov)), cov))

    def test_scalar_closed_form(self):
        mixing = np.array([[math.sqrt(3.0)]])
        assert self.capacity(mixing, np.array([[2.0]])) == pytest.approx(
            0.5 * math.log(7.0), rel=1e-12)

    def test_matches_eigen_route(self):
        rng = np.random.default_rng(20)
        q = rng.standard_normal((3, 3))
        j0 = q @ q.T
        w = rng.standard_normal((3, 3))
        cov = w @ w.T + 0.5 * np.eye(3)
        direct = 0.5 * np.linalg.slogdet(np.eye(3) + cov @ j0)[1]
        assert self.capacity(q, cov) == pytest.approx(direct, abs=1e-10)


class TestRedundancy:
    def test_zero_when_info_meets_capacity(self):
        assert redundancy(2.0, 2.0) == 0.0

    def test_half_when_info_is_half(self):
        assert redundancy(1.0, 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            redundancy(1.0, 0.0)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf])
    def test_capacity_must_be_finite(self, capacity):
        with pytest.raises(ValueError, match=rf"^capacity must be positive and finite, got {capacity!r}$"):
            redundancy(1.0, capacity)

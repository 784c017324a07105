"""Density optimization on the simplex, KKT certification, and capacity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popcode_mi.fisher import GridPrior
from popcode_mi.mi import i_g
from popcode_mi.optimize import (
    build_problem,
    capacity_prior,
    gaussian_capacity,
    gradient,
    kkt_check,
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
        """A node where J vanishes makes the log-det objective diverge."""
        import dataclasses

        prob = build_problem(np.array([0.0]), toy_prior, n=1, kind="I_F")
        s = prob.s_values.copy()
        s[150] = 0.0
        prob = dataclasses.replace(prob, s_values=s)
        assert objective(np.array([1.0]), prob) == -math.inf


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

    def test_classic_step_schedule_agrees(self, toy):
        fast = maximize(toy, tol=1e-8)
        slow = maximize(toy, tol=1e-5, line_search=False, max_iters=50_000)
        assert slow.converged
        assert objective(slow.alpha, toy) == pytest.approx(
            objective(fast.alpha, toy), abs=1e-4)

    def test_rejects_bad_init(self, toy):
        with pytest.raises(ValueError):
            maximize(toy, init=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            maximize(toy, init=np.array([0.7, 0.2, 0.2]))


class TestKKT:
    def test_violations_small_at_the_optimum(self, toy):
        res = maximize(toy, tol=1e-9)
        report = kkt_check(res.alpha, toy)
        assert report.equality_violation < 1e-5
        assert report.inequality_violation <= 1e-12
        g = report.gradient
        active = res.alpha > 1e-6
        np.testing.assert_allclose(g[active], report.lambda1,
                                   rtol=0, atol=1e-5)

    def test_violation_grows_away_from_the_optimum(self, toy):
        res = maximize(toy, tol=1e-9)
        base = kkt_check(res.alpha, toy).equality_violation
        nudged = res.alpha + np.array([0.15, -0.05, -0.10])
        nudged = np.clip(nudged, 0, None)
        nudged /= nudged.sum()
        assert kkt_check(nudged, toy).equality_violation > base

    def test_empty_active_set_rejected(self, toy):
        with pytest.raises(ValueError, match="active_tol"):
            kkt_check(np.array([0.4, 0.3, 0.3]), toy, active_tol=0.5)


class TestPowerConstraints:
    def test_peak_power_replaces_amplitude(self, toy_prior):
        capped = build_problem(np.array([0.0]), toy_prior, n=5, amplitude=20.0,
                               peak_power=35.0)
        explicit = build_problem(np.array([0.0]), toy_prior, n=5, amplitude=35.0)
        np.testing.assert_allclose(capped.s_values, explicit.s_values, rtol=1e-14)

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
        # The budget polytope rules out pairwise steps, so convergence is
        # sublinear near a facet optimum; certify at a realistic gap.
        res = maximize(prob, tol=1e-4)
        assert res.converged
        assert res.gap < 1e-4
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
        slack = budget - float(prob.power_cost @ res.alpha)
        if slack <= 1e-8 * budget:
            assert res.report.power_multiplier >= 0.0


class TestBuildProblemValidation:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(amplitude=math.nan), "amplitude must be positive and finite, got nan"),
        (dict(amplitude=math.inf), "amplitude must be positive and finite, got inf"),
        (dict(width=math.nan), "width must be positive and finite, got nan"),
        (dict(peak_power=math.nan), "peak power must be positive and finite, got nan"),
        (dict(response_kind="gaussian", noise_sigma=math.nan),
         "noise sigma must be positive and finite, got nan"),
        (dict(avg_power=math.nan), "average power budget must be positive and finite, got nan"),
    ])
    def test_rejects_non_finite_parameter(self, toy_prior, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_problem(np.array([-0.2, 0.2]), toy_prior, n=5, **kwargs)

    def test_rejects_non_finite_theta_by_index(self, toy_prior):
        with pytest.raises(ValueError, match=r"^center must be finite, got nan at theta index 1$"):
            build_problem(np.array([0.0, math.nan, 0.3]), toy_prior, n=5)


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

    def test_degenerate_node_rejected(self):
        nodes = np.linspace(-0.5, 0.5, 50, endpoint=False) + 0.01
        j = np.full(50, 2.0)
        j[10] = 0.0
        with pytest.raises(ValueError):
            capacity_prior(j, nodes, 1.0)


class TestGaussianCapacity:
    def test_scalar_closed_form(self):
        assert gaussian_capacity(np.array([[3.0]]), np.array([[2.0]])) == pytest.approx(
            0.5 * math.log(7.0), rel=1e-12)

    def test_zero_information_channel(self):
        assert gaussian_capacity(np.zeros((2, 2)), np.eye(2)) == 0.0

    def test_matches_eigen_route(self):
        rng = np.random.default_rng(20)
        q = rng.standard_normal((3, 3))
        j0 = q @ q.T
        w = rng.standard_normal((3, 3))
        cov = w @ w.T + 0.5 * np.eye(3)
        direct = 0.5 * np.linalg.slogdet(np.eye(3) + cov @ j0)[1]
        assert gaussian_capacity(j0, cov) == pytest.approx(direct, abs=1e-10)


class TestRedundancy:
    def test_zero_when_info_meets_capacity(self):
        assert redundancy(2.0, 2.0) == 0.0

    def test_half_when_info_is_half(self):
        assert redundancy(1.0, 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            redundancy(1.0, 0.0)

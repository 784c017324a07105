"""Priors, their curvature/score summaries, and how J and the prior terms combine."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import i0

from popcode_mi.fisher import GaussianPrior, GridPrior, _i0, p_plus
from popcode_mi.mi import LOG_2PI_E, i_g, i_g_plus, van_trees_bound
from popcode_mi.models import PoissonPopulation, VonMisesTuning
from popcode_mi.optimize import build_problem

from conftest import NOT_PD_COVARIANCES

PERIOD = math.pi
PRIOR_WIDTH = math.pi / 4
KAPPA_P = (PERIOD / (2 * math.pi * PRIOR_WIDTH)) ** 2  # = 4 / pi^2


def analytic_pdf(x):
    z = PERIOD * math.exp(-KAPPA_P) * i0(KAPPA_P)
    return np.exp(-KAPPA_P * (1.0 - np.cos(2 * np.pi * x / PERIOD))) / z


class TestGaussianPrior:
    def test_unit_variance_entropy(self):
        """H = (1/2) ln(2 pi e) for the standard normal."""
        prior = GaussianPrior(np.zeros(1), np.eye(1))
        assert prior.entropy() == pytest.approx(0.5 * math.log(2 * math.pi * math.e), rel=1e-14)

    def test_entropy_matches_scipy(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        prior = GaussianPrior(np.zeros(3), cov)
        assert prior.entropy() == pytest.approx(
            multivariate_normal(np.zeros(3), cov).entropy(), rel=1e-12)

    def test_curvature_is_precision_everywhere(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        prior = GaussianPrior(np.zeros(2), cov)
        np.testing.assert_allclose(prior.precision(), np.linalg.inv(cov), rtol=1e-12)

    def test_score_outer_product_equals_curvature(self):
        """For a Gaussian, <score score^T> = Sigma^{-1} = P exactly."""
        cov = np.array([[1.5, -0.2], [-0.2, 0.8]])
        prior = GaussianPrior(np.zeros(2), cov)
        np.testing.assert_allclose(prior.p_plus(), prior.precision(), rtol=1e-14)

    def test_rejects_indefinite_covariance(self):
        for cov in NOT_PD_COVARIANCES:
            with pytest.raises(ValueError, match="positive-definite"):
                GaussianPrior(np.zeros(2), cov)


class TestGridPriorConstruction:
    def test_masses_sum_exactly_one(self, prior):
        assert prior.masses.sum() == 1.0

    def test_node_layout(self, prior):
        assert prior.m == 1000
        assert prior.nodes[0] == pytest.approx(-PERIOD / 2, rel=1e-15)
        assert prior.spacing == pytest.approx(PERIOD / 1000, rel=1e-15)
        np.testing.assert_allclose(np.diff(prior.nodes), prior.spacing, rtol=1e-10)

    def test_uniform_prior_entropy_is_log_period(self):
        uni = GridPrior.uniform(period=PERIOD, m=500)
        assert uni.entropy() == pytest.approx(math.log(PERIOD), rel=1e-12)
        assert uni.p_plus() == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(uni.curvature_values(), 0.0, atol=1e-10)

    def test_density_must_integrate_to_one(self, prior):
        with pytest.raises(ValueError, match="quadrature"):
            GridPrior(prior.nodes, prior.log_pdf + 0.5,
                      prior.log_pdf_d1, prior.log_pdf_d2, prior.period)

    def test_derivative_tables_are_validated(self, prior):
        with pytest.raises(ValueError, match="first log-density derivative"):
            GridPrior(prior.nodes, prior.log_pdf,
                      prior.log_pdf_d1 + 1.0, prior.log_pdf_d2, prior.period)
        with pytest.raises(ValueError, match="second log-density derivative"):
            GridPrior(prior.nodes, prior.log_pdf,
                      prior.log_pdf_d1, -prior.log_pdf_d2, prior.period)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            GridPrior(np.array([0.0]), np.array([0.0]),
                      np.array([0.0]), np.array([0.0]), 1.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(period=math.nan), r"^period must be positive and finite, got nan$"),
        (dict(width=math.nan), r"^width must be positive and finite, got nan$"),
        (dict(width=-0.5), r"^width must be positive and finite, got -0\.5$"),
        (dict(width=1e-300), r"^width 1e-300 is too small for period 3\.14159"),
    ])
    def test_von_mises_names_the_bad_parameter(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            GridPrior.von_mises(**kwargs)

    @pytest.mark.parametrize("m", [0, 1, 2.5, True])
    def test_constructors_name_a_bad_grid_size(self, m):
        message = rf"^grid size m must be an integer of at least 2, got {m!r}$"
        with pytest.raises(ValueError, match=message):
            GridPrior.von_mises(m=m)
        with pytest.raises(ValueError, match=message):
            GridPrior.uniform(1.0, m=m)

    @pytest.mark.parametrize("period", [math.nan, math.inf, 0.0])
    def test_uniform_and_table_need_positive_finite_period(self, period):
        message = rf"^period must be positive and finite, got {period!r}$"
        with pytest.raises(ValueError, match=message):
            GridPrior.uniform(period)
        nodes = np.linspace(-1.0, 1.0, 50, endpoint=False)
        with pytest.raises(ValueError, match=message):
            GridPrior.from_table(nodes, np.ones(50), period)

    def test_from_table_matches_analytic_constructor(self, prior):
        tabulated = GridPrior.from_table(prior.nodes, analytic_pdf(prior.nodes), PERIOD)
        assert tabulated.entropy() == pytest.approx(prior.entropy(), rel=1e-10)
        np.testing.assert_allclose(tabulated.curvature_values(),
                                   prior.curvature_values(), rtol=1e-6, atol=1e-8)
        assert tabulated.p_plus() == pytest.approx(prior.p_plus(), rel=1e-8)


class TestCephesI0:
    """``fisher._i0`` is Cephes' I_0, the routine behind ``scipy.special.i0``."""

    def test_bit_identical_to_scipy_on_both_branches(self):
        widths = np.geomspace(0.02, 10.0, 400)
        xs = np.concatenate([
            np.linspace(0.0, 8.0, 40_001)[1:],               # Chebyshev series in x/2 - 2
            np.linspace(8.0, 709.78, 40_001)[1:],            # series in 32/x - 2, over sqrt(x)
            np.nextafter(8.0, [0.0, 9.0]), [5e-324, 1e-300, 1e-8],
            (PERIOD / (2 * np.pi * widths)) ** 2,            # von_mises kappas, widths 0.02 to 10
            (2 * PERIOD / (2 * np.pi * widths)) ** 2,
        ])
        got = np.array([_i0(float(x)) for x in xs])
        assert got.tobytes() == i0(xs).tobytes()

    @pytest.mark.parametrize("x", [709.79, 710.0, 2500.0, 1e300])
    def test_overflow_is_inf_as_in_scipy(self, x):
        assert _i0(x) == math.inf == i0(x)

    def test_overflowing_prior_is_rejected_by_the_quadrature_check(self):
        # kappa = 2500: e^kappa overflows, and the density tabulates as 0.
        message = r"^prior density quadrature is 0\.0, expected 1 within 1e-8$"
        with pytest.raises(ValueError, match=message):
            GridPrior.von_mises(math.pi, 0.01, 1000)


class TestGridPriorQuadrature:
    def test_entropy_against_scipy_quad(self, prior):
        """Grid entropy agrees with adaptive quadrature on the closed form."""
        h_ref, _ = quad(lambda x: -analytic_pdf(x) * math.log(analytic_pdf(x)),
                        -PERIOD / 2, PERIOD / 2, limit=200)
        assert prior.entropy() == pytest.approx(h_ref, abs=1e-10)

    def test_entropy_stable_under_grid_doubling(self):
        h1 = GridPrior.von_mises(m=1000).entropy()
        h2 = GridPrior.von_mises(m=2000).entropy()
        assert abs(h1 - h2) < 1e-8

    def test_curvature_at_origin_closed_form(self, prior):
        """P(0) = (1/sigma_p^2) cos(0) = 16 / pi^2; x = 0 is node M/2."""
        assert prior.nodes[prior.m // 2] == pytest.approx(0.0, abs=1e-15)
        assert prior.curvature_values()[prior.m // 2] == pytest.approx(16.0 / math.pi**2, rel=1e-12)

    def test_curvature_cosine_shape(self, prior):
        expected = (1.0 / PRIOR_WIDTH**2) * np.cos(2 * np.pi * prior.nodes / PERIOD)
        np.testing.assert_allclose(prior.curvature_values(), expected, rtol=1e-12, atol=1e-12)

    def test_mean_curvature_equals_p_plus(self, prior):
        """Integration by parts on a periodic density: <P> = <score^2>."""
        mean_p = prior.average(prior.curvature_values())
        assert mean_p == pytest.approx(prior.p_plus(), abs=1e-8)

    def test_p_plus_against_scipy_quad(self, prior):
        score = lambda x: KAPPA_P * (2 * np.pi / PERIOD) * -np.sin(2 * np.pi * x / PERIOD)
        ref, _ = quad(lambda x: analytic_pdf(x) * score(x) ** 2,
                      -PERIOD / 2, PERIOD / 2, limit=200)
        assert prior.p_plus() == pytest.approx(ref, abs=1e-10)


def density_fisher(thetas, alpha, prior, n):
    """J(x) = N sum_k alpha_k S(x; theta_k) on the prior's nodes, from build_problem."""
    prob = build_problem(np.asarray(thetas), prior, n)
    return prob.n * (prob.s_values @ np.asarray(alpha))


def population_fisher(thetas, prior):
    """J(x) of one Poisson neuron per center, each with the default tuning."""
    tuning = [VonMisesTuning(amplitude=20.0, width=0.5, period=PERIOD, center=t) for t in thetas]
    return PoissonPopulation(tuning).fisher_values(prior.nodes)


class TestFisherMatrix:
    def test_single_subclass(self, prior):
        """K1 = 1, alpha = 1: J = N S(x; theta)."""
        j = density_fisher([0.2], [1.0], prior, n=50)
        np.testing.assert_allclose(j, 50 * population_fisher([0.2], prior), rtol=1e-12)

    @given(st.floats(0.0, 1.0))
    def test_linear_in_weights(self, prior, lam):
        """J(lam a + (1-lam) b) = lam J(a) + (1-lam) J(b)."""
        thetas = np.array([-0.4, 0.0, 0.4])
        a = np.array([0.5, 0.25, 0.25])
        b = np.array([0.1, 0.2, 0.7])
        mix = lam * a + (1 - lam) * b
        mix = mix / mix.sum()
        ja = density_fisher(thetas, a, prior, n=10)
        jb = density_fisher(thetas, b, prior, n=10)
        jm = density_fisher(thetas, mix, prior, n=10)
        np.testing.assert_allclose(jm, lam * ja + (1 - lam) * jb, rtol=1e-12, atol=1e-12)

    def test_scales_with_population_size(self, prior):
        """Uniform weights over N/2 copies of each class are the explicit population."""
        thetas = [-0.3, 0.3]
        j2 = density_fisher(thetas, [0.5, 0.5], prior, n=2)
        j4 = density_fisher(thetas, [0.5, 0.5], prior, n=4)
        np.testing.assert_allclose(j2, population_fisher(thetas, prior), rtol=1e-12)
        np.testing.assert_allclose(j4, population_fisher(thetas * 2, prior), rtol=1e-12)
        np.testing.assert_allclose(j4, 2.0 * j2, rtol=1e-14)


class TestAssemble:
    def test_sums_are_exact(self, prior):
        """I_G and I_G+ add P(x) and P_plus to J exactly before the log-det."""
        j = np.full(prior.m, 3.0)
        mean_g = float(np.dot(prior.masses, np.log(j + prior.curvature_values())))
        mean_g_plus = float(np.dot(prior.masses, np.log(j + prior.p_plus())))
        assert i_g(j, prior).value == 0.5 * (mean_g - LOG_2PI_E) + prior.entropy()
        assert i_g_plus(j, prior).value == 0.5 * (mean_g_plus - LOG_2PI_E) + prior.entropy()

    def test_pd_flag_reports_indefinite_g(self, prior):
        for approx in (i_g(np.full(prior.m, -5.0), prior), i_g_plus(np.full(prior.m, -5.0), prior)):
            assert approx.degenerate and approx.value == -math.inf

    def test_gaussian_prior_matrices(self):
        """P = P_plus = cov^-1 for a Gaussian, so I_G = I_G+ = I_VT for a constant J."""
        gp = GaussianPrior(np.zeros(2), np.diag([4.0, 1.0]))
        j = np.array([[1.0, 0.0], [0.0, 2.0]])
        g = j + np.diag([0.25, 1.0])
        want = 0.5 * (math.log(np.linalg.det(g)) - 2 * LOG_2PI_E) + gp.entropy()
        assert i_g(j, gp).value == pytest.approx(want, rel=1e-14)
        assert i_g_plus(j, gp).value == pytest.approx(want, rel=1e-14)
        assert van_trees_bound(j, gp).value == pytest.approx(want, rel=1e-14)

    def test_wrappers_promote_to_matrix(self, prior):
        assert p_plus(prior).shape == (1, 1)
        assert p_plus(GaussianPrior(np.zeros(2), np.eye(2))).shape == (2, 2)

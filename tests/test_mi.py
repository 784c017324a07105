"""The three log-det approximations, exact Gaussian reference, and gap bounds."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import i0

from popcode_mi.fisher import GaussianPrior, GridPrior
from popcode_mi.mi import (
    LOG_2PI_E,
    exact_gaussian_mi,
    gap_bounds,
    i_f,
    i_g,
    i_g_plus,
    van_trees_bound,
)
from popcode_mi.models import LinearGaussianModel

from conftest import ring_population

PERIOD = math.pi
PRIOR_WIDTH = math.pi / 4
KAPPA_P = (PERIOD / (2 * math.pi * PRIOR_WIDTH)) ** 2


def random_linear_gaussian(rng, k_max=6, n_max=40):
    k = int(rng.integers(1, k_max + 1))
    n = int(rng.integers(k, n_max + 1))
    a = rng.standard_normal((k, n))
    q = rng.standard_normal((k, k))
    cov = q @ q.T + 0.1 * np.eye(k)
    return LinearGaussianModel(a, rng.standard_normal(k), cov)


class TestExactGaussian:
    def test_identity_channel(self):
        """K = N = 1, A = 1, unit prior: I = (1/2) ln 2."""
        model = LinearGaussianModel(np.eye(1), np.zeros(1), np.eye(1))
        assert exact_gaussian_mi(model) == pytest.approx(0.5 * math.log(2.0), rel=1e-14)

    def test_determinant_swap_oracle(self):
        """det(I_K + S^{1/2} A A^T S^{1/2}) = det(I_N + A^T S A)."""
        rng = np.random.default_rng(1)
        for _ in range(20):
            model = random_linear_gaussian(rng)
            n = model.mixing.shape[1]
            alt = 0.5 * np.linalg.slogdet(
                np.eye(n) + model.mixing.T @ model.cov @ model.mixing)[1]
            assert exact_gaussian_mi(model) == pytest.approx(alt, abs=1e-10)

    def test_zero_mixing_gives_zero_information(self):
        model = LinearGaussianModel(np.zeros((2, 5)), np.zeros(2), np.eye(2))
        assert exact_gaussian_mi(model) == 0.0


class TestLinearGaussianApproximations:
    def test_i_g_is_exact_for_linear_gaussian(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            model = random_linear_gaussian(rng)
            prior = GaussianPrior(model.mean, model.cov)
            approx = i_g(model.fisher(), prior)
            assert approx.value == pytest.approx(exact_gaussian_mi(model), abs=1e-9)
            assert not approx.degenerate

    def test_i_g_plus_coincides_for_gaussian_prior(self):
        """P = P_plus for a Gaussian prior, so the two corrections agree."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_linear_gaussian(rng)
            prior = GaussianPrior(model.mean, model.cov)
            a = i_g(model.fisher(), prior).value
            b = i_g_plus(model.fisher(), prior).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_identical_columns_degenerate(self):
        """Rank-one J: I_F diverges while I_G stays closed-form finite."""
        a_col = np.array([0.7, -0.2, 0.4])
        n = 3
        model = LinearGaussianModel(np.tile(a_col[:, None], (1, n)),
                                    np.zeros(3), np.eye(3))
        prior = GaussianPrior(np.zeros(3), np.eye(3))
        low = i_f(model.fisher(), prior)
        assert low.degenerate and low.value == -math.inf
        good = i_g(model.fisher(), prior)
        expected = 0.5 * math.log(n * float(a_col @ a_col) + 1.0)
        assert good.value == pytest.approx(expected, abs=1e-12)
        assert good.value == pytest.approx(exact_gaussian_mi(model), abs=1e-12)

    def test_zero_fisher_means_zero_information(self):
        prior = GaussianPrior(np.zeros(2), np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert i_g(np.zeros((2, 2)), prior).value == pytest.approx(0.0, abs=1e-12)
        assert i_g_plus(np.zeros((2, 2)), prior).value == pytest.approx(0.0, abs=1e-12)


class TestScalarAnchors:
    def test_constant_fisher_uniform_prior(self):
        """J = 2 pi e on a length-L uniform prior: I_F = ln L exactly."""
        length = 2.5
        uni = GridPrior.uniform(period=length, m=400)
        approx = i_f(np.full(uni.m, 2 * math.pi * math.e), uni)
        assert approx.value == pytest.approx(math.log(length), rel=1e-12)

    def test_entropy_wrapper(self):
        """Every formula adds the prior's own H(X): here each log-det term is zero."""
        uni = GridPrior.uniform(period=2.5, m=400)
        gp = GaussianPrior(np.zeros(1), np.eye(1))
        for fn in (i_f, i_g, i_g_plus, van_trees_bound):
            assert fn(np.full(uni.m, 2 * math.pi * math.e), uni).value == pytest.approx(
                uni.entropy(), rel=1e-14)
        assert i_f(2 * math.pi * math.e * np.eye(1), gp).value == pytest.approx(
            0.5 * LOG_2PI_E, rel=1e-14)

    def test_infinite_fisher_node_is_degenerate(self):
        """J = +inf is singular at K = 1, as an infinite diagonal is for K > 1."""
        prior = GridPrior.von_mises(m=50)
        j = np.ones(prior.m)
        j[7] = np.inf
        got = i_f(j, prior)
        assert got.degenerate and got.value == -math.inf
        assert i_f(np.diag([np.inf, 1.0]), GAUSSIAN_2D).degenerate

    def test_zero_mass_nodes_are_skipped(self):
        """A singular J on a node of zero prior mass adds nothing to the average."""
        prior = GridPrior.von_mises(width=0.02, m=200)
        assert prior.masses[0] == 0.0
        j = np.ones(prior.m)
        j[0] = 0.0
        got = i_f(j, prior)
        assert not got.degenerate
        assert got.value == i_f(np.ones(prior.m), prior).value
        assert got.value == pytest.approx(-3.91162252435914, rel=1e-12)


class TestRingPopulationOracle:
    """Approximations on the bump ring against adaptive quadrature."""

    @staticmethod
    def _closed_forms(n):
        pop = ring_population(n)

        def pdf(x):
            z = PERIOD * math.exp(-KAPPA_P) * i0(KAPPA_P)
            return math.exp(-KAPPA_P * (1.0 - math.cos(2 * math.pi * x / PERIOD))) / z

        def fisher(x):
            return float(pop.fisher_values(np.array([x]))[0])

        def curvature(x):
            return (1.0 / PRIOR_WIDTH**2) * math.cos(2 * math.pi * x / PERIOD)

        return pdf, fisher, curvature

    def test_all_three_match_quadrature(self, prior):
        pop = ring_population(10)
        pdf, fisher, curvature = self._closed_forms(10)
        h_x, _ = quad(lambda x: -pdf(x) * math.log(pdf(x)),
                      -PERIOD / 2, PERIOD / 2, limit=200)
        pp = prior.p_plus()

        def mean_of(g):
            val, _ = quad(lambda x: pdf(x) * 0.5 * math.log(g(x) / (2 * math.pi * math.e)),
                          -PERIOD / 2, PERIOD / 2, limit=200)
            return val + h_x

        ref_f = mean_of(fisher)
        ref_g = mean_of(lambda x: fisher(x) + curvature(x))
        ref_gp = mean_of(lambda x: fisher(x) + pp)

        j = pop.fisher_values(prior.nodes)
        assert i_f(j, prior).value == pytest.approx(ref_f, abs=1e-8)
        assert i_g(j, prior).value == pytest.approx(ref_g, abs=1e-8)
        assert i_g_plus(j, prior).value == pytest.approx(ref_gp, abs=1e-8)

    def test_callable_and_array_forms_agree(self, prior):
        """Every J form of a grid prior gives the same values: a per-node
        array, an (M, 1, 1) stack, a callable, and a constant against np.full."""
        pop = ring_population(6)
        j = pop.fisher_values(prior.nodes)
        forms = [(j, j.reshape(-1, 1, 1)),
                 (j, lambda x: pop.fisher_values(np.atleast_1d(x))[0]),
                 (np.full(prior.m, 7.5), 7.5)]

        def numbers(result):
            return [v for v in dataclasses.astuple(result) if isinstance(v, float)]

        for fn in (i_f, i_g, i_g_plus, gap_bounds):
            for reference, form in forms:
                assert numbers(fn(form, prior)) == pytest.approx(
                    numbers(fn(reference, prior)), rel=1e-12), fn.__name__
        assert i_f(j, prior).kind == "I_F"


GRID_100 = GridPrior.von_mises(m=100)
GAUSSIAN_2D = GaussianPrior(np.zeros(2), np.eye(2))


@pytest.mark.parametrize("fn", [i_f, i_g, i_g_plus, van_trees_bound, gap_bounds],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("j, prior, message", [
    (3 * np.eye(2), GRID_100, "J is 2x2 per node, the 100-node grid prior is 1-D"),
    (np.ones((100, 2, 2)), GRID_100, "J is 2x2 per node, the 100-node grid prior is 1-D"),
    (3 * np.eye(3), GAUSSIAN_2D, "J is 3x3 per node, the Gaussian prior is 2-D"),
    (lambda x: np.eye(2), GAUSSIAN_2D, "a callable J needs a grid prior"),
    (np.ones(7), GRID_100, "J values have length 7, prior grid has 100 nodes"),
], ids=["grid-2x2", "grid-stack-2x2", "gaussian2d-3x3", "callable-gaussian", "grid-short-array"])
def test_j_must_fit_the_prior(fn, j, prior, message):
    """A J whose shape does not fit the prior is an error naming both."""
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(j, prior)


class TestEmptyStack:
    @pytest.mark.parametrize("fn", [i_g, i_f, i_g_plus, gap_bounds],
                             ids=lambda f: f.__name__)
    def test_no_nodes_is_named(self, fn):
        """Not a ZeroDivisionError from the uniform node weights."""
        prior = GaussianPrior(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match=r"^J of shape \(0, 2, 2\) has no nodes to average over$"):
            fn(np.zeros((0, 2, 2)), prior)


class TestGapBounds:
    def test_zero_curvature_prior_collapses_the_gap(self):
        """Uniform prior: P = 0, so I_G = I_F and varsigma = 0."""
        uni = GridPrior.uniform(period=2.0, m=300)
        j = np.full(uni.m, 5.0)
        bounds = gap_bounds(j, uni)
        assert bounds.varsigma == pytest.approx(0.0, abs=1e-12)
        assert bounds.varsigma1 == pytest.approx(0.0, abs=1e-12)
        assert bounds.varsigma_plus == pytest.approx(0.0, abs=1e-12)
        assert i_g(j, uni).value == pytest.approx(i_f(j, uni).value, rel=1e-12)

    def test_isotropic_closed_form(self):
        """J = c I, P = I: varsigma = K/c, varsigma1 = sqrt(K)/c."""
        k, c = 3, 4.0
        prior = GaussianPrior(np.zeros(k), np.eye(k))
        bounds = gap_bounds(c * np.eye(k), prior)
        assert bounds.varsigma == pytest.approx(k / c, rel=1e-12)
        assert bounds.varsigma1 == pytest.approx(math.sqrt(k) / c, rel=1e-12)
        assert bounds.varsigma_plus == pytest.approx(k / c, rel=1e-12)

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_sandwich_for_psd_curvature(self, seed):
        """0 <= I_G - I_F <= varsigma/2 whenever P is PSD and J is PD."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        q = rng.standard_normal((k, k))
        cov = q @ q.T + 0.2 * np.eye(k)
        prior = GaussianPrior(np.zeros(k), cov)
        w = rng.standard_normal((k, 2 * k))
        j = w @ w.T + 0.1 * np.eye(k)
        lo = i_f(j, prior).value
        hi = i_g(j, prior).value
        bounds = gap_bounds(j, prior)
        assert -1e-10 <= hi - lo <= bounds.varsigma / 2 + 1e-10
        hi_plus = i_g_plus(j, prior).value
        assert -1e-10 <= hi_plus - lo <= bounds.varsigma_plus / 2 + 1e-10

    def test_degenerate_fisher_rejected(self, prior):
        j = np.zeros(prior.m)
        with pytest.raises(ValueError, match="degenerate J"):
            gap_bounds(j, prior)

    def test_nan_fisher_names_the_node(self):
        """A NaN J is singular by the pivot rule, at K = 1 and K > 1 alike, and
        wherever the NaN sits: the factorization reads only the diagonal and
        lower triangle, and the rule checks every entry."""
        grid = GridPrior.von_mises(m=50)
        j = np.full(grid.m, 4.0)
        j[3] = np.nan
        with pytest.raises(ValueError, match="degenerate J: not positive-definite at node 3"):
            gap_bounds(j, grid)
        for entry in ((0, 0), (1, 0), (1, 1), (0, 1)):
            stack = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
            stack[(3,) + entry] = np.nan
            with pytest.raises(ValueError, match="degenerate J: not positive-definite at node 3"):
                gap_bounds(stack, GAUSSIAN_2D)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_upper_triangle_is_degenerate(self, bad):
        """Only the upper triangle of node 3 is not finite."""
        stack = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
        stack[3, 0, 1] = bad
        for fn in (i_f, i_g, i_g_plus):
            got = fn(stack, GAUSSIAN_2D)
            assert got.degenerate and got.value == -math.inf
        with pytest.raises(ValueError, match="degenerate J: not positive-definite at node 3"):
            gap_bounds(stack, GAUSSIAN_2D)


class TestVanTrees:
    def test_upper_bounds_i_g_plus(self, prior):
        """ln det is concave, so averaging inside can only help."""
        pop = ring_population(10)
        j = pop.fisher_values(prior.nodes)
        inner = i_g_plus(j, prior).value
        outer = van_trees_bound(j, prior)
        assert outer.kind == "I_VT"
        assert inner <= outer.value + 1e-12
        mean_g_plus = prior.average(j) + prior.p_plus()
        assert outer.value == pytest.approx(
            0.5 * (math.log(mean_g_plus) - LOG_2PI_E) + prior.entropy(), rel=1e-12)
        assert outer.value - inner > 1e-3

    def test_tight_for_constant_fisher(self):
        """With J constant the Jensen step is an equality."""
        prior = GaussianPrior(np.zeros(2), np.diag([1.0, 2.0]))
        j = np.array([[3.0, 0.2], [0.2, 1.0]])
        assert i_g_plus(j, prior).value == pytest.approx(
            van_trees_bound(j, prior).value, rel=1e-12)


class TestMonotonicity:
    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_psd_increment_never_decreases_i_g(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        prior = GaussianPrior(np.zeros(k), np.eye(k))
        w = rng.standard_normal((k, k + 2))
        j = w @ w.T
        u = rng.standard_normal((k, 1))
        bigger = j + u @ u.T
        assert i_g(bigger, prior).value >= i_g(j, prior).value - 1e-12


class TestDiagonalPushforward:
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_diagonal_rescaling(self, seed):
        """y = D x maps J to D^-1 J D^-1 and cov to D cov D; the information is unchanged.

        Scales span D = diag(10^u), u in [-8, 8].  Half the stacks have one
        node whose trailing stimulus directions carry no information, so
        that node's J is exactly singular and the flag must agree.  A
        singularity present only up to rounding sits on the pivot rule's
        decision boundary, where rescaling can flip the flag; the other
        factors have K + 2 columns so J is well conditioned.
        """
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        a = rng.standard_normal((m, k, k + 2))
        if rng.random() < 0.5:
            a[rng.integers(m), int(rng.integers(1, k)):] = 0.0
        j = a @ np.swapaxes(a, 1, 2)
        q = rng.standard_normal((k, k))
        cov = q @ q.T + 0.1 * np.eye(k)
        d = 10.0 ** rng.uniform(-8, 8, size=k)
        j_y = j / np.outer(d, d)
        cov_y = cov * np.outer(d, d)
        for fn in (i_f, i_g, i_g_plus, van_trees_bound):
            x_side = fn(j, GaussianPrior(np.zeros(k), cov))
            y_side = fn(j_y, GaussianPrior(np.zeros(k), cov_y))
            assert x_side.degenerate == y_side.degenerate, fn.__name__
            if not x_side.degenerate:
                assert abs(x_side.value - y_side.value) <= 1e-9, fn.__name__

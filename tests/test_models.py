"""Tuning curves, populations, parameter validation, and the decorrelating map.

Likelihood checks go through :mod:`popcode_mi.mc`, where the Poisson
likelihood lives.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import poisson as sp_poisson

from popcode_mi import mc
from popcode_mi.mc import MCConfig, mc_mutual_information
from popcode_mi.mi import exact_gaussian_mi
from popcode_mi.models import (
    CorrelatedGaussianPopulation,
    LinearGaussianModel,
    PoissonPopulation,
    decorrelation_transform,
)

from conftest import NOT_PD_COVARIANCES, ring_population

GRID = np.linspace(-1.5, 1.5, 7)


def bump(center: float = 0.0, amplitude: float = 20.0, width: float = 0.5,
         period: float = np.pi) -> PoissonPopulation:
    """A one-neuron population."""
    return PoissonPopulation(amplitude=amplitude, width=width, period=period, centers=[center])


def rate(curve: PoissonPopulation, x) -> np.ndarray:
    """A one-neuron population's rates at ``x``."""
    return curve.rate_matrix(np.atleast_1d(x))[:, 0]


def derivative(curve: PoissonPopulation, x) -> np.ndarray:
    """A one-neuron population's derivative f'(x), as the optimizer reads it."""
    return curve.tuning_values(np.atleast_1d(x))[1][:, 0]


def closed_form(pop: PoissonPopulation, x, j: int = 0):
    """Rate and derivative of neuron ``j``, written out from the formula."""
    omega = 2 * np.pi / pop.period
    phase = omega * (np.asarray(x, dtype=float) - pop.centers[j])
    f = pop.amplitude[j] * np.exp(-pop.concentration[j] * (1.0 - np.cos(phase)))
    return f, -f * pop.concentration[j] * omega * np.sin(phase)


def core_terms(pop, responses, xs) -> np.ndarray:
    """The estimator's x-dependent log-likelihood terms, shape (len(responses), len(xs))."""
    responses = np.atleast_2d(np.asarray(responses, dtype=float))
    xs = np.asarray(xs, dtype=float)
    terms = mc._loglik_terms(pop, pop.rate_matrix(xs), xs)
    return mc._log_lik_core(responses, terms, np.empty((responses.shape[0], len(xs))))


class TestVonMisesTuning:
    def test_peak_value(self):
        """The curve attains its amplitude at the center."""
        assert rate(bump(), 0.0)[0] == 20.0

    def test_quarter_period_value(self):
        """One cosine trough away the rate is A exp(-2 kappa (.. = 1))."""
        f = rate(bump(), np.pi / 2)[0]
        assert f == pytest.approx(20.0 * math.exp(-2.0), rel=1e-15)
        assert f == pytest.approx(2.706705664732254, rel=1e-13)

    def test_concentration_from_width(self):
        """kappa = (T / (2 pi sigma_f))^2."""
        curve = bump()
        assert curve.concentration[0] == pytest.approx((np.pi / (2 * np.pi * 0.5)) ** 2)
        assert curve.concentration[0] == pytest.approx(1.0)

    def test_periodicity(self):
        curve = bump(center=0.3)
        x = np.linspace(-2, 2, 41)
        np.testing.assert_allclose(rate(curve, x), rate(curve, x + np.pi), rtol=1e-12)

    @given(st.floats(-10, 10))
    def test_positive_everywhere(self, x):
        assert rate(bump(), x)[0] > 0.0

    def test_derivative_matches_finite_difference(self):
        """The kernel's derivative and fisher_values agree with central
        differences of rate_matrix."""
        curve = bump(center=0.2)
        xs = np.linspace(-1.5, 1.5, 25)
        h = 1e-6
        fd = (curve.rate_matrix(xs + h) - curve.rate_matrix(xs - h))[:, 0] / (2 * h)
        np.testing.assert_allclose(derivative(curve, xs), fd, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(curve.fisher_values(xs), fd**2 / rate(curve, xs),
                                   rtol=1e-6, atol=1e-8)

    def test_derivative_zero_at_peak(self):
        assert derivative(bump(center=0.4), 0.4)[0] == 0.0


class TestParameterValidation:
    BASE = dict(amplitude=20.0, width=0.5, period=np.pi, centers=[0.0])

    @pytest.mark.parametrize("param, value", [
        ("amplitude", math.nan), ("amplitude", math.inf), ("amplitude", 0.0),
        ("width", math.nan), ("width", math.inf), ("width", -0.5),
        ("period", math.nan), ("period", math.inf),
    ])
    def test_tuning_needs_positive_finite(self, param, value):
        with pytest.raises(ValueError, match=rf"^{param} must be positive and finite, got {value!r}$"):
            PoissonPopulation(**dict(self.BASE, **{param: value}))

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_center_must_be_finite(self, value):
        with pytest.raises(ValueError, match=rf"^center must be finite, got {value!r}$"):
            PoissonPopulation(**dict(self.BASE, centers=[value]))

    def test_overflowing_concentration_names_the_width(self):
        """(T / (2 pi width))^2 past the float range is a named error, not an OverflowError."""
        with pytest.raises(ValueError, match=r"^width 1e-300 is too small for period "):
            PoissonPopulation(20.0, 1e-300, math.pi, [0.0])

    @pytest.mark.parametrize("param", ["amplitude", "width"])
    def test_per_neuron_values_need_one_per_center(self, param):
        with pytest.raises(ValueError, match=rf"^{param} must be one value or one per center, "
                                             r"got shape \(2,\)$"):
            PoissonPopulation(**dict(self.BASE, centers=[0.0, 0.1, 0.2], **{param: [1.0, 2.0]}))

    @pytest.mark.parametrize("centers", [np.zeros((2, 2)), np.zeros(0), 0.0], ids=["2x2", "empty", "scalar"])
    def test_centers_must_be_a_nonempty_vector(self, centers):
        message = f"thetas must be a nonempty 1-D array of centers, got shape {np.shape(centers)}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            PoissonPopulation(**dict(self.BASE, centers=centers))

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_correlated_scale_needs_positive_finite(self, value):
        with pytest.raises(ValueError, match=rf"^scale must be positive and finite, got {value!r}$"):
            CorrelatedGaussianPopulation(scale=value, correlation=0.1)

    @pytest.mark.parametrize("n", [0, 2.5, math.nan])
    def test_decorrelation_size_is_a_count(self, n):
        pop = CorrelatedGaussianPopulation(scale=1.0, correlation=0.1)
        with pytest.raises(ValueError, match=r"^population size must be an integer of at least 1"):
            decorrelation_transform(pop, n)


class TestFisherKernels:
    def test_poisson_kernel_zero_at_peak(self):
        """S = f'^2 / f vanishes where the tuning curve peaks."""
        assert bump(center=0.1).fisher_values([0.1])[0] == 0.0

    def test_poisson_kernel_value(self):
        """S(x) = f(x) (kappa omega sin(omega(x - theta)))^2 for one bump."""
        curve = bump()
        x = 0.37
        omega = 2 * np.pi / np.pi
        expected = closed_form(curve, x)[0] * (curve.concentration[0] * omega * np.sin(omega * x)) ** 2
        assert curve.fisher_values([x])[0] == pytest.approx(expected, rel=1e-12)

    def test_derivative_value(self):
        curve = bump(center=-0.2)
        x = 0.11
        assert derivative(curve, x)[0] == pytest.approx(closed_form(curve, x)[1], rel=1e-12)

    @given(st.floats(-1.5, 1.5), st.floats(-0.5, 0.5))
    def test_kernels_nonnegative(self, x, center):
        assert bump(center=center).fisher_values([x])[0] >= 0.0

    def test_rate_underflow_raises(self, prior_small):
        """A rate that underflows to exactly zero is an error, not a flooring case."""
        narrow = bump(width=0.01)  # concentration 2500: exp(-5000) underflows
        assert rate(narrow, np.pi / 2)[0] == 0.0
        with pytest.raises(ValueError, match=r"Poisson rates must be positive and finite: node 0, "):
            mc_mutual_information(narrow, prior_small, MCConfig(j_max=500, i_max=5, m=200))

    def test_tiny_rate_is_accepted_not_raised(self, prior_small):
        """Subnormal-scale but positive rates give finite Fisher and MC values."""
        narrow = bump(width=1.0 / (2.0 * math.sqrt(350.0)))  # exp(-700) ~ 1e-304
        f = rate(narrow, np.pi / 2)[0]
        assert 0.0 < f < 1e-12
        assert np.isfinite(narrow.fisher_values([np.pi / 2])[0])
        out = mc_mutual_information(narrow, prior_small, MCConfig(j_max=500, i_max=5, m=200))
        assert np.isfinite(out.i_mc)


class TestPoissonPopulation:
    def test_rate_matrix_shape_and_values(self, pop10):
        xs = np.linspace(-np.pi / 2, np.pi / 2, 7)
        rates = pop10.rate_matrix(xs)
        assert rates.shape == (7, 10)
        for j in range(pop10.size):
            np.testing.assert_allclose(rates[:, j], closed_form(pop10, xs, j)[0], rtol=1e-14)

    def test_fisher_values_sum_of_kernels(self, pop10):
        xs = np.array([-0.4, 0.0, 0.9])
        total = pop10.fisher_values(xs)
        manual = sum(bump(center=c).fisher_values(xs) for c in pop10.centers)
        np.testing.assert_allclose(total, manual, rtol=1e-12)

    def test_log_likelihood_zero_count(self, pop10):
        """ln p(0 | x) = -sum_n f_n(x), and the core terms drop nothing from it."""
        core = core_terms(pop10, np.zeros(10), GRID)[0]
        np.testing.assert_allclose(core, -pop10.rate_matrix(GRID).sum(axis=1), rtol=1e-14)

    def test_log_likelihood_unit_rate_unit_count(self):
        """A single unit-rate cell observing one spike has ln p = -1."""
        pop = bump(amplitude=1.0)
        assert core_terms(pop, [1.0], [0.0])[0, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_log_likelihood_elementwise_oracle(self, pop10):
        """Differs from the sum of scipy Poisson log-pmfs by sum ln r!, whatever x."""
        rng = np.random.default_rng(3)
        r = rng.poisson(pop10.rate_matrix([-0.3])[0]).astype(float)
        scipy_sum = sp_poisson.logpmf(r.astype(int), pop10.rate_matrix(GRID)).sum(axis=1)
        np.testing.assert_allclose(core_terms(pop10, r, GRID)[0] - scipy_sum,
                                   gammaln(r + 1.0).sum(), rtol=0, atol=1e-12)

    def test_sampling_mean_tracks_rate(self, prior_small):
        """The estimator draws Poisson counts at the tuning rates: with rates
        flat in x, the draws are integers averaging the amplitude."""
        flat = PoissonPopulation(amplitude=5.0, width=1e9, period=np.pi, centers=[0.0, 0.0])
        drawn, real_core = [], mc._log_lik_core

        def spy(responses, terms, out):
            drawn.append(responses.copy())
            return real_core(responses, terms, out)

        with mock.patch.object(mc, "_log_lik_core", spy):
            mc_mutual_information(flat, prior_small,
                                  MCConfig(j_max=4000, i_max=2, m=200, seed=11))
        draws = np.concatenate(drawn)
        assert draws.shape == (4000, 2) and np.all(draws == np.round(draws))
        np.testing.assert_allclose(draws.mean(axis=0), 5.0, rtol=0.05)


@st.composite
def tunings(draw, min_neurons=1):
    """Per-neuron amplitudes 0.01-1000, widths down to 0.05 T / pi and centers
    over two periods, with the period: a population's constructor arguments."""
    n = draw(st.integers(min_neurons, 12))
    period = draw(st.floats(0.5, 10.0))

    def per_neuron(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    return (10.0 ** per_neuron(-2.0, 3.0), per_neuron(0.05, 1.0) * period / math.pi,
            period, per_neuron(-period, period))


class TestBatchedMatchesLooped:
    """A population is its neurons side by side: batched values equal the
    one-neuron populations' values."""

    @settings(max_examples=60)
    @given(tunings(), st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=9))
    def test_columns_and_factor_rows_match_one_neuron_populations_bit_for_bit(self, tuning, xs):
        amplitudes, widths, period, centers = tuning
        pop = PoissonPopulation(amplitudes, widths, period, centers)
        values, (u, v) = pop.tuning_values(xs), pop.log_rate_factors(xs)
        for j, (a, w, c) in enumerate(zip(amplitudes, widths, centers)):
            one = PoissonPopulation(a, w, period, [c])
            for batched, alone in zip(values, one.tuning_values(xs)):
                assert batched[:, j].tobytes() == alone[:, 0].tobytes()
            one_u, one_v = one.log_rate_factors(xs)
            assert u[j].tobytes() == one_u[0].tobytes() and v.tobytes() == one_v.tobytes()

    @settings(max_examples=30)
    @given(tunings(), st.floats(0.01, 1000.0), st.floats(0.05, 1.0))
    def test_one_value_for_all_equals_the_value_spelled_out(self, tuning, amplitude, width):
        _, _, period, centers = tuning
        xs = np.linspace(-period, period, 11)
        shared = PoissonPopulation(amplitude, width, period, centers)
        spelled = PoissonPopulation(np.full(centers.size, amplitude), np.full(centers.size, width),
                                    period, centers)
        for name in ("amplitude", "width", "concentration", "centers"):
            assert getattr(shared, name).tobytes() == getattr(spelled, name).tobytes()
        for a, b in zip((*shared.tuning_values(xs), *shared.log_rate_factors(xs)),
                        (*spelled.tuning_values(xs), *spelled.log_rate_factors(xs))):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=30)
    @given(tunings())
    def test_fisher_values_are_the_sum_over_neurons(self, tuning):
        amplitudes, widths, period, centers = tuning
        xs = np.linspace(-period / 2, period / 2, 13)
        total = PoissonPopulation(amplitudes, widths, period, centers).fisher_values(xs)
        manual = sum(PoissonPopulation(a, w, period, [c]).fisher_values(xs)
                     for a, w, c in zip(amplitudes, widths, centers))
        np.testing.assert_allclose(total, manual, rtol=1e-12)

    @given(tunings(min_neurons=2), st.data())
    def test_a_bad_entry_names_the_first_neuron_at_fault(self, tuning, data):
        amplitudes, widths, period, centers = tuning
        params = {"amplitude": amplitudes, "width": widths, "centers": centers}
        name = data.draw(st.sampled_from(sorted(params)))
        first = data.draw(st.integers(0, centers.size - 2))
        bad = data.draw(st.sampled_from({"amplitude": [math.nan, math.inf, 0.0, -1.0],
                                         "width": [math.nan, math.inf, 0.0, -1.0, 1e-300],
                                         "centers": [math.nan, math.inf, -math.inf]}[name]))
        params[name] = params[name].copy()
        params[name][first] = params[name][-1] = bad
        if name == "centers":
            message = rf"^center must be finite, got {bad!r} at theta index {first}$"
        elif bad == 1e-300:
            message = rf"^width 1e-300 at neuron {first} is too small for period "
        else:
            message = rf"^{name} must be positive and finite, got {bad!r} at neuron {first}$"
        with pytest.raises(ValueError, match=message):
            PoissonPopulation(params["amplitude"], params["width"], period, params["centers"])


class TestLinearGaussianModel:
    def test_fisher_is_gram(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 8))
        model = LinearGaussianModel(a, np.zeros(3), np.eye(3))
        np.testing.assert_allclose(model.fisher(), a @ a.T, rtol=1e-14)

    def test_rejects_non_spd_covariance(self):
        for cov in [np.array([[1.0, 2.0], [2.0, 1.0]])] + NOT_PD_COVARIANCES[1:]:
            with pytest.raises(ValueError, match="positive-definite"):
                LinearGaussianModel(np.eye(2), np.zeros(2), cov=cov)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_mixing(self, value):
        """Non-finite mixing is named, not carried into exact_gaussian_mi as nan or inf."""
        mixing = np.array([[1.0, 0.5], [0.0, 2.0]])
        mixing[1, 0] = value
        with pytest.raises(ValueError, match=rf"^mixing matrix has a non-finite value {value!r} "
                                             r"at row 1, column 0$"):
            exact_gaussian_mi(LinearGaussianModel(mixing, np.zeros(2), np.eye(2)))


class TestDecorrelationTransform:
    def test_two_cell_closed_form(self):
        """N=2, a=1, c=0.5: b0 = sqrt(2), b1 = (1 - 1/sqrt(3)) / 2."""
        pop = CorrelatedGaussianPopulation(scale=1.0, correlation=0.5)
        m = decorrelation_transform(pop, 2)
        b0 = math.sqrt(2.0)
        b1 = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0
        expected = b0 * (np.eye(2) - b1 * np.ones((2, 2)))
        np.testing.assert_allclose(m, expected, rtol=1e-12)

    @pytest.mark.parametrize("n,a,c", [(2, 1.0, 0.5), (5, 0.3, 0.9), (8, 2.0, -0.1)])
    def test_whitens_the_covariance(self, n, a, c):
        pop = CorrelatedGaussianPopulation(scale=a, correlation=c)
        m = decorrelation_transform(pop, n)
        sigma = pop.covariance(n)
        np.testing.assert_allclose(m @ sigma @ m.T, np.eye(n), atol=1e-10)

    def test_random_triples(self):
        """50 random (N, a, c) triples whiten to the identity."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            a = float(rng.uniform(0.1, 5.0))
            c = float(rng.uniform(-1.0 / (n - 1) + 1e-3, 0.999))
            pop = CorrelatedGaussianPopulation(scale=a, correlation=c)
            m = decorrelation_transform(pop, n)
            err = np.linalg.norm(m @ pop.covariance(n) @ m.T - np.eye(n))
            assert err < 1e-10

    def test_singular_boundary_raises(self):
        n = 4
        pop = CorrelatedGaussianPopulation(scale=1.0, correlation=-1.0 / (n - 1))
        with pytest.raises(ValueError, match="singular"):
            decorrelation_transform(pop, n)


class TestRingPopulationFactory:
    def test_center_grid(self):
        pop = ring_population(5)
        np.testing.assert_allclose(pop.centers, [-0.5, -0.25, 0.0, 0.25, 0.5], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_size(self, n):
        assert ring_population(n).size == n

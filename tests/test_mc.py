"""Monte Carlo reference estimator and its bootstrap error bars."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import poisson

from popcode_mi import mc
from popcode_mi.fisher import GridPrior
from popcode_mi.mc import MCConfig, MCResult, mc_mutual_information
from popcode_mi.mi import i_g
from popcode_mi.models import LinearGaussianModel, PoissonPopulation, VonMisesTuning

from conftest import ring_population


class TestMCConfig:
    @pytest.mark.parametrize("kwargs", [
        {"j_max": 0, "i_max": 10, "m": 100},
        {"j_max": 10, "i_max": 0, "m": 100},
        {"j_max": 10, "i_max": 10, "m": 1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MCConfig(**kwargs)

    @pytest.mark.parametrize("key, value, minimum", [
        ("j_max", math.nan, 1), ("j_max", 2.5, 1), ("j_max", True, 1),
        ("i_max", 10.0, 1), ("m", 2.0, 2), ("m", 1, 2),
    ])
    def test_counts_must_be_integers(self, key, value, minimum):
        name = "grid size m" if key == "m" else key
        with pytest.raises(ValueError, match=rf"^{name} must be an integer of at least {minimum}, "
                                             rf"got {value!r}$"):
            MCConfig(**dict({"j_max": 10, "i_max": 10, "m": 100}, **{key: value}))

    @pytest.mark.parametrize("seed", [None, -1, 1.5, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        """Not OS entropy for None, nor an error from inside numpy."""
        with pytest.raises(ValueError, match=rf"^seed must be an integer of at least 0, got {seed!r}$"):
            MCConfig(j_max=10, i_max=10, m=100, seed=seed)

    def test_numpy_integers_are_counts(self):
        assert MCConfig(j_max=np.int64(10), i_max=np.int32(3), m=np.uint16(5)).m == 5

    def test_grid_size_must_match_prior(self, prior):
        cfg = MCConfig(j_max=100, i_max=10, m=60)
        with pytest.raises(ValueError, match="nodes but config expects"):
            mc_mutual_information(ring_population(4), prior, cfg)


class TestEstimatorExactCases:
    def test_uninformative_channel_is_exactly_zero(self):
        """Stimulus-independent rates: every log ratio is identically 0."""
        flat = VonMisesTuning(amplitude=5.0, width=1e9, period=math.pi, center=0.0)
        pop = PoissonPopulation([flat, flat])
        prior = GridPrior.von_mises(m=64)
        out = mc_mutual_information(pop, prior, MCConfig(j_max=500, i_max=20, m=64))
        assert out.i_mc_star == 0.0
        assert out.i_mc == 0.0

    def test_two_neurons_match_exact_enumeration(self):
        """Two Poisson neurons on a 64-node grid: the MI summed over every count
        pair up to 39 (tail mass below 1e-15) lies within the bootstrap band."""
        pop = PoissonPopulation([VonMisesTuning(amplitude=5.0, width=0.5, period=math.pi, center=c)
                                 for c in (-0.5, 0.5)])
        prior = GridPrior.von_mises(m=64)
        rates = pop.rate_matrix(prior.nodes)
        counts = np.arange(40)
        likelihood = (poisson.pmf(counts[None, :, None], rates[:, None, None, 0])
                      * poisson.pmf(counts[None, None, :], rates[:, None, None, 1]))
        assert np.max(1.0 - likelihood.sum(axis=(1, 2))) < 1e-15
        marginal = np.tensordot(prior.masses, likelihood, axes=1)
        exact = float(prior.masses @ np.sum(likelihood * np.log(likelihood / marginal), axis=(1, 2)))
        assert exact == pytest.approx(0.63839, abs=1e-5)
        for seed in range(5):
            out = mc_mutual_information(pop, prior, MCConfig(j_max=40_000, i_max=60, m=64, seed=seed))
            assert abs(out.i_mc - exact) < 3 * out.i_std

    def test_ring_population_near_i_g(self, prior):
        pop = ring_population(10)
        out = mc_mutual_information(pop, prior,
                                    MCConfig(j_max=5_000, i_max=40, m=1000, seed=1))
        reference = i_g(pop.fisher_values(prior.nodes), prior).value
        assert abs(out.i_mc - reference) < 5 * out.i_std


class TestBootstrap:
    def test_reproducible_for_fixed_seed(self, prior_small):
        pop = ring_population(6)
        cfg = MCConfig(j_max=2_000, i_max=30, m=200, seed=12)
        a = mc_mutual_information(pop, prior_small, cfg)
        b = mc_mutual_information(pop, prior_small, cfg)
        assert a == b

    def test_seed_changes_the_draw(self, prior_small):
        pop = ring_population(6)
        a = mc_mutual_information(pop, prior_small,
                                  MCConfig(j_max=2_000, i_max=30, m=200, seed=12))
        b = mc_mutual_information(pop, prior_small,
                                  MCConfig(j_max=2_000, i_max=30, m=200, seed=13))
        assert a.i_mc_star != b.i_mc_star

    def test_bootstrap_mean_tracks_point_estimate(self, prior_small):
        """Resampled means scatter around I* with sd ~ I_std / sqrt(i_max)."""
        pop = ring_population(6)
        out = mc_mutual_information(pop, prior_small,
                                    MCConfig(j_max=4_000, i_max=100, m=200, seed=2))
        assert out.i_std > 0.0
        assert abs(out.i_mc - out.i_mc_star) < 3 * out.i_std / math.sqrt(100)


class TestPoissonOnly:
    def test_other_models_are_a_type_error(self, prior_small):
        model = LinearGaussianModel(np.array([[2.0, -1.0, 0.5]]), np.zeros(1), np.eye(1))
        with pytest.raises(TypeError, match="^the estimator takes a PoissonPopulation, "
                                            "got LinearGaussianModel$"):
            mc_mutual_information(model, prior_small, MCConfig(j_max=500, i_max=5, m=200))


def reference_mc(model, prior, cfg):
    """The estimator as a chunk loop over scipy's log-sum-exp, kept as the oracle."""
    rates = np.asarray(model.rate_matrix(prior.nodes), dtype=float)
    stim_rng, resp_rng, boot_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    log_masses = np.log(prior.masses)
    stim_idx = stim_rng.choice(cfg.m, size=cfg.j_max, p=prior.masses)
    # ln f_n(x) = (u @ v)[n, x]: u's columns are ln A - k, k cos(w c) and
    # k sin(w c), v's rows 1, cos(w x) and sin(w x).
    omega = 2 * np.pi / model.period
    amp, conc, centers = (np.array([getattr(c, key) for c in model.tuning])
                          for key in ("amplitude", "concentration", "center"))
    u = np.column_stack([np.log(amp) - conc, conc * np.cos(omega * centers),
                         conc * np.sin(omega * centers)])
    v = np.stack([np.ones(cfg.m), np.cos(omega * prior.nodes), np.sin(omega * prior.nodes)])
    chunk = max(256, (1 << 20) // cfg.m)
    terms = np.empty(cfg.j_max)
    for lo in range(0, cfg.j_max, chunk):
        hi = min(lo + chunk, cfg.j_max)
        idx = stim_idx[lo:hi]
        responses = resp_rng.poisson(rates[idx]).astype(float)
        core = (responses @ u) @ v - np.sum(rates, axis=1)
        terms[lo:hi] = core[np.arange(hi - lo), idx] - scipy_logsumexp(core + log_masses, axis=1)
    replicates = np.array([np.mean(terms[boot_rng.integers(0, cfg.j_max, size=cfg.j_max)])
                           for _ in range(cfg.i_max)])
    return MCResult(i_mc_star=float(np.mean(terms)), i_mc=float(np.mean(replicates)),
                    i_std=float(np.std(replicates)))


class TestLogSumExpKernel:
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(2, 60),
           st.sampled_from([1e-3, 1.0, 30.0, 1e4]), st.booleans(), st.booleans())
    def test_matches_scipy_bit_for_bit(self, seed, rows, m, spread, ties, zero_mass):
        rng = np.random.default_rng(seed)
        if ties:
            # Few distinct values and equal masses: rows tie at their maximum.
            core = spread * rng.integers(-2, 3, size=(rows, m)).astype(float)
            log_masses = np.full(m, -math.log(m))
        else:
            core = spread * rng.standard_normal((rows, m))
            log_masses = np.log(rng.dirichlet(np.ones(m)))
        if zero_mass:
            log_masses[rng.random(m) < 0.3] = -np.inf
            log_masses[rng.integers(m)] = -math.log(m)
        want = scipy_logsumexp(core + log_masses, axis=1)
        got = mc.logsumexp(core.copy(), log_masses)
        assert got.tobytes() == want.tobytes()


    def test_underflowing_rows_match_scipy_bit_for_bit(self):
        """Shifted entries below -745.2 (exp is exactly 0), subnormal ones in
        (-745.13, -708), both sides of the underflow boundary, tied maxima and
        zero-mass nodes, next to rows where nothing underflows."""
        rng = np.random.default_rng(7)
        rows, m = 48, 400
        core = rng.uniform(-1200.0, -745.2, size=(rows, m))
        core[:, :100] = rng.uniform(-745.13, -708.0, size=(rows, 100))
        edge = -745.1332191019411
        core[:, 100:110] = [edge, *np.nextafter(edge, [-800.0, -700.0]), -745.2,
                            np.nextafter(-745.2, 0.0), -745.13, -708.4, -708.3, -1e4, -np.inf]
        core[0, :100] = -800.0  # the row's sum is the boundary entries' subnormals
        core[:, -1] = 0.0
        core[3::3, -2] = 0.0                                             # tied maxima
        core[1::4] = rng.uniform(-700.0, 0.0, size=(len(core[1::4]), m))  # no underflow
        # Zero log-masses keep the shifted entries exact; some nodes have no mass.
        log_masses = np.where(rng.random(m) < 0.1, -np.inf, 0.0)
        log_masses[100:110] = log_masses[-2:] = 0.0
        want = scipy_logsumexp(core + log_masses, axis=1)
        got = mc.logsumexp(core.copy(), log_masses)
        assert got.tobytes() == want.tobytes()
        shifted = core + log_masses
        shifted -= shifted.max(axis=1)[:, None]
        assert np.any(shifted < -745.2) and np.any((shifted > -745.13) & (shifted < -708.0))


class TestEstimatorMatchesReference:
    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("make", [lambda: ring_population(12)], ids=["poisson"])
    def test_bit_identical_to_scipy_chunk_loop(self, make, seed, prior_small):
        # j_max spans nine 5,242-row chunks and a partial tenth.
        cfg = MCConfig(j_max=50_000, i_max=10, m=200, seed=seed)
        model = make()
        assert mc_mutual_information(model, prior_small, cfg) == reference_mc(model, prior_small, cfg)


class TestFactoredPoissonCore:
    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.floats(0.2, 20.0),
           st.sampled_from([2048, 4096, 5000]), st.integers(257, 1600))
    def test_matches_log_rate_matmul(self, seed, n, period, m, j_max):
        """Every chunk's core equals r @ ln(rates)^T - sum_n rates to 1e-12 of its
        largest entry, for amplitudes 0.01-100, any period, centers over two
        periods and widths down to 0.05 T / pi (concentration 100)."""
        chunk = max(256, (1 << 20) // m)
        assume(j_max % chunk)
        rng = np.random.default_rng(seed)
        amplitudes = 10.0 ** rng.uniform(-2.0, 2.0, n)
        widths = rng.uniform(0.05, 1.0, n) * period / math.pi
        widths[0] = 0.05 * period / math.pi
        centers = rng.uniform(-period, period, n)
        pop = PoissonPopulation([VonMisesTuning(amplitude=a, width=w, period=period, center=c)
                                 for a, w, c in zip(amplitudes, widths, centers)])
        prior = GridPrior.von_mises(period, period / 4, m)
        rates = pop.rate_matrix(prior.nodes)
        blocks, real_core = [], mc._log_lik_core

        def spy(responses, terms, out):
            core = real_core(responses, terms, out)
            blocks.append((responses.copy(), core.copy()))  # ``out`` is reused
            return core

        with mock.patch.object(mc, "_log_lik_core", spy):
            mc_mutual_information(pop, prior, MCConfig(j_max=j_max, i_max=2, m=m, seed=seed))
        assert [len(r) for r, _ in blocks] == [min(chunk, j_max - lo)
                                               for lo in range(0, j_max, chunk)]
        for responses, core in blocks:
            want = responses @ np.log(rates).T - np.sum(rates, axis=1)
            assert np.max(np.abs(core - want)) <= 1e-12 * np.max(np.abs(want))


class TestRateValidation:
    @pytest.mark.parametrize("rate", [np.nan, 0.0, -2.0, np.inf], ids=lambda r: f"poisson-{r}")
    def test_bad_rate_names_node_and_neuron(self, rate, prior_small):
        class BadRate(PoissonPopulation):
            def rate_matrix(self, x):
                rates = super().rate_matrix(x)
                rates[7, 1] = rate
                return rates

        pop = BadRate(ring_population(3).tuning)
        with pytest.raises(ValueError, match=rf"node 7, neuron 1 has rate {rate!r}$"):
            mc_mutual_information(pop, prior_small, MCConfig(j_max=500, i_max=5, m=200))

"""Monte Carlo reference estimator and its standard error."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import chi2, poisson

from popcode_mi import mc
from popcode_mi.fisher import GridPrior
from popcode_mi.mc import MCConfig, MCResult, mc_mutual_information
from popcode_mi.mi import i_g
from popcode_mi.models import LinearGaussianModel, PoissonPopulation

from conftest import ring_population


class TestMCConfig:
    @pytest.mark.parametrize("kwargs", [
        {"j_max": 0, "m": 100},
        {"j_max": -3, "m": 100},
        {"j_max": 10, "m": 1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MCConfig(**kwargs)

    @pytest.mark.parametrize("key, value, minimum", [
        ("j_max", math.nan, 1), ("j_max", 2.5, 1), ("j_max", True, 1),
        ("m", 2.0, 2), ("m", 1, 2),
    ])
    def test_counts_must_be_integers(self, key, value, minimum):
        name = "grid size m" if key == "m" else key
        with pytest.raises(ValueError, match=rf"^{name} must be an integer of at least {minimum}, "
                                             rf"got {value!r}$"):
            MCConfig(**dict({"j_max": 10, "m": 100}, **{key: value}))

    @pytest.mark.parametrize("seed", [None, -1, 1.5, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        """Not OS entropy for None, nor an error from inside numpy."""
        with pytest.raises(ValueError, match=rf"^seed must be an integer of at least 0, got {seed!r}$"):
            MCConfig(j_max=10, m=100, seed=seed)

    def test_numpy_integers_are_counts(self):
        assert MCConfig(j_max=np.int64(10), m=np.uint16(5)).m == 5

    def test_grid_size_must_match_prior(self, prior):
        cfg = MCConfig(j_max=100, m=60)
        with pytest.raises(ValueError, match="nodes but config expects"):
            mc_mutual_information(ring_population(4), prior, cfg)


def two_neuron_case():
    """Two Poisson neurons on a 64-node grid and their MI in nats, summed over
    every count pair up to 39 (tail mass below 1e-15)."""
    pop = PoissonPopulation(amplitude=5.0, width=0.5, period=math.pi, centers=[-0.5, 0.5])
    prior = GridPrior.von_mises(m=64)
    rates = pop.rate_matrix(prior.nodes)
    counts = np.arange(40)
    likelihood = (poisson.pmf(counts[None, :, None], rates[:, None, None, 0])
                  * poisson.pmf(counts[None, None, :], rates[:, None, None, 1]))
    assert np.max(1.0 - likelihood.sum(axis=(1, 2))) < 1e-15
    marginal = np.tensordot(prior.masses, likelihood, axes=1)
    exact = float(prior.masses @ np.sum(likelihood * np.log(likelihood / marginal), axis=(1, 2)))
    return pop, prior, exact


class TestEstimatorExactCases:
    def test_uninformative_channel_is_zero_to_rounding(self):
        """Stimulus-independent rates: every log ratio is 0 in exact arithmetic.

        A term is the log-joint at the drawn node, less its log-mass, less the
        row's log-sum-exp: about eight roundings (the folded offset, the matmul
        row, the offset subtraction, the log-mass, the shift, the log, the
        re-added maximum and the difference), each under eps/2 of ``scale``,
        which bounds every value they touch.  So no term, and no mean of
        terms, is further from 0 than 4 eps scale."""
        pop = PoissonPopulation(amplitude=5.0, width=1e9, period=math.pi, centers=[0.0, 0.0])
        prior = GridPrior.von_mises(m=64)
        largest, real_core = [], mc._log_lik_core

        def spy(responses, terms, out):
            core = real_core(responses, terms, out)
            largest.append(np.max(np.abs(core)))
            return core

        with mock.patch.object(mc, "_log_lik_core", spy):
            out = mc_mutual_information(pop, prior, MCConfig(j_max=500, m=64))
        offset = np.sum(pop.rate_matrix(prior.nodes), axis=1) - np.log(prior.masses)
        scale = max(max(largest), np.max(np.abs(offset))) + math.log(64)
        bound = 4 * np.finfo(float).eps * scale
        assert abs(out.i_mc) <= bound

    def test_two_neurons_match_exact_enumeration(self):
        """Two Poisson neurons on a 64-node grid: the MI summed over every count
        pair up to 39 (tail mass below 1e-15) lies within 3 standard errors."""
        pop, prior, exact = two_neuron_case()
        assert exact == pytest.approx(0.63839, abs=1e-5)
        for seed in range(5):
            out = mc_mutual_information(pop, prior, MCConfig(j_max=40_000, m=64, seed=seed))
            assert abs(out.i_mc - exact) < 3 * out.i_std

    def test_standard_error_is_calibrated_against_the_exact_mi(self):
        """Over seeds 0-39 of the two-neuron case, z = (I_MC - exact) / I_std
        has mean within 3 / sqrt(40) of 0 and a sample variance inside the
        chi-square(39) 0.05 % and 99.95 % quantiles over 39: a bar twice or
        half the true standard error falls outside."""
        pop, prior, exact = two_neuron_case()
        runs = [mc_mutual_information(pop, prior, MCConfig(j_max=20_000, m=64, seed=seed))
                for seed in range(40)]
        z = np.array([(r.i_mc - exact) / r.i_std for r in runs])
        assert abs(z.mean()) < 3 / math.sqrt(len(z))
        low, high = chi2.ppf([0.0005, 0.9995], len(z) - 1) / (len(z) - 1)
        assert low < np.var(z, ddof=1) < high

    def test_ring_population_near_i_g(self, prior):
        pop = ring_population(10)
        out = mc_mutual_information(pop, prior,
                                    MCConfig(j_max=5_000, m=1000, seed=1))
        reference = i_g(pop.fisher_values(prior.nodes), prior).value
        assert abs(out.i_mc - reference) < 5 * out.i_std


class TestBootstrap:
    def test_reproducible_for_fixed_seed(self, prior_small):
        pop = ring_population(6)
        cfg = MCConfig(j_max=2_000, m=200, seed=12)
        a = mc_mutual_information(pop, prior_small, cfg)
        b = mc_mutual_information(pop, prior_small, cfg)
        assert a == b

    def test_seed_changes_the_draw(self, prior_small):
        pop = ring_population(6)
        a = mc_mutual_information(pop, prior_small,
                                  MCConfig(j_max=2_000, m=200, seed=12))
        b = mc_mutual_information(pop, prior_small,
                                  MCConfig(j_max=2_000, m=200, seed=13))
        assert a.i_mc != b.i_mc

    def test_closed_form_is_the_bootstrap_limit(self, prior_small):
        """10^4 bootstrap resamples of the reference loop's per-pair terms, in
        blocks of 100: their means average to I_MC within 4 of their own
        standard errors (I_std / 100), and scatter with I_std to 3 %."""
        cfg = MCConfig(j_max=4_000, m=200, seed=2)
        pop = ring_population(6)
        terms = reference_terms(pop, prior_small, cfg)
        out = mc_mutual_information(pop, prior_small, cfg)
        assert out.i_std > 0.0
        rng = np.random.default_rng(7)
        means = np.concatenate([terms[rng.integers(0, cfg.j_max, size=(100, cfg.j_max))].mean(axis=1)
                                for _ in range(100)])
        assert abs(means.mean() - out.i_mc) < 4 * out.i_std / 100
        assert np.std(means) == pytest.approx(out.i_std, rel=0.03)


class TestPoissonOnly:
    def test_other_models_are_a_type_error(self, prior_small):
        model = LinearGaussianModel(np.array([[2.0, -1.0, 0.5]]), np.zeros(1), np.eye(1))
        with pytest.raises(TypeError, match="^the estimator takes a PoissonPopulation, "
                                            "got LinearGaussianModel$"):
            mc_mutual_information(model, prior_small, MCConfig(j_max=500, m=200))


def lean_logsumexp(x):
    """``mc.logsumexp``'s formula written out: the row maximum comes out,
    shifted entries are clamped at -700, then exp, sum, log and the maximum
    back."""
    with np.errstate(invalid="ignore"):
        a = x.max(axis=1)
        return np.log(np.exp(np.maximum(x - a[:, None], -700.0)).sum(axis=1)) + a


def reference_terms(model, prior, cfg, logsumexp=lean_logsumexp):
    """The estimator's per-pair log-ratios from a chunk loop over scipy's
    Poisson quantiles (numpy's sampler on the fourth stream for rates above
    100), with the log-masses folded into the likelihood's offset."""
    rates = np.asarray(model.rate_matrix(prior.nodes), dtype=float)
    stim_rng, resp_rng, _, high = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(4)
    )
    log_masses = np.log(prior.masses)
    stim_idx = np.repeat(np.arange(cfg.m), stim_rng.multinomial(cfg.j_max, prior.masses))
    # ln f_n(x) = (u @ v)[n, x]: u's columns are ln A - k, k cos(w c) and
    # k sin(w c), v's rows 1, cos(w x) and sin(w x).
    omega = 2 * np.pi / model.period
    amp, conc, centers = model.amplitude, model.concentration, model.centers
    u = np.column_stack([np.log(amp) - conc, conc * np.cos(omega * centers),
                         conc * np.sin(omega * centers)])
    v = np.stack([np.ones(cfg.m), np.cos(omega * prior.nodes), np.sin(omega * prior.nodes)])
    offset = np.sum(rates, axis=1) - log_masses
    chunk = max(256, (1 << 20) // cfg.m)
    terms = np.empty(cfg.j_max)
    for lo in range(0, cfg.j_max, chunk):
        hi = min(lo + chunk, cfg.j_max)
        idx = stim_idx[lo:hi]
        responses = poisson.ppf(resp_rng.random((hi - lo, model.size)), rates[idx])
        routed = rates[idx] > 100.0
        responses[routed] = high.poisson(rates[idx][routed])
        joint = (responses @ u) @ v - offset
        terms[lo:hi] = joint[np.arange(hi - lo), idx] - log_masses[idx] - logsumexp(joint)
    return terms


def reference_mc(model, prior, cfg, logsumexp=lean_logsumexp):
    """The estimator written out from :func:`reference_terms`, kept as the oracle."""
    terms = reference_terms(model, prior, cfg, logsumexp)
    return MCResult(i_mc=float(np.mean(terms)), i_std=float(np.std(terms) / math.sqrt(cfg.j_max)))


#: Shifted entries past exp's zero (-745.13), between it and the clamp at -700,
#: and on both sides of each edge.
_TAIL_SHIFTS = np.array([-1e4, -800.0, -745.2, *np.nextafter(-745.1332191019411, [-800.0, 0.0]),
                         -745.1332191019411, -720.0, -708.4, -708.3,
                         *np.nextafter(-700.0, [-800.0, 0.0]), -700.0, -699.0])


@st.composite
def kernel_rows(draw):
    """A (rows, m) log-joint buffer with a finite maximum in every row: tied
    maxima, ``-inf`` entries for zero-mass nodes, spreads from 1e-3 to 1e4
    and, in some buffers, shifted entries in the exponential's underflow range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, m = draw(st.integers(1, 40)), draw(st.integers(2, 60))
    spread = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e4]))
    if draw(st.booleans()):
        # Few distinct values and equal masses: rows tie at their maximum.
        core = spread * rng.integers(-2, 3, size=(rows, m)).astype(float)
        log_masses = np.full(m, -math.log(m))
    else:
        core = spread * rng.standard_normal((rows, m))
        log_masses = np.log(rng.dirichlet(np.ones(m)))
    if draw(st.booleans()):
        log_masses[rng.random(m) < 0.3] = -np.inf
        log_masses[rng.integers(m)] = -math.log(m)
    buf = core + log_masses
    if draw(st.booleans()):
        top = buf.max(axis=1)
        tail = rng.random((rows, m)) < 0.7
        tail[np.arange(rows), buf.argmax(axis=1)] = False
        shifts = np.where(rng.random((rows, m)) < 0.5, rng.choice(_TAIL_SHIFTS, (rows, m)),
                          rng.uniform(-760.0, -690.0, (rows, m)))
        buf = np.where(tail, top[:, None] + shifts, buf)
    return buf


class TestLogSumExpKernel:
    @settings(max_examples=60)
    @given(kernel_rows())
    def test_bit_identical_to_the_lean_formula(self, buf):
        assert mc.logsumexp(buf.copy()).tobytes() == lean_logsumexp(buf).tobytes()

    @settings(max_examples=60)
    @given(kernel_rows())
    def test_within_bound_of_scipy(self, buf):
        """Both forms take out the row maximum a and add it back, so they
        differ by the rounding of ln s + a, of ln s and of the sum s of at
        most M terms: under 4 eps (|a| + ln M), with 1.2 the worst factor
        seen over 2,000 random buffers."""
        a = buf.max(axis=1)
        bound = 4 * np.finfo(float).eps * (np.abs(a) + math.log(buf.shape[1]))
        got = mc.logsumexp(buf.copy())
        assert np.all(np.abs(got - scipy_logsumexp(buf, axis=1)) <= bound)

    @settings(max_examples=30)
    @given(kernel_rows(), st.integers(0, 2**32 - 1))
    def test_nan_and_inf_maxima_come_back_non_finite(self, buf, seed):
        """Without a RuntimeWarning, and leaving every other row's bits."""
        rng = np.random.default_rng(seed)
        bad = rng.random(len(buf)) < 0.5
        bad[rng.integers(len(buf))] = True
        bad_rows = np.flatnonzero(bad)
        buf[bad_rows, rng.integers(buf.shape[1], size=len(bad_rows))] = rng.choice(
            [np.nan, np.inf], size=len(bad_rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mc.logsumexp(buf.copy())
        assert not np.any(np.isfinite(got[bad]))
        assert got[~bad].tobytes() == lean_logsumexp(buf[~bad]).tobytes()


def high_rate_ring():
    """Amplitude 1000, width 0.2: rates from about 0.004 to 1000 on
    ``prior_small``, so every chunk mixes table cells with cells above 100."""
    return PoissonPopulation(amplitude=1000.0, width=0.2, period=math.pi,
                             centers=np.linspace(-0.5, 0.5, 12))


class TestEstimatorMatchesReference:
    @pytest.mark.parametrize("make, seed", [
        (lambda: ring_population(12), 3), (lambda: ring_population(12), 17), (high_rate_ring, 8),
    ], ids=["poisson-3", "poisson-17", "poisson-above-100-8"])
    def test_bit_identical_to_scipy_chunk_loop(self, make, seed, prior_small):
        """Bit for bit against the reference loop; within 1e-12 relative of it
        when the loop takes scipy's log-sum-exp instead of the lean one."""
        # j_max spans nine 5,242-row chunks and a partial tenth.
        cfg = MCConfig(j_max=50_000, m=200, seed=seed)
        model = make()
        got = mc_mutual_information(model, prior_small, cfg)
        assert got == reference_mc(model, prior_small, cfg)
        scipy_ref = reference_mc(model, prior_small, cfg, lambda x: scipy_logsumexp(x, axis=1))
        for field in ("i_mc", "i_std"):
            assert getattr(got, field) == pytest.approx(getattr(scipy_ref, field), rel=1e-12, abs=0)


class TestFactoredPoissonCore:
    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.floats(0.2, 20.0),
           st.sampled_from([2048, 4096, 5000]), st.integers(257, 1600))
    def test_matches_log_rate_matmul(self, seed, n, period, m, j_max):
        """Every chunk's log-joint equals r @ ln(rates)^T - sum_n rates + ln(masses)
        to 1e-12 of its largest entry, for amplitudes 0.01-100, any period,
        centers over two periods and widths down to 0.05 T / pi (concentration
        100)."""
        chunk = max(256, (1 << 20) // m)
        assume(j_max % chunk)
        rng = np.random.default_rng(seed)
        amplitudes = 10.0 ** rng.uniform(-2.0, 2.0, n)
        widths = rng.uniform(0.05, 1.0, n) * period / math.pi
        widths[0] = 0.05 * period / math.pi
        centers = rng.uniform(-period, period, n)
        pop = PoissonPopulation(amplitudes, widths, period, centers)
        prior = GridPrior.von_mises(period, period / 4, m)
        rates = pop.rate_matrix(prior.nodes)
        blocks, real_core = [], mc._log_lik_core

        def spy(responses, terms, out):
            core = real_core(responses, terms, out)
            blocks.append((responses.copy(), core.copy()))  # ``out`` is reused
            return core

        with mock.patch.object(mc, "_log_lik_core", spy):
            mc_mutual_information(pop, prior, MCConfig(j_max=j_max, m=m, seed=seed))
        assert [len(r) for r, _ in blocks] == [min(chunk, j_max - lo)
                                               for lo in range(0, j_max, chunk)]
        for responses, core in blocks:
            want = responses @ np.log(rates).T - np.sum(rates, axis=1) + np.log(prior.masses)
            assert np.max(np.abs(core - want)) <= 1e-12 * np.max(np.abs(want))


class TestRateValidation:
    @pytest.mark.parametrize("rate", [np.nan, 0.0, -2.0, np.inf], ids=lambda r: f"poisson-{r}")
    def test_bad_rate_names_node_and_neuron(self, rate, prior_small):
        class BadRate(PoissonPopulation):
            def rate_matrix(self, x):
                rates = super().rate_matrix(x)
                rates[7, 1] = rate
                return rates

        pop = BadRate(amplitude=20.0, width=0.5, period=math.pi, centers=[-0.5, 0.0, 0.5])
        with pytest.raises(ValueError, match=rf"node 7, neuron 1 has rate {rate!r}$"):
            mc_mutual_information(pop, prior_small, MCConfig(j_max=500, m=200))

    def test_rate_numpy_refuses_names_node_and_neuron(self, prior_small):
        """Amplitude 1e19 is past ``Generator.poisson``'s largest rate: the
        rate check names the first such cell, not numpy's "lam value too large"."""
        pop = PoissonPopulation(amplitude=1e19, width=0.5, period=math.pi, centers=[-0.5, 0.5])
        rates = pop.rate_matrix(prior_small.nodes)
        node, neuron = np.argwhere(rates > mc._RATE_LIMIT)[0]
        with pytest.raises(ValueError, match=r"^Poisson rates must be at most "
                                             r"9\.223e\+18, numpy's limit: "
                                             rf"node {node}, neuron {neuron} has rate "):
            mc_mutual_information(pop, prior_small, MCConfig(j_max=500, m=200))

    def test_rate_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        rng.poisson(mc._RATE_LIMIT)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(mc._RATE_LIMIT, np.inf))


def high_rng(seed):
    """The estimator's fourth stream at ``seed``, which draws the cells above 100."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3])


def sampler_draws(rates, counts, seed, chunk=4096):
    """Every response ``mc._poisson_responses`` yields, stacked: uniforms from
    ``default_rng(seed)``, the counts above 100 from ``high_rng(seed)``."""
    return np.concatenate([block.copy() for block in mc._poisson_responses(
        np.asarray(rates, dtype=float), np.asarray(counts), np.random.default_rng(seed),
        high_rng(seed), chunk)])


def oracle_draws(rates, counts, seed):
    """scipy's quantile at each uniform for rates up to 100, and for rates
    above it numpy's sampler, in sample-major order over those cells."""
    lam = np.repeat(rates, counts, axis=0)
    want = poisson.ppf(np.random.default_rng(seed).random(lam.shape), lam)
    routed = lam > 100.0
    want[routed] = high_rng(seed).poisson(lam[routed])
    return want


class TestInverseCDFSampler:
    RATES = [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 1e4]

    def test_chi_square_against_scipy_poisson(self):
        """200,000 draws per rate, binned so every bin expects at least 5
        counts under scipy's pmf; each p-value is above 1e-4."""
        draws = 200_000
        responses = sampler_draws([self.RATES], [draws], seed=2024)
        for lam, column in zip(self.RATES, responses.T):
            # Bin upper ends: each bin, and the tail above the last, expects >= 5.
            edges, k = [], int(poisson.ppf(1e-12, lam))
            while draws * poisson.sf(k, lam) >= 5.0:
                below = poisson.cdf(edges[-1], lam) if edges else 0.0
                if draws * (poisson.cdf(k, lam) - below) >= 5.0:
                    edges.append(k)
                k += 1
            edges = np.array(edges)
            observed = np.bincount(np.searchsorted(edges, column), minlength=len(edges) + 1)
            cdf = poisson.cdf(edges, lam)
            expected = draws * np.diff(np.concatenate([[0.0], cdf, [1.0]]))
            assert expected.min() >= 5.0 and len(edges) >= 1
            stat = float(np.sum((observed - expected) ** 2 / expected))
            assert chi2.sf(stat, len(edges)) > 1e-4, (lam, stat, len(edges))

    def test_matches_scipy_ppf_on_the_same_uniforms(self):
        """Sample-major uniforms, node by node: two nodes, one of them empty.
        Every table cell is scipy's quantile at its uniform; the 1e4 cells
        are numpy's sampler on the fourth stream."""
        rates = np.array([self.RATES, [3.0] * len(self.RATES), self.RATES[::-1]])
        responses = sampler_draws(rates, [30_000, 0, 20_000], seed=5, chunk=7_000)
        assert responses.tobytes() == oracle_draws(rates, [30_000, 0, 20_000], seed=5).tobytes()

    def test_rate_1e6_in_bounded_memory(self):
        """256 cells at rate 1e6 would need about 100 MB of inverse-CDF tables;
        numpy's sampler draws them under 16 MB."""
        rates = np.full((1, 256), 1e6)
        tracemalloc.start()
        try:
            responses = sampler_draws(rates, [40], seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert responses.tobytes() == oracle_draws(rates, [40], seed=9).tobytes()

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 1 << 17), st.integers(0, 9),
           st.sampled_from([1, 64, 4096]), st.sampled_from([257, 1000, 4096]))
    def test_block_sizes_move_no_bit(self, seed, sub_draws, table_shift, guide, chunk):
        """Responses are bit-identical when the lookup sub-block, the table
        budget (from one node per group to all of them), the least guide size
        and the chunk change: batched against looped.  About one cell in five
        is above 100, so numpy's draws cross chunk and group boundaries."""
        rng = np.random.default_rng(seed)
        rates = 10.0 ** rng.uniform(-3.0, 2.0, size=(12, 7))
        rates[rng.random(rates.shape) < 0.2] *= 1e3
        counts = rng.multinomial(3_000, np.full(12, 1 / 12))
        counts[rng.integers(12)] = 0
        want = sampler_draws(rates, counts, seed, chunk=1_000)
        longest = int(mc._windows(rates[rates <= 100.0])[1].max())
        with mock.patch.multiple(mc, _SUB_DRAWS=sub_draws, _GUIDE=guide,
                                 _TABLE_VALUES=longest << table_shift):
            got = sampler_draws(rates, counts, seed, chunk=chunk)
        assert got.tobytes() == want.tobytes()

    def test_estimator_is_block_size_free(self, prior_small):
        cfg = MCConfig(j_max=6_000, m=200, seed=4)
        want = mc_mutual_information(ring_population(9), prior_small, cfg)
        with mock.patch.multiple(mc, _SUB_DRAWS=50, _TABLE_VALUES=100):
            assert mc_mutual_information(ring_population(9), prior_small, cfg) == want

"""Monte Carlo reference estimator of mutual information with bootstrap error.

The estimator draws stimulus/response pairs, evaluates the log-ratio
``ln p(r_j | x_j) - ln p(r_j)`` per pair, and averages:

* stimuli are drawn from the prior's M-point grid masses, so the response
  marginal ``p(r_j) = sum_m p(r_j | x_m) p(x_m)`` shares the numerator's
  support exactly (log-sum-exp over the grid);
* the bootstrap resamples the per-pair terms with replacement (a
  j_max x i_max index matrix) to give a standard deviation for the mean.

Likelihood evaluation is chunked into response-by-grid blocks so the full
j_max x M log-likelihood matrix is never materialized; additive terms that
cancel between numerator and marginal (the Poisson ``ln r!`` sum, the
Gaussian ``|r|^2`` term and normalization constant) are dropped before the
subtraction, which leaves every intermediate well-scaled.

Von Mises tuning makes the Poisson log-rates rank 3 in (neuron, stimulus):
``ln f_n(x) = (ln A_n - k_n) + k_n cos(w c_n) cos(w x) + k_n sin(w c_n) sin(w x)``
for amplitude ``A_n``, concentration ``k_n``, center ``c_n`` and
``w = 2 pi / T``.  So ``sum_n r_n ln f_n(x)`` is ``(r @ U) @ V`` with
``U`` (N x 3) and ``V`` (3 x M) built from the population's stacked tuning,
and a block costs O(chunk (N + M)) instead of O(chunk N M).  The constant
row of ``V`` keeps the core equal to ``sum_n r_n ln f_n(x) - f_n(x)``.

One (chunk, M) buffer serves every chunk: the likelihood matmul writes
into it, and :func:`logsumexp` reduces it in place.  That kernel is the
accurate log-sum-exp of Blanchard, Higham and Higham ("Accurately
computing the log-sum-exp and softmax functions", IMA J. Numer. Anal.
2021), the form ``scipy.special.logsumexp`` uses: the row maxima are
taken out of the sum, which then enters through ``log1p``.  It performs
scipy's floating-point operations in scipy's order, so its results match
``scipy.special.logsumexp(core + log_masses, axis=1)`` bit for bit on
every row whose result is finite, without scipy's full-size temporaries.
The buffer holds a fixed budget of 2^20 values (8 MB), so the passes
over it stay cache-sized; the budget is a constant, not read from the
machine, because the matmul's last bits depend on the row count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

from .fisher import GridPrior
from .models import _count

__all__ = ["MCConfig", "MCResult", "mc_mutual_information"]


@dataclass(frozen=True)
class MCConfig:
    """Sample counts, grid size, and seed for one estimator run."""

    j_max: int
    i_max: int
    m: int
    seed: int = 0

    def __post_init__(self):
        _count("j_max", self.j_max)
        _count("i_max", self.i_max)
        _count("grid size m", self.m, 2)


@dataclass(frozen=True)
class MCResult:
    """Point estimate ``i_mc_star`` and the bootstrap mean ``i_mc`` and
    standard deviation ``i_std`` of the per-pair log-ratio mean, in nats."""

    i_mc_star: float
    i_mc: float
    i_std: float


#: Values in the (chunk, M) likelihood buffer: 8 MB.  At M = 500, 4 and 8 MB
#: buffers ran alike and 32 MB about 20 % slower (2-core VM, BLAS 1 thread).
_CHUNK_VALUES = 1 << 20

#: Below this argument ``np.exp`` returns exactly +0.0 (e^-745.2 is under half
#: the smallest subnormal, 4.9e-324).
_EXP_ZERO = -745.2


def logsumexp(buf: np.ndarray, log_masses: np.ndarray) -> np.ndarray:
    """Row-wise ``ln sum_m exp(buf[j, m] + log_masses[m])``, overwriting ``buf``.

    Ties for a row's maximum are all taken out of the sum and counted, as
    scipy does; zero-mass nodes (``-inf`` log-masses) add nothing.  Rows
    whose maximum is not finite come back non-finite, without a warning.
    Shifted entries whose exponential underflows to 0 are written as 0
    instead of exponentiated, so the sums see the same +0.0 in the same
    places and keep scipy's bits.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        buf += log_masses
        a_max = buf.max(axis=1)
        ismax = buf == a_max[:, None]
        count = ismax.sum(axis=1).astype(float)
        buf -= a_max[:, None]
        dead = ismax
        if buf.min() < _EXP_ZERO:
            # exp is exactly +0.0 there; skipping those entries keeps numpy's
            # vector exp off its slow path for underflowing arguments.
            dead = ismax | (buf < _EXP_ZERO)
            np.exp(buf, out=buf, where=~dead)
        else:
            np.exp(buf, out=buf)
        buf[dead] = 0.0
        s = buf.sum(axis=1)
        s = np.where(s == 0, s, s / count)
        return np.log1p(s) + np.log(count) + a_max


def _loglik_terms(model, rates: np.ndarray, xs: np.ndarray):
    """Grid-only factors of the x-dependent part of ln p(r | x).

    Returns ``(factors, offset)`` such that the core terms of a block of
    responses are ``responses @ f_1 @ ... @ f_k - offset`` over
    ``factors = (f_1, ..., f_k)``.  Terms constant in x are omitted; they
    cancel in the estimator's log-ratio.
    """
    if model.response_kind == "poisson":
        # sum_n [r_n ln f_n(x) - f_n(x)]; the -ln r_n! sum is x-free.  Von Mises
        # tuning makes ln f_n(x) = (ln A_n - k_n) + k_n cos(w c_n) cos(w x)
        # + k_n sin(w c_n) sin(w x): rank 3, so r ln f = (r @ U) @ V.
        amp, conc, centers, period = model._bank
        omega = 2.0 * np.pi / period
        u = np.column_stack([np.log(amp) - conc, conc * np.cos(omega * centers),
                             conc * np.sin(omega * centers)])
        v = np.stack([np.ones(len(xs)), np.cos(omega * xs), np.sin(omega * xs)])
        return (u, v), np.sum(rates, axis=1)
    # Unit Gaussian noise: -(|r|^2 - 2 r.f(x) + |f(x)|^2) / 2 up to x-free terms.
    return (rates.T,), 0.5 * np.sum(rates**2, axis=1)


def _log_lik_core(responses: np.ndarray, terms, out: np.ndarray) -> np.ndarray:
    """Core log-likelihood terms of a block of responses, written into ``out``.

    Shape (chunk, M): row j holds the core terms for response j against
    every grid stimulus; ``terms`` comes from :func:`_loglik_terms`.
    """
    (*head, last), offset = terms
    for factor in head:
        responses = responses @ factor
    np.matmul(responses, last, out=out)
    out -= offset
    return out


def _sample_responses_block(model, rates_block: np.ndarray, rng: Generator) -> np.ndarray:
    if model.response_kind == "poisson":
        return rng.poisson(rates_block).astype(float)
    return rates_block + rng.standard_normal(rates_block.shape)


def mc_mutual_information(model, prior: GridPrior, cfg: MCConfig) -> MCResult:
    """Estimate I(X; R) in nats for a population model and a grid prior.

    The prior must be tabulated on exactly ``cfg.m`` nodes — stimulus
    draws, the marginal mixture, and any companion quadrature then share
    one discretization.  Three independent RNG streams (stimulus indices,
    response noise, bootstrap indices) are spawned from ``cfg.seed``, so
    results are reproducible bit-for-bit for a given configuration.
    """
    if prior.m != cfg.m:
        raise ValueError(f"prior has {prior.m} nodes but config expects m = {cfg.m}")
    rates = np.asarray(model.rate_matrix(prior.nodes), dtype=float)
    poisson = model.response_kind == "poisson"
    ok = np.isfinite(rates) & (rates > 0) if poisson else np.isfinite(rates)
    if not np.all(ok):
        node, neuron = np.argwhere(~ok)[0]
        need = "positive and finite" if poisson else "finite"
        raise ValueError(f"{'Poisson' if poisson else 'Gaussian-noise'} rates must be {need}: "
                         f"node {node}, neuron {neuron} has rate {float(rates[node, neuron])!r}")

    stim_rng, resp_rng, boot_rng = (
        default_rng(s) for s in SeedSequence(cfg.seed).spawn(3)
    )
    log_masses = np.log(prior.masses)
    stim_idx = stim_rng.choice(cfg.m, size=cfg.j_max, p=prior.masses)

    chunk = max(256, _CHUNK_VALUES // cfg.m)
    loglik = _loglik_terms(model, rates, prior.nodes)
    buf = np.empty((min(chunk, cfg.j_max), cfg.m))
    terms = np.empty(cfg.j_max)
    for lo in range(0, cfg.j_max, chunk):
        hi = min(lo + chunk, cfg.j_max)
        idx = stim_idx[lo:hi]
        responses = _sample_responses_block(model, rates[idx], resp_rng)
        core = _log_lik_core(responses, loglik, buf[: hi - lo])
        numerator = core[np.arange(hi - lo), idx]
        terms[lo:hi] = numerator - logsumexp(core, log_masses)
        if not np.all(np.isfinite(terms[lo:hi])):
            bad = lo + int(np.argmin(np.isfinite(terms[lo:hi])))
            raise ValueError(f"non-finite log-likelihood ratio at sample {bad}")

    i_mc_star = float(np.mean(terms))

    replicates = np.empty(cfg.i_max)
    for i in range(cfg.i_max):
        resample = boot_rng.integers(0, cfg.j_max, size=cfg.j_max)
        replicates[i] = np.mean(terms[resample])
    return MCResult(i_mc_star=i_mc_star, i_mc=float(np.mean(replicates)),
                    i_std=float(np.std(replicates)))

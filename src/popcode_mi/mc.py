"""Monte Carlo reference estimator of mutual information with its standard error.

The estimator takes a population of conditionally independent Poisson
neurons with von Mises tuning (the paper's Fig. 1 populations) on a grid
prior.  It draws stimulus/response pairs, evaluates the log-ratio
``ln p(r_j | x_j) - ln p(r_j)`` per pair, and averages:

* stimuli are drawn from the prior's M-point grid masses, so the response
  marginal ``p(r_j) = sum_m p(r_j | x_m) p(x_m)`` shares the numerator's
  support exactly (log-sum-exp over the grid);
* the error bar is the standard error of the mean, ``std(terms) /
  sqrt(j_max)`` (ddof 0).  A bootstrap that resamples the per-pair terms
  with replacement tends to it, and its mean to the mean of the terms, as
  its resample count grows: this is the paper's bootstrap bar in closed form.

The j_max stimuli come as node counts, ``multinomial(j_max, masses)``, laid
out node by node: the law of the counts of j_max independent draws, and an
order neither the mean nor the standard deviation sees.  Each response count
is the exact inverse CDF of its Poisson rate at one uniform, drawn in
sample-major order (Devroye, *Non-Uniform Random Variate Generation*, 1986,
section III.2).  Only M x N rates exist, so each (node, neuron) cell gets a
CDF table over a window of O(sqrt(rate)) counts around its rate that leaves
out under 2^-60 of the mass, plus a guide table (Chen and Asau, 1974) that
points each uniform's bucket at its first candidate count; a short walk up
the CDF ends the search.  A table costs O(sqrt(rate)) values against about
j_max / M draws, so it pays off at low rates only.  A cell above
``_TABLE_RATE`` (100) still uses up its uniform, but its count comes from
``Generator.poisson`` on a stream of its own, in sample-major order over such
cells; its PTRS transformed rejection (Hörmann, *Insurance: Math. Econ.*
1993) costs about the same per draw at any rate up to numpy's limit, about
9.2e18.  Tables are built for whole nodes, a few at a time, so one build
holds at most about 201 N values (the window at rate 100), and no draw
depends on how the work is blocked.  The inverse-CDF sampler and the
multinomial counts replaced numpy's ``Generator.poisson`` and ``choice``
draws, which changed every Monte Carlo result for a given seed: a declared
seed-lineage change of fig1.

Likelihood evaluation is chunked into response-by-grid blocks so the full
j_max x M log-likelihood matrix is never materialized; the ``ln r!`` sum,
which cancels between numerator and marginal, is dropped before the
subtraction, which leaves every intermediate well-scaled.

The log-rates come as the population's rank-3 factors
(``PoissonPopulation.log_rate_factors``), so a block of responses costs
O(chunk (N + M)) instead of O(chunk N M); this module evaluates no curve.

One (chunk, M) buffer serves every chunk: the likelihood matmul writes the
log-joint ``ln p(r_j | x_m) + ln p(x_m)`` into it (the prior's log-masses
are folded into the offset once per run), and :func:`logsumexp` reduces it
in place to the marginal.  That kernel is the plain shifted form analysed by
Blanchard, Higham and Higham ("Accurately computing the log-sum-exp and
softmax functions", IMA J. Numer. Anal. 2021): the row maximum comes out,
shifted entries are clamped at -700 so ``exp`` never returns a subnormal,
and ``ln sum exp`` gets the maximum back.  It agrees with
``scipy.special.logsumexp`` to a few ulps of ``|row max| + ln M``.  The
buffer holds a fixed budget of 2^20 values (8 MB), so the passes over it
stay cache-sized; the budget is a constant, not read from the machine,
because the matmul's last bits depend on the row count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .fisher import GridPrior
from .models import PoissonPopulation, _count

__all__ = ["MCConfig", "MCResult", "mc_mutual_information"]


@dataclass(frozen=True)
class MCConfig:
    """Sample count, grid size, and seed for one estimator run."""

    j_max: int
    m: int
    seed: int = 0

    def __post_init__(self):
        _count("j_max", self.j_max)
        _count("grid size m", self.m, 2)
        _count("seed", self.seed, 0)


@dataclass(frozen=True)
class MCResult:
    """The mean ``i_mc`` of the per-pair log-ratios and its standard error
    ``i_std``, in nats."""

    i_mc: float
    i_std: float


#: Values in the (chunk, M) likelihood buffer: 8 MB.  At M = 500, 4 and 8 MB
#: buffers ran alike and 32 MB about 20 % slower (2-core VM, BLAS 1 thread).
_CHUNK_VALUES = 1 << 20

#: Shifted log-sum-exp entries are clamped here: e^-700 is about 1e-304, still
#: normal, and adds nothing to a row sum of at least 1.
_EXP_FLOOR = -700.0

#: ln 2^61: each tail a cell's CDF window leaves out holds under 2^-61 of its mass.
_TAIL = 61.0 * math.log(2.0)

#: Least buckets of a cell's guide table; tables L counts long get the largest
#: power of 2 up to L, so a bucket spans about one count at the mode.
_GUIDE = 64

#: Cells whose rate is above this draw from ``Generator.poisson``.  With tables
#: for every cell, fig1 at M 500, j_max 5e4 beat numpy's sampler at amplitude
#: 20, tied at 100 and was 2-3 times slower at 1000 (2-core VM, BLAS 1 thread).
_TABLE_RATE = 100.0

#: ``Generator.poisson`` refuses larger rates ("lam value too large").
_RATE_LIMIT = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)

#: Uniforms looked up per sampler step, and CDF values per table build (1 MB;
#: at M = 500, N = 200 on two threads, 2 MB raised peak memory from 78 to 84
#: MB).  A group holds whole nodes, so one node's table may pass the budget:
#: its window is at most 201 counts (rate 100), 1.6 MB of values at N = 1000.
_SUB_DRAWS = 1 << 16
_TABLE_VALUES = 1 << 17


def logsumexp(buf: np.ndarray) -> np.ndarray:
    """Row-wise ``ln sum_m exp(buf[j, m])``, overwriting ``buf``.

    ``-inf`` entries (zero-mass nodes) add nothing.  Rows whose maximum is
    not finite come back non-finite, without a warning.
    """
    with np.errstate(invalid="ignore"):
        a_max = buf.max(axis=1)
        buf -= a_max[:, None]
        np.maximum(buf, _EXP_FLOOR, out=buf)
        np.exp(buf, out=buf)
        return np.log(buf.sum(axis=1)) + a_max


def _log_lik_core(responses: np.ndarray, terms, out: np.ndarray) -> np.ndarray:
    """Core log-likelihood terms of a block of responses, written into ``out``.

    ``terms`` is ``((u, v), offset)``, with ``(u, v)`` the population's
    :meth:`~PoissonPopulation.log_rate_factors` at the M grid stimuli.  Row j
    of the (chunk, M) result holds ``(r_j @ u) @ v - offset``: with the rate
    sums ``sum_n f_n(x)`` as ``offset``, the x-dependent part ``sum_n [r_n ln
    f_n(x) - f_n(x)]`` of ln p(r_j | x).  The x-free ``-ln r_n!`` sum is
    omitted; it cancels in the estimator's log-ratio.
    """
    (u, v), offset = terms
    np.matmul(responses @ u, v, out=out)
    out -= offset
    return out


def _windows(rates: np.ndarray):
    """First count and length of each rate's CDF window.

    Poisson tails are at most ``exp(-t^2 / 2 rate)`` below ``rate - t`` and
    ``exp(-t^2 / (2 (rate + t/3)))`` above ``rate + t`` (Bernstein), so each
    window leaves out under 2^-61 of the mass on either side.
    """
    first = np.floor(np.maximum(rates - np.sqrt(2.0 * _TAIL * rates), 0.0))
    third = _TAIL / 3.0
    last = np.ceil(rates + third + np.sqrt(third * third + 2.0 * _TAIL * rates))
    return first, (last - first + 1.0).astype(np.intp)


def _tables(rates: np.ndarray, length: int):
    """Inverse-CDF tables of C Poisson cells, for :func:`_quantiles`.

    Returns ``(cdf, start, first)``.  ``cdf`` is the flat (C, L) table whose
    row c is cell c's window CDF from the pmf recurrence (running products
    of rate / k, then running sums), normalized by the window's mass: it
    reaches exactly 1 at the window's last count and stays at or above 1 in
    the padding out to ``length`` values.  ``start`` is the flat (C, G) guide
    table of Chen and Asau (1974): ``start[c, g]`` is the position in ``cdf``
    of cell c's first value not below g/G, with G a power of 2 (so ``u * G``
    is exact).  ``first`` holds each window's first count.  A cell's values
    depend only on its rate; G only moves where searches start.
    """
    first, own = _windows(rates)
    cells = rates.size
    guide = max(_GUIDE, 1 << (int(length).bit_length() - 1))
    cdf = np.empty((cells, length))
    cdf[:, 0] = 1.0
    cdf[:, 1:] = np.arange(1.0, length)
    cdf[:, 1:] += first[:, None]
    np.divide(rates[:, None], cdf[:, 1:], out=cdf[:, 1:])
    np.multiply.accumulate(cdf, axis=1, out=cdf)
    np.add.accumulate(cdf, axis=1, out=cdf)
    cdf /= cdf[np.arange(cells), own - 1][:, None]
    # Value t of cell c lies below g/G exactly when floor(G cdf) < g.
    bucket = np.empty(cdf.shape, np.intp)
    np.multiply(cdf, guide, out=bucket, casting="unsafe")
    bucket += np.arange(0, cells * (guide + 2), guide + 2)[:, None]
    below = np.bincount(bucket.ravel(), minlength=cells * (guide + 2))
    del bucket  # before the guide table is allocated: it bounds a build's peak memory
    start = np.empty((cells, guide), np.intp)
    start[:, 0] = 0
    start[:, 1:] = below.reshape(cells, guide + 2)[:, :guide - 1]
    np.add.accumulate(start, axis=1, out=start)
    start += np.arange(0, cells * length, length)[:, None]
    return cdf.ravel(), start.ravel(), first.astype(np.intp)


def _quantiles(tables, u: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """The smallest count k with CDF(k) > u, for uniforms ``u`` of cells
    ``cell``: the guide entry of u's bucket is the first candidate, and a
    short walk up the cell's CDF finishes the search."""
    cdf, start, first = tables
    guide, length = start.size // first.size, cdf.size // first.size
    pos = np.empty(u.shape, np.intp)
    np.multiply(u, guide, out=pos, casting="unsafe")
    pos += cell * guide
    pos = start[pos]
    walk = np.flatnonzero(cdf[pos] <= u)
    while walk.size:
        pos[walk] += 1
        walk = walk[cdf[pos[walk]] <= u[walk]]
    pos -= cell * length
    if first.any():
        pos += first[cell]
    return pos


def _poisson_responses(rates: np.ndarray, counts: np.ndarray, rng, high_rng, chunk: int):
    """Poisson responses of node-sorted samples, yielded ``chunk`` rows at a time.

    ``counts[m]`` samples sit at node m, in node order.  Sample j's response
    to neuron n is the inverse CDF of Poisson(``rates[m_j, n]``) at one
    ``rng.random()`` uniform, drawn in sample-major order a chunk at a time
    into the buffer that the counts then overwrite (the yielded buffer is
    reused).  Occupied nodes are taken in groups whose tables fit
    ``_TABLE_VALUES`` (at least one node each) and each group's tables are
    built once.  Lookups run ``_SUB_DRAWS`` uniforms at a time; a cell above
    ``_TABLE_RATE`` has its table built at rate 0, and its count, in
    sample-major order, comes from ``high_rng.poisson`` instead.
    """
    n = rates.shape[1]
    length = _windows(np.where(rates > _TABLE_RATE, 0.0, rates))[1].max(axis=1)
    occupied = np.flatnonzero(counts)
    left = int(counts.sum())
    out = np.empty((min(chunk, left), n))
    step, cols = max(1, _SUB_DRAWS // n), np.arange(n)

    def draw():
        block = out[:min(chunk, left)]
        rng.random(out=block)
        return len(block)

    rows, filled, i = draw(), 0, 0
    while i < len(occupied):
        size, j = length[occupied[i]], i + 1
        while j < len(occupied) and (j + 1 - i) * n * max(size, length[occupied[j]]) <= _TABLE_VALUES:
            size, j = max(size, length[occupied[j]]), j + 1
        nodes, i, tables = occupied[i:j], j, None  # drop the last group's tables first
        group_rates = rates[nodes].ravel()
        group_hot = group_rates > _TABLE_RATE
        tables = _tables(np.where(group_hot, 0.0, group_rates), size)
        local = np.repeat(np.arange(len(nodes)), counts[nodes])
        done = 0
        while done < len(local):
            seg = local[done:done + rows - filled]
            block = out[filled:filled + len(seg)].reshape(-1)  # a view: whole rows
            for a in range(0, len(seg), step):
                cell = (seg[a:a + step, None] * n + cols).ravel()
                u = block[a * n:a * n + cell.size]
                u[...] = _quantiles(tables, u, cell)
                if group_hot.any():
                    k = np.flatnonzero(group_hot[cell])
                    u[k] = high_rng.poisson(group_rates[cell[k]])
            filled, done, left = filled + len(seg), done + len(seg), left - len(seg)
            if filled == rows:
                yield out[:rows]
                if left:
                    rows, filled = draw(), 0


def mc_mutual_information(pop: PoissonPopulation, prior: GridPrior, cfg: MCConfig) -> MCResult:
    """Estimate I(X; R) in nats for a Poisson population and a grid prior.

    The prior must be tabulated on exactly ``cfg.m`` nodes — stimulus
    draws, the marginal mixture, and any companion quadrature then share
    one discretization.  Independent RNG streams for the stimulus counts,
    the response uniforms and the counts above ``_TABLE_RATE`` are spawned
    from ``cfg.seed``, so results are bit-for-bit reproducible.
    """
    if not isinstance(pop, PoissonPopulation):
        raise TypeError(f"the estimator takes a PoissonPopulation, got {type(pop).__name__}")
    if prior.m != cfg.m:
        raise ValueError(f"prior has {prior.m} nodes but config expects m = {cfg.m}")
    rates = pop.rate_matrix(prior.nodes)
    ok = (rates > 0) & (rates <= _RATE_LIMIT)
    if not np.all(ok):
        node, neuron = np.argwhere(~ok)[0]
        rate = float(rates[node, neuron])
        need = (f"at most {_RATE_LIMIT:.4g}, numpy's limit" if _RATE_LIMIT < rate < math.inf
                else "positive and finite")
        raise ValueError(f"Poisson rates must be {need}: node {node}, neuron {neuron} has rate {rate!r}")

    # Stream 2 drew the bootstrap's indices, which the closed-form bar replaced;
    # spawning 4 keeps every other stream's draws.
    streams = SeedSequence(cfg.seed).spawn(4)
    stim_rng, resp_rng, high_rng = (default_rng(streams[k]) for k in (0, 1, 3))
    log_masses = np.log(prior.masses)
    counts = stim_rng.multinomial(cfg.j_max, prior.masses)
    stim_idx = np.repeat(np.arange(cfg.m), counts)

    chunk = max(256, _CHUNK_VALUES // cfg.m)
    # ln p(r | x_m) + ln p(x_m), less ln r!
    joint = pop.log_rate_factors(prior.nodes), np.sum(rates, axis=1) - log_masses
    buf = np.empty((min(chunk, cfg.j_max), cfg.m))
    terms = np.empty(cfg.j_max)
    blocks = _poisson_responses(rates, counts, resp_rng, high_rng, chunk)
    for lo, responses in zip(range(0, cfg.j_max, chunk), blocks):
        hi = lo + len(responses)
        idx = stim_idx[lo:hi]
        core = _log_lik_core(responses, joint, buf[: hi - lo])
        numerator = core[np.arange(hi - lo), idx] - log_masses[idx]
        terms[lo:hi] = numerator - logsumexp(core)
        if not np.all(np.isfinite(terms[lo:hi])):
            bad = lo + int(np.argmin(np.isfinite(terms[lo:hi])))
            raise ValueError(f"non-finite log-likelihood ratio at sample {bad}")

    return MCResult(i_mc=float(np.mean(terms)),
                    i_std=float(np.std(terms) / math.sqrt(cfg.j_max)))

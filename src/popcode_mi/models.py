"""Encoding models: von Mises tuning curves and their populations.

The stimulus ``x`` lives on a periodic interval ``[-T/2, T/2)``.  Each
neuron's mean response is a circular-normal (von Mises) tuning curve, and
a population's responses are conditionally independent Poisson counts.
One vectorised kernel evaluates every curve's rate and derivative on a
stimulus grid; the population and the density optimizer both call it.
Response sampling and likelihoods live in :mod:`popcode_mi.mc`.

A linear-Gaussian channel and a uniformly-correlated Gaussian population
are included as analytically tractable references; the latter carries the
closed-form decorrelation transform ``Sigma^(-1/2)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._linalg import chol_logdet

__all__ = [
    "VonMisesTuning",
    "PoissonPopulation",
    "LinearGaussianModel",
    "CorrelatedGaussianPopulation",
    "decorrelation_transform",
]


def _positive(name: str, value) -> float:
    """``value`` as a float; raises unless it is positive and finite (NaN fails)."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _nonnegative(name: str, values: np.ndarray, where: str) -> None:
    """Raise naming the first entry of ``values`` that is negative or not finite."""
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
    if bad.size:
        raise ValueError(f"{name} must be finite and nonnegative, "
                         f"got {float(values[bad[0]])!r} at {where} {bad[0]}")


def _count(name: str, value, minimum: int = 1) -> None:
    """Raise unless ``value`` is an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def _finite(what: str, a: np.ndarray) -> None:
    """Raise naming the row and column of the first non-finite entry of ``a``."""
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{what} has a non-finite value {float(a[row, col])!r} "
                         f"at row {row}, column {col}")


def _concentration(period, width) -> float:
    """The von Mises concentration ``(T / (2 pi width))^2``, validated.

    Period and width must be positive and finite, and a width so small
    that the concentration leaves the float range is an error naming it.
    """
    ratio = _positive("period", period) / (2.0 * math.pi * _positive("width", width))
    if not ratio < 1e154:  # the square passes 1e308 (and overflows past 1.34e154)
        raise ValueError(f"width {float(width)!r} is too small for period {float(period)!r}: "
                         "the concentration (T / (2 pi width))^2 exceeds 1e308")
    return ratio ** 2


def _tuning_params(amplitude, width, period, centers):
    """Validated von Mises parameters: ``(amplitude, concentration, centers)``.

    Amplitude, width and period must be positive and finite, and every
    center finite.  When several centers are given, the error names the
    index of the first one at fault.
    """
    amplitude = _positive("amplitude", amplitude)
    conc = _concentration(period, width)
    centers = np.asarray(centers, dtype=float)
    flat = np.atleast_1d(centers)
    if not np.all(np.isfinite(flat)):
        idx = int(np.argmin(np.isfinite(flat)))
        where = f" at theta index {idx}" if centers.ndim else ""
        raise ValueError(f"center must be finite, got {float(flat[idx])!r}{where}")
    return amplitude, conc, centers


def _von_mises(amp, conc, centers, period, xs):
    """Rates, derivatives and Poisson slopes of von Mises curves on a grid.

    ``amp``, ``conc`` and ``centers`` hold one value per curve (or a
    scalar shared by all); each result has shape (len(xs), N).  The rate
    is ``amp exp(-conc (1 - cos phi))`` with ``phi = omega (x - center)``
    and ``omega = 2 pi / T``, the derivative ``-rate conc omega sin phi``,
    and the slope ``conc omega sin phi = -f'/f``.  Slope and derivative
    are formed separately, because ``sum rate slope^2`` and
    ``sum f'^2 / f`` differ in their last bits.
    """
    omega = 2.0 * np.pi / period
    phase = omega * (np.asarray(xs, dtype=float)[:, None] - centers)
    rates = amp * np.exp(-conc * (1.0 - np.cos(phase)))
    sin = np.sin(phase)
    return rates, -rates * conc * omega * sin, conc * omega * sin


@dataclass(frozen=True)
class VonMisesTuning:
    """Circular-normal tuning curve.

    The mean rate is ``f(x) = A exp(-(T/(2 pi sigma_f))^2 (1 - cos(2 pi (x - theta)/T)))``,
    which is T-periodic, strictly positive, and peaks with value exactly A
    at ``x = theta``.

    Parameters
    ----------
    amplitude : float
        Peak rate A (spikes per coding window), attained at the center.
    width : float
        Tuning width sigma_f, in stimulus units.
    period : float
        Stimulus period T.
    center : float
        Preferred stimulus theta.
    """

    amplitude: float
    width: float
    period: float
    center: float
    #: Exponent scale (T / (2 pi sigma_f))^2 of the tuning curve.
    concentration: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _, conc, _ = _tuning_params(self.amplitude, self.width, self.period, self.center)
        object.__setattr__(self, "concentration", conc)


@dataclass(frozen=True)
class PoissonPopulation:
    """Population of conditionally independent Poisson neurons.

    Each neuron fires a Poisson count with mean ``f(x; theta_n)`` per
    coding window; all tuning curves must share the stimulus period.
    """

    tuning: tuple
    _bank: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tuning = tuple(self.tuning)
        if not tuning:
            raise ValueError("population needs at least one neuron")
        periods = {c.period for c in tuning}
        if len(periods) != 1:
            raise ValueError(f"all tuning curves must share one period, got {sorted(periods)}")
        object.__setattr__(self, "tuning", tuning)
        object.__setattr__(self, "_bank", (
            np.array([c.amplitude for c in tuning]),
            np.array([c.concentration for c in tuning]),
            np.array([c.center for c in tuning]),
            tuning[0].period,
        ))

    @property
    def size(self) -> int:
        return len(self.tuning)

    @property
    def period(self) -> float:
        return self.tuning[0].period

    def rate_matrix(self, xs) -> np.ndarray:
        """Mean rates on a stimulus grid, shape (len(xs), N)."""
        return _von_mises(*self._bank, xs)[0]

    def fisher_values(self, xs) -> np.ndarray:
        """Scalar population Fisher information J(x) = sum_n f_n'^2 / f_n, shape (len(xs),)."""
        rates, _, slope = _von_mises(*self._bank, xs)
        return np.sum(rates * slope**2, axis=1)


@dataclass(frozen=True)
class LinearGaussianModel:
    """Linear channel r = A^T x + z with unit Gaussian noise and Gaussian prior.

    ``mixing`` is the K x N matrix A, and the prior on x is
    N(mean, cov).  The Fisher matrix is the constant J = A A^T, and the
    mutual information has the closed form implemented in
    :func:`popcode_mi.mi.exact_gaussian_mi`.
    """

    mixing: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mixing = np.atleast_2d(np.asarray(self.mixing, dtype=float))
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mixing", mixing)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        k = mixing.shape[0]
        if mean.shape != (k,) or cov.shape != (k, k):
            raise ValueError(
                f"shape mismatch: mixing {mixing.shape}, mean {mean.shape}, cov {cov.shape}"
            )
        _finite("mixing matrix", mixing)
        if chol_logdet(cov) == -math.inf:
            raise ValueError("prior covariance must be symmetric positive-definite")

    def fisher(self) -> np.ndarray:
        """The constant Fisher matrix J = A A^T."""
        return self.mixing @ self.mixing.T


@dataclass(frozen=True)
class CorrelatedGaussianPopulation:
    """Gaussian population with uniform pairwise noise correlation.

    The noise covariance is ``Sigma = a ((1 - c) I_N + c u u^T)`` with
    ``u = (1, ..., 1)^T``: every pair of neurons shares the same
    correlation coefficient c.  Positive-definiteness requires
    ``c > -1/(N-1)``.

    Parameters
    ----------
    scale : float
        Common response variance a > 0.
    correlation : float
        Pairwise correlation coefficient, -1 < c < 1.
    """

    scale: float
    correlation: float

    def __post_init__(self):
        _positive("scale", self.scale)
        if not -1.0 < self.correlation < 1.0:
            raise ValueError(f"correlation must lie in (-1, 1), got {self.correlation}")

    def covariance(self, n: int) -> np.ndarray:
        """The N x N noise covariance for a population of size n."""
        a, c = self.scale, self.correlation
        return a * ((1.0 - c) * np.eye(n) + c * np.ones((n, n)))


def decorrelation_transform(pop: CorrelatedGaussianPopulation, n: int) -> np.ndarray:
    """Closed-form inverse square root of the uniform-correlation covariance.

    Returns ``M = b0 (I_N - b1 u u^T)`` with ``b0 = 1/sqrt(a (1 - c))`` and
    ``b1 = (1/N)(1 - sqrt((1 - c) / ((N - 1) c + 1)))`` so that
    ``M Sigma M^T = I_N``.  The minus branch of the square root is chosen so
    b1 -> 0 as c -> 0, continuous with the uncorrelated case.
    """
    _count("population size", n)
    a, c = pop.scale, pop.correlation
    if n >= 2 and c <= -1.0 / (n - 1):
        raise ValueError(
            f"covariance is singular or indefinite: c = {c} <= -1/(N-1) = {-1.0 / (n - 1)}"
        )
    b0 = 1.0 / np.sqrt(a * (1.0 - c))
    b1 = (1.0 - np.sqrt((1.0 - c) / ((n - 1) * c + 1.0))) / n
    return b0 * (np.eye(n) - b1 * np.ones((n, n)))


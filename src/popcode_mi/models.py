"""Encoding models: Poisson populations of von Mises tuning curves.

The stimulus ``x`` lives on a periodic interval ``[-T/2, T/2)``.  Each
neuron's mean response is a circular-normal (von Mises) tuning curve, and
a population's responses are conditionally independent Poisson counts.
:class:`PoissonPopulation` holds the tuning as arrays and is the one place
that knows the curve; fig1's ring of neurons and the density optimizer's
candidate classes are both such populations.
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


def _concentration(period, width, where: str = "") -> float:
    """The von Mises concentration ``(T / (2 pi width))^2``, validated.

    Period and width must be positive and finite, and a width so small that
    the concentration leaves the float range is an error naming it and ``where``.
    """
    ratio = _positive("period", period) / (2.0 * math.pi * _positive("width", width))
    if not ratio < 1e154:  # the square passes 1e308 (and overflows past 1.34e154)
        raise ValueError(f"width {float(width)!r}{where} is too small for period {float(period)!r}: "
                         "the concentration (T / (2 pi width))^2 exceeds 1e308")
    return ratio ** 2


def _at(index, n: int, where: str = "neuron") -> str:
    """An error's suffix naming entry ``index``, or nothing when ``n`` is 1."""
    return f" at {where} {index}" if n > 1 else ""


def _per_neuron(name: str, value, n: int) -> np.ndarray:
    """``value``, one for all ``n`` neurons or one each, as ``n`` positive finite floats."""
    values = np.asarray(value, dtype=float)
    if values.ndim and values.shape != (n,):
        raise ValueError(f"{name} must be one value or one per center, got shape {values.shape}")
    bad = np.flatnonzero(~((values > 0.0) & (values < math.inf)))
    if bad.size:
        raise ValueError(f"{name} must be positive and finite, "
                         f"got {float(values.flat[bad[0]])!r}{_at(bad[0], values.size)}")
    return np.full(n, values)


@dataclass(frozen=True, eq=False)
class PoissonPopulation:
    """Conditionally independent Poisson neurons with von Mises tuning.

    Neuron n fires a Poisson count with mean
    ``f_n(x) = A_n exp(-kappa_n (1 - cos(2 pi (x - theta_n) / T)))`` per coding
    window, with ``kappa_n = (T / (2 pi sigma_n))^2``: T-periodic, positive,
    and peaking at exactly ``A_n`` at ``x = theta_n``.  The peak rates
    ``amplitude`` and the widths ``width`` (sigma, in stimulus units) take one
    value for all neurons or one per center, and are stored one per neuron;
    the ``period`` T is shared, and ``centers`` (theta) is a nonempty 1-D
    array.  Among several neurons, an error names the first one at fault.
    """

    amplitude: np.ndarray
    width: np.ndarray
    period: float
    centers: np.ndarray
    #: Exponent scales (T / (2 pi sigma_n))^2, one per neuron.
    concentration: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        centers = np.array(self.centers, dtype=float)
        if centers.ndim != 1 or centers.size == 0:
            raise ValueError(f"thetas must be a nonempty 1-D array of centers, got shape {centers.shape}")
        n = centers.size
        amplitude = _per_neuron("amplitude", self.amplitude, n)
        period = _positive("period", self.period)
        width = _per_neuron("width", self.width, n)
        if np.ndim(self.width):
            conc = np.array([_concentration(period, w, _at(i, n)) for i, w in enumerate(width)])
        else:  # one width, one concentration
            conc = np.full(n, _concentration(period, width[0]))
        if not np.all(np.isfinite(centers)):
            idx = int(np.argmin(np.isfinite(centers)))
            raise ValueError(f"center must be finite, got {float(centers[idx])!r}"
                             f"{_at(idx, n, 'theta index')}")
        for name, value in (("amplitude", amplitude), ("width", width), ("period", period),
                            ("centers", centers), ("concentration", conc)):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return self.centers.size

    def tuning_values(self, xs):
        """Rates f, derivatives f' and Poisson slopes -f'/f on a stimulus grid, each (len(xs), N).

        ``f' = -f kappa omega sin(omega (x - theta))`` with ``omega = 2 pi / T``; slope and
        derivative are formed apart, as ``sum f slope^2`` and ``sum f'^2 / f`` differ in last bits.
        """
        omega = 2.0 * np.pi / self.period
        phase = omega * (np.asarray(xs, dtype=float)[:, None] - self.centers)
        rates = self.amplitude * np.exp(-self.concentration * (1.0 - np.cos(phase)))
        sin = np.sin(phase)
        return rates, -rates * self.concentration * omega * sin, self.concentration * omega * sin

    def rate_matrix(self, xs) -> np.ndarray:
        """Mean rates on a stimulus grid, shape (len(xs), N)."""
        return self.tuning_values(xs)[0]

    def fisher_values(self, xs) -> np.ndarray:
        """Scalar population Fisher information J(x) = sum_n f_n'^2 / f_n, shape (len(xs),)."""
        rates, _, slope = self.tuning_values(xs)
        return np.sum(rates * slope**2, axis=1)

    def log_rate_factors(self, xs):
        """Rank-3 factors ``(u, v)`` of the log-rates: ``(u @ v)[n, m] = ln f_n(x_m)``.

        With ``w = 2 pi / T``, von Mises log-rates are rank 3 in (neuron, stimulus):
        ``ln f_n(x) = (ln A_n - k_n) + k_n cos(w c_n) cos(w x) + k_n sin(w c_n) sin(w x)``
        for concentration ``k_n`` and center ``c_n``.  So ``u`` (N x 3) and ``v``
        (3 x len(xs)) give ``sum_n r_n ln f_n(x)`` as ``(r @ u) @ v``, at
        O(N + M) per response instead of O(N M).
        """
        omega, conc, centers = 2.0 * np.pi / self.period, self.concentration, self.centers
        wx = omega * np.asarray(xs, dtype=float)
        u = np.column_stack([np.log(self.amplitude) - conc, conc * np.cos(omega * centers),
                             conc * np.sin(omega * centers)])
        return u, np.stack([np.ones(len(wx)), np.cos(wx), np.sin(wx)])


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


"""Stimulus priors and the prior terms of the information formulas.

Two prior families are supported, both in closed form: a multivariate
Gaussian, and a 1-D von Mises density (flat at zero concentration) on a
uniform grid over the periodic interval ``[-T/2, T/2)``.  Both expose the
quantities the approximation formulas consume: the entropy H(X), the
log-density curvature ``P(x) = -d^2 ln p / dx dx^T``, and the prior-averaged
score outer product ``P_plus = <(d ln p/dx)(d ln p/dx)^T>``.
:mod:`popcode_mi.mi` adds them to the Fisher information J(x).

The von Mises normalizer's Bessel function I_0 is numpy's ``np.i0``, the
same Cephes series as ``scipy.special.i0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import chol_logdet
from .models import _concentration, _count, _positive

__all__ = ["GaussianPrior", "GridPrior"]

#: ln(2 pi e), the per-dimension constant of a Gaussian's entropy and of
#: every log-det formula.
LOG_2PI_E = math.log(2.0 * math.pi) + 1.0

@dataclass(frozen=True)
class GaussianPrior:
    """Multivariate normal stimulus prior N(mean, cov).

    The curvature of the log-density is constant, P(x) = cov^{-1}, and
    coincides with the averaged score outer product P_plus.  ``cov`` must
    pass :mod:`popcode_mi._linalg`'s pivot rule (NaN and inf fail it).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"shape mismatch: mean {mean.shape}, cov {cov.shape}")
        if chol_logdet(cov) == -math.inf:
            raise ValueError("prior covariance must be symmetric positive-definite")

    @property
    def k(self) -> int:
        return self.mean.size

    def precision(self) -> np.ndarray:
        """Inverse covariance, the constant log-density curvature P(x)."""
        return np.linalg.inv(self.cov)

    def entropy(self) -> float:
        """Differential entropy, (1/2) ln det(2 pi e cov)."""
        return 0.5 * (self.k * LOG_2PI_E + chol_logdet(self.cov))

    def p_plus(self) -> np.ndarray:
        """P_plus = cov^{-1} (score covariance of a Gaussian)."""
        return self.precision()


@dataclass(frozen=True)
class GridPrior:
    """Von Mises prior ``exp(-kappa (1 - cos(2 pi x / T))) / Z`` on ``m`` uniform
    nodes ``x_m = -T/2 + m T/M``; ``concentration`` kappa = 0 is the flat prior.

    Averages use the rectangle rule, spectrally accurate for smooth periodic
    integrands.  ``Z = T e^{-kappa} I_0(kappa)`` (``np.i0``) overflows past
    kappa = 709.78, an ``OverflowError``; a grid too coarse for the density to
    integrate to 1 within 1e-8 is a ``ValueError`` naming ``m``.
    """

    period: float
    concentration: float
    m: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    log_pdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        period = _positive("period", self.period)
        _count("grid size m", self.m, 2)
        kappa = float(self.concentration)
        if not 0.0 <= kappa < math.inf:
            raise ValueError(f"concentration must be nonnegative and finite, got {kappa!r}")
        with np.errstate(over="ignore"):
            i0 = float(np.i0(kappa))
        if not math.isfinite(i0):
            raise OverflowError(f"the prior's normalizer I_0(kappa) overflows at kappa = {kappa!r}")
        log_z = math.log(period) - kappa + math.log(i0)
        nodes = -period / 2.0 + period / self.m * np.arange(self.m)
        log_pdf = -kappa * (1.0 - np.cos(2.0 * math.pi / period * nodes)) - log_z
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "log_pdf", log_pdf)
        total = float(np.sum(np.exp(log_pdf)) * self.spacing)
        if not abs(total - 1.0) <= 1e-8:
            raise ValueError(f"m = {self.m} nodes do not resolve the prior of concentration "
                             f"{kappa!r} (period {period!r}): quadrature {total!r}")

    @classmethod
    def von_mises(cls, period: float = math.pi, width: float = math.pi / 4,
                  m: int = 1000) -> "GridPrior":
        """Circular-normal prior of the given width, ``kappa = (T / (2 pi width))^2``.

        A bad or too small width or period is an error naming it, as for the
        tuning curves, and so is a width below about T / 167 (I_0 overflows).
        """
        kappa = _concentration(period, width)
        try:
            return cls(period, kappa, m)
        except OverflowError as exc:
            raise ValueError(f"width {float(width)!r} is too small for period "
                             f"{float(period)!r}: {exc}") from None

    @classmethod
    def uniform(cls, period: float, m: int = 1000) -> "GridPrior":
        """Flat prior on [-T/2, T/2); zero curvature and score."""
        return cls(period, 0.0, m)

    @property
    def spacing(self) -> float:
        return self.period / self.m

    @property
    def masses(self) -> np.ndarray:
        """Per-node probability masses, normalized to sum exactly to 1."""
        raw = np.exp(self.log_pdf) * self.spacing
        return raw / np.sum(raw)

    def average(self, values: np.ndarray) -> float:
        """Prior average <h(x)> of per-node values by the rectangle rule."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.nodes.shape:
            raise ValueError(f"expected {self.nodes.shape} per-node values, got {values.shape}")
        return float(np.dot(self.masses, values))

    def entropy(self) -> float:
        """H(X) = -<ln p(x)> by quadrature."""
        return -self.average(self.log_pdf)

    def curvature_values(self) -> np.ndarray:
        """P(x_m) = -d^2 ln p / dx^2 = kappa omega^2 cos(omega x_m) at every node, shape (M,)."""
        omega = 2.0 * math.pi / self.period
        return self.concentration * omega**2 * np.cos(omega * self.nodes)

    def _score(self) -> np.ndarray:
        """d ln p / dx = -kappa omega sin(omega x_m) at every node, shape (M,)."""
        omega = 2.0 * math.pi / self.period
        return -self.concentration * omega * np.sin(omega * self.nodes)

    def p_plus(self) -> float:
        """P_plus = <(d ln p/dx)^2> by quadrature over the grid."""
        integrand = self._score()**2
        if not np.all(np.isfinite(integrand)):
            raise ValueError("score quadrature diverged: non-finite d ln p/dx on the grid")
        return self.average(integrand)

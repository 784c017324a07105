"""Stimulus priors and the prior terms of the information formulas.

Two prior families are supported: an analytic multivariate Gaussian and a
grid-tabulated 1-D density on a periodic interval ``[-T/2, T/2)``.  Both
expose the quantities the approximation formulas consume: the entropy
H(X), the log-density curvature ``P(x) = -d^2 ln p / dx dx^T``, and the
prior-averaged score outer product ``P_plus = <(d ln p/dx)(d ln p/dx)^T>``.
:mod:`popcode_mi.mi` adds them to the Fisher information J(x).

The von Mises normalizer's Bessel function I_0 is numpy's ``np.i0``, the
same Cephes series as ``scipy.special.i0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        sign, logdet = np.linalg.slogdet(self.cov)
        return 0.5 * (self.k * LOG_2PI_E + logdet)

    def p_plus(self) -> np.ndarray:
        """P_plus = cov^{-1} (score covariance of a Gaussian)."""
        return self.precision()


def _central_diff4(values: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order central first derivative on a periodic grid."""
    vp1, vm1 = np.roll(values, -1), np.roll(values, 1)
    vp2, vm2 = np.roll(values, -2), np.roll(values, 2)
    return (-vp2 + 8.0 * vp1 - 8.0 * vm1 + vm2) / (12.0 * dx)


def _central_diff4_second(values: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order central second derivative on a periodic grid."""
    vp1, vm1 = np.roll(values, -1), np.roll(values, 1)
    vp2, vm2 = np.roll(values, -2), np.roll(values, 2)
    return (-vp2 + 16.0 * vp1 - 30.0 * values + 16.0 * vm1 - vm2) / (12.0 * dx**2)


@dataclass(frozen=True)
class GridPrior:
    """1-D stimulus prior tabulated on a uniform periodic grid.

    Nodes are ``x_m = -T/2 + m T/M`` for ``m = 0..M-1``; averages over the
    prior use the rectangle rule, which is spectrally accurate for smooth
    periodic integrands.  The log-density and its first two derivatives
    are stored per node, and every prior term is evaluated at the nodes.

    Parameters
    ----------
    nodes : ndarray, shape (M,)
        Uniform grid on [-T/2, T/2).
    log_pdf, log_pdf_d1, log_pdf_d2 : ndarray, shape (M,)
        ln p and its first and second derivatives at the nodes.
    period : float
        Support length T.
    """

    nodes: np.ndarray
    log_pdf: np.ndarray
    log_pdf_d1: np.ndarray
    log_pdf_d2: np.ndarray
    period: float

    def __post_init__(self):
        for name in ("nodes", "log_pdf", "log_pdf_d1", "log_pdf_d2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        _positive("period", self.period)
        m = self.nodes.size
        if m < 2:
            raise ValueError(f"grid prior needs at least 2 nodes, got {m}")
        shapes = {arr.shape for arr in (self.nodes, self.log_pdf, self.log_pdf_d1, self.log_pdf_d2)}
        if shapes != {(m,)}:
            raise ValueError(f"node and log-density arrays must share shape ({m},), got {shapes}")
        total = float(np.sum(np.exp(self.log_pdf)) * self.spacing)
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"prior density quadrature is {total!r}, expected 1 within 1e-8")
        # Stored derivatives must track the tabulated log-density.
        fd1 = _central_diff4(self.log_pdf, self.spacing)
        fd2 = _central_diff4_second(self.log_pdf, self.spacing)
        if not np.allclose(fd1, self.log_pdf_d1, rtol=1e-4, atol=1e-4):
            raise ValueError("first log-density derivative inconsistent with tabulated values")
        if not np.allclose(fd2, self.log_pdf_d2, rtol=1e-4, atol=1e-4):
            raise ValueError("second log-density derivative inconsistent with tabulated values")

    @classmethod
    def von_mises(cls, period: float = math.pi, width: float = math.pi / 4,
                  m: int = 1000) -> "GridPrior":
        """Circular-normal prior exp(-kappa (1 - cos(2 pi x / T))) / Z.

        ``kappa = (T / (2 pi width))^2``, checked as the tuning curves'
        concentration is: a bad or too small width or period is an error
        naming it, as is a grid size ``m`` that is not an integer of at
        least 2.  The normalizer has the closed form
        ``Z = T e^{-kappa} I_0(kappa)`` with I_0 the modified Bessel
        function (``np.i0``), so no numeric normalization step is involved.
        Past kappa = 709.78 (widths below about T / 167) I_0 overflows, and
        that too is an error naming the width and period.
        """
        _count("grid size m", m, 2)
        kappa = _concentration(period, width)
        omega = 2.0 * math.pi / period
        with np.errstate(over="ignore"):
            i0 = float(np.i0(kappa))
        if not math.isfinite(i0):
            raise ValueError(f"width {float(width)!r} is too small for period {float(period)!r}: "
                             f"the prior's normalizer I_0(kappa) overflows at kappa = {kappa!r}")
        log_z = math.log(period) - kappa + math.log(i0)
        dx = period / m
        nodes = -period / 2.0 + dx * np.arange(m)
        phase = omega * nodes
        return cls(
            nodes=nodes,
            log_pdf=-kappa * (1.0 - np.cos(phase)) - log_z,
            log_pdf_d1=-kappa * omega * np.sin(phase),
            log_pdf_d2=-kappa * omega**2 * np.cos(phase),
            period=period,
        )

    @classmethod
    def uniform(cls, period: float, m: int = 1000) -> "GridPrior":
        """Flat prior on [-T/2, T/2); zero curvature and score."""
        _count("grid size m", m, 2)
        dx = _positive("period", period) / m
        nodes = -period / 2.0 + dx * np.arange(m)
        zeros = np.zeros(m)
        return cls(
            nodes=nodes,
            log_pdf=np.full(m, -math.log(period)),
            log_pdf_d1=zeros,
            log_pdf_d2=zeros,
            period=period,
        )

    @property
    def m(self) -> int:
        return self.nodes.size

    @property
    def spacing(self) -> float:
        return self.period / self.nodes.size

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
        """P(x_m) = -d^2 ln p / dx^2 at every node, shape (M,)."""
        return -self.log_pdf_d2

    def p_plus(self) -> float:
        """P_plus = <(d ln p/dx)^2> by quadrature over the grid."""
        integrand = self.log_pdf_d1**2
        if not np.all(np.isfinite(integrand)):
            raise ValueError("score quadrature diverged: non-finite d ln p/dx on the grid")
        return self.average(integrand)

"""Stimulus priors and the prior terms of the information formulas.

Two prior families are supported: an analytic multivariate Gaussian and a
grid-tabulated 1-D density on a periodic interval ``[-T/2, T/2)``.  Both
expose the quantities the approximation formulas consume: the entropy
H(X), the log-density curvature ``P(x) = -d^2 ln p / dx dx^T``, and the
prior-averaged score outer product ``P_plus = <(d ln p/dx)(d ln p/dx)^T>``.
:mod:`popcode_mi.mi` adds them to the Fisher information J(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import i0

__all__ = ["GaussianPrior", "GridPrior", "p_plus", "DEFAULT_GRID_SIZE"]

#: Default number of quadrature nodes for grid priors.
DEFAULT_GRID_SIZE = 1000


@dataclass(frozen=True)
class GaussianPrior:
    """Multivariate normal stimulus prior N(mean, cov).

    The curvature of the log-density is constant, P(x) = cov^{-1}, and
    coincides with the averaged score outer product P_plus.
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
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("prior covariance must be symmetric positive-definite") from None

    @property
    def k(self) -> int:
        return self.mean.size

    def precision(self) -> np.ndarray:
        """Inverse covariance."""
        return np.linalg.inv(self.cov)

    def entropy(self) -> float:
        """Differential entropy, (1/2) ln det(2 pi e cov)."""
        sign, logdet = np.linalg.slogdet(self.cov)
        return 0.5 * (self.k * (math.log(2.0 * math.pi) + 1.0) + logdet)

    def curvature(self, x=None) -> np.ndarray:
        """P(x) = cov^{-1}, independent of x."""
        return self.precision()

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
    are stored per node; analytic constructors also carry closed-form
    callables so off-node curvature needs no interpolation.

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
    curvature_fn: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("nodes", "log_pdf", "log_pdf_d1", "log_pdf_d2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
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
                  m: int = DEFAULT_GRID_SIZE) -> "GridPrior":
        """Circular-normal prior exp(-kappa (1 - cos(2 pi x / T))) / Z.

        ``kappa = (T / (2 pi width))^2``; the normalizer has the closed
        form ``Z = T e^{-kappa} I_0(kappa)`` with I_0 the modified Bessel
        function, so no numeric normalization step is involved.
        """
        if period <= 0 or width <= 0:
            raise ValueError(f"period and width must be positive, got {period}, {width}")
        kappa = (period / (2.0 * math.pi * width)) ** 2
        omega = 2.0 * math.pi / period
        log_z = math.log(period) - kappa + math.log(i0(kappa))
        dx = period / m
        nodes = -period / 2.0 + dx * np.arange(m)
        phase = omega * nodes
        return cls(
            nodes=nodes,
            log_pdf=-kappa * (1.0 - np.cos(phase)) - log_z,
            log_pdf_d1=-kappa * omega * np.sin(phase),
            log_pdf_d2=-kappa * omega**2 * np.cos(phase),
            period=period,
            curvature_fn=lambda x: kappa * omega**2 * np.cos(omega * np.asarray(x, dtype=float)),
        )

    @classmethod
    def uniform(cls, period: float, m: int = DEFAULT_GRID_SIZE) -> "GridPrior":
        """Flat prior on [-T/2, T/2); zero curvature and score."""
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        dx = period / m
        nodes = -period / 2.0 + dx * np.arange(m)
        zeros = np.zeros(m)
        return cls(
            nodes=nodes,
            log_pdf=np.full(m, -math.log(period)),
            log_pdf_d1=zeros,
            log_pdf_d2=zeros,
            period=period,
            curvature_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )

    @classmethod
    def from_table(cls, nodes, pdf, period: float) -> "GridPrior":
        """Tabulated positive density; derivatives by 4th-order differences.

        The density is renormalized by the rectangle rule before taking
        logs, so mildly unnormalized tables are accepted.
        """
        nodes = np.asarray(nodes, dtype=float)
        pdf = np.asarray(pdf, dtype=float)
        if nodes.shape != pdf.shape or nodes.ndim != 1:
            raise ValueError(f"nodes and pdf must be equal-length 1-D arrays, got {nodes.shape}, {pdf.shape}")
        if np.any(pdf <= 0):
            raise ValueError("tabulated density must be strictly positive")
        dx = period / nodes.size
        steps = np.diff(nodes)
        if not np.allclose(steps, dx, rtol=1e-10, atol=1e-12):
            raise ValueError("nodes must be a uniform grid with spacing period / len(nodes)")
        pdf = pdf / (np.sum(pdf) * dx)
        log_pdf = np.log(pdf)
        return cls(
            nodes=nodes,
            log_pdf=log_pdf,
            log_pdf_d1=_central_diff4(log_pdf, dx),
            log_pdf_d2=_central_diff4_second(log_pdf, dx),
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

    def _check_domain(self, x):
        x = np.asarray(x, dtype=float)
        half = self.period / 2.0
        if np.any(x < -half) or np.any(x >= half):
            raise ValueError(f"x = {x!r} outside the prior support [{-half}, {half})")
        return x

    def curvature(self, x) -> np.ndarray:
        """Scalar P(x); closed form when available, else periodic interpolation."""
        x = self._check_domain(x)
        if self.curvature_fn is not None:
            return np.asarray(self.curvature_fn(x), dtype=float)
        values = -self.log_pdf_d2
        return np.interp(x, np.append(self.nodes, self.nodes[0] + self.period),
                         np.append(values, values[0]))

    def p_plus(self) -> float:
        """P_plus = <(d ln p/dx)^2> by quadrature over the grid."""
        integrand = self.log_pdf_d1**2
        if not np.all(np.isfinite(integrand)):
            raise ValueError("score quadrature diverged: non-finite d ln p/dx on the grid")
        return self.average(integrand)


def p_plus(prior) -> np.ndarray:
    """P_plus = <(d ln p/dx)(d ln p/dx)^T> as a K x K matrix."""
    value = prior.p_plus()
    return np.atleast_2d(np.asarray(value, dtype=float))


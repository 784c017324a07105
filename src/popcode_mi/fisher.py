"""Stimulus priors and the prior terms of the information formulas.

Two prior families are supported: an analytic multivariate Gaussian and a
grid-tabulated 1-D density on a periodic interval ``[-T/2, T/2)``.  Both
expose the quantities the approximation formulas consume: the entropy
H(X), the log-density curvature ``P(x) = -d^2 ln p / dx dx^T``, and the
prior-averaged score outer product ``P_plus = <(d ln p/dx)(d ln p/dx)^T>``.
:mod:`popcode_mi.mi` adds them to the Fisher information J(x).

The von Mises normalizer's Bessel function I_0 is :func:`_i0`, a pure-Python
port of Cephes' algorithm, bit for bit equal to ``scipy.special.i0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import chol_logdet
from .models import _concentration, _count, _positive

__all__ = ["GaussianPrior", "GridPrior", "p_plus", "DEFAULT_GRID_SIZE"]

#: Default number of quadrature nodes for grid priors.
DEFAULT_GRID_SIZE = 1000

#: ln(2 pi e), the per-dimension constant of a Gaussian's entropy and of
#: every log-det formula.
LOG_2PI_E = math.log(2.0 * math.pi) + 1.0

# Chebyshev coefficients of Cephes' I_0 (Moshier, "Methods and Programs for
# Mathematical Functions", 1989): exp(-x) I_0(x) on [0, 8] in (x/2 - 2), and
# exp(-x) sqrt(x) I_0(x) on (8, inf) in (32/x - 2).
_I0_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)


def _chbevl(x: float, coefs: tuple) -> float:
    """Cephes' Chebyshev series sum, in Cephes' operation order."""
    b0, b1, b2 = coefs[0], 0.0, 0.0
    for c in coefs[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0(x: float) -> float:
    """Modified Bessel function I_0(x) for x >= 0, Cephes' algorithm.

    Equals ``scipy.special.i0`` bit for bit, ``inf`` included: past
    x = 709.78 the factor e^x overflows, and the result is ``inf``.
    """
    try:
        scale = math.exp(x)
    except OverflowError:
        return math.inf
    if x <= 8.0:
        return scale * _chbevl(x / 2.0 - 2.0, _I0_A)
    return scale * _chbevl(32.0 / x - 2.0, _I0_B) / math.sqrt(x)


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

        ``kappa = (T / (2 pi width))^2``, checked as the tuning curves'
        concentration is: a bad or too small width or period is an error
        naming it, as is a grid size ``m`` that is not an integer of at
        least 2.  The normalizer has the closed form
        ``Z = T e^{-kappa} I_0(kappa)`` with I_0 the modified Bessel
        function, evaluated by Cephes' algorithm (:func:`_i0`), so no numeric
        normalization step is involved.  Past kappa = 709.78 (widths below
        about T / 167) I_0 overflows to ``inf``, the tabulated density is 0
        and the quadrature check rejects the prior.
        """
        _count("grid size m", m, 2)
        kappa = _concentration(period, width)
        omega = 2.0 * math.pi / period
        log_z = math.log(period) - kappa + math.log(_i0(kappa))
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
    def uniform(cls, period: float, m: int = DEFAULT_GRID_SIZE) -> "GridPrior":
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
        dx = _positive("period", period) / nodes.size
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


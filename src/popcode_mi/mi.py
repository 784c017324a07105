"""Log-determinant approximations to mutual information.

Implements the three approximations

* ``I_F  = (1/2) <ln det(J(x)/2 pi e)> + H(X)``
* ``I_G  = (1/2) <ln det(G(x)/2 pi e)> + H(X)``,   G = J + P
* ``I_G+ = (1/2) <ln det(G+(x)/2 pi e)> + H(X)``,  G+ = J + P_plus

together with the exact closed form for the linear-Gaussian channel, the
trace/Frobenius gap bounds controlling I_G - I_F, and the van Trees
(Bayesian Cramer-Rao) reference value.

Averages ``<.>`` use the prior's own quadrature: grid priors average over
their nodes with rectangle-rule masses; Gaussian priors take either a
constant matrix or an explicit sample-point average.  All values are in
nats.  A degenerate log-determinant (singular J, failed Cholesky) is
reported as a ``-inf`` value with the ``degenerate`` flag set — never
masked by eigenvalue clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import chol_logdet, logdet_grid, sym_inv_sqrt, sym_sqrt
from .fisher import GridPrior, p_plus as _p_plus_matrix

__all__ = [
    "MIApproximation",
    "GapBounds",
    "LOG_2PI_E",
    "i_f",
    "i_g",
    "i_g_plus",
    "exact_gaussian_mi",
    "gap_bounds",
    "van_trees_bound",
]

#: ln(2 pi e), the per-dimension constant in every log-det formula.
LOG_2PI_E = math.log(2.0 * math.pi) + 1.0


@dataclass(frozen=True)
class MIApproximation:
    """An MI value in nats, tagged by formula.

    ``degenerate`` is set when a log-determinant diverged (singular J or
    failed Cholesky on some quadrature node); the value is then ``-inf``.
    """

    value: float
    kind: str
    degenerate: bool = False


@dataclass(frozen=True)
class GapBounds:
    """Averaged curvature-to-Fisher ratios bounding the approximation gaps.

    ``varsigma`` = <Tr(J^{-1/2} P J^{-1/2})> and ``varsigma1`` its
    Frobenius-norm analogue; ``varsigma_plus`` = <Tr(P_plus J^{-1})>.
    When P is PSD, 0 <= I_G - I_F <= varsigma/2 and
    0 <= I_G+ - I_F <= varsigma_plus/2.
    """

    varsigma: float
    varsigma1: float
    varsigma_plus: float


def _materialize(j, prior, xs):
    """Normalize a J argument to a matrix stack with average weights.

    Returns ``(stack, weights, pts, on_nodes)`` where ``stack`` has shape
    (M, K, K), ``weights`` sums to 1, ``pts`` are the stimulus values the
    stack is aligned with (None when J is a constant under a Gaussian
    prior), and ``on_nodes`` says whether pts are exactly the grid
    prior's quadrature nodes.
    """
    grid = isinstance(prior, GridPrior)
    if callable(j):
        if grid and xs is None:
            pts, on_nodes = prior.nodes, True
        elif xs is not None:
            pts, on_nodes = np.asarray(xs, dtype=float), False
        else:
            raise ValueError("a callable J under a Gaussian prior needs explicit sample points xs")
        stack = np.stack([np.atleast_2d(np.asarray(j(x), dtype=float)) for x in pts])
    else:
        j = np.asarray(j, dtype=float)
        if grid:
            pts, on_nodes = prior.nodes, True
            if j.ndim == 1:
                if j.size != prior.m:
                    raise ValueError(f"J values have length {j.size}, prior grid has {prior.m} nodes")
                stack = j.reshape(-1, 1, 1)
            elif j.ndim == 3 and j.shape[0] == prior.m:
                stack = j
            elif j.ndim in (0, 2):
                const = np.atleast_2d(j)
                stack = np.broadcast_to(const, (prior.m,) + const.shape)
            else:
                raise ValueError(f"cannot align J of shape {j.shape} with a {prior.m}-node grid prior")
        else:
            pts = None if xs is None else np.asarray(xs, dtype=float)
            on_nodes = False
            if j.ndim in (0, 2):
                stack = np.atleast_2d(j)[None]
            elif j.ndim == 3:
                stack = j
            elif j.ndim == 1 and pts is not None and j.size == pts.size:
                stack = j.reshape(-1, 1, 1)
            else:
                raise ValueError(f"cannot interpret J of shape {j.shape} under a Gaussian prior")
    m = stack.shape[0]
    if grid and on_nodes:
        weights = prior.masses
    else:
        weights = np.full(m, 1.0 / m)
    return stack, weights, pts, on_nodes


def _curvature_stack(prior, pts, on_nodes, m: int, k: int) -> np.ndarray:
    """P(x) aligned with a J stack, shape (M, K, K)."""
    if isinstance(prior, GridPrior):
        if k != 1:
            raise ValueError(f"grid priors are 1-D but J is {k}x{k}")
        vals = prior.curvature_values() if on_nodes else np.atleast_1d(prior.curvature(pts))
        return vals.reshape(-1, 1, 1)
    p = prior.precision()
    return np.broadcast_to(p, (m,) + p.shape)


def _log_det_mi(kind: str, j, prior, xs) -> MIApproximation:
    """``(1/2)(<ln det(J + R)> - K ln 2 pi e) + H(X)``, the formula of every kind.

    The regularizer R is zero for ``I_F``, the curvature P(x) for ``I_G``
    and the constant P_plus for ``I_Gplus`` and ``I_VT``; ``I_VT`` takes
    the log-determinant of the averaged matrix instead of averaging
    log-determinants.  A degenerate node with positive weight gives
    ``-inf`` with the ``degenerate`` flag.
    """
    stack, weights, pts, on_nodes = _materialize(j, prior, xs)
    m, k = stack.shape[0], stack.shape[1]
    reg = None
    if kind == "I_G":
        reg = _curvature_stack(prior, pts, on_nodes, m, k)
    elif kind != "I_F":
        reg = _p_plus_matrix(prior)
        if reg.shape != (k, k):
            raise ValueError(f"P_plus has shape {reg.shape}, J blocks are {k}x{k}")
    if kind == "I_VT":
        logdet = chol_logdet(np.tensordot(weights, stack, axes=(0, 0)) + reg)
    else:
        logdets = logdet_grid(stack if reg is None else stack + reg)
        bad = np.isneginf(logdets) & (weights > 0)
        logdet = -math.inf if np.any(bad) else float(np.dot(weights, logdets))
    if logdet == -math.inf:
        return MIApproximation(value=-math.inf, kind=kind, degenerate=True)
    return MIApproximation(value=0.5 * (logdet - k * LOG_2PI_E) + prior.entropy(), kind=kind)


def i_f(j, prior, xs=None) -> MIApproximation:
    """Fisher-only approximation (1/2)<ln det(J/2 pi e)> + H(X).

    ``j`` may be a per-node array of scalars, a (M, K, K) stack, a
    constant matrix, or a callable ``x -> J(x)``; see :func:`i_g` for the
    averaging convention.
    """
    return _log_det_mi("I_F", j, prior, xs)


def i_g(j, prior, xs=None) -> MIApproximation:
    """Curvature-corrected approximation with G(x) = J(x) + P(x).

    Grid priors average over their own quadrature nodes (rectangle rule);
    passing explicit ``xs`` switches to a uniform sample average over
    those points instead.  Gaussian priors accept a constant J directly.
    """
    return _log_det_mi("I_G", j, prior, xs)


def i_g_plus(j, prior, xs=None) -> MIApproximation:
    """Approximation with the x-independent regularizer G+ = J + P_plus."""
    return _log_det_mi("I_Gplus", j, prior, xs)


def exact_gaussian_mi(model) -> float:
    """Exact MI of the linear-Gaussian channel r = A^T x + z, z ~ N(0, I).

    Computed as (1/2) ln det(S A A^T S + I) with S the symmetric square
    root of the prior covariance, via eigendecomposition for stability.
    """
    try:
        np.linalg.cholesky(model.cov)
    except np.linalg.LinAlgError:
        raise ValueError("prior covariance must be symmetric positive-definite") from None
    s = sym_sqrt(model.cov)
    core = s @ (model.mixing @ model.mixing.T) @ s
    eigs = np.linalg.eigvalsh(0.5 * (core + core.T))
    return float(0.5 * np.sum(np.log1p(eigs)))


def gap_bounds(j, prior, xs=None) -> GapBounds:
    """Averaged ratios controlling the I_G - I_F and I_G+ - I_F gaps.

    Requires J(x) positive-definite on every quadrature node; a singular
    node is an error because the bounds are undefined there.
    """
    stack, weights, pts, on_nodes = _materialize(j, prior, xs)
    m, k = stack.shape[0], stack.shape[1]
    p = _curvature_stack(prior, pts, on_nodes, m, k)
    pp = _p_plus_matrix(prior)
    if k == 1:
        jvals = stack[:, 0, 0]
        if np.any(jvals <= 0):
            idx = int(np.argmax(jvals <= 0))
            raise ValueError(f"degenerate J: not positive-definite at node {idx} (J = {jvals[idx]!r})")
        ratio = p[:, 0, 0] / jvals
        traces = ratio
        frob = np.abs(ratio)
        traces_plus = pp[0, 0] / jvals
    else:
        try:
            root = sym_inv_sqrt(stack)
        except ValueError as exc:
            raise ValueError(f"degenerate J: {exc}") from None
        w = root @ p @ root
        traces = np.trace(w, axis1=1, axis2=2)
        flat = w.reshape(m, 1, k * k)
        frob = np.sqrt((flat @ np.swapaxes(flat, 1, 2))[:, 0, 0])
        traces_plus = np.trace(root @ pp @ root, axis1=1, axis2=2)
    return GapBounds(
        varsigma=float(np.dot(weights, traces)),
        varsigma1=float(np.dot(weights, frob)),
        varsigma_plus=float(np.dot(weights, traces_plus)),
    )


def van_trees_bound(j, prior, xs=None) -> MIApproximation:
    """Van Trees reference I_VT = (1/2) ln det(<G+(x)>/2 pi e) + H(X).

    By concavity of the log-determinant this never falls below I_G+.
    """
    return _log_det_mi("I_VT", j, prior, xs)

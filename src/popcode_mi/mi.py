"""Log-determinant approximations to mutual information.

Implements the three approximations

* ``I_F  = (1/2) <ln det(J(x)/2 pi e)> + H(X)``
* ``I_G  = (1/2) <ln det(G(x)/2 pi e)> + H(X)``,   G = J + P
* ``I_G+ = (1/2) <ln det(G+(x)/2 pi e)> + H(X)``,  G+ = J + P_plus

together with the exact closed form for the linear-Gaussian channel, the
trace/Frobenius gap bounds controlling I_G - I_F, and the van Trees
(Bayesian Cramer-Rao) reference value.

Averages ``<.>`` use the prior's own quadrature: grid priors average over
their nodes with rectangle-rule masses; Gaussian priors take a constant
matrix or an (M, K, K) stack averaged uniformly.  J must be K x K, K the
prior's dimension (1 for grid priors).  Values are in nats; a singular
node of positive weight (``_linalg``'s pivot rule; zero-weight nodes are
skipped) gives ``-inf`` with the ``degenerate`` flag, never clipped away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# sym_inv_sqrt stays importable here: perfbench wraps it by module attribute.
from ._linalg import chol_logdet, inverse_factors, logdet_grid, sym_inv_sqrt  # noqa: F401
from .fisher import LOG_2PI_E, GridPrior
from .models import _nonnegative

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

    ``varsigma`` = <Tr(J^{-1/2} P J^{-1/2})> = <Tr(J^{-1} P)> and
    ``varsigma1`` = <||L^{-1} P L^{-T}||_F> (J = L L^T), its Frobenius-norm
    analogue: L^{-1} P L^{-T} is orthogonally similar to J^{-1/2} P J^{-1/2}.
    ``varsigma_plus`` = <Tr(J^{-1} P_plus)>.  When P is PSD,
    0 <= I_G - I_F <= varsigma/2 and 0 <= I_G+ - I_F <= varsigma_plus/2.
    """

    varsigma: float
    varsigma1: float
    varsigma_plus: float


def _materialize(j, prior):
    """Normalize a J argument to a matrix stack with average weights.

    Returns ``(stack, weights)`` where ``stack`` has shape (M, K, K), K
    being the prior's dimension, and ``weights`` sums to 1: a grid
    prior's masses, or a uniform average for a Gaussian prior.
    """
    grid = isinstance(prior, GridPrior)
    if callable(j):
        if not grid:
            raise ValueError("a callable J needs a grid prior, not a Gaussian one")
        j = np.stack([np.atleast_2d(np.asarray(j(x), dtype=float)) for x in prior.nodes])
    j = np.asarray(j, dtype=float)
    # The nodes: a grid prior's own; under a Gaussian prior, the stack's length.
    m = prior.m if grid else (len(j) if j.ndim == 3 else 1)
    k = 1 if grid else prior.k
    where = f"{m}-node grid prior" if grid else "Gaussian prior"
    if grid and j.ndim == 1:
        if j.size != m:
            raise ValueError(f"J values have length {j.size}, prior grid has {m} nodes")
        stack = j.reshape(-1, 1, 1)
    elif j.ndim in (0, 2):
        const = np.atleast_2d(j)
        stack = np.broadcast_to(const, (m,) + const.shape)
    elif j.ndim == 3 and len(j) == m:
        stack = j
    else:
        raise ValueError(f"cannot align J of shape {j.shape} with a {where}")
    if len(stack) == 0:
        raise ValueError(f"J of shape {j.shape} has no nodes to average over")
    if stack.shape[1:] != (k, k):
        raise ValueError(f"J is {stack.shape[1]}x{stack.shape[2]} per node, the {where} is {k}-D")
    return stack, prior.masses if grid else _node_weights(None, m)


def _curvature_stack(prior, m: int) -> np.ndarray:
    """P(x) aligned with an M-node J stack, shape (M, K, K)."""
    if isinstance(prior, GridPrior):
        return prior.curvature_values().reshape(-1, 1, 1)
    p = prior.precision()
    return np.broadcast_to(p, (m,) + p.shape)


def _node_weights(weights, m: int) -> np.ndarray:
    """The weights of an average over M nodes: uniform when None, else M
    finite, nonnegative weights that sum to 1 within 1e-9.  The errors name
    the first node at fault, or the sum."""
    if weights is None:
        return np.full(m, 1.0 / m)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (m,):
        raise ValueError(f"need {m} node weights, got shape {weights.shape}")
    _nonnegative("node weight", weights, "node")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"node weights must sum to 1, got {float(weights.sum())!r}")
    return weights


def _mean_logdet(logdets: np.ndarray, weights: np.ndarray) -> float:
    """``<ln det>`` of per-node log-determinants under :func:`_node_weights`;
    -inf iff a positive-weight node is singular (``-inf``)."""
    singular = logdets == -np.inf
    if np.any(singular):
        if np.any(singular & (weights > 0)):
            return -math.inf
        logdets = np.where(singular, 0.0, logdets)
    return float(np.dot(weights, logdets))


def _info(mean_logdet: float, k: int, h: float) -> float:
    """``(1/2)(<ln det G> - K ln 2 pi e) + H``: the information of a K-D
    node average, H the input entropy."""
    return 0.5 * (mean_logdet - k * LOG_2PI_E) + h


def _p_plus_matrix(prior) -> np.ndarray:
    """The prior's score covariance P_plus as a K x K matrix."""
    return np.atleast_2d(prior.p_plus())


def _log_det_mi(kind: str, j, prior) -> MIApproximation:
    """``(1/2)(<ln det(J + R)> - K ln 2 pi e) + H(X)``, the formula of every kind.

    The regularizer R is zero for ``I_F``, the curvature P(x) for ``I_G``
    and the constant P_plus for ``I_Gplus`` and ``I_VT``; ``I_VT`` takes
    the log-determinant of the averaged matrix instead of averaging
    log-determinants.  A degenerate node with positive weight gives
    ``-inf`` with the ``degenerate`` flag.
    """
    stack, weights = _materialize(j, prior)
    m, k = stack.shape[0], stack.shape[1]
    if kind == "I_VT":
        logdet = chol_logdet(np.tensordot(weights, stack, axes=(0, 0)) + _p_plus_matrix(prior))
    elif kind == "I_F":
        logdet = _mean_logdet(logdet_grid(stack), weights)
    else:
        reg = _curvature_stack(prior, m) if kind == "I_G" else _p_plus_matrix(prior)
        logdet = _mean_logdet(logdet_grid(stack + reg), weights)
    if logdet == -math.inf:
        return MIApproximation(value=-math.inf, kind=kind, degenerate=True)
    return MIApproximation(value=_info(logdet, k, prior.entropy()), kind=kind)


def i_f(j, prior) -> MIApproximation:
    """Fisher-only approximation (1/2)<ln det(J/2 pi e)> + H(X).

    ``j`` may be a per-node array of scalars, a (M, K, K) stack, a
    constant matrix, or, under a grid prior, a callable ``x -> J(x)``;
    see :func:`i_g` for the averaging convention.
    """
    return _log_det_mi("I_F", j, prior)


def i_g(j, prior) -> MIApproximation:
    """Curvature-corrected approximation with G(x) = J(x) + P(x).

    Grid priors average over their own quadrature nodes (rectangle rule),
    where a callable J is evaluated.  Gaussian priors take a constant J or
    an (M, K, K) stack, averaged uniformly.
    """
    return _log_det_mi("I_G", j, prior)


def i_g_plus(j, prior) -> MIApproximation:
    """Approximation with the x-independent regularizer G+ = J + P_plus."""
    return _log_det_mi("I_Gplus", j, prior)


def exact_gaussian_mi(model) -> float:
    """Exact MI of the linear-Gaussian channel r = A^T x + z, z ~ N(0, I).

    ``(1/2) sum ln(1 + eig(R R^T))``, R = L^T A with cov = L L^T (validated by
    the model); R R^T has the eigenvalues of S A A^T S, S = cov^(1/2).
    """
    r = np.linalg.cholesky(model.cov).T @ model.mixing
    return float(0.5 * np.sum(np.log1p(np.linalg.eigvalsh(r @ r.T))))


def gap_bounds(j, prior) -> GapBounds:
    """Averaged ratios controlling the I_G - I_F and I_G+ - I_F gaps.

    Per node, with J = L L^T and W = L^{-1} P L^{-T}: Tr W = Tr(J^{-1} P),
    ||W||_F and Tr(J^{-1} P_plus), all from one factorization of the stack
    (``_linalg.inverse_factors``).  J must be positive-definite on every
    quadrature node by ``_linalg``'s pivot rule, which a NaN node fails:
    a node that fails it is an error naming the node, because the bounds
    are undefined there.
    """
    stack, weights = _materialize(j, prior)
    logdets, linv = inverse_factors(stack)
    singular = logdets == -np.inf
    if np.any(singular):
        raise ValueError(f"degenerate J: not positive-definite at node {int(np.argmax(singular))}")
    w = linv @ _curvature_stack(prior, len(stack)) @ np.swapaxes(linv, 1, 2)
    traces = np.trace(w, axis1=1, axis2=2)
    frob = np.sqrt(np.einsum("mab,mab->m", w, w))
    traces_plus = np.einsum("mab,mab->m", linv @ _p_plus_matrix(prior), linv)
    return GapBounds(
        varsigma=float(np.dot(weights, traces)),
        varsigma1=float(np.dot(weights, frob)),
        varsigma_plus=float(np.dot(weights, traces_plus)),
    )


def van_trees_bound(j, prior) -> MIApproximation:
    """Van Trees reference I_VT = (1/2) ln det(<G+(x)>/2 pi e) + H(X).

    By concavity of the log-determinant this never falls below I_G+.
    """
    return _log_det_mi("I_VT", j, prior)

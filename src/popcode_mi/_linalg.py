"""Small symmetric-matrix helpers shared across modules.

Log-determinants go through Cholesky factorizations: a failed
factorization means the matrix is not positive-definite and the
log-determinant is reported as ``-inf`` instead of being silently
regularized.  Matrix square roots use symmetric eigendecompositions.

Stacks of matrices, shape (M, K, K), are factored by one stacked LAPACK
call over the whole array.  A stacked Cholesky call fails as a whole when
any node is not positive-definite, so only then are the nodes factored
one by one, which keeps the per-node ``-inf`` values and lets callers
name the first node at fault.  The stacked and per-node calls run the
same LAPACK routine on each matrix, so their factors are identical.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cholesky_stack",
    "chol_logdet",
    "logdet_grid",
    "factor_logdets",
    "sym_sqrt",
    "sym_inv_sqrt",
]


def cholesky_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of symmetric matrices, shape (M, K, K).

    Returns ``(factors, failed)``: ``failed[i]`` is True where node i does
    not factor, and that node's factor is filled with NaN.
    """
    failed = np.zeros(mats.shape[0], dtype=bool)
    try:
        return np.linalg.cholesky(mats), failed
    except np.linalg.LinAlgError:
        pass
    chol = np.full(mats.shape, np.nan)
    for i, mat in enumerate(mats):
        try:
            chol[i] = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            failed[i] = True
    return chol, failed


def factor_logdets(mats: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Log-determinants of a stack from its Cholesky factors.

    A node is ``-inf`` when its factor has a non-positive or non-finite
    pivot, or when any pivot sits at rounding-noise scale: the matrix is
    then singular to working precision even though rounding let it
    factor.  Each pivot is judged against its own diagonal entry,
    ``L_ii^2 <= 64 K eps A_ii``.  ``L_ii^2 / A_ii`` is the squared pivot of
    the Jacobi-equilibrated matrix ``D^-1/2 A D^-1/2`` (``D = diag A``),
    read off the existing factor, so the decision does not depend on the
    units or scaling of the coordinates.  No eigenvalue clipping is
    applied; values are exact or ``-inf``.
    """
    diag = np.diagonal(chol, axis1=1, axis2=2)
    # An exactly singular matrix can slip through when rounding nudges a
    # zero pivot positive.  The Schur complement behind pivot i is A_ii
    # minus a sum that cancels it, so such a pivot is rounding noise on
    # the scale of K * eps * A_ii (squared pivot), whatever the scale of
    # the other coordinates.
    k = mats.shape[1]
    tol = 64.0 * k * np.finfo(float).eps * np.diagonal(mats, axis1=1, axis2=2)
    good = (np.all(diag > 0.0, axis=1) & np.all(np.isfinite(diag), axis=1)
            & ~np.any(diag**2 <= tol, axis=1))
    out = np.full(mats.shape[0], -np.inf)
    out[good] = 2.0 * np.sum(np.log(diag[good]), axis=1)
    return out


def chol_logdet(a: np.ndarray) -> float:
    """Log-determinant of a symmetric matrix via Cholesky.

    ``-inf`` when the matrix is not positive-definite to working
    precision; see :func:`factor_logdets` for the pivot rule.
    """
    a = np.asarray(a, dtype=float)[None]
    return float(factor_logdets(a, cholesky_stack(a)[0])[0])


def logdet_grid(mats: np.ndarray) -> np.ndarray:
    """Log-determinants of a stack of symmetric matrices, shape (M, K, K).

    Entries for non-positive-definite matrices come back as ``-inf``.
    A scalar fast path handles K = 1 without factorizations; larger K
    takes one stacked Cholesky factorization of the whole array, falling
    back to node-by-node factorization only when some node fails, with
    the same pivot rule as :func:`chol_logdet` applied to every node.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {mats.shape}")
    if mats.shape[1] == 1:
        vals = mats[:, 0, 0]
        out = np.full(vals.shape, -np.inf)
        pos = vals > 0.0
        out[pos] = np.log(vals[pos])
        return out
    return factor_logdets(mats, cholesky_stack(mats)[0])


def _eigh_pd(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(np.asarray(a, dtype=float))
    bad = np.any(vals <= 0.0, axis=-1)
    if np.any(bad):
        node = int(np.argmax(bad))
        where = f" at node {node}" if vals.ndim > 1 else ""
        low = np.atleast_2d(vals)[node].min()
        raise ValueError(f"{what} is not positive-definite{where} (min eigenvalue {low:.3e})")
    return vals, vecs


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite square root A^(1/2)."""
    vals, vecs = _eigh_pd(a, "matrix")
    return (vecs * np.sqrt(vals)) @ vecs.T


def sym_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite inverse square root A^(-1/2).

    ``a`` may be one matrix or a stack (M, K, K), which is decomposed by
    one stacked call; a stack's error names the first node at fault.
    """
    vals, vecs = _eigh_pd(a, "matrix")
    return (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)

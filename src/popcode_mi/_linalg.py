"""Small symmetric-matrix helpers shared across modules.

Every positive-definiteness decision of ``mi``, ``optimize``, ``transform``
and the covariance checks in ``fisher`` and ``models`` is one pivot rule,
:func:`factor_logdets`: a failed factorization, a NaN or infinite pivot,
or a squared pivot at rounding-noise scale of its diagonal entry means
singular, and the log-determinant is ``-inf``, never regularized away.
Inverses and trace terms (the gap bounds, the block reductions, the
density optimizer's gradient and step) take the inverse lower factors
that :func:`inverse_factors` returns with those log-determinants, from the
same single factorization.

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
    "inverse_factors",
    "sym_inv_sqrt",
]

_EPS = np.finfo(float).eps


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
    # the other coordinates.  A pivot from LAPACK is positive (NaN where
    # the node failed), so the squared test needs no sign check.
    tol = 64.0 * mats.shape[1] * _EPS * np.diagonal(mats, axis1=1, axis2=2)
    good = np.all(diag * diag > tol, axis=1) & np.all(np.isfinite(diag), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(good, 2.0 * np.sum(np.log(diag), axis=1), -np.inf)


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
        return np.log(vals, out=np.full(vals.shape, -np.inf), where=vals > 0.0)
    return factor_logdets(mats, cholesky_stack(mats)[0])


def inverse_factors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivot-rule log-determinants and inverse lower factors of a stack (M, K, K).

    Returns ``(logdets, linv)`` from one :func:`cholesky_stack` call:
    ``logdets`` as :func:`factor_logdets` gives them and ``linv = L^-1``
    with ``mats = L L^T`` per node, so ``mats^-1 = linv^T linv``.  L^-1
    comes by forward substitution, one batched row at a time (K steps
    over all nodes), which is backward stable.  Rows of a node whose
    log-determinant is ``-inf`` are NaN or meaningless; callers check
    ``logdets`` first.
    """
    chol = cholesky_stack(mats)[0]
    linv = np.zeros_like(chol)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(chol.shape[1]):
            # Row i of L L^-1 = I: e_i - L[i, :i] L^-1[:i, :], divided by L_ii.
            row = -(chol[:, i:i + 1, :i] @ linv[:, :i, :])[:, 0, :]
            row[:, i] += 1.0
            linv[:, i, :] = row / chol[:, i, i, None]
    return factor_logdets(mats, chol), linv


def sym_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite inverse square roots A^(-1/2) of a stack.

    The stack (M, K, K) is decomposed by one stacked call; the error names
    the first node at fault.  Nothing in the package calls it; it stays
    importable because ``perfbench``'s span hooks wrap it by name.
    """
    vals, vecs = np.linalg.eigh(np.asarray(a, dtype=float))
    bad = np.any(vals <= 0.0, axis=1)
    if np.any(bad):
        node = int(np.argmax(bad))
        raise ValueError(f"matrix is not positive-definite at node {node} "
                         f"(min eigenvalue {vals[node].min():.3e})")
    return (vecs / np.sqrt(vals)[:, None, :]) @ np.swapaxes(vecs, 1, 2)

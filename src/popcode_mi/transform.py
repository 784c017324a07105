"""Linear input transforms, whitening, spectrum-vs-Fisher gap analysis, and
block dimensionality reduction.

Mutual information is invariant under invertible transforms of the input,
and the log-det approximations inherit that invariance when the Fisher
matrix is pushed forward by the congruence ``J~ = L^{-T} J L^{-1}`` and
the entropy shifted by the log-Jacobian.  Whitening (PCA rotation plus
per-axis rescaling to unit variance) is the workhorse transform: it makes
the input covariance the identity, after which the information matrices
can be partitioned into a dominant low-dimensional block and a negligible
remainder.

The module also carries the mixing-matrix experiment: for a Gaussian
prior with a given covariance spectrum and a random wide mixing matrix A,
the exact MI (= I_G) and the Fisher-only value I_F have closed forms
whose gap quantifies how badly I_F fails when K is large relative to N.
A seed's mixing columns are one stream of ``_BLOCK``-column blocks, each
drawn by its own SFC64 generator, so a thread pool's ``map`` may draw them
in any order while the calling thread sums their products in column
order; every population size N reads its Gram off that running sum, so
the sizes share their leading columns (common random numbers).

File ingestion for real image-patch data accepts a small binary format
(header: two little-endian uint32 giving M patches and K pixels, then
M*K little-endian float32, row-major) or a plain CSV matrix.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

# sym_inv_sqrt stays importable here: perfbench wraps it by module attribute.
from ._linalg import (chol_logdet, cholesky_stack, factor_logdets,  # noqa: F401
                      inverse_factors, logdet_grid, sym_inv_sqrt)
from .mi import LOG_2PI_E, _info, _mean_logdet, _node_weights
from .models import _count, _finite

__all__ = [
    "whiten",
    "pushforward_info",
    "Fig2Gap",
    "fig2_gap_from_gram",
    "random_mixing_gram",
    "power_law_spectrum",
    "load_patches",
    "patch_covariance",
    "BlockedInfo",
    "partition_info",
    "ReductionCheck",
    "reduce_check_A",
    "reduce_check_B",
    "select_k1",
]


def whiten(cov) -> np.ndarray:
    """The whitening map L = D^{-1/2} U^T of a K x K covariance U D U^T.

    ``x~ = L x`` has unit covariance; the rows of L follow the variances
    in descending order.  The matrix must be finite and symmetric to
    1e-10; samples are reduced to their covariance first, e.g.
    ``np.cov(samples, rowvar=False, bias=True)`` (image patches by
    :func:`patch_covariance`).

    Raises ``ValueError`` naming the first non-finite entry, or, when the
    covariance is rank-deficient, the first null eigen-direction.
    """
    a = np.asarray(cov, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"expected a K x K covariance matrix, got shape {a.shape}")
    _finite("covariance", a)
    if not np.allclose(a, a.T, rtol=1e-10, atol=1e-10):
        asym = float(np.max(np.abs(a - a.T)))
        raise ValueError(f"covariance must be symmetric; max asymmetry {asym!r}")
    cov = 0.5 * (a + a.T)
    eigvals, u = np.linalg.eigh(cov)
    # Stable sort keeps eigh's natural basis within ties, so an isotropic
    # covariance maps to the identity rather than an axis permutation.
    order = np.argsort(-eigvals, kind="stable")
    eigvals, u = eigvals[order], u[:, order]
    tol = cov.shape[0] * np.finfo(float).eps * max(eigvals[0], 0.0)
    bad = np.flatnonzero(eigvals <= tol)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"covariance is rank-deficient: eigenvalue {float(eigvals[i])!r} along direction {i}"
        )
    return (u / np.sqrt(eigvals)).T


def pushforward_info(j, l_mat, h_x: float = 0.0):
    """Push J(x) and the input entropy through an invertible linear map.

    For ``x~ = L x`` the Fisher matrix transforms by congruence,
    ``J(x~) = L^{-T} J(x) L^{-1}``, and ``H(X~) = H(X) + ln |det L|`` —
    the combination entering I_F/I_G is invariant.

    Parameters
    ----------
    j : ndarray
        A (K, K) matrix or an (M, K, K) stack, transformed per node.
    l_mat : (K, K) array_like
        The forward map L, square, finite and invertible, e.g. :func:`whiten`'s.
    h_x : float
        Entropy of the source variable.

    Returns
    -------
    (j_transformed, h_transformed)
    """
    l_mat = np.atleast_2d(np.asarray(l_mat, dtype=float))
    j = np.asarray(j, dtype=float)
    k = l_mat.shape[0]
    if l_mat.shape != (k, k) or j.ndim not in (2, 3) or j.shape[-2:] != (k, k):
        raise ValueError(f"l_mat must be K x K and J (K, K) or (M, K, K): got l_mat "
                         f"{l_mat.shape} and J {j.shape}, K = {k}")
    _finite("transform matrix", l_mat)
    sign, logabsdet = np.linalg.slogdet(l_mat)
    if sign == 0:
        raise ValueError("transform matrix is singular; the map must be invertible")
    l_inv = np.linalg.inv(l_mat)
    j_new = l_inv.T @ j @ l_inv
    return j_new, h_x + float(logabsdet)


@dataclass(frozen=True)
class Fig2Gap:
    """Exact-vs-Fisher comparison for one (spectrum, mixing) pair.

    ``di_f = i_f - i_g`` (nonpositive) and ``rel_di_f = di_f / i_g``; a
    singular Gram matrix or spectrum is reported as ``-inf`` values, not
    raised.
    """

    i_g: float
    i_f: float
    di_f: float
    rel_di_f: float


def fig2_gap_from_gram(gram: np.ndarray, spectrum: np.ndarray) -> Fig2Gap:
    """Gap analysis from the K x K Gram matrix B = A A^T.

    With prior covariance ``diag(spectrum)`` and unit response noise:
    ``I_G = (1/2) ln det(D^{1/2} B D^{1/2} + I)`` (the exact MI),
    ``I_F = (1/2) ln det(B/2 pi e) + H(Y)``, and independently
    ``dI_F = -(1/2) [ln det(B + D^{-1}) - ln det B]``.

    Zero spectrum entries are legal: a zero-variance direction multiplies
    ``det(D^{1/2} B D^{1/2} + I)`` by exactly 1, so ``I_G`` stays finite,
    while ``H(Y)`` and ``D^{-1}`` diverge and the ``I_F`` family is
    reported as ``-inf``.  Negative and non-finite entries are rejected.
    """
    b = np.asarray(gram, dtype=float)
    d = np.asarray(spectrum, dtype=float)
    k = d.size
    if b.shape != (k, k):
        raise ValueError(f"Gram matrix shape {b.shape} does not match spectrum length {k}")
    if k == 0:
        raise ValueError(f"Gram matrix shape {b.shape} is empty: K must be at least 1")
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        raise ValueError(f"spectrum has a non-finite entry: {float(d[bad[0]])!r} at index {bad[0]}")
    if np.any(d < 0.0):
        i = int(np.argmin(d))
        raise ValueError(f"spectrum has a negative entry: {float(d[i])!r} at index {i}")

    pos = d > 0.0
    root = np.sqrt(d[pos])
    core = root[:, None] * b[np.ix_(pos, pos)] * root[None, :]
    i_g = 0.5 * chol_logdet(core + np.eye(core.shape[0])) if core.size else 0.0

    if not np.all(pos):
        rel = -math.inf if i_g > 0.0 else math.nan
        return Fig2Gap(i_g=i_g, i_f=-math.inf, di_f=-math.inf, rel_di_f=rel)

    logdet_b = chol_logdet(b)
    if logdet_b == -math.inf:
        return Fig2Gap(i_g=i_g, i_f=-math.inf, di_f=-math.inf, rel_di_f=-math.inf)
    h_y = 0.5 * (k * LOG_2PI_E + float(np.sum(np.log(d))))
    i_f = _info(logdet_b, k, h_y)
    di_f = -0.5 * (chol_logdet(b + np.diag(1.0 / d)) - logdet_b)
    return Fig2Gap(i_g=i_g, i_f=i_f, di_f=di_f, rel_di_f=di_f / i_g)


#: Columns per block of the mixing stream; it divides every bundled fig2 N.
_BLOCK = 2500


def random_mixing_gram(k: int, n: int, seed: int, pool: Optional[ThreadPoolExecutor] = None,
                       prefixes=()) -> dict:
    """Gram matrices A A^T of the leading columns of a seeded mixing stream.

    Columns are K standard normals scaled to unit norm.  Block b holds the
    ``_BLOCK`` columns from ``b * _BLOCK`` on, as the rows of
    ``Generator(SFC64(SeedSequence(seed, spawn_key=(b,)))).standard_normal``.
    Returns ``{count: gram}`` for ``n`` and each of ``prefixes`` (in 1..n);
    a block that straddles a count is drawn once and its product split.
    Blocks are submitted through ``pool.map`` and their products summed in
    column order on the calling thread, so ``pool`` never changes the bits.
    The caller must not be a task of ``pool``: it waits on blocks queued
    behind itself.  ``k``, ``n`` and every prefix must be positive integers.
    """
    _count("k", k)
    _count("n", n)
    cuts = sorted({n, *prefixes})
    if cuts[0] < 1 or cuts[-1] > n:
        raise ValueError(f"prefix counts must lie in 1..{n}, got {sorted(prefixes)}")
    for count in prefixes:
        _count("prefix count", count)

    def products(b: int) -> list:
        lo, hi = b * _BLOCK, min((b + 1) * _BLOCK, n)
        a = Generator(SFC64(SeedSequence(seed, spawn_key=(b,)))).standard_normal((hi - lo, k)).T
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        inside = [c for c in cuts if lo < c < hi]
        parts = np.split(a, [c - lo for c in inside], axis=1)
        return [(end, part @ part.T) for end, part in zip(inside + [hi], parts)]

    grams, gram = {}, np.zeros((k, k))
    for parts in (pool.map if pool else map)(products, range(-(-n // _BLOCK))):
        for end, product in parts:
            gram += product
            if end in cuts:
                grams[end] = gram if end == n else gram.copy()
    return grams


def power_law_spectrum(k: int, exponent: float = 2.0) -> np.ndarray:
    """Synthetic prior spectrum s_i ~ i^{-exponent}, mean-normalized to 1.

    Stands in for the eigenvalue decay of natural-image patch covariances
    when no patch file is available.
    """
    if k < 1:
        raise ValueError(f"spectrum length must be at least 1, got {k}")
    s = np.arange(1, k + 1, dtype=float) ** (-exponent)
    return s * (k / np.sum(s))


def load_patches(path) -> np.ndarray:
    """Read an (M, K) patch matrix from the binary format or a CSV file.

    Binary layout: uint32 M, uint32 K (little-endian), then M*K float32
    values row-major.  Paths ending in ``.csv`` are parsed as
    comma-separated text instead.  An empty matrix and a non-finite value
    are rejected, the latter naming its row and column.
    """
    path = str(path)
    if path.lower().endswith(".csv"):
        patches = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    else:
        with open(path, "rb") as fh:
            header = fh.read(8)
            if len(header) != 8:
                raise ValueError(f"patch file {path!r} too short for its 8-byte header")
            m, k = (int(v) for v in np.frombuffer(header, dtype="<u4"))
            data = np.frombuffer(fh.read(), dtype="<f4")
        if data.size != m * k:
            raise ValueError(
                f"patch file {path!r} declares {m}x{k} values but contains {data.size}"
            )
        patches = data.reshape(m, k).astype(float)
    if patches.size == 0:
        raise ValueError(f"patch file {path!r} holds no patch values (shape {patches.shape})")
    _finite(f"patch file {path!r}", patches)
    return patches


def patch_covariance(patches: np.ndarray) -> np.ndarray:
    """Covariance of image patches after the two-stage centering.

    Each patch first loses its own mean (per-row DC removal), then the
    global mean patch is subtracted; the covariance is ``X^T X / M``.
    """
    x = np.atleast_2d(np.asarray(patches, dtype=float))
    x = x - x.mean(axis=1, keepdims=True)
    x = x - x.mean(axis=0)
    return x.T @ x / x.shape[0]


@dataclass(frozen=True)
class BlockedInfo:
    """G = J + P stacks partitioned at index k1 for reduction checks.

    ``j``, ``p``, and ``g`` are (M, K, K) with ``g = j + p`` exact;
    ``weights`` average over the M stimulus nodes and ``h_x`` is the
    input entropy entering the factored information values.
    """

    j: np.ndarray
    p: np.ndarray
    g: np.ndarray
    k1: int
    weights: np.ndarray
    h_x: float

    @property
    def k(self) -> int:
        return self.g.shape[1]

    # Block views: 1 = leading k1 coordinates, 2 = trailing k - k1.
    @property
    def g11(self) -> np.ndarray:
        return self.g[:, : self.k1, : self.k1]

    @property
    def g12(self) -> np.ndarray:
        return self.g[:, : self.k1, self.k1 :]

    @property
    def g22(self) -> np.ndarray:
        return self.g[:, self.k1 :, self.k1 :]

    @property
    def j22(self) -> np.ndarray:
        return self.j[:, self.k1 :, self.k1 :]

    @property
    def p22(self) -> np.ndarray:
        return self.p[:, self.k1 :, self.k1 :]


def _as_node_stack(a, k: Optional[int] = None) -> np.ndarray:
    """``a`` as an (M, K, K) stack, a single matrix promoted to one node;
    K is ``a``'s own unless given."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 2:
        a = a[None]
    if k is None:
        k = a.shape[1] if a.ndim == 3 else "K"
    if a.ndim != 3 or a.shape[1:] != (k, k):
        raise ValueError(f"expected (M, {k}, {k}) matrix stack, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"expected a nonempty matrix stack, got shape {a.shape}")
    return a


def partition_info(j, p, k1: int, weights=None, h_x: float = 0.0) -> BlockedInfo:
    """Bundle J and P stacks, partitioned after coordinate k1.

    Single matrices are promoted to one-node stacks; ``p`` broadcasts
    across nodes when given as one matrix.  Both blocks must be nonempty
    (1 <= k1 < K) and every matrix symmetric.  ``weights`` follow the node
    rule of :mod:`popcode_mi.mi`: uniform when None, else finite,
    nonnegative and summing to 1.
    """
    j = _as_node_stack(j)
    m, k = j.shape[0], j.shape[1]
    p = np.asarray(p, dtype=float)
    p = np.broadcast_to(np.atleast_2d(p), j.shape) if p.ndim == 2 else _as_node_stack(p, k)
    if p.shape[0] != m:
        raise ValueError(f"J has {m} nodes but P has {p.shape[0]}")
    _count("k1", k1)
    if not 1 <= k1 < k:
        raise ValueError(f"k1 must satisfy 1 <= k1 < K = {k}, got {k1}")
    g = j + p
    asym = float(np.max(np.abs(g - np.transpose(g, (0, 2, 1)))))
    if asym > 1e-10 * (1.0 + float(np.max(np.abs(g)))):
        raise ValueError(f"G blocks must be symmetric; max asymmetry {asym!r}")
    return BlockedInfo(j=j, p=p, g=g, k1=k1, weights=_node_weights(weights, m), h_x=h_x)


@dataclass(frozen=True)
class ReductionCheck:
    """Outcome of one block-reduction validity check.

    ``trace_mean`` is the averaged coupling trace (small means the
    factored value is trustworthy) and ``value`` the factored information
    in nats.
    """

    trace_mean: float
    value: float


def _reduction_check(blocked: BlockedInfo, second: np.ndarray, what: str,
                     inner_of) -> ReductionCheck:
    """Shared kernel of the two block-reduction checks.

    Per node, ``coupling = G21 G11^{-1} G12 = Y^T Y`` with ``Y = L11^{-1} G12``
    (G11 = L11 L11^T); the trace term is ``Tr(second^{-1} inner_of(coupling))``,
    read off ``L2^{-1}`` (second = L2 L2^T), and the factored value uses
    ``ln det G11 + ln det second``.  Both blocks must be positive-definite
    on every node; the error names the first node at fault.
    """
    logdet11, linv11 = inverse_factors(blocked.g11)
    logdet2, linv2 = inverse_factors(second)
    logdets = logdet11 + logdet2
    bad11, bad = np.isneginf(logdet11), np.isneginf(logdets)
    if np.any(bad):
        node = int(np.argmax(bad))
        raise ValueError(f"{'G11' if bad11[node] else what} is not positive-definite at node {node}")
    y = linv11 @ blocked.g12
    inner = inner_of(np.swapaxes(y, 1, 2) @ y)
    traces = np.einsum("mab,mab->m", linv2 @ inner, linv2)
    value = _info(_mean_logdet(logdets, blocked.weights), blocked.k, blocked.h_x)
    return ReductionCheck(trace_mean=float(np.dot(blocked.weights, traces)), value=value)


def reduce_check_A(blocked: BlockedInfo) -> ReductionCheck:
    """Drop the G12 coupling: is I_G ~ I_G1 justified?

    Per node, ``A_x = G22^{-1/2} G21 G11^{-1} G12 G22^{-1/2}``; the
    averaged trace is the first-order error of the factored approximation
    ``I_G1 = (1/2)<ln det(G11/2 pi e)> + (1/2)<ln det(G22/2 pi e)> + H(X)``,
    which equals I_G exactly iff the coupling term vanishes.
    """
    return _reduction_check(blocked, blocked.g22, "G22", lambda coupling: coupling)


def reduce_check_B(blocked: BlockedInfo) -> ReductionCheck:
    """Drop the second block's Fisher content: is I_G ~ I_G2 justified?

    Per node, ``C_x = J22 - G21 G11^{-1} G12`` and
    ``B_x = P22^{-1/2} C_x P22^{-1/2}``; the factored value replaces G22
    by the prior block, ``I_G2 = (1/2)<ln det(G11/2 pi e)> +
    (1/2)<ln det(P22/2 pi e)> + H(X)``, exact iff C_x = 0.
    """
    return _reduction_check(blocked, blocked.p22, "P22", lambda coupling: blocked.j22 - coupling)


def select_k1(j, eps_dr: float = 0.01, weights=None) -> int:
    """Smallest leading block size whose complement carries negligible J.

    Works in whitened-rotated coordinates (energy sorted descending):
    returns the smallest K1 with ``<Tr J22> <= eps_dr * <ln det(J11 + I)>``,
    or K when no strict reduction qualifies.  ``weights`` follow the node
    rule of :func:`partition_info`; a zero-weight node is skipped, as in
    :mod:`popcode_mi.mi`, even where J is singular or not finite.
    """
    if not 0.0 < eps_dr < 1.0:
        raise ValueError(f"eps_dr must lie in (0, 1), got {eps_dr}")
    j = _as_node_stack(j)
    m, k = j.shape[0], j.shape[1]
    weights = _node_weights(weights, m)
    if np.any(weights == 0.0):  # skipped outright: a non-finite J there must not reach the traces
        j, weights = j[weights > 0.0], weights[weights > 0.0]
    diag_means = np.tensordot(weights, np.diagonal(j, axis1=1, axis2=2), axes=(0, 0))
    total_trace = float(np.sum(diag_means))
    # The Cholesky factor of a leading block is the leading block of the
    # full factor, so one factorization of J + I serves every K1.  Nodes
    # whose full matrix does not factor may still have factorable leading
    # blocks; those are factored block by block.
    a = j + np.eye(k)
    chol, failed = cholesky_stack(a)
    for k1 in range(1, k):
        tail_trace = total_trace - float(np.sum(diag_means[:k1]))
        gammas = factor_logdets(a[:, :k1, :k1], chol[:, :k1, :k1])
        if np.any(failed):
            gammas[failed] = logdet_grid(a[failed, :k1, :k1])
        gamma = _mean_logdet(gammas, weights)
        if tail_trace <= eps_dr * gamma:
            return k1
    return k

"""Batched log-det kernels against their per-node loop references.

Each stacked kernel is compared with the node-by-node computation it
replaced, kept here as the oracle: bit-for-bit where the arithmetic per
node is unchanged, to 1e-12 relative where the stacked kernel solves by
a different factorization.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from popcode_mi._linalg import (chol_logdet, cholesky_stack, factor_logdets, inverse_factors,
                                logdet_grid)
from popcode_mi.fisher import GaussianPrior
from popcode_mi.mi import LOG_2PI_E, gap_bounds, i_f, i_g
from popcode_mi.optimize import OptimizationProblem, capacity_prior, gradient, objective
from popcode_mi.transform import (partition_info, pushforward_info, reduce_check_A,
                                  reduce_check_B, select_k1)

from conftest import ROUNDING_SINGULAR

seeds = st.integers(0, 2**32 - 1)


def looped_logdet(a):
    """Per-matrix Cholesky log-det with the per-pivot rounding-noise rule."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return -np.inf
    diag = np.diagonal(chol)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        return -np.inf
    eps = np.finfo(float).eps
    for i in range(a.shape[0]):
        if diag[i] ** 2 <= 64.0 * a.shape[0] * eps * a[i, i]:
            return -np.inf
    return float(2.0 * np.sum(np.log(diag)))


def scatter_factor_logdets(mats, chol):
    """The pivot rule written as a scatter into a ``-inf`` array: the bit oracle
    for the ``np.where`` form in ``_linalg``."""
    diag = np.diagonal(chol, axis1=1, axis2=2)
    tol = 64.0 * mats.shape[1] * np.finfo(float).eps * np.diagonal(mats, axis1=1, axis2=2)
    good = (np.all(diag > 0.0, axis=1) & np.all(np.isfinite(diag), axis=1)
            & ~np.any(diag**2 <= tol, axis=1))
    out = np.full(mats.shape[0], -np.inf)
    out[good] = 2.0 * np.sum(np.log(diag[good]), axis=1)
    return out


def scatter_logdet_grid(mats):
    """``logdet_grid`` with the scatter form, including its K = 1 path."""
    if mats.shape[1] > 1:
        return scatter_factor_logdets(mats, cholesky_stack(mats)[0])
    vals = mats[:, 0, 0]
    out = np.full(vals.shape, -np.inf)
    pos = vals > 0.0
    out[pos] = np.log(vals[pos])
    return out


def spd(rng, k):
    a = rng.standard_normal((k, k + 2))
    return a @ a.T / (k + 2) + 0.05 * np.eye(k)


def mixed_stack(rng, m, k):
    """PD nodes with some rank-deficient and some indefinite ones mixed in."""
    stack = np.stack([spd(rng, k) for _ in range(m)])
    kinds = rng.integers(0, 4, size=m)  # 0, 1: PD; 2: rank-deficient; 3: indefinite
    for i in np.flatnonzero(kinds == 2):
        a = rng.standard_normal((k, int(rng.integers(1, k))))
        stack[i] = a @ a.T
    for i in np.flatnonzero(kinds == 3):
        stack[i][-1, -1] -= 10.0
    return stack


def looped_gradient(alpha, prob):
    """Per-node, per-class cho_solve form of (N/2) <Tr(G^{-1} S_k)>."""
    g = prob.n * np.einsum("mkab,k->mab", prob.s_values, alpha) + prob.p_values
    out = np.zeros(prob.k1)
    for i in range(g.shape[0]):
        c = cho_factor(g[i], lower=True)
        for k in range(prob.k1):
            out[k] += prob.weights[i] * np.trace(cho_solve(c, prob.s_values[i, k]))
    return 0.5 * prob.n * out


def stack_problem(rng, m, k1, k):
    s = np.stack([[spd(rng, k) for _ in range(k1)] for _ in range(m)])
    p = np.broadcast_to(spd(rng, k), (m, k, k)).copy()
    w = rng.dirichlet(np.ones(m))
    return OptimizationProblem(kind="I_G", thetas=np.arange(k1, dtype=float), n=5,
                               s_values=s, p_values=p, weights=w / w.sum(), h_x=0.0)


def looped_select_k1(j, eps_dr=0.01):
    m, k = j.shape[0], j.shape[1]
    diag_means = np.mean(np.diagonal(j, axis1=1, axis2=2), axis=0)
    for k1 in range(1, k):
        gamma = float(np.mean([looped_logdet(j[i, :k1, :k1] + np.eye(k1)) for i in range(m)]))
        if float(np.sum(diag_means[k1:])) <= eps_dr * gamma:
            return k1
    return k


def looped_reduction(blocked, second, inner_of):
    """Per-node reduction; the log-dets take numpy's Cholesky, as the kernel does.

    scipy's ``cho_factor`` may run a different LAPACK build, whose factors
    can differ from numpy's in the last bit.
    """
    traces, logdets = [], []
    for i in range(blocked.g.shape[0]):
        c11 = cho_factor(blocked.g11[i], lower=True)
        coupling = blocked.g12[i].T @ cho_solve(c11, blocked.g12[i])
        c2 = cho_factor(second[i], lower=True)
        traces.append(np.trace(cho_solve(c2, inner_of(i, coupling))))
        logdets.append(2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(blocked.g11[i]))))
                       + 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(second[i])))))
    return np.dot(blocked.weights, traces), np.dot(blocked.weights, logdets)


class TestLogdetGrid:
    @settings(max_examples=40)
    @given(seeds, st.integers(2, 8), st.integers(1, 30))
    def test_matches_per_node_loop_bit_for_bit(self, seed, k, m):
        stack = mixed_stack(np.random.default_rng(seed), m, k)
        want = np.array([looped_logdet(a) for a in stack])
        got = logdet_grid(stack)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == np.array([chol_logdet(a) for a in stack]).tobytes()

    def test_fallback_keeps_healthy_nodes(self):
        rng = np.random.default_rng(3)
        stack = np.stack([spd(rng, 3) for _ in range(5)])
        stack[2] = -np.eye(3)
        chol, failed = cholesky_stack(stack)
        assert failed.tolist() == [False, False, True, False, False]
        assert np.all(np.isnan(chol[2]))
        got = logdet_grid(stack)
        assert np.isneginf(got[2])
        assert np.all(np.isfinite(np.delete(got, 2)))


class TestInverseFactors:
    @settings(max_examples=40)
    @given(seeds, st.integers(2, 8), st.integers(1, 30))
    def test_matches_looped_inverse_cholesky(self, seed, k, m):
        """L^-1 by batched forward substitution against per-node LAPACK inverses,
        node by node relative to the node's largest entry; singular nodes are -inf."""
        rng = np.random.default_rng(seed)
        stack = mixed_stack(rng, m, k) * 10.0 ** rng.uniform(-8.0, 8.0, size=(m, 1, 1))
        logdets, linv = inverse_factors(stack)
        assert logdets.tobytes() == factor_logdets(stack, cholesky_stack(stack)[0]).tobytes()
        for a, got, logdet in zip(stack, linv, logdets):
            if logdet == -np.inf:
                continue
            want = np.linalg.inv(np.linalg.cholesky(a))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestGapBoundInvariances:
    @staticmethod
    def bounds(j, cov):
        got = gap_bounds(j, GaussianPrior(np.zeros(len(cov)), cov))
        return np.array([got.varsigma, got.varsigma1, got.varsigma_plus])

    @settings(max_examples=30)
    @given(seeds, st.integers(2, 6), st.integers(1, 12))
    def test_linear_pushforward_and_common_rescaling(self, seed, k, m):
        """The bounds depend on J and P only through J^-1 P: pushing J through
        x~ = L x against the prior N(0, L S L^T), or scaling J and P by one c,
        leaves them unchanged."""
        rng = np.random.default_rng(seed)
        j = np.stack([spd(rng, k) for _ in range(m)])
        cov = spd(rng, k)
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        l_mat = q * np.exp(rng.uniform(-2.0, 2.0, k))
        want = self.bounds(j, cov)
        pushed = pushforward_info(j, l_mat)[0]
        np.testing.assert_allclose(self.bounds(pushed, l_mat @ cov @ l_mat.T), want, rtol=1e-9)
        c = 10.0 ** rng.uniform(-6.0, 6.0)
        np.testing.assert_allclose(self.bounds(c * j, cov / c), want, rtol=1e-9)


class TestPivotRuleBits:
    @settings(max_examples=60)
    @given(seeds, st.integers(1, 8), st.integers(1, 40))
    def test_where_form_matches_scatter_form_bit_for_bit(self, seed, k, m):
        """Stacks with zero, negative, NaN, +inf and rounding-singular nodes."""
        rng = np.random.default_rng(seed)
        stack = np.stack([spd(rng, k) for _ in range(m)])
        stack *= 10.0 ** rng.uniform(-8.0, 8.0, size=(m, 1, 1))
        for i, kind in enumerate(rng.integers(0, 8, size=m)):
            r, c = rng.integers(0, k, size=2)
            if kind == 2:
                stack[i] = 0.0
            elif kind == 3:
                stack[i, r, r] = -stack[i, r, r]
            elif kind == 4:
                stack[i, r, c] = stack[i, c, r] = np.nan
            elif kind == 5:
                stack[i, r, r] = np.inf
            elif kind == 6 and k > 1:
                a = rng.standard_normal((k, k - 1))
                stack[i] = a @ a.T
            elif kind == 7 and k > 1:
                stack[i] = np.eye(k)
                stack[i, :2, :2] = ROUNDING_SINGULAR
        chol = cholesky_stack(stack)[0]
        got = factor_logdets(stack, chol)
        assert got.tobytes() == scatter_factor_logdets(stack, chol).tobytes()
        assert logdet_grid(stack).tobytes() == scatter_logdet_grid(stack).tobytes()


class TestScaleInvariantPivotRule:
    @settings(max_examples=40)
    @given(seeds, st.integers(2, 8), st.integers(1, 30))
    def test_diagonal_rescaling_keeps_status_and_shifts_logdet(self, seed, k, m):
        rng = np.random.default_rng(seed)
        stack = np.stack([spd(rng, k) for _ in range(m)])
        d = 10.0 ** rng.uniform(-8.0, 8.0, size=(m, k))
        scaled = stack * d[:, :, None] * d[:, None, :]
        base, got = logdet_grid(stack), logdet_grid(scaled)
        assert np.array_equal(np.isfinite(got), np.isfinite(base))
        want = base + 2.0 * np.sum(np.log(d), axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_wide_dynamic_range_is_not_singular(self):
        assert chol_logdet(np.diag([1e6, 1e-8])) == pytest.approx(math.log(1e-2), rel=1e-12)

    def test_i_g_stays_above_i_f(self):
        j = np.diag([1.0, 1e-9])
        prior = GaussianPrior(np.zeros(2), np.diag([1e-8, 1e6]))
        ig, if_ = i_g(j, prior), i_f(j, prior)
        assert not ig.degenerate and np.isfinite(ig.value)
        assert ig.value >= if_.value

    @pytest.mark.parametrize("mat", [
        np.diag([1.0, 0.0]),
        np.diag([0.0, 1e6, 1e-8]),
        np.ones((2, 2)),
        np.ones((2, 2)) * np.outer([1e4, 1e-4], [1e4, 1e-4]),
    ])
    def test_exactly_singular_is_still_neg_inf(self, mat):
        assert chol_logdet(mat) == -math.inf
        assert logdet_grid(np.stack([mat, mat]))[1] == -math.inf


class TestGradient:
    @settings(max_examples=25)
    @given(seeds, st.integers(2, 5), st.integers(1, 5))
    def test_matches_looped_cho_solve(self, seed, k, k1):
        rng = np.random.default_rng(seed)
        prob = stack_problem(rng, 20, k1, k)
        alpha = rng.dirichlet(np.ones(k1))
        got, want = gradient(alpha, prob), looped_gradient(alpha, prob)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @settings(max_examples=10)
    @given(seeds)
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        prob = stack_problem(rng, 15, 3, 3)
        alpha = rng.dirichlet(np.ones(3)) * 0.8 + 0.2 / 3
        grad = gradient(alpha, prob)
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (objective(alpha + e, prob) - objective(alpha - e, prob)) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestBlockKernels:
    @settings(max_examples=25)
    @given(seeds, st.integers(3, 7))
    def test_reductions_match_looped_cho_solve(self, seed, k):
        rng = np.random.default_rng(seed)
        m = 12
        j = np.stack([spd(rng, k) for _ in range(m)])
        blocked = partition_info(j, spd(rng, k), int(rng.integers(1, k)), h_x=0.1)
        for check, second, inner_of in (
            (reduce_check_A, blocked.g22, lambda i, c: c),
            (reduce_check_B, blocked.p22, lambda i, c: blocked.j22[i] - c),
        ):
            got = check(blocked)
            trace, logdet = looped_reduction(blocked, second, inner_of)
            assert got.trace_mean == pytest.approx(trace, rel=1e-12, abs=1e-15)
            assert got.value == 0.5 * (logdet - k * LOG_2PI_E) + 0.1

    @settings(max_examples=40)
    @given(seeds, st.integers(2, 8), st.floats(1e-4, 0.5))
    def test_select_k1_matches_per_k1_scan(self, seed, k, eps_dr):
        rng = np.random.default_rng(seed)
        scales = np.sort(10.0 ** rng.uniform(-6, 2, k))[::-1]
        j = np.stack([np.diag(scales) + 0.01 * spd(rng, k) for _ in range(10)])
        if rng.uniform() < 0.3:  # a node whose trailing block cannot factor
            j[int(rng.integers(10)), -1, -1] = -5.0
        assert select_k1(j, eps_dr=eps_dr) == looped_select_k1(j, eps_dr)

    def test_select_k1_uses_leading_blocks_of_nodes_that_fail(self):
        """Node 0's J + I does not factor, but its leading block carries
        half of <ln det(J11 + I)> = 2, which is what admits K1 = 1."""
        lead = math.exp(2.0) - 1.0
        j = np.stack([np.diag([lead, 0.0, -5.0]), np.diag([lead, 0.0, 5.2])])
        assert looped_select_k1(j, eps_dr=0.07) == 1
        assert select_k1(j, eps_dr=0.07) == 1

    def test_gap_bounds_match_looped_inverse_roots(self):
        rng = np.random.default_rng(5)
        k, m = 4, 30
        j = np.stack([spd(rng, k) for _ in range(m)])
        prior = GaussianPrior(np.zeros(k), spd(rng, k))
        p, pp = prior.precision(), prior.precision()
        traces, frob, plus = [], [], []
        for a in j:
            vals, vecs = np.linalg.eigh(a)
            root = (vecs / np.sqrt(vals)) @ vecs.T
            w = root @ p @ root
            traces.append(np.trace(w))
            frob.append(np.linalg.norm(w, "fro"))
            plus.append(np.trace(root @ pp @ root))
        got = gap_bounds(j, prior)
        weights = np.full(m, 1.0 / m)
        # gap_bounds reads L^-1 off the Cholesky factor, not eigh's inverse roots.
        assert got.varsigma == pytest.approx(float(np.dot(weights, traces)), rel=1e-12)
        assert got.varsigma1 == pytest.approx(float(np.dot(weights, frob)), rel=1e-12)
        assert got.varsigma_plus == pytest.approx(float(np.dot(weights, plus)), rel=1e-12)


class TestErrorsNameTheNode:
    """A single non-positive-definite node, not node 0, is named in the error."""

    BAD = 3

    def stack(self, k=4, m=6, seed=9):
        rng = np.random.default_rng(seed)
        return np.stack([spd(rng, k) for _ in range(m)])

    @pytest.mark.parametrize("block, where", [("G11", (0, 0)), ("G22", (3, 3))])
    def test_reduce_check_A(self, block, where):
        j = self.stack()
        j[(self.BAD,) + where] = -50.0
        blocked = partition_info(j, 0.1 * np.eye(4), 2)
        with pytest.raises(ValueError, match=f"{block} is not positive-definite at node {self.BAD}"):
            reduce_check_A(blocked)

    def test_reduce_check_A_rounding_singular_block(self):
        """A G22 that factors only by rounding is singular by the pivot rule."""
        j = self.stack()
        j[self.BAD, 2:, 2:] = ROUNDING_SINGULAR
        blocked = partition_info(j, np.zeros((4, 4)), 2)
        with pytest.raises(ValueError, match=f"G22 is not positive-definite at node {self.BAD}"):
            reduce_check_A(blocked)

    def test_reduce_check_B(self):
        p = np.broadcast_to(np.eye(4), (6, 4, 4)).copy()
        p[self.BAD, 3, 3] = -1.0
        blocked = partition_info(self.stack(), p, 2)
        with pytest.raises(ValueError, match=f"P22 is not positive-definite at node {self.BAD}"):
            reduce_check_B(blocked)

    def test_gradient(self):
        """An indefinite G, and a G that factors only by rounding (S = 0, G = P)."""
        prob = stack_problem(np.random.default_rng(4), 6, 2, 3)
        rounding = np.eye(3)
        rounding[:2, :2] = ROUNDING_SINGULAR
        for p_bad, s_bad in ((-100.0 * np.eye(3), prob.s_values[self.BAD]), (rounding, 0.0)):
            p, s = prob.p_values.copy(), prob.s_values.copy()
            p[self.BAD], s[self.BAD] = p_bad, s_bad
            bad = OptimizationProblem(kind="I_G", thetas=prob.thetas, n=prob.n, s_values=s,
                                      p_values=p, weights=prob.weights, h_x=0.0)
            with pytest.raises(ValueError, match=f"singular at node {self.BAD}"):
                gradient(np.full(2, 0.5), bad)
            assert objective(np.full(2, 0.5), bad) == -math.inf

    def test_gap_bounds(self):
        j = self.stack()
        j[self.BAD] = -j[self.BAD]
        prior = GaussianPrior(np.zeros(4), np.eye(4))
        with pytest.raises(ValueError, match=f"degenerate J: .*not positive-definite at node {self.BAD}"):
            gap_bounds(j, prior)

    def test_capacity_prior(self):
        j = self.stack()
        j[self.BAD] = 0.0
        with pytest.raises(ValueError, match=f"determinant not positive at node {self.BAD}"):
            capacity_prior(j, np.linspace(0.0, 1.0, 6, endpoint=False), 1.0)

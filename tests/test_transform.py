"""Whitening, information pushforward, spectrum-gap analysis, block reduction."""

import itertools
import math
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SFC64, Generator, SeedSequence

from popcode_mi import transform
from popcode_mi.fisher import GaussianPrior
from popcode_mi.mi import LOG_2PI_E, i_g
from popcode_mi.transform import (
    Fig2Gap,
    fig2_gap_from_gram,
    load_patches,
    partition_info,
    patch_covariance,
    power_law_spectrum,
    pushforward_info,
    random_mixing_gram,
    reduce_check_A,
    reduce_check_B,
    select_k1,
    whiten,
)


def random_spd(rng, k, jitter=0.3):
    q = rng.standard_normal((k, k))
    return q @ q.T + jitter * np.eye(k)


def mixing_columns(k, n, rng):
    """K x N standard-normal matrix with unit columns, drawn column by column."""
    a = rng.standard_normal((n, k)).T
    return a / np.linalg.norm(a, axis=0)


def gap_of(a, spectrum):
    return fig2_gap_from_gram(a @ a.T, spectrum)


class TestWhiten:
    def test_identity_covariance(self):
        l_mat = whiten(np.eye(3))
        np.testing.assert_allclose(np.abs(l_mat), np.eye(3), atol=1e-12)
        x = np.array([0.3, -1.0, 2.0])
        np.testing.assert_allclose(np.abs(x @ l_mat.T), np.abs(x), rtol=1e-12)

    def test_diagonal_scaling(self):
        out = np.abs(np.array([2.0, 3.0]) @ whiten(np.diag([4.0, 1.0])).T)
        np.testing.assert_allclose(np.sort(out), np.sort([1.0, 3.0]), rtol=1e-12)

    def test_forward_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        l_mat = whiten(random_spd(rng, 5))
        x = rng.standard_normal(5)
        np.testing.assert_allclose(np.linalg.solve(l_mat, l_mat @ x), x, rtol=1e-10)

    def test_maps_the_covariance_to_the_identity(self):
        rng = np.random.default_rng(0)
        sigma = random_spd(rng, 5)
        l_mat = whiten(sigma)
        np.testing.assert_allclose(l_mat @ sigma @ l_mat.T, np.eye(5), atol=1e-10)

    def test_entropy_shift_is_half_logdet(self):
        """Whitening shifts the entropy by ln |det L| = -(1/2) ln det Sigma."""
        rng = np.random.default_rng(1)
        sigma = random_spd(rng, 4)
        _, h = pushforward_info(np.eye(4), whiten(sigma))
        assert h == pytest.approx(-0.5 * np.linalg.slogdet(sigma)[1], rel=1e-12)

    def test_sampled_covariance_whitens(self):
        """10^4 draws from a random 8-D Gaussian whiten to near-identity."""
        rng = np.random.default_rng(2)
        sigma = random_spd(rng, 8)
        samples = rng.multivariate_normal(np.zeros(8), sigma, size=10_000)
        l_mat = whiten(np.cov(samples, rowvar=False, bias=True))
        white = (samples - samples.mean(axis=0)) @ l_mat.T
        cov = white.T @ white / white.shape[0]
        assert np.linalg.norm(cov - np.eye(8)) < 0.05

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entry_is_named(self, value):
        """Not an all-NaN map, nor a NaN asymmetry: the first bad entry is named."""
        cov = np.eye(3)
        cov[1, 2] = cov[2, 1] = value
        with pytest.raises(ValueError,
                           match=rf"^covariance has a non-finite value {value!r} at row 1, column 2$"):
            whiten(cov)

    def test_rank_deficient_rejected(self):
        x = np.zeros((100, 3))
        x[:, :2] = np.random.default_rng(3).standard_normal((100, 2))
        with pytest.raises(ValueError, match="rank-deficient"):
            whiten(np.cov(x, rowvar=False, bias=True))

    def test_samples_are_not_a_covariance(self):
        """A sample matrix is rejected, square or not: whiten takes a covariance."""
        x = np.random.default_rng(3).standard_normal((100, 3))
        message = r"^expected a K x K covariance matrix, got shape \(100, 3\)$"
        with pytest.raises(ValueError, match=message):
            whiten(x)
        square = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match=r"^covariance must be symmetric; max asymmetry 1\.0$"):
            whiten(square)

    def test_empty_covariance_is_named(self):
        with pytest.raises(ValueError, match=r"^expected a K x K covariance matrix, got shape \(0, 0\)$"):
            whiten(np.zeros((0, 0)))


class TestPushforward:
    def test_identity_transform_is_a_no_op(self):
        rng = np.random.default_rng(4)
        j = random_spd(rng, 3)
        jt, h = pushforward_info(j, whiten(np.eye(3)), h_x=1.25)
        np.testing.assert_allclose(jt, j, atol=1e-12)
        assert h == pytest.approx(1.25, rel=1e-12)

    def test_scaling_transform(self):
        """x -> x/c maps J -> c^2 J and shifts entropy by -ln c per axis."""
        c = 2.0
        j = np.array([[3.0, 1.0], [1.0, 2.0]])
        jt, h = pushforward_info(j, whiten(np.diag([c**2, c**2])), h_x=0.0)
        np.testing.assert_allclose(jt, c**2 * j, rtol=1e-12)
        assert h == pytest.approx(-2 * math.log(c), rel=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_map_is_named(self, value):
        with pytest.raises(ValueError,
                           match=rf"^transform matrix has a non-finite value {value!r} at row 0, column 1$"):
            pushforward_info(np.eye(2), [[1.0, value], [0.0, 1.0]])

    def test_non_square_map_is_named(self):
        with pytest.raises(ValueError, match=r"^l_mat must be K x K and J \(K, K\) or \(M, K, K\): "
                                             r"got l_mat \(2, 3\) and J \(2, 2\), K = 2$"):
            pushforward_info(np.eye(2), np.ones((2, 3)))

    def test_map_and_j_of_different_k_are_named(self):
        with pytest.raises(ValueError, match=r"^l_mat must be K x K and J \(K, K\) or \(M, K, K\): "
                                             r"got l_mat \(2, 2\) and J \(4, 3, 3\), K = 2$"):
            pushforward_info(np.tile(np.eye(3), (4, 1, 1)), np.eye(2))

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_i_g_invariant_under_whitening(self, seed):
        """Mutual information is coordinate-free: whiten and recompute."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        sigma = random_spd(rng, k)
        j = random_spd(rng, k, jitter=0.05)
        before = i_g(j, GaussianPrior(np.zeros(k), sigma)).value
        jt, _ = pushforward_info(j, whiten(sigma))
        after = i_g(jt, GaussianPrior(np.zeros(k), np.eye(k))).value
        assert after == pytest.approx(before, abs=1e-9)


class TestFig2Gap:
    def test_difference_identity(self):
        """dI_F equals I_F - I_G whenever all three are finite."""
        rng = np.random.default_rng(5)
        for k in (2, 5, 9):
            gap = gap_of(mixing_columns(k, 30 * k, rng), power_law_spectrum(k))
            assert gap.di_f == pytest.approx(gap.i_f - gap.i_g, abs=1e-10)
            assert gap.di_f < 0.0
            assert gap.rel_di_f < 0.0

    def test_diagonal_closed_form(self):
        """B, D diagonal: dI_F = -(1/2) sum ln(1 + 1/(b_i d_i))."""
        b = np.diag([2.0, 5.0, 1.0])
        d = np.array([1.5, 0.25, 3.0])
        gap = fig2_gap_from_gram(b, d)
        expected_ig = 0.5 * np.sum(np.log1p(np.diag(b) * d))
        expected_dif = -0.5 * np.sum(np.log1p(1.0 / (np.diag(b) * d)))
        assert gap.i_g == pytest.approx(expected_ig, rel=1e-12)
        assert gap.di_f == pytest.approx(expected_dif, rel=1e-12)

    def test_gap_closes_as_the_prior_widens(self):
        """Scaling the spectrum up drives dI_F toward zero from below."""
        rng = np.random.default_rng(6)
        a = mixing_columns(4, 60, rng)
        gram = a @ a.T
        base = power_law_spectrum(4)
        gaps = [fig2_gap_from_gram(gram, s * base).di_f for s in (1.0, 1e3, 1e6)]
        assert gaps[0] < gaps[1] < gaps[2] < 0.0
        assert abs(gaps[2]) < 1e-4

    def test_matrix_and_gram_paths_agree(self):
        k, n, block = 6, 5000, transform._BLOCK
        columns = [mixing_columns(k, min(block, n - lo),
                                  Generator(SFC64(SeedSequence(7, spawn_key=(lo // block,)))))
                   for lo in range(0, n, block)]
        spectrum = power_law_spectrum(k)
        a = gap_of(np.hstack(columns), spectrum)
        b = fig2_gap_from_gram(random_mixing_gram(k, n, 7)[n], spectrum)
        assert a.i_g == pytest.approx(b.i_g, rel=1e-12)
        assert a.i_f == pytest.approx(b.i_f, rel=1e-12)

    def test_zero_spectrum_direction(self):
        """A zero-variance direction leaves I_G finite, I_F at -inf."""
        rng = np.random.default_rng(8)
        b = random_spd(rng, 4)
        d = np.array([1.0, 0.5, 0.0, 2.0])
        gap = fig2_gap_from_gram(b, d)
        keep = d > 0
        reduced = fig2_gap_from_gram(b[np.ix_(keep, keep)], d[keep])
        assert gap.i_g == reduced.i_g
        assert gap.i_f == -math.inf
        assert gap.di_f == -math.inf
        assert gap.rel_di_f == -math.inf

    def test_negative_spectrum_rejected(self):
        with pytest.raises(ValueError, match="negative entry"):
            fig2_gap_from_gram(np.eye(2), np.array([1.0, -0.25]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_spectrum_rejected(self, value):
        with pytest.raises(ValueError,
                           match=rf"^spectrum has a non-finite entry: {value!r} at index 1$"):
            fig2_gap_from_gram(np.eye(3), np.array([1.0, value, 0.5]))

    def test_singular_gram_reports_divergence(self):
        """N < K makes B rank-deficient: I_F family is -inf, I_G finite."""
        rng = np.random.default_rng(9)
        gap = gap_of(mixing_columns(5, 3, rng), power_law_spectrum(5))
        assert gap.i_f == -math.inf and gap.di_f == -math.inf
        assert np.isfinite(gap.i_g)

    def test_power_law_spectrum_normalization(self):
        s = power_law_spectrum(10, exponent=2.0)
        assert s.mean() == pytest.approx(1.0, rel=1e-12)
        ratios = s[:-1] / s[1:]
        np.testing.assert_allclose(ratios, (np.arange(2, 11) / np.arange(1, 10)) ** 2,
                                   rtol=1e-12)

    def test_mixing_matrix_has_unit_columns(self):
        """Tr(A A^T) is the sum of the squared column norms, one per column."""
        n = 2 * transform._BLOCK + 100
        grams = random_mixing_gram(4, n, 10, prefixes=[100, transform._BLOCK, transform._BLOCK + 7])
        assert sorted(grams) == [100, transform._BLOCK, transform._BLOCK + 7, n]
        for count, gram in grams.items():
            assert np.trace(gram) == pytest.approx(count, rel=1e-12)


def serial_grams(k, n, seed, prefixes=()):
    """The block-seeded mixing stream summed serially: the oracle for the pooled sum."""
    block = transform._BLOCK
    cuts = sorted({n, *prefixes})
    grams, gram = {}, np.zeros((k, k))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        rng = Generator(SFC64(SeedSequence(seed, spawn_key=(lo // block,))))
        a = rng.standard_normal((hi - lo, k)).T
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        edges = [lo] + [c for c in cuts if lo < c < hi] + [hi]
        for start, end in zip(edges, edges[1:]):
            part = a[:, start - lo:end - lo]
            gram += part @ part.T
            if end in cuts:
                grams[end] = gram.copy()
    return grams


def as_bytes(grams):
    return {count: gram.tobytes() for count, gram in grams.items()}


class TestRandomMixingGram:
    BLOCK = 64

    @pytest.fixture()
    def small_blocks(self, monkeypatch):
        """Blocks of ``BLOCK`` columns, so a few hundred columns span several."""
        monkeypatch.setattr(transform, "_BLOCK", self.BLOCK)

    @pytest.mark.parametrize("workers", [None, 1, 2, 4])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    def test_threads_match_the_serial_loop_bit_for_bit(self, n, workers, small_blocks):
        # The prefix (n + 1) // 2 splits a block whenever n > 2.
        k, prefixes = 7, [(n + 1) // 2]
        want = as_bytes(serial_grams(k, n, n, prefixes))
        if workers is None:
            got = random_mixing_gram(k, n, n, prefixes=prefixes)
        else:
            with ThreadPoolExecutor(workers) as pool:
                got = random_mixing_gram(k, n, n, pool, prefixes)
        assert as_bytes(got) == want

    @pytest.mark.parametrize("n", [transform._BLOCK - 1, transform._BLOCK, transform._BLOCK + 1,
                                   3 * transform._BLOCK + 17])
    def test_threads_match_the_serial_loop_at_the_cli_block(self, n):
        k, prefixes = 5, [n // 3, n - 1]
        with ThreadPoolExecutor(2) as pool:
            got = random_mixing_gram(k, n, 21, pool, prefixes)
        assert as_bytes(got) == as_bytes(serial_grams(k, n, 21, prefixes))

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_a_block_aligned_prefix_is_the_shorter_stream(self, blocks):
        k, p = 6, blocks * transform._BLOCK
        longer = random_mixing_gram(k, 3 * transform._BLOCK + 17, 4, prefixes=[p])[p]
        assert longer.tobytes() == random_mixing_gram(k, p, 4)[p].tobytes()

    def test_prefix_counts_outside_the_stream_are_rejected(self):
        with pytest.raises(ValueError, match=r"^prefix counts must lie in 1\.\.10, got \[0, 4\]$"):
            random_mixing_gram(3, 10, 0, prefixes=[4, 0])
        with pytest.raises(ValueError, match=r"got \[11\]$"):
            random_mixing_gram(3, 10, 0, prefixes=[11])

    def test_column_norms_match_numpy_on_a_full_block(self):
        # K = 900: the widest fig2 block, normalised by a fused dot product.
        k, n = 900, transform._BLOCK
        a = Generator(SFC64(SeedSequence(3, spawn_key=(0,)))).standard_normal((n, k)).T
        a /= np.linalg.norm(a, axis=0)
        np.testing.assert_allclose(random_mixing_gram(k, n, 3)[n], a @ a.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("workers", [2, 5])
    def test_cells_sharing_a_pool_neither_deadlock_nor_change_bits(self, workers, small_blocks):
        # Each call runs as a task of the pool its blocks are queued on; a
        # deadlock times out instead of hanging the suite.
        cells = [(5, 3 * self.BLOCK + 17), (3, 5 * self.BLOCK), (6, self.BLOCK + 1), (2, 1)] * 3
        want = [as_bytes(serial_grams(k, n, i, [n // 2 or 1])) for i, (k, n) in enumerate(cells)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        pool, futures = ThreadPoolExecutor(workers), []
        try:
            futures = [pool.submit(random_mixing_gram, k, n, i, pool, [n // 2 or 1])
                       for i, (k, n) in enumerate(cells)]
            got = [as_bytes(f.result(timeout=60)) for f in futures]
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=all(f.done() for f in futures), cancel_futures=True)
        assert got == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_draw_is_raised_by_the_caller(self, workers, small_blocks, monkeypatch):
        # With one worker the caller, itself that worker, draws every block;
        # with two a helper may be the one that fails.
        calls = itertools.count(1)

        def generator(bit_generator):
            if next(calls) == 3:
                raise FloatingPointError("draw failed")
            return Generator(bit_generator)

        monkeypatch.setattr(transform, "Generator", generator)
        pool = ThreadPoolExecutor(workers)
        try:
            call = pool.submit(random_mixing_gram, 4, 6 * self.BLOCK, 0, pool)
            with pytest.raises(FloatingPointError, match="draw failed"):
                call.result(timeout=60)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


class TestPatchIO:
    def _patches(self):
        rng = np.random.default_rng(11)
        return rng.standard_normal((50, 9)).astype(np.float32).astype(float)

    def test_binary_round_trip(self, tmp_path):
        x = self._patches()
        path = tmp_path / "p.bin"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<II", *x.shape))
            fh.write(x.astype("<f4").tobytes())
        np.testing.assert_allclose(load_patches(path), x, rtol=1e-7)

    def test_csv_round_trip(self, tmp_path):
        x = self._patches()
        path = tmp_path / "p.csv"
        np.savetxt(path, x, delimiter=",")
        np.testing.assert_allclose(load_patches(path), x, rtol=1e-12)

    def test_one_column_csv_is_one_pixel_per_patch(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1.0\n2.0\n3.5\n")
        np.testing.assert_array_equal(load_patches(path), [[1.0], [2.0], [3.5]])

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<II", 10, 9))
            fh.write(b"\x00" * 11)
        with pytest.raises(ValueError):
            load_patches(path)

    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    def test_empty_patch_matrix_rejected(self, tmp_path):
        binary, text = tmp_path / "empty.bin", tmp_path / "empty.csv"
        binary.write_bytes(struct.pack("<II", 0, 9))
        text.write_text("")
        for path in (binary, text):
            with pytest.raises(ValueError, match="holds no patch values"):
                load_patches(path)

    @pytest.mark.parametrize("suffix", [".bin", ".csv"])
    def test_non_finite_patch_value_is_named(self, tmp_path, suffix):
        x = self._patches()
        x[4, 6] = -math.inf
        path = tmp_path / f"p{suffix}"
        if suffix == ".csv":
            np.savetxt(path, x, delimiter=",")
        else:
            path.write_bytes(struct.pack("<II", *x.shape) + x.astype("<f4").tobytes())
        with pytest.raises(ValueError, match=r"non-finite value -inf at row 4, column 6$"):
            load_patches(path)

    def test_patch_covariance_removes_the_dc_direction(self):
        x = self._patches() + 3.0
        cov = patch_covariance(x)
        assert cov.shape == (9, 9)
        np.testing.assert_allclose(cov, cov.T, rtol=1e-12)
        ones = np.ones(9) / 3.0
        assert abs(ones @ cov @ ones) < 1e-12
        assert np.linalg.eigvalsh(cov).min() > -1e-12


class TestBlockReduction:
    @staticmethod
    def _blocked(rng, m=4, k=5, k1=2, h_x=0.7):
        j = np.stack([random_spd(rng, k, jitter=0.2) for _ in range(m)])
        p = random_spd(rng, k, jitter=0.5)
        w = rng.uniform(0.5, 1.5, m)
        w = w / w.sum()
        return partition_info(j, p, k1, weights=w, h_x=h_x)

    @staticmethod
    def _full_i_g(blocked):
        logdets = np.array([np.linalg.slogdet(g)[1] for g in blocked.g])
        return (0.5 * (float(blocked.weights @ logdets) - blocked.k * LOG_2PI_E)
                + blocked.h_x)

    def test_views_tile_the_matrix(self):
        rng = np.random.default_rng(12)
        blocked = self._blocked(rng)
        g = blocked.g[0]
        np.testing.assert_array_equal(blocked.g11[0], g[:2, :2])
        np.testing.assert_array_equal(blocked.g12[0], g[:2, 2:])
        np.testing.assert_array_equal(blocked.g22[0], g[2:, 2:])

    def test_partition_validation(self):
        j = np.eye(3)
        with pytest.raises(ValueError, match="k1 must satisfy"):
            partition_info(j, np.eye(3), 3)
        skew = np.eye(3).copy()
        skew[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            partition_info(skew, np.eye(3), 1)

    @pytest.mark.parametrize("k1", [1.5, True])
    def test_k1_must_be_an_integer(self, k1):
        """Not a TypeError from slicing, nor True taken as 1."""
        with pytest.raises(ValueError, match=rf"^k1 must be an integer of at least 1, got {k1!r}$"):
            partition_info(np.eye(3), np.eye(3), k1)

    def test_coupling_matrix_eigenvalues_live_in_unit_interval(self):
        """A_x = G22^{-1/2} G21 G11^{-1} G12 G22^{-1/2} has spectrum in [0, 1)."""
        rng = np.random.default_rng(13)
        blocked = self._blocked(rng, m=6)
        for i in range(6):
            g11, g12, g22 = blocked.g11[i], blocked.g12[i], blocked.g22[i]
            val, vec = np.linalg.eigh(g22)
            isqrt = vec @ np.diag(val**-0.5) @ vec.T
            a_x = isqrt @ g12.T @ np.linalg.solve(g11, g12) @ isqrt
            eigs = np.linalg.eigvalsh(a_x)
            assert eigs.min() >= -1e-10
            assert eigs.max() < 1.0

    def test_schur_logdet_identity(self):
        """ln det G = ln det G11 + ln det(P22 + C_x) for every node."""
        rng = np.random.default_rng(14)
        blocked = self._blocked(rng, m=5)
        for i in range(5):
            g = blocked.g[i]
            g11, g12 = blocked.g11[i], blocked.g12[i]
            c_x = blocked.j22[i] - g12.T @ np.linalg.solve(g11, g12)
            lhs = np.linalg.slogdet(g)[1]
            rhs = (np.linalg.slogdet(g11)[1]
                   + np.linalg.slogdet(blocked.p22[i] + c_x)[1])
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_block_diagonal_makes_check_A_exact(self):
        rng = np.random.default_rng(15)
        k1, k2 = 2, 3
        j = np.zeros((3, 5, 5))
        for i in range(3):
            j[i, :k1, :k1] = random_spd(rng, k1)
            j[i, k1:, k1:] = random_spd(rng, k2)
        p = np.diag(rng.uniform(0.5, 2.0, 5))
        blocked = partition_info(j, p, k1, h_x=0.3)
        check = reduce_check_A(blocked)
        assert check.trace_mean == pytest.approx(0.0, abs=1e-14)
        assert check.value == pytest.approx(self._full_i_g(blocked), abs=1e-12)

    def test_vanishing_c_x_makes_check_B_exact(self):
        """J22 = 0 with no coupling: the second block carries prior info only."""
        rng = np.random.default_rng(16)
        k1, k2 = 2, 2
        j = np.zeros((4, 4, 4))
        for i in range(4):
            j[i, :k1, :k1] = random_spd(rng, k1)
        p = np.diag(rng.uniform(0.5, 2.0, 4))
        blocked = partition_info(j, p, k1, h_x=-0.2)
        check = reduce_check_B(blocked)
        assert check.trace_mean == pytest.approx(0.0, abs=1e-14)
        assert check.value == pytest.approx(self._full_i_g(blocked), abs=1e-12)

    def test_weak_coupling_error_is_second_order(self):
        """I_G - I_G1 = O(eps^2) for off-diagonal coupling eps."""
        rng = np.random.default_rng(17)
        base = np.zeros((1, 4, 4))
        base[0, :2, :2] = random_spd(rng, 2)
        base[0, 2:, 2:] = random_spd(rng, 2)
        coupling = np.zeros((4, 4))
        coupling[:2, 2:] = rng.standard_normal((2, 2))
        coupling = coupling + coupling.T
        p = np.eye(4)

        def err(eps):
            blocked = partition_info(base + eps * coupling, p, 2)
            return abs(self._full_i_g(blocked) - reduce_check_A(blocked).value)

        e1, e2 = err(1e-3), err(2e-3)
        assert e2 / e1 == pytest.approx(4.0, rel=0.05)

    def test_indefinite_block_raises(self):
        j = np.array([[[-5.0, 0.0], [0.0, 1.0]]])
        blocked = partition_info(j, 0.1 * np.eye(2), 1)
        with pytest.raises(ValueError, match="not positive-definite at node"):
            reduce_check_A(blocked)


class TestSelectK1:
    def test_clear_cutoff(self):
        j = np.diag([100.0, 100.0, 1e-6])
        assert select_k1(j) == 2

    def test_no_cutoff_returns_k(self):
        assert select_k1(np.diag([2.0, 2.0, 2.0])) == 3

    def test_weights_must_match_the_nodes(self):
        with pytest.raises(ValueError, match=r"^need 4 node weights, got shape \(3,\)$"):
            select_k1(np.stack([np.eye(3)] * 4), weights=np.full(3, 1 / 3))

    def test_stack_must_be_square(self):
        with pytest.raises(ValueError, match=r"matrix stack, got shape \(4, 3, 2\)$"):
            select_k1(np.ones((4, 3, 2)))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            select_k1(np.eye(2), eps_dr=0.0)
        with pytest.raises(ValueError):
            select_k1(np.eye(2), eps_dr=1.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(18)
        j = np.diag(np.sort(rng.uniform(1e-8, 10.0, 12))[::-1])
        sizes = [select_k1(j, eps_dr=e) for e in (1e-4, 1e-2, 0.5)]
        assert sizes[0] >= sizes[1] >= sizes[2]


class TestNodeWeights:
    """The block reductions and ``select_k1`` average over nodes by mi's one rule."""

    @pytest.mark.parametrize("weights, message", [
        ([math.nan, 1.0], "node weight must be finite and nonnegative, got nan at node 0"),
        ([1.5, -0.5], "node weight must be finite and nonnegative, got -0.5 at node 1"),
        ([5.0, 5.0], "node weights must sum to 1, got 10.0"),
    ])
    def test_bad_weights_are_rejected(self, weights, message):
        j = np.stack([np.eye(3)] * 2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            partition_info(j, np.eye(3), 1, weights=weights)
        with pytest.raises(ValueError, match=f"^{message}$"):
            select_k1(j, weights=weights)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_a_zero_weight_node_changes_nothing(self, seed):
        """Inserting a node of weight 0 leaves every average as it was; for
        ``select_k1`` the inserted node is singular in every block, or not finite."""
        rng = np.random.default_rng(seed)
        m, k = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        # Energy decays along the axes, so the selected K1 depends on eps_dr.
        root = np.sqrt(np.logspace(1.0, -4.0, k))
        j = np.stack([root[:, None] * random_spd(rng, k, jitter=0.2) * root for _ in range(m)])
        w = rng.uniform(0.5, 1.5, m)
        w /= w.sum()
        at = int(rng.integers(0, m + 1))
        w_pad = np.insert(w, at, 0.0)

        p, k1 = random_spd(rng, k, jitter=0.5), int(rng.integers(1, k))
        j_pad = np.insert(j, at, random_spd(rng, k), axis=0)
        for check in (reduce_check_A, reduce_check_B):
            want = check(partition_info(j, p, k1, weights=w, h_x=0.4))
            got = check(partition_info(j_pad, p, k1, weights=w_pad, h_x=0.4))
            assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-12)
            assert got.trace_mean == pytest.approx(want.trace_mean, rel=1e-12, abs=1e-12)

        for singular in (-np.eye(k), np.diag(np.full(k, np.inf)), np.full((k, k), np.nan)):
            j_singular = np.insert(j, at, singular, axis=0)
            for eps_dr in (1e-4, 1e-3, 1e-2, 0.3):
                assert (select_k1(j_singular, eps_dr=eps_dr, weights=w_pad)
                        == select_k1(j, eps_dr=eps_dr, weights=w))

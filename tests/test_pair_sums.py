import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diskarea as da
from diskarea import pair_sums
from diskarea.area import _kernel_value

import oracles

TWO_PI = 2.0 * math.pi


def _inputs(seed, m, degree=1):
    rng = np.random.default_rng(seed)
    kern = rng.standard_normal(m)
    xi = np.sort(rng.uniform(0, TWO_PI, m))
    lift2 = np.concatenate([xi, xi + degree * TWO_PI])
    alphas = np.arange(m) * (TWO_PI / m)
    return kern, alphas, xi, lift2


def _sin_pair_sum_reference(kern, xi):
    """Pair by pair, 256 rows j at a time, so that large M stays small in memory."""
    m = xi.size
    ks = np.arange(m)[None, :]
    total = 0.0
    for start in range(0, m, 256):
        js = np.arange(start, min(start + 256, m))[:, None]
        total += float(np.sum(kern[(js - ks) % m] * np.sin(xi[js] - xi[ks])))
    return total


def _circular_convolve_reference(kern, v):
    """(K * v)[j] = sum over d of K[d] * v[(j - d) mod M], one lag at a time."""
    out = np.zeros(v.size)
    for d in range(v.size):
        out += kern[d] * np.roll(v, d)
    return out


def _gap_pair_sums_reference(kern, alphas, lift2):
    """Dense O(M^2) form: every g[j, k] = lift2[j + k] - lift2[k] is built."""
    m = kern.size
    js = np.arange(m)[:, None]
    ks = np.arange(m)[None, :]
    g = lift2[js + ks] - lift2[ks]
    a = alphas[:, None]
    diff = g - a
    cos_ref = float(np.sum(kern[:, None] * diff * np.cos(a)))
    gap_ref = float(np.sum(kern[:, None] * (np.sin(a) + diff * np.cos(a) - np.sin(g))))
    return cos_ref, gap_ref


class TestNumpyFallback:
    """The pair sums against dense and loop references."""

    # above 2048 the dense sum runs in lag blocks; 5000 ends in a shorter one
    @pytest.mark.parametrize("m", [8, 64, 300, 2049, 4096, 5000])
    def test_sin_pair_sum_against_dense_reference(self, m):
        kern, _, xi, _ = _inputs(m, m)
        got = pair_sums.sin_pair_sum(kern, xi)
        want = _sin_pair_sum_reference(kern, xi)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_gap_pair_sums_against_loop_reference(self):
        m = 64
        kern, alphas, xi, lift2 = _inputs(3, m)
        cos_ref = 0.0
        gap_ref = 0.0
        for j in range(m):
            for k in range(m):
                g = lift2[j + k] - lift2[k]
                diff = g - alphas[j]
                cos_ref += kern[j] * diff * math.cos(alphas[j])
                gap_ref += kern[j] * (math.sin(alphas[j]) + diff * math.cos(alphas[j]) - math.sin(g))
        got_cos, got_gap = pair_sums.gap_pair_sums(kern, alphas, lift2)
        assert abs(got_cos - cos_ref) < 1e-10
        assert abs(got_gap - gap_ref) < 1e-10

    def test_empty_input(self):
        # no samples, no pairs: both forms of the area sum and the gap sums are empty sums
        assert pair_sums.sin_pair_sum([], []) == 0.0
        assert pair_sums.sin_pair_sum_fft([], []) == 0.0
        assert pair_sums.gap_pair_sums([], [], []) == (0.0, 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pair_sums.sin_pair_sum(np.zeros(4), np.zeros(5))
        with pytest.raises(ValueError):
            pair_sums.sin_pair_sum_fft(np.zeros(4), np.zeros(5))
        with pytest.raises(ValueError):
            pair_sums.gap_pair_sums(np.zeros(4), np.zeros(4), np.zeros(7))


class TestDenseSinPairSum:
    """The direct-convolution ``sin_pair_sum`` against the pair-by-pair reference."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 400), seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 3))
    @example(m=399, seed=1, degree=1)
    @example(m=400, seed=2, degree=3)
    def test_matches_reference(self, m, seed, degree):
        # a kernel row that is not odd, so a reversed convolution shows
        rng = np.random.default_rng(seed)
        kern = rng.standard_normal(m)
        xi = np.sort(rng.uniform(0, degree * TWO_PI, m))
        got = pair_sums.sin_pair_sum(kern, xi)
        want = _sin_pair_sum_reference(kern, xi)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_single_sample_is_zero(self):
        assert pair_sums.sin_pair_sum([2.5], [0.3]) == 0.0

    def test_two_samples(self):
        # the lags +1 and -1 coincide, so the two pairs cancel for any kernel
        assert abs(pair_sums.sin_pair_sum([0.7, -1.9], [0.4, 2.3])) <= 1e-15

    def test_three_samples_closed_form(self):
        kern, xi = np.array([0.3, 1.1, -0.4]), np.array([0.2, 1.7, 4.0])
        cyc = math.sin(xi[1] - xi[0]) + math.sin(xi[2] - xi[1]) + math.sin(xi[0] - xi[2])
        want = (kern[1] - kern[2]) * cyc
        assert abs(pair_sums.sin_pair_sum(kern, xi) - want) <= 1e-14 * max(1.0, abs(want))

    def test_two_samples_exactly_zero(self):
        # at M = 2 every lag is its own negative, so the odd part of any kernel is 0
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert pair_sums.sin_pair_sum(rng.standard_normal(2), rng.uniform(-20.0, 20.0, 2)) == 0.0

    @pytest.mark.parametrize("m", [5, 64, 513, 1024, 4097])
    def test_even_kernel_exactly_zero(self, m):
        rng = np.random.default_rng(m)
        half = rng.standard_normal(m)
        kern = half + np.concatenate((half[:1], half[:0:-1]))  # K[d] == K[(-d) mod M] exactly
        xi = np.sort(rng.uniform(0, 3 * TWO_PI, m))
        assert pair_sums.sin_pair_sum(kern, xi) == 0.0

    @pytest.mark.parametrize("m", [2, 3, 7, 1000])
    def test_non_odd_kernel_matches_reference(self, m):
        # a kernel with an even part, which must cancel in the pairs
        rng = np.random.default_rng(1000 + m)
        kern = rng.standard_normal(m) + 0.5
        xi = np.sort(rng.uniform(0, 2 * TWO_PI, m))
        got = pair_sums.sin_pair_sum(kern, xi)
        want = _sin_pair_sum_reference(kern, xi)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("m", [257, 4097])
    def test_never_uses_the_fft(self, monkeypatch, m):
        kern, _, xi, _ = _inputs(5, m)
        want = _sin_pair_sum_reference(kern, xi)

        def forbidden(*args, **kwargs):
            raise AssertionError("the dense pair sum must not use the FFT")

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, forbidden)
        monkeypatch.setattr(pair_sums, "_sine_lag_sums", forbidden)
        got = pair_sums.sin_pair_sum(kern, xi)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("m", [777, 4096])
    def test_bit_identical_across_calls_and_offsets(self, m):
        kern, _, xi, _ = _inputs(11, m)
        first = pair_sums.sin_pair_sum(kern, xi)
        assert pair_sums.sin_pair_sum(kern, xi) == first
        kbuf = np.zeros(m + 3)
        xbuf = np.zeros(m + 5)
        for k_off, x_off in ((1, 1), (1, 3), (2, 4), (3, 0)):
            kbuf[k_off : k_off + m] = kern
            xbuf[x_off : x_off + m] = xi
            assert pair_sums.sin_pair_sum(kbuf[k_off : k_off + m], xbuf[x_off : x_off + m]) == first


class TestLagBlocks:
    """The circular convolution of the dense sum, taken in blocks of lags."""

    @pytest.mark.parametrize("m", [1, 2, 2048, 2049, 5000, 6144])
    def test_matches_dense_circular_convolution(self, m):
        # 2049 leaves one lag for the last block, 5000 a ragged one, 6144 three full blocks
        rng = np.random.default_rng(m)
        kern, v = rng.standard_normal(m), rng.standard_normal(m)
        got = pair_sums._circular_convolve(kern, v)
        want = _circular_convolve_reference(kern, v)
        assert got.shape == (m,)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(kern)) * np.max(np.abs(v))

    @pytest.mark.parametrize("m", [1, 2, 7, 1024, pair_sums._LAG_BLOCK])
    def test_one_block_is_the_whole_convolution(self, m):
        rng = np.random.default_rng(100 + m)
        kern, v = rng.standard_normal(m), rng.standard_normal(m)
        assert np.array_equal(pair_sums._circular_convolve(kern, v), oracles.circular_convolve_whole(kern, v))


def _sine_lag_sums_reference(xi):
    """S[d] = sum over k of sin(xi[(k + d) mod M] - xi[k]), one lag at a time."""
    return np.array([np.sum(np.sin(np.roll(xi, -d) - xi)) for d in range(xi.size)])


class TestDirectLagSums:
    """The direct sine lag sums behind the dense sum: one correlation, exactly odd."""

    # 2049 leaves one lag for the last block of the correlation, 5000 a ragged one
    @pytest.mark.parametrize("m", [1, 2, 7, 2048, 2049, 5000])
    def test_matches_lag_by_lag_reference(self, m):
        rng = np.random.default_rng(m)
        xi = np.sort(rng.uniform(0, 2 * TWO_PI, m))
        got = pair_sums._direct_sine_lag_sums(xi)
        assert got.shape == (m,)
        assert np.max(np.abs(got - _sine_lag_sums_reference(xi))) <= 1e-14 * m
        assert got[0] == 0.0
        assert np.array_equal(got[1:], -got[:0:-1])  # S[M - d] == -S[d], bit for bit

    @pytest.mark.parametrize("m", [7, 4097])
    def test_pair_sum_is_the_odd_dot_of_its_lag_sums(self, m):
        kern, _, xi, _ = _inputs(21, m)
        want = pair_sums._odd_lag_dot(kern, pair_sums._direct_sine_lag_sums(xi))
        assert pair_sums.sin_pair_sum(kern, xi) == want
        full = float(np.dot(kern, pair_sums._direct_sine_lag_sums(xi)))  # the lag dot over every d
        assert abs(want - full) <= 1e-12 * max(1.0, abs(want))


class TestFFTAgainstDense:
    """The FFT forms against the dense O(M^2) sums, over sizes odd and even."""

    # degree > 1 makes the increment sums D_j large; at degree 1 they vanish
    # on matched grids, and an error in them would go unseen
    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 600), seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 3))
    @example(m=1, seed=0, degree=1)
    @example(m=2, seed=0, degree=2)
    @example(m=599, seed=1, degree=1)
    @example(m=600, seed=2, degree=3)
    def test_gap_pair_sums(self, m, seed, degree):
        kern, alphas, _, lift2 = _inputs(seed, m, degree)
        got = pair_sums.gap_pair_sums(kern, alphas, lift2)
        want = _gap_pair_sums_reference(kern, alphas, lift2)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 600),
        seed=st.integers(0, 10_000),
        r=st.floats(0.1, 0.9),
    )
    @example(m=1, seed=0, r=0.5)
    @example(m=511, seed=3, r=0.9)
    def test_kernel_fft_value_matches_direct(self, m, seed, r):
        bmap = da.make_random_homeomorphism(seed, roughness=0.5)
        got = _kernel_value(bmap, r, m, pair_sums.sin_pair_sum_fft)
        want = _kernel_value(bmap, r, m, pair_sums.sin_pair_sum)
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-300)

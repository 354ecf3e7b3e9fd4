"""Pair sums over circle grids: the discrete double integrals of the area and
of the kernel-weighted tangent gap.

Both sums pair a kernel row K[d], indexed by the circular lag d = j - k, with
the sine of lift differences.  ``gap_pair_sums`` and ``sin_pair_sum_fft``
reduce that part to the circular sine lag sums of :func:`_sine_lag_sums`,
which cost O(M log M).  ``sin_pair_sum`` is the dense O(M^2) form of the area
sum; it is the ``kernel-direct`` area estimator and the oracle the FFT path
is checked against.  The pairs (j, k) and (k, j) have opposite sines, so only
the odd part of the kernel row contributes; expanding sin(xi_j - xi_k) into
sines and cosines of single samples, the sum is one circular convolution of
that odd part with the cosines, taken by direct summation.  It shares nothing
with the FFT path and needs O(M) memory.

The direct convolution runs over blocks of at most ``_LAG_BLOCK`` lags and
adds one partial convolution per block.  Each output of a block is a dot
product of at most 2048 terms, so the kernel slice and the window of cosines
it reads (16 KiB each) stay in a 48 KiB L1 data cache; one dot over all M
lags reads 16M bytes, 64 KiB at M = 4096.  Up to M = 2048 there is one
block, the same single convolution with the same bits.
"""

import numpy as np

_LAG_BLOCK = 2048  # lags summed by one partial convolution of _circular_convolve


def _sine_lag_sums(xi):
    """S[d] = sum over k of sin(xi[(k + d) mod M] - xi[k]), for every lag d.

    The circular autocorrelation of exp(i xi) is sum_k exp(i (xi[k+d] - xi[k]));
    its imaginary part is S, computed as Im(ifft(|fft(exp(i xi))|^2)).
    """
    f = np.fft.fft(np.exp(1j * np.asarray(xi, dtype=float)))
    return np.fft.ifft(f.real * f.real + f.imag * f.imag).imag


def _circular_convolve(kernel_row, v):
    """(K * v)[j] = sum over k of kernel_row[(j - k) mod M] * v[k], by direct summation.

    ext = v[1:] followed by v holds ext[i] = v[(i + 1) mod M], so it reads v
    circularly.  The lags d in [s, s + L) add the 'valid' linear convolution
    of ext[M - s - L : 2M - s - 1] with kernel_row[s : s + L]: its output j
    pairs kernel_row[d] with v[(j - d) mod M].  Blocks of L <= ``_LAG_BLOCK``
    lags keep each dot product in L1; at M <= ``_LAG_BLOCK`` the one block is
    the whole 'valid' convolution of ext with the row.  ``np.convolve`` is
    direct: one dot product per output, never an FFT.
    """
    m = v.size
    ext = np.concatenate((v[1:], v))
    width = min(m, _LAG_BLOCK)
    out = np.convolve(ext[m - width :], kernel_row[:width], "valid")
    for s in range(width, m, _LAG_BLOCK):
        width = min(_LAG_BLOCK, m - s)
        out += np.convolve(ext[m - s - width : 2 * m - s - 1], kernel_row[s : s + width], "valid")
    return out


def sin_pair_sum(kernel_row, xi):
    """sum over j,k of kernel_row[(j - k) mod M] * sin(xi[j] - xi[k]).

    Dense O(M^2) direct sum.  Swapping j and k flips the sign of the sine, so
    only the odd part of the kernel row counts: the sum is half the same sum
    over odd[d] = K[d] - K[(-d) mod M], for any row K.  With s = sin(xi) and
    c = cos(xi), sin(xi[j] - xi[k]) = s[j] c[k] - c[j] s[k], and as odd is
    odd both products give the same sum, so the total is s . (odd * c) for
    the circular convolution of :func:`_circular_convolve`: one convolution
    in blocks of at most 2048 lags (a single block, with its bits, up to
    M = 2048), M sines, M cosines and O(M) memory.  odd[0] is exactly 0, so
    is every lag of an even kernel, and so is every lag at M = 2.
    """
    kernel_row = np.ascontiguousarray(kernel_row, dtype=float)
    xi = np.ascontiguousarray(xi, dtype=float)
    m = xi.size
    if kernel_row.size != m:
        raise ValueError("kernel_row and xi must have equal length")
    if m == 0:
        return 0.0
    # K[(-d) mod M] for d = 0, 1, ..., M - 1 is K[0], K[M - 1], ..., K[1]
    odd = kernel_row - np.concatenate((kernel_row[:1], kernel_row[:0:-1]))
    return float(np.dot(np.sin(xi), _circular_convolve(odd, np.cos(xi))))


def sin_pair_sum_fft(kernel_row, xi):
    """The sum of :func:`sin_pair_sum`, reassociated over the lag d = j - k.

    sum over d of kernel_row[d] * S[d] with S the sine lag sums of the lift;
    O(M log M).  It is the pair sum of the ``kernel-fft`` area estimator.
    """
    kernel_row = np.asarray(kernel_row, dtype=float)
    if kernel_row.size != np.size(xi):
        raise ValueError("kernel_row and xi must have equal length")
    if kernel_row.size == 0:
        return 0.0
    return float(np.dot(kernel_row, _sine_lag_sums(xi)))


def gap_pair_sums(kernel_row, alphas, lift2):
    """Pair sums of the kernel against the tangent-line gap of the lift increments.

    ``lift2`` holds lift samples over two periods (2M entries with
    lift2[k + M] = lift2[k] + 2*pi for a degree-one lift; any whole multiple of
    2*pi will do, since sin(g) is taken from the first period alone);
    ``alphas`` is the first-period grid.
    With g = lift2[j + k] - lift2[k] the return value is the pair

        sum_{j,k} K[j] * (g - alphas[j]) * cos(alphas[j])
        sum_{j,k} K[j] * (sin(alphas[j]) + (g - alphas[j]) * cos(alphas[j]) - sin(g))

    Summing over k first, the second is sum_j K[j] (M sin a_j + cos a_j D_j - S_j)
    with S the sine lag sums of the first period and D_j = sum_k (g - a_j).
    D_j telescopes to sum_{k<j} (lift2[M + k] - lift2[k] - M (a_{k+1} - a_k)):
    it is read from the lift, so the first sum checks the lift's periodicity,
    and its terms are each near zero, so it carries no large cancellation.
    """
    kernel_row = np.ascontiguousarray(kernel_row, dtype=float)
    alphas = np.ascontiguousarray(alphas, dtype=float)
    lift2 = np.ascontiguousarray(lift2, dtype=float)
    m = kernel_row.size
    if alphas.size != m or lift2.size != 2 * m:
        raise ValueError("need len(alphas) == M and len(lift2) == 2*M")
    if m == 0:
        return 0.0, 0.0
    steps = lift2[m : 2 * m - 1] - lift2[: m - 1] - m * np.diff(alphas)
    drift = np.concatenate(([0.0], np.cumsum(steps)))
    cos_part = np.cos(alphas) * drift
    cos_acc = float(np.dot(kernel_row, cos_part))
    gap_acc = float(np.dot(kernel_row, m * np.sin(alphas) + cos_part - _sine_lag_sums(lift2[:m])))
    return cos_acc, gap_acc

"""Pair sums over circle grids: the discrete double integrals of the area and
of the kernel-weighted tangent gap.

Both sums pair a kernel row K[d], indexed by the circular lag d = j - k, with
the sine of lift differences.  Summing over k first reassociates either sum
over the lag: it is sum over d of K[d] S[d], with S[d] the sum over k of
sin(xi[k + d] - xi[k]), the sine lag sums of the lift.  Only the kernel row
depends on the radius, so the lag sums of one lift serve every radius.

There are two routes to S.  ``gap_pair_sums`` and ``sin_pair_sum_fft`` take
it from :func:`_sine_lag_sums`, one FFT autocorrelation, O(M log M).
``sin_pair_sum``, the dense O(M^2) form of the area sum, takes it from
:func:`_direct_sine_lag_sums` by direct summation: one circular correlation
of the sines with the cosines, no FFT and O(M) memory.  It is the
``kernel-direct`` area estimator and the oracle the FFT path is checked
against, so it shares nothing with that path.  Its S is exactly odd,
S[M - d] = -S[d], so the dot runs over the lags 1 .. (M - 1) // 2 against
the kernel's odd part K[d] - K[M - d].

The direct correlation runs over blocks of at most ``_LAG_BLOCK`` lags and
adds one partial convolution per block.  Each output of a block is a dot
product of at most 2048 terms, so the kernel slice and the window it reads
(16 KiB each) stay in a 48 KiB L1 data cache; one dot over all M lags reads
16M bytes, 64 KiB at M = 4096.
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


def _direct_sine_lag_sums(xi):
    """The sine lag sums S of :func:`_sine_lag_sums`, by direct summation.

    With s = sin(xi) and c = cos(xi), sin(xi[k + d] - xi[k]) = s[k + d] c[k]
    - c[k + d] s[k], so S[d] = X[d] - X[(-d) mod M] for the circular
    correlation X[d] = sum over k of s[k + d] c[k].  X is the circular
    convolution of :func:`_circular_convolve` of the reversed cosines
    c[(-k) mod M] with s: in lag blocks, no FFT and O(M) memory.  The
    difference makes S exactly odd: S[0] == 0 and S[M - d] == -S[d].
    """
    xi = np.asarray(xi, dtype=float)
    c = np.cos(xi)
    x = _circular_convolve(np.concatenate((c[:1], c[:0:-1])), np.sin(xi))
    return x - np.concatenate((x[:1], x[:0:-1]))


def _lag_dot(kernel_row, lag_sums):
    """sum over d of kernel_row[d] * lag_sums[d]."""
    return float(np.dot(kernel_row, lag_sums))


def _odd_lag_dot(kernel_row, lag_sums):
    """:func:`_lag_dot` for exactly odd lag sums, lag_sums[M - d] == -lag_sums[d].

    The lags d and M - d pair up, so the sum is the dot of the kernel's odd
    part K[d] - K[M - d] with lag_sums[d] over d = 1 .. (M - 1) // 2; lag 0
    and, for even M, lag M/2 add nothing.  An even kernel, K[d] == K[M - d],
    gives exactly 0, and so does every kernel at M = 2.
    """
    half = (kernel_row.size - 1) // 2
    odd = kernel_row[1 : half + 1] - kernel_row[:0:-1][:half]
    return float(np.dot(odd, lag_sums[1 : half + 1]))


def sin_pair_sum(kernel_row, xi):
    """sum over j,k of kernel_row[(j - k) mod M] * sin(xi[j] - xi[k]).

    Dense O(M^2) direct sum, reassociated over the lag like
    :func:`sin_pair_sum_fft`: :func:`_odd_lag_dot` of the row with the lag
    sums of :func:`_direct_sine_lag_sums`, one circular correlation in
    blocks of at most 2048 lags, M sines, M cosines and O(M) memory, never
    an FFT.  Only the row depends on the radius; ``area`` keeps the lag sums
    of a map for its further radii, and this function, which the benchmark
    times, takes them afresh on every call.
    """
    kernel_row = np.ascontiguousarray(kernel_row, dtype=float)
    xi = np.ascontiguousarray(xi, dtype=float)
    m = xi.size
    if kernel_row.size != m:
        raise ValueError("kernel_row and xi must have equal length")
    if m == 0:
        return 0.0
    return _odd_lag_dot(kernel_row, _direct_sine_lag_sums(xi))


def sin_pair_sum_fft(kernel_row, xi):
    """The sum of :func:`sin_pair_sum`, with the lag sums of :func:`_sine_lag_sums`.

    :func:`_lag_dot` of the row with them; O(M log M).  It is the pair sum
    of the ``kernel-fft`` area estimator.
    """
    kernel_row = np.asarray(kernel_row, dtype=float)
    if kernel_row.size != np.size(xi):
        raise ValueError("kernel_row and xi must have equal length")
    if kernel_row.size == 0:
        return 0.0
    return _lag_dot(kernel_row, _sine_lag_sums(xi))


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

"""Pair sums over circle grids: the discrete double integrals of the area and
of the kernel-weighted tangent gap.

Both sums pair a kernel row K[d], indexed by the circular lag d = j - k, with
the sine of lift differences.  ``gap_pair_sums`` and the FFT area estimator
reduce that part to the circular sine lag sums of :func:`_sine_lag_sums`,
which cost O(M log M).  ``sin_pair_sum`` is the dense O(M^2) form of the area
sum; it is the ``kernel-direct`` area estimator and the oracle the FFT path
is checked against.
"""

import numpy as np

_BLOCK = 256


def _sine_lag_sums(xi):
    """S[d] = sum over k of sin(xi[(k + d) mod M] - xi[k]), for every lag d.

    The circular autocorrelation of exp(i xi) is sum_k exp(i (xi[k+d] - xi[k]));
    its imaginary part is S, computed as Im(ifft(|fft(exp(i xi))|^2)).
    """
    f = np.fft.fft(np.exp(1j * np.asarray(xi, dtype=float)))
    return np.fft.ifft(f.real * f.real + f.imag * f.imag).imag


def sin_pair_sum(kernel_row, xi):
    """sum over j,k of kernel_row[(j - k) mod M] * sin(xi[j] - xi[k]).

    Dense O(M^2) evaluation, in row blocks that keep the working set below
    about 32 MB whatever M is.
    """
    kernel_row = np.ascontiguousarray(kernel_row, dtype=float)
    xi = np.ascontiguousarray(xi, dtype=float)
    m = xi.size
    if kernel_row.size != m:
        raise ValueError("kernel_row and xi must have equal length")
    ks = np.arange(m)
    acc = 0.0
    for j0 in range(0, m, _BLOCK):
        j1 = min(j0 + _BLOCK, m)
        js = np.arange(j0, j1)
        idx = (js[:, None] - ks[None, :]) % m
        acc += float(np.sum(kernel_row[idx] * np.sin(xi[j0:j1, None] - xi[None, :])))
    return acc


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
    steps = lift2[m : 2 * m - 1] - lift2[: m - 1] - m * np.diff(alphas)
    drift = np.concatenate(([0.0], np.cumsum(steps)))
    cos_part = np.cos(alphas) * drift
    cos_acc = float(np.dot(kernel_row, cos_part))
    gap_acc = float(np.dot(kernel_row, m * np.sin(alphas) + cos_part - _sine_lag_sums(lift2[:m])))
    return cos_acc, gap_acc

"""RIR tap kernel: Hann-windowed sinc fractional delays summed into a buffer."""

import numpy as np

BACKEND = "numpy"
SINC_HALF_WIDTH = 40  # 81-tap windowed-sinc fractional delays

_CHUNK = 4096  # images per block: 4096 x 81 float64 taps is 2.7 MB per array


def accumulate_sinc_taps(rir, delays, amps):
    """Add a Hann-windowed sinc at each fractional delay into the buffer.

    For a delay d with base b = floor(d) and fraction f = d - b, the tap at
    b + j (|j| <= SINC_HALF_WIDTH) gets amp * sinc(j - f) * w(j - f), where
    w(x) = 0.5 * (1 + cos(pi * x / (SINC_HALF_WIDTH + 1))). Two identities leave
    three transcendental calls per image instead of two per tap:
    sin(pi * (j - f)) = -(-1)^j * sin(pi * f), and cos(c*j - c*f) expanded
    over a per-offset table of cos(c*j) and sin(c*j). j - f is zero only at
    j = 0 for an integer delay, where the tap is the amplitude itself. Taps
    outside the buffer are dropped. Adds into rir in place and returns it.
    """
    n = len(rir)
    offsets = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1)
    scale = np.pi / (SINC_HALF_WIDTH + 1)
    sign = np.where(offsets % 2 == 0, -1.0, 1.0) / np.pi  # -(-1)^j / pi
    half_cos = 0.5 * np.cos(scale * offsets)
    half_sin = 0.5 * np.sin(scale * offsets)
    for i in range(0, len(delays), _CHUNK):
        d = delays[i : i + _CHUNK]
        a = amps[i : i + _CHUNK]
        base = np.floor(d)
        frac = d - base
        # sin(pi f) taken from the nearer integer keeps its precision as f -> 1
        coef = a * np.sin(np.pi * np.minimum(frac, 1.0 - frac))
        arg = offsets - frac[:, None]
        integer = frac == 0.0
        arg[integer, SINC_HALF_WIDTH] = 1.0  # avoids 0 / 0; the tap is set below
        vals = np.outer(coef, sign)
        vals /= arg
        cos_f = np.cos(scale * frac)[:, None]
        sin_f = np.sin(scale * frac)[:, None]
        vals *= 0.5 + half_cos * cos_f + half_sin * sin_f
        vals[integer, SINC_HALF_WIDTH] = a[integer]
        pos = base.astype(np.int64)[:, None] + offsets
        if pos[:, 0].min() < 0 or pos[:, -1].max() >= n:
            inside = (pos >= 0) & (pos < n)
            pos, vals = pos[inside], vals[inside]
        rir += np.bincount(pos.ravel(), weights=vals.ravel(), minlength=n)
    return rir

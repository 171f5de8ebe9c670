"""Hot numeric kernels, in numpy.

The quadrature propagation loop, the Monte Carlo bridge sampler, and the
segment-crossing counter dominate runtime.  Bundle samples come from a
counter-based stream (splitmix-style hash of seed and index), so they
depend only on (seed, path_id, slice_id).

Propagation is Bluestein's chirp-z transform (Rabiner, Schafer & Rader
1969; Bluestein 1970): on uniform grids the quadrature is one FFT
convolution, equal to the direct sum up to rounding (3e-11 of the peak
on desk's 993 -> 4096 propagations).  Its length is the smallest
2^a * 3^b * 5^c >= n_in + n_out - 1 (5120 for 993 -> 4096, not 8192),
which pocketfft's mixed-radix plans run directly.  The kernel chirp's
spectrum depends only on (n_in, n_out, g = coef*ho*hi), so it is planned
once per such key: a private least-recently-used table of 8 read-only
arrays (a desk sweep needs 5, about 0.3 MB).  A planned spectrum is the
array a cold call computes, so the bytes do not depend on what ran
before.  pocketfft is single-threaded and runs the same operations on
every call, so these bytes depend on neither the worker count nor the
run.  Two screen samples of the mirror slit pair (psi_A, psi_B of a
source on the axis with slits at +-d/2, on an even screen grid) are
direct sums: the pair next to x = 0, equal in exact arithmetic.  The
visibility extrema search treats two exactly equal samples as no
maximum, and at desk d = rho/2 the kick-reference verdict hangs on
their last-ulp rounding, which the direct sum reproduces.  Those sums
go once that search is plateau-aware.

The Monte Carlo phase sum draws each path's fluctuation action whole.
A path's fluctuation phase (lam/2) * sum_k (z_k - zbar)^2 over n iid
normals is (lam/2) * |Hz|^2 for the (n-1) x n Helmert matrix H, whose
rows are orthonormal and orthogonal to (1, ..., 1), and Hz is n-1 iid
normals (Cochran 1934): the sum is exactly chi-squared with n-1 degrees
of freedom.  So each path takes one chisquare(n-1) variate from
numpy's PCG64 generator seeded with the path-sum key (PCG64 by name, not
default_rng, whose bit generator numpy may change), and n = 1 takes no
draw.  Paths are drawn in consecutive blocks of _BLOCK from that one
generator, which gives the same bits as one call for the whole array,
so the bytes do not depend on the block size; a block is written into
the output's imaginary part, scaled and exponentiated in place.  The
variates per key follow numpy's chisquare algorithm, which numpy may
change between releases (NEP 19); no CLI artifact reads them.  The
bundles' counter-based stream (_draws) is not involved, so sampled
bundles keep their bits.  The package starts no thread.
``numpy.fft`` and ``numpy.random`` are reached as ``np.fft`` and
``np.random`` at call time: ``import numpy`` loads neither, and a run
that never needs one never pays for its import.

Segment crossings are pruned by z-slab (a special case of interval
pruning in sweep-line intersection; Shamos & Hoey 1976, Bentley &
Ottmann 1979).  A crossing point lies on both segments, so their
z-ranges overlap.  Each segment column (segment k of every path of a
bundle) gets a z-envelope, the min and max of its valid segments' ends,
widened by a 2^-32 relative slack for rounding; only column pairs whose
envelopes overlap are tested, and no other pair is evaluated.  Tested
pairs go through the same elementwise expressions as an all-pairs loop
and come out in the same order, so the points are the same to the bit.
The one difference: for collinear segments an all-pairs loop's
``denom`` is rounding noise and can report a "hit" between segments
with disjoint z-ranges; that is no crossing, and pruning skips it.
Bundles between the source, barrier and screen planes share linear
z-slices, so S_to_B against A_to_screen_k meets in one slab: about one
column pair instead of n_slices^2.
"""

from __future__ import annotations

import functools

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Counter-based random stream (splitmix64 finalizer).
# u64(key, i) depends only on (key, i); a Box-Muller draw consumes two.
# ---------------------------------------------------------------------------


def mix64(z: int) -> int:
    """Scalar splitmix64 finalizer on python ints (for key derivation)."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def stream_key(seed: int, stream: int) -> int:
    """Derive an independent 64-bit key for (seed, stream)."""
    return mix64((mix64(seed & _MASK) + (stream & _MASK) * _GOLDEN) & _MASK)


def _draws(key: int):
    """Closure (i, j) -> (r2, theta) of Box-Muller draws i..j-1 under
    key: draw d hashes counters 2d+1 and 2d+2 into uniforms u1 in (0,1]
    and u2 in [0,1) from their top 53 bits, r2 = -2 ln u1 and
    theta = 2 pi u2.  Hash steps run in place; the 53-bit values convert
    through an int64 view, exact below 2^53 and faster than the unsigned
    cast."""
    k, golden = np.uint64(key), np.uint64(_GOLDEN)
    steps = [(np.uint64(s), np.uint64(m)) for s, m in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))]

    def bits53(z: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
        z *= golden
        z += k
        for shift, mult in steps:
            z ^= np.right_shift(z, shift, out=tmp)
            z *= mult
        z ^= np.right_shift(z, np.uint64(31), out=tmp)
        z >>= np.uint64(11)
        np.copyto(out, z.view(np.int64))
        return out

    def draws(i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        # three buffers: u1 is a's shift scratch until it takes a's
        # floats, then a is b's scratch and takes b's floats
        a = np.arange(2 * i + 1, 2 * j, 2, dtype=np.uint64)
        b = a + np.uint64(1)
        u1 = np.empty(a.size, np.float64)
        bits53(a, u1.view(np.uint64), u1)
        u2 = bits53(b, a, a.view(np.float64))
        u1 += 1.0
        u1 *= 2.0**-53
        u2 *= 2.0**-53
        np.log(u1, out=u1)
        u1 *= -2.0
        u2 *= 2.0 * np.pi
        return u1, u2

    return draws


# ---------------------------------------------------------------------------
# Quadrature propagation: out[j] = pref * dx * sum_i v[i] * exp(i*coef*(xo-xi)^2)
# ---------------------------------------------------------------------------


def _fft_length(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= n, a length pocketfft's
    mixed-radix plans run without padding to a power of two."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=8)
def _chirp_plan(n_in: int, n_out: int, g: float) -> tuple[int, np.ndarray]:
    """FFT length and read-only spectrum of the kernel chirp
    exp(i*g*(p-q)^2) of one convolution shape."""
    # p - q = m + (n_in - n_out)/2 for m = j - i in -(n_in - 1) .. n_out - 1,
    # m wrapped to n >= n_in + n_out - 1 points
    n = _fft_length(n_in + n_out - 1)
    m = np.arange(1 - n_in, n_out)
    k = m + 0.5 * (n_in - n_out)
    h = np.zeros(n, np.complex128)
    h[m % n] = np.exp(1j * (g * k * k))
    spectrum = np.fft.fft(h)
    spectrum.setflags(write=False)
    return n, spectrum


def propagate_sum(x_out, x_in, values, dx, pref, coef):
    """Kernel quadrature on uniform grids by Bluestein's chirp-z transform.

    With xo = mo + p*ho, xi = mi + q*hi (p, q centred indices) and
    p*q = (p^2 + q^2 - (p-q)^2)/2, coef*(xo - xi)^2 splits into a chirp
    on the output, a chirp on the input and g*(p-q)^2, g = coef*ho*hi;
    the last is one FFT convolution of the smallest 5-smooth length
    >= n_in + n_out - 1.  The spectrum of exp(i*g*(p-q)^2) comes from
    the plan for (n_in, n_out, g), so a call does one forward and one
    inverse FFT of its own, with the same bytes as a cold plan.
    """
    x_out = np.ascontiguousarray(x_out, dtype=np.float64)
    x_in = np.ascontiguousarray(x_in, dtype=np.float64)
    values = np.ascontiguousarray(values, dtype=np.complex128)
    coef = float(coef)
    n_in, n_out = x_in.size, x_out.size
    mi = 0.5 * (x_in[0] + x_in[-1])
    mo = 0.5 * (x_out[0] + x_out[-1])
    hi = (x_in[-1] - x_in[0]) / (n_in - 1) if n_in > 1 else 0.0
    ho = (x_out[-1] - x_out[0]) / (n_out - 1) if n_out > 1 else 0.0
    g = coef * ho * hi
    q = np.arange(n_in) - 0.5 * (n_in - 1)
    p = np.arange(n_out) - 0.5 * (n_out - 1)
    b = x_in - mi
    u = values * np.exp(1j * (coef * b * (b - 2.0 * (mo - mi)) - g * q * q))
    n, spectrum = _chirp_plan(n_in, n_out, float(g))
    y = np.fft.fft(u, n)
    y *= spectrum
    y = np.fft.ifft(y)[:n_out]
    a = x_out - mi
    y *= np.exp(1j * (coef * a * a - g * p * p))
    return y * (complex(pref) * float(dx))


def direct_sum(x_out, x_in, values, dx, pref, coef):
    """The same quadrature as a direct sum, each output point's terms
    added in input order: for the few points whose last bits matter."""
    d = np.subtract.outer(np.asarray(x_out, np.float64), np.asarray(x_in, np.float64))
    return (np.exp(1j * (float(coef) * d * d)) * values).sum(axis=1) * (complex(pref) * float(dx))


# ---------------------------------------------------------------------------
# Bridge sampling for the Monte Carlo kernel estimate.
# bridge_offsets: path p, slice k is draw p*n_slices + k, z = r cos(theta).
# Path positions: straight line plus sigma * (cumsum(z) - (j/n)*sum(z)).
# mc_phase_array: path p is chisquare variate p of the key's PCG64 stream.
# ---------------------------------------------------------------------------


def bridge_offsets(key: int, n_paths: int, n_slices: int, sigma: float) -> np.ndarray:
    """(n_paths, n_slices+1) bridge offsets, zero at both endpoints."""
    z, theta = _draws(key)(0, n_paths * n_slices)
    np.sqrt(z, out=z)
    z *= np.cos(theta, out=theta)
    c = np.cumsum(z.reshape(n_paths, n_slices), axis=1)
    total = c[:, -1:]
    frac = np.arange(1, n_slices + 1, dtype=np.float64) / n_slices
    b = np.zeros((n_paths, n_slices + 1), np.float64)
    b[:, 1:] = sigma * (c - frac[None, :] * total)
    b[:, -1] = 0.0  # exact by construction: c_n - 1.0*c_n
    return b


# Paths per block of mc_phase_array: one block-sized float64 temporary
# (256 KiB) besides the output.
_BLOCK = 1 << 15


def mc_phase_array(key, n_paths, n_slices, lam):
    """Per-path fluctuation phases exp(i*(lam/2)*sum_k (z_k - zbar)^2) of
    bridges with n_slices standard normal increments z; summed by the
    caller.

    sum_k (z_k - zbar)^2 over n iid normals is chi-squared with n-1
    degrees of freedom (Helmert modes), so path p's sum is chisquare
    variate p of np.random.Generator(np.random.PCG64(key)), drawn in
    blocks of _BLOCK paths with the bits of one call; n_slices = 1 gives
    phases of exactly 1."""
    if n_slices == 1:
        return np.ones(n_paths, np.complex128)
    gen = np.random.Generator(np.random.PCG64(key))
    half_lam = 0.5 * float(lam)
    out = np.zeros(n_paths, np.complex128)
    for s in range(0, n_paths, _BLOCK):
        block = out[s : s + _BLOCK]
        block.imag = gen.chisquare(n_slices - 1, block.size)
        block.imag *= half_lam
        np.exp(block, out=block)
    return out


# ---------------------------------------------------------------------------
# Segment crossings between two path bundles in the (z, x) plane.
# Packed form: coords (n_paths, n_events), lengths give valid event counts;
# segment k of a path runs from event k to event k+1.  Touching endpoints
# count as a crossing; exact orientation arithmetic is not needed at the
# scales involved.
# ---------------------------------------------------------------------------

# Elements per broadcast block of (a path, b path, column pair) tests.
_CROSSING_BLOCK = 1 << 20
# Outward slack on each z-envelope, relative to its magnitude.  The hit
# test uses the rounded direction p1 - p0, whose end can miss p1 by an
# ulp, and rounded t, u can accept a touch a few ulps past a segment end.
_Z_SLACK = 2.0**-32


def _segments(z, x, lens):
    """Segment origins, directions and validity of a packed bundle, plus
    each column's z-envelope over its valid segments, widened by the
    slack (an empty column gets [inf, -inf], which overlaps nothing)."""
    z = np.asarray(z, np.float64)
    x = np.asarray(x, np.float64)
    valid = np.arange(z.shape[1] - 1) < np.asarray(lens, np.int64)[:, None] - 1
    z0, z1 = z[:, :-1], z[:, 1:]
    lo = np.where(valid, np.minimum(z0, z1), np.inf).min(axis=0, initial=np.inf)
    hi = np.where(valid, np.maximum(z0, z1), -np.inf).max(axis=0, initial=-np.inf)
    slack = _Z_SLACK * np.where(lo <= hi, np.maximum(np.abs(lo), np.abs(hi)), 0.0)
    return z0, x[:, :-1], z1 - z0, x[:, 1:] - x[:, :-1], valid, lo - slack, hi + slack


def segment_crossings(az, ax, alen, bz, bx, blen):
    """All crossing points (z, x) between bundle a and bundle b, ordered
    by (path of a, path of b, segment of a, segment of b)."""
    p0z, p0x, rz, rx, a_ok, a_lo, a_hi = _segments(az, ax, alen)
    q0z, q0x, sz, sx, b_ok, b_lo, b_hi = _segments(bz, bx, blen)
    ca, cb = np.nonzero((a_lo[:, None] <= b_hi[None, :]) & (b_lo[None, :] <= a_hi[:, None]))
    found = []
    step = max(1, _CROSSING_BLOCK // max(a_ok.shape[0] * b_ok.shape[0], 1))
    for s in range(0, ca.size, step):
        ka, kb = ca[s : s + step], cb[s : s + step]
        # (a path, b path, column pair); same expressions as an all-pairs loop
        rz_, rx_ = rz[:, None, ka], rx[:, None, ka]
        sz_, sx_ = sz[None, :, kb], sx[None, :, kb]
        denom = rz_ * sx_ - rx_ * sz_
        qpz = q0z[None, :, kb] - p0z[:, None, ka]
        qpx = q0x[None, :, kb] - p0x[:, None, ka]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = (qpz * sx_ - qpx * sz_) / denom
            u = (qpz * rx_ - qpx * rz_) / denom
        hit = a_ok[:, None, ka] & b_ok[None, :, kb] & (denom != 0.0)
        hit &= (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
        i, j, k = np.nonzero(hit)
        found.append((i, j, ka[k], kb[k], t[i, j, k]))
    if not found:
        return []
    i, j, sa, sb, t = (np.concatenate(col) for col in zip(*found))
    order = np.lexsort((sb, sa, j, i))
    i, sa, t = i[order], sa[order], t[order]
    zc = p0z[i, sa] + t * rz[i, sa]
    xc = p0x[i, sa] + t * rx[i, sa]
    return list(zip(zc.tolist(), xc.tolist()))

"""Hot numeric kernels with two interchangeable backends.

The quadrature propagation loop, the Monte Carlo bridge sampler, and the
segment-crossing counter dominate runtime.  Each has a numba @njit
implementation and a vectorized pure-numpy fallback.  Selection:

    TWOSLIT_BACKEND=numba   force numba (error if unavailable)
    TWOSLIT_BACKEND=numpy   force the numpy fallback
    unset / auto            numba when importable, else numpy

Both backends are deterministic: every output element is a fixed-order
reduction, so results do not depend on thread count or scheduling.
Random streams are counter-based (splitmix-style hash of seed and index),
so path samples depend only on (seed, path_id, slice_id).
"""

from __future__ import annotations

import math
import os

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

try:
    import numba
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore
        def wrap(f):
            return f

        return wrap

    prange = range


def _pick_backend() -> tuple[str, str | None]:
    # Importing must never fail on a bad env var; the problem is recorded in
    # BACKEND_ERROR so the CLI can report it and exit instead of computing
    # with a backend the caller did not ask for.
    choice = os.environ.get("TWOSLIT_BACKEND", "auto").strip().lower()
    fallback = "numba" if HAVE_NUMBA else "numpy"
    if choice in ("", "auto"):
        return fallback, None
    if choice == "numba":
        if not HAVE_NUMBA:
            return "numpy", "TWOSLIT_BACKEND=numba but numba is not importable"
        return "numba", None
    if choice == "numpy":
        return "numpy", None
    return fallback, f"TWOSLIT_BACKEND must be auto|numba|numpy, got {choice!r}"


BACKEND, BACKEND_ERROR = _pick_backend()


def set_threads(n: int) -> None:
    """Set the numba thread count. Results never depend on it."""
    if HAVE_NUMBA and n >= 1:
        numba.set_num_threads(min(n, numba.config.NUMBA_NUM_THREADS))


# ---------------------------------------------------------------------------
# Counter-based random stream (splitmix64 finalizer).
# u64(key, i) depends only on (key, i); normals consume two u64 per draw.
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


def _normals_numpy(key: int, start: int, count: int) -> np.ndarray:
    """count standard normals for draw indices start..start+count-1."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    k = np.uint64(key)

    def finalize(z: np.ndarray) -> np.ndarray:
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(0xBF58476D1CE4E5B9)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    a = finalize(k + (np.uint64(2) * idx + np.uint64(1)) * np.uint64(_GOLDEN))
    b = finalize(k + (np.uint64(2) * idx + np.uint64(2)) * np.uint64(_GOLDEN))
    # (0,1] uniforms from the top 53 bits
    u1 = ((a >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0**-53)
    u2 = (b >> np.uint64(11)).astype(np.float64) * (2.0**-53)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


if HAVE_NUMBA:

    @njit(cache=True, inline="always")
    def _finalize64(z):
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(0xBF58476D1CE4E5B9)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    @njit(cache=True, inline="always")
    def _normal_at(key, draw_index):
        g = np.uint64(0x9E3779B97F4A7C15)
        two = np.uint64(2)
        one = np.uint64(1)
        a = _finalize64(key + (two * draw_index + one) * g)
        b = _finalize64(key + (two * draw_index + two) * g)
        u1 = ((a >> np.uint64(11)) + np.uint64(1)) * (2.0**-53)
        u2 = (b >> np.uint64(11)) * (2.0**-53)
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


# ---------------------------------------------------------------------------
# Quadrature propagation: out[j] = pref * dx * sum_i v[i] * exp(i*coef*(xo-xi)^2)
# ---------------------------------------------------------------------------


def _propagate_numpy(x_out, x_in, values, dx, pref, coef):
    out = np.empty(x_out.size, np.complex128)
    # chunk output rows to bound the (chunk, n_in) temporaries
    chunk = max(1, int(4_000_000 // max(x_in.size, 1)))
    for s in range(0, x_out.size, chunk):
        d = x_out[s : s + chunk, None] - x_in[None, :]
        ph = coef * d * d
        out[s : s + chunk] = (np.exp(1j * ph) * values[None, :]).sum(axis=1)
    return out * (pref * dx)


if HAVE_NUMBA:

    @njit(cache=True, parallel=True)
    def _propagate_numba(x_out, x_in, values, dx, pref, coef):
        n_out = x_out.shape[0]
        n_in = x_in.shape[0]
        out = np.empty(n_out, np.complex128)
        for j in prange(n_out):
            xo = x_out[j]
            acc = 0.0 + 0.0j
            for i in range(n_in):
                dd = xo - x_in[i]
                ph = coef * dd * dd
                acc += values[i] * complex(math.cos(ph), math.sin(ph))
            out[j] = acc
        return out * (pref * dx)


def propagate_sum(x_out, x_in, values, dx, pref, coef):
    """Fixed-order kernel quadrature; deterministic under any threading."""
    x_out = np.ascontiguousarray(x_out, dtype=np.float64)
    x_in = np.ascontiguousarray(x_in, dtype=np.float64)
    values = np.ascontiguousarray(values, dtype=np.complex128)
    if BACKEND == "numba":
        return _propagate_numba(x_out, x_in, values, float(dx), complex(pref), float(coef))
    return _propagate_numpy(x_out, x_in, values, float(dx), complex(pref), float(coef))


# ---------------------------------------------------------------------------
# Bridge sampling for the Monte Carlo kernel estimate.
# Per path p, slice k: normal draw index p*n_slices + k under one stream key.
# Path positions: straight line plus sigma * (cumsum(z) - (j/n)*sum(z)).
# ---------------------------------------------------------------------------


def bridge_offsets(key: int, n_paths: int, n_slices: int, sigma: float) -> np.ndarray:
    """(n_paths, n_slices+1) bridge offsets, zero at both endpoints."""
    z = _normals_numpy(key, 0, n_paths * n_slices).reshape(n_paths, n_slices)
    c = np.cumsum(z, axis=1)
    total = c[:, -1:]
    frac = np.arange(1, n_slices + 1, dtype=np.float64) / n_slices
    b = np.zeros((n_paths, n_slices + 1), np.float64)
    b[:, 1:] = sigma * (c - frac[None, :] * total)
    b[:, -1] = 0.0  # exact by construction: c_n - 1.0*c_n
    return b


def _mc_phase_numpy(key, n_paths, n_slices, dx_total, t_total, mass, sigma):
    dt = t_total / n_slices
    dstraight = dx_total / n_slices
    half_m_over_dt = 0.5 * mass / dt
    s_cl = 0.5 * mass * dx_total * dx_total / t_total
    out = np.empty(n_paths, np.complex128)
    chunk = max(1, int(2_000_000 // max(n_slices, 1)))
    for s in range(0, n_paths, chunk):
        n = min(chunk, n_paths - s)
        z = _normals_numpy(key, s * n_slices, n * n_slices).reshape(n, n_slices)
        zbar = z.mean(axis=1, keepdims=True)
        dxk = dstraight + sigma * (z - zbar)
        sp = half_m_over_dt * np.sum(dxk * dxk, axis=1)
        out[s : s + n] = np.exp(1j * (sp - s_cl))
    return out


if HAVE_NUMBA:

    @njit(cache=True, parallel=True)
    def _mc_phase_numba(key, n_paths, n_slices, dx_total, t_total, mass, sigma):
        dt = t_total / n_slices
        dstraight = dx_total / n_slices
        half_m_over_dt = 0.5 * mass / dt
        s_cl = 0.5 * mass * dx_total * dx_total / t_total
        out = np.empty(n_paths, np.complex128)
        for p in prange(n_paths):
            z = np.empty(n_slices, np.float64)
            zsum = 0.0
            base = np.uint64(p * n_slices)
            for k in range(n_slices):
                z[k] = _normal_at(key, base + np.uint64(k))
                zsum += z[k]
            zbar = zsum / n_slices
            sp = 0.0
            for k in range(n_slices):
                dxk = dstraight + sigma * (z[k] - zbar)
                sp += half_m_over_dt * dxk * dxk
            ph = sp - s_cl
            out[p] = complex(math.cos(ph), math.sin(ph))
        return out


def mc_phase_array(key, n_paths, n_slices, dx_total, t_total, mass, sigma):
    """Per-path fluctuation phases exp(i*(S_p - S_cl)); summed by the caller."""
    if BACKEND == "numba":
        return _mc_phase_numba(
            np.uint64(key), n_paths, n_slices, float(dx_total), float(t_total), float(mass), float(sigma)
        )
    return _mc_phase_numpy(key, n_paths, n_slices, float(dx_total), float(t_total), float(mass), float(sigma))


# ---------------------------------------------------------------------------
# Segment crossings between two path bundles in the (z, x) plane.
# Packed form: coords (n_paths, n_events), lengths give valid event counts.
# Touching endpoints count as a crossing; exact orientation arithmetic is
# not needed at the scales involved.
# ---------------------------------------------------------------------------


def _crossings_numpy(az, ax, alen, bz, bx, blen):
    pts = []
    for i in range(az.shape[0]):
        na = alen[i]
        p0z = az[i, : na - 1]
        p0x = ax[i, : na - 1]
        p1z = az[i, 1:na]
        p1x = ax[i, 1:na]
        rz = p1z - p0z
        rx = p1x - p0x
        for j in range(bz.shape[0]):
            nb = blen[j]
            q0z = bz[j, : nb - 1]
            q0x = bx[j, : nb - 1]
            rzQ = bz[j, 1:nb] - q0z
            rxQ = bx[j, 1:nb] - q0x
            denom = rz[:, None] * rxQ[None, :] - rx[:, None] * rzQ[None, :]
            qpz = q0z[None, :] - p0z[:, None]
            qpx = q0x[None, :] - p0x[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (qpz * rxQ[None, :] - qpx * rzQ[None, :]) / denom
                u = (qpz * rx[:, None] - qpx * rz[:, None]) / denom
            hit = (denom != 0.0) & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
            ii, jj = np.nonzero(hit)
            for a_seg, b_seg in zip(ii, jj):
                zc = p0z[a_seg] + t[a_seg, b_seg] * rz[a_seg]
                xc = p0x[a_seg] + t[a_seg, b_seg] * rx[a_seg]
                pts.append((zc, xc))
    return pts


if HAVE_NUMBA:

    @njit(cache=True)
    def _crossings_numba(az, ax, alen, bz, bx, blen):
        # first pass counts, second pass fills: deterministic order
        count = 0
        for i in range(az.shape[0]):
            for j in range(bz.shape[0]):
                for a in range(alen[i] - 1):
                    for b in range(blen[j] - 1):
                        hit, _, _ = _seg_intersect_nb(
                            az[i, a], ax[i, a], az[i, a + 1], ax[i, a + 1],
                            bz[j, b], bx[j, b], bz[j, b + 1], bx[j, b + 1],
                        )
                        if hit:
                            count += 1
        out = np.empty((count, 2), np.float64)
        k = 0
        for i in range(az.shape[0]):
            for j in range(bz.shape[0]):
                for a in range(alen[i] - 1):
                    for b in range(blen[j] - 1):
                        hit, zc, xc = _seg_intersect_nb(
                            az[i, a], ax[i, a], az[i, a + 1], ax[i, a + 1],
                            bz[j, b], bx[j, b], bz[j, b + 1], bx[j, b + 1],
                        )
                        if hit:
                            out[k, 0] = zc
                            out[k, 1] = xc
                            k += 1
        return out

    @njit(cache=True, inline="always")
    def _seg_intersect_nb(p0z, p0x, p1z, p1x, q0z, q0x, q1z, q1x):
        rz = p1z - p0z
        rx = p1x - p0x
        sz = q1z - q0z
        sx = q1x - q0x
        denom = rz * sx - rx * sz
        if denom == 0.0:
            return False, 0.0, 0.0
        qpz = q0z - p0z
        qpx = q0x - p0x
        t = (qpz * sx - qpx * sz) / denom
        u = (qpz * rx - qpx * rz) / denom
        if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
            return True, p0z + t * rz, p0x + t * rx
        return False, 0.0, 0.0


def segment_crossings(az, ax, alen, bz, bx, blen):
    """All crossing points between bundle a and bundle b, fixed order."""
    az = np.ascontiguousarray(az, np.float64)
    ax = np.ascontiguousarray(ax, np.float64)
    bz = np.ascontiguousarray(bz, np.float64)
    bx = np.ascontiguousarray(bx, np.float64)
    alen = np.ascontiguousarray(alen, np.int64)
    blen = np.ascontiguousarray(blen, np.int64)
    if BACKEND == "numba":
        pts = _crossings_numba(az, ax, alen, bz, bx, blen)
        return [(pts[k, 0], pts[k, 1]) for k in range(pts.shape[0])]
    return _crossings_numpy(az, ax, alen, bz, bx, blen)

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoslit import kernels
from twoslit.apparatus import Geometry, make_particle
from twoslit.config import load_config
from twoslit.errors import InvalidArgumentError
from twoslit.paths import (
    PathBundle,
    SpacetimeEvent,
    crossing_count,
    experiment_paths,
    mc_kernel_estimate,
    path_action,
    sample_bundle,
    spread_over_disc,
    truncate_bundle,
)
from twoslit.propagator import free_kernel

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
START = SpacetimeEvent(x=0.0, z=0.0, t=0.0)
END = SpacetimeEvent(x=3.0, z=100.0, t=100.0)


@pytest.fixture(scope="module")
def particle():
    return make_particle(1.0, 0.5)


def test_bundle_shape_and_endpoints(particle):
    b = sample_bundle(START, END, n_paths=8, n_slices=16, particle=particle, seed=7)
    assert len(b.paths) == 8
    for p in b.paths:
        assert len(p.events) == 17
        assert not p.truncated
        assert (p.events[0].x, p.events[0].z, p.events[0].t) == (0.0, 0.0, 0.0)
        assert (p.events[-1].x, p.events[-1].z, p.events[-1].t) == (3.0, 100.0, 100.0)
        ts = [e.t for e in p.events]
        assert all(b > a for a, b in zip(ts, ts[1:]))


def _arrays_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def _same_bundle(a, b):
    """Every field equal; floats compared bit for bit."""
    floats = all(
        _arrays_equal(getattr(a, f).view(np.uint64), getattr(b, f).view(np.uint64)) for f in "xzt"
    )
    flags = _arrays_equal(a.lengths, b.lengths) and _arrays_equal(a.truncated, b.truncated)
    return (a.start, a.end, a.seed) == (b.start, b.end, b.seed) and floats and flags


def _bundle(x, z, t, lengths=None, truncated=None):
    """A bundle from explicit arrays; every path full length unless given."""
    x, z, t = (np.atleast_1d(np.asarray(v, np.float64)) for v in (x, z, t))
    x = x.reshape(-1, z.size)
    n = x.shape[0]
    lengths = np.full(n, z.size, np.int64) if lengths is None else np.asarray(lengths, np.int64)
    truncated = np.zeros(n, bool) if truncated is None else np.asarray(truncated, bool)
    ends = [SpacetimeEvent(x=float(x[0, j]), z=float(z[j]), t=float(t[j])) for j in (0, -1)]
    return PathBundle(ends[0], ends[1], 0, z, t, x, lengths, truncated)


def test_bundle_deterministic(particle):
    b1 = sample_bundle(START, END, 4, 8, particle, seed=42)
    b2 = sample_bundle(START, END, 4, 8, particle, seed=42)
    assert _same_bundle(b1, b2)
    b3 = sample_bundle(START, END, 4, 8, particle, seed=43)
    assert not _same_bundle(b1, b3)
    b4 = sample_bundle(START, END, 4, 8, particle, seed=42, stream=1)
    assert not _same_bundle(b1, b4)


def test_bundle_domain(particle):
    with pytest.raises(InvalidArgumentError):
        sample_bundle(START, END, 0, 8, particle, seed=1)
    with pytest.raises(InvalidArgumentError):
        sample_bundle(END, START, 4, 8, particle, seed=1)


def test_path_action_straight_line():
    # constant velocity 1 for one time unit at mass 1: S = 1/2
    ks = np.arange(3)
    path = _bundle(0.5 * ks, np.zeros(3), 0.5 * ks).paths[0]
    assert path_action(path, mass=1.0) == pytest.approx(0.5, rel=1e-15)


def test_path_action_beats_classical(particle):
    # the straight line minimizes the discrete free action
    b = sample_bundle(START, END, 16, 16, particle, seed=3)
    t_total = END.t - START.t
    s_cl = 0.5 * particle.mass * (END.x - START.x) ** 2 / t_total
    for p in b.paths:
        assert path_action(p, particle.mass) >= s_cl


def test_mc_single_slice_is_exact(particle):
    est = mc_kernel_estimate(START, END, particle, n_paths=10, n_slices=1, seed=5)
    exact = free_kernel(END.x, START.x, particle.mass, END.t - START.t)
    assert est == exact


def test_mc_deterministic(particle):
    a = mc_kernel_estimate(START, END, particle, n_paths=500, n_slices=8, seed=11)
    b = mc_kernel_estimate(START, END, particle, n_paths=500, n_slices=8, seed=11)
    assert a == b


def test_mc_converges(particle):
    exact = free_kernel(END.x, START.x, particle.mass, END.t - START.t)
    est = mc_kernel_estimate(START, END, particle, n_paths=20000, n_slices=16, seed=1)
    assert abs(est - exact) / abs(exact) < 0.05


def test_truncate_bundle():
    ks = np.arange(6.0)
    bundle = _bundle(ks, ks, ks)
    cut = truncate_bundle(bundle, disc_center_x=3.0, disc_center_z=3.0, radius=0.5)
    p = cut.paths[0]
    assert p.truncated
    assert cut.lengths.tolist() == [4]  # cut at event 3, kept
    assert len(p.events) == 4
    assert p.events[-1].x == 3.0

    missed = truncate_bundle(bundle, disc_center_x=30.0, disc_center_z=3.0, radius=0.5)
    assert _same_bundle(missed, bundle)

    # a cut at the last event keeps every event and still counts
    at_end = truncate_bundle(bundle, disc_center_x=5.0, disc_center_z=5.0, radius=0.5)
    assert at_end.truncated.tolist() == [True] and at_end.lengths.tolist() == [6]

    with pytest.raises(InvalidArgumentError):
        truncate_bundle(bundle, 0.0, 0.0, 0.0)


def _line_bundle(x0: float, x1: float, n_pts: int = 5) -> PathBundle:
    ks = np.arange(n_pts)
    xs = [x0 + (x1 - x0) * k / (n_pts - 1) for k in range(n_pts)]
    return _bundle(xs, ks, ks)


def test_crossing_count_basics():
    rising = _line_bundle(-1.0, 1.0)
    falling = _line_bundle(1.2, -0.8)
    n, z, x = crossing_count(rising, falling)
    assert n == 1
    assert z.dtype == x.dtype == np.float64 and z.shape == x.shape == (1,)
    assert x[0] == pytest.approx(0.1, abs=1e-12)
    assert z[0] == pytest.approx(2.2, abs=1e-12)

    # symmetric in the arguments
    n_rev, *_ = crossing_count(falling, rising)
    assert n_rev == n

    far = _line_bundle(10.0, 12.0)
    n_far, z_far, x_far = crossing_count(rising, far)
    assert n_far == 0
    assert z_far.size == x_far.size == 0


def test_crossing_count_parallel():
    a = _line_bundle(0.0, 1.0)
    b = _line_bundle(0.5, 1.5)
    n, *_ = crossing_count(a, b)
    assert n == 0


def test_spread_over_disc(particle):
    b = sample_bundle(START, END, n_paths=4, n_slices=8, particle=particle, seed=7)
    spread = spread_over_disc(b, radius=2.0)
    assert (spread.start, spread.end, spread.seed) == (b.start, b.end, b.seed)
    for j, (p, q) in enumerate(zip(b.paths, spread.paths)):
        # sites at -1.5, -0.5, 0.5, 1.5 around the end; the start stays put
        assert q.events[0] == p.events[0]
        assert q.events[-1].x == pytest.approx(END.x + 2.0 * (2.0 * (j + 0.5) / 4 - 1.0), abs=1e-12)
        assert [e.t for e in q.events] == [e.t for e in p.events]
        assert [e.z for e in q.events] == [e.z for e in p.events]


def _old_uniforms(key, start, count):
    """Reference uniforms u1 in (0,1] and u2 in [0,1) of draws
    start..start+count-1 of the counter-based stream, one plain temporary
    per step; the in-place draws of kernels.bridge_offsets must match
    them."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    k = np.uint64(key)

    def finalize(z):
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(0xBF58476D1CE4E5B9)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    golden = np.uint64(0x9E3779B97F4A7C15)
    a = finalize(k + (np.uint64(2) * idx + np.uint64(1)) * golden)
    b = finalize(k + (np.uint64(2) * idx + np.uint64(2)) * golden)
    u1 = ((a >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0**-53)
    u2 = (b >> np.uint64(11)).astype(np.float64) * (2.0**-53)
    return u1, u2


def _old_polar(key, start, count):
    """Reference Box-Muller radii and angles of draws start..start+count-1."""
    u1, u2 = _old_uniforms(key, start, count)
    return np.sqrt(-2.0 * np.log(u1)), 2.0 * np.pi * u2


def _old_normals(key, start, count):
    """Reference normal draws start..start+count-1, r cos(theta) of each."""
    r, theta = _old_polar(key, start, count)
    return r * np.cos(theta)


def _mc_phase_chunked(key, n_paths, n_slices, lam):
    """mc_phase_array's arithmetic in 2M-path chunks of plain temporaries,
    on a fresh PCG64 generator, without the kernel's blocks or in-place
    writes; every shape below fits one chunk, so it is one unchunked
    chisquare(n-1) call.  No draw at one slice."""
    out = np.empty(n_paths, np.complex128)
    gen = np.random.Generator(np.random.PCG64(key))
    chunk = 2_000_000
    for s in range(0, n_paths, chunk):
        n = min(chunk, n_paths - s)
        x = gen.chisquare(n_slices - 1, n) if n_slices > 1 else np.zeros(n)
        out[s : s + n] = np.exp(1j * (x * (0.5 * lam)))
    return out


@pytest.mark.parametrize(
    "n_paths, n_slices",
    [
        (6149, 32),
        (70_001, 1),
        (2, 65539),
        (1001, 32),
        (1001, 2),  # chi-squared with one degree of freedom
        (70_001, 32),  # two full blocks and a ragged tail
    ],
)
def test_mc_phase_array_matches_chunked_loop_bit_for_bit(kernel_workers, n_paths, n_slices):
    key = kernels.stream_key(20240811, 5)
    got = kernels.mc_phase_array(key, n_paths, n_slices, 0.37)
    want = _mc_phase_chunked(key, n_paths, n_slices, 0.37)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# With blocks of 64 paths every shape but (2, 65539) has a ragged last block.
MC_SHAPES = [
    (6149, 32),
    (70_001, 1),
    (2, 65539),
    (1001, 32),
    (1001, 2),
    (1001, 31),
]


@pytest.mark.parametrize("n_paths, n_slices", MC_SHAPES)
def test_mc_phase_array_bits_do_not_depend_on_blocks(
    kernel_workers, monkeypatch, n_paths, n_slices
):
    key = kernels.stream_key(20240811, 5)
    whole = kernels.mc_phase_array(key, n_paths, n_slices, 0.25)
    monkeypatch.setattr(kernels, "_BLOCK", 64)
    blocked = kernels.mc_phase_array(key, n_paths, n_slices, 0.25)
    assert np.array_equal(blocked.view(np.uint64), whole.view(np.uint64))


@pytest.mark.parametrize("n_slices", [2, 31, 32])
def test_mc_phase_array_mean_is_the_gaussian_integral(n_slices):
    # E exp(i (lam/2) chi^2_{n-1}) = (1 - i lam)^(-(n-1)/2), the factor
    # mc_kernel_estimate divides out
    lam, n_paths = 0.25, 100_000
    phases = kernels.mc_phase_array(kernels.stream_key(20240811, 0), n_paths, n_slices, lam)
    mean = phases.mean()
    stderr = math.sqrt(np.mean(np.abs(phases - mean) ** 2) / n_paths)
    want = (1.0 - 1j * lam) ** (-0.5 * (n_slices - 1))
    assert abs(mean - want) <= 5.0 * stderr


@pytest.mark.parametrize("n_slices", [2, 31, 32])
def test_mc_phase_array_actions_are_chi_squared(n_slices):
    # At lam = 1e-3 every phase (lam/2) chi^2_{n-1} is far below pi, so
    # np.angle returns it: 2 angle / lam has mean n-1 and variance 2(n-1)
    lam, n_paths = 1e-3, 100_000
    phases = kernels.mc_phase_array(kernels.stream_key(20240811, 0), n_paths, n_slices, lam)
    x = 2.0 * np.angle(phases) / lam
    dof = n_slices - 1
    d = x - x.mean()
    var = np.mean(d * d)
    assert abs(x.mean() - dof) <= 5.0 * math.sqrt(var / n_paths)
    assert abs(var - 2 * dof) <= 5.0 * math.sqrt((np.mean(d**4) - var * var) / n_paths)


@pytest.mark.parametrize("n_slices", [2, 8, 32, 128])
def test_mc_phase_array_second_moment_is_exact(n_slices):
    # mc_kernel_estimate / free_kernel is R = (1 - i lam)^((n-1)/2) times
    # the mean of N unit-modulus phases whose mean is the reciprocal of
    # that factor, so E|R - 1|^2 = ((1 + lam^2)^((n-1)/2) - 1) / N; checked
    # at the lam the path-sum verdict uses, over 400 seeds
    lam, n_paths = 0.25, 1000
    correction = (1.0 - 1j * lam) ** (0.5 * (n_slices - 1))
    err2 = []
    for seed in range(400):
        phases = kernels.mc_phase_array(kernels.stream_key(seed, 0), n_paths, n_slices, lam)
        err2.append(abs(correction * phases.mean() - 1.0) ** 2)
    err2 = np.array(err2)
    want = ((1.0 + lam * lam) ** (0.5 * (n_slices - 1)) - 1.0) / n_paths
    assert abs(err2.mean() - want) <= 4.0 * err2.std() / math.sqrt(err2.size)


def _helmert(n):
    """The (n-1) x n Helmert matrix: row k-1 is (1, ..., 1, -k, 0, ...)
    with k ones, over sqrt(k(k+1))."""
    h = np.zeros((n - 1, n))
    for k in range(1, n):
        h[k - 1, :k] = 1.0
        h[k - 1, k] = -k
        h[k - 1] /= math.sqrt(k * (k + 1))
    return h


@pytest.mark.parametrize("n", [2, 3, 31, 32])
def test_fluctuation_action_is_the_helmert_modes_norm(n):
    # The change of variables mc_phase_array samples in: the rows of H
    # are an orthonormal basis of the vectors orthogonal to (1, ..., 1),
    # so sum (z - zbar)^2 = |H z|^2 and iid normal z give iid normal Hz
    h = _helmert(n)
    assert np.allclose(h @ h.T, np.eye(n - 1), rtol=0.0, atol=1e-14)
    assert np.allclose(h @ np.ones(n), 0.0, rtol=0.0, atol=1e-14)
    lam = 0.37
    z = np.random.default_rng(n).standard_normal((200, n)) * np.geomspace(1e-3, 1e3, 200)[:, None]
    d = z - z.mean(axis=1, keepdims=True)
    direct = 0.5 * lam * np.sum(d * d, axis=1)
    w = z @ h.T
    modes = 0.5 * lam * np.sum(w * w, axis=1)
    assert np.all(np.abs(modes - direct) <= 1e-12 * direct)


@pytest.mark.parametrize(
    "start, end",
    [
        (SpacetimeEvent(x=0.0, z=0.0, t=0.0), SpacetimeEvent(x=0.0, z=100.0, t=100.0)),
        (SpacetimeEvent(x=-7.5, z=3.0, t=-40.0), SpacetimeEvent(x=2.25, z=9.0, t=60.0)),
        (SpacetimeEvent(x=1e3, z=0.0, t=5.0), SpacetimeEvent(x=-1e3, z=0.0, t=105.0)),
    ],
)
def test_mc_kernel_estimate_over_free_kernel_ignores_endpoints(particle, start, end):
    # The fluctuation phase (lam/2) sum (z - zbar)^2 does not depend on
    # the endpoints, so at fixed (seed, n_paths, n_slices, T) the estimate
    # is free_kernel times one seed-determined factor.  The path-sum
    # verdict's worst error over five end offsets therefore tests only
    # free_kernel at those offsets; its slope over n_paths and seeds is
    # what tests the sampler.
    t_total = end.t - start.t
    ref = mc_kernel_estimate(START, END, particle, n_paths=2000, n_slices=16, seed=9)
    ref /= free_kernel(END.x, START.x, particle.mass, END.t - START.t)
    est = mc_kernel_estimate(start, end, particle, n_paths=2000, n_slices=16, seed=9)
    ratio = est / free_kernel(end.x, start.x, particle.mass, t_total)
    assert abs(ratio - ref) <= 1e-12 * abs(ref)


def test_mc_phase_array_peak_memory_is_a_few_blocks_per_worker(kernel_workers):
    # Beyond its output, a call holds one block-sized temporary,
    # whatever the number of paths; the bound allows four per caller.
    key = kernels.stream_key(20240811, 5)
    tracemalloc.start()
    try:
        got = kernels.mc_phase_array(key, 100_000, 32, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= kernel_workers * (got.nbytes + 4 * 8 * kernels._BLOCK)


def _bridge_oracle(key, n_paths, n_slices, sigma):
    """bridge_offsets on the stream as written in _old_normals."""
    z = _old_normals(key, 0, n_paths * n_slices).reshape(n_paths, n_slices)
    c = np.cumsum(z, axis=1)
    frac = np.arange(1, n_slices + 1, dtype=np.float64) / n_slices
    b = np.zeros((n_paths, n_slices + 1), np.float64)
    b[:, 1:] = sigma * (c - frac[None, :] * c[:, -1:])
    b[:, -1] = 0.0
    return b


@pytest.mark.parametrize("n_paths, n_slices", [(64, 32), (3, 1), (1, 1000), (2049, 3)])
def test_bridge_offsets_match_old_stream_bit_for_bit(n_paths, n_slices):
    key = kernels.stream_key(20240811, 3)
    got = kernels.bridge_offsets(key, n_paths, n_slices, 0.7)
    want = _bridge_oracle(key, n_paths, n_slices, 0.7)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _all_pairs_crossings(az, ax, alen, bz, bx, blen):
    """Oracle: every segment of every a path against every segment of
    every b path.  Returns (i, j, a_seg, b_seg, z, x) per hit, in
    (path a, path b, segment a, segment b) order."""
    hits = []
    for i in range(az.shape[0]):
        na = alen[i]
        p0z, p0x = az[i, : na - 1], ax[i, : na - 1]
        rz, rx = az[i, 1:na] - p0z, ax[i, 1:na] - p0x
        for j in range(bz.shape[0]):
            nb = blen[j]
            q0z, q0x = bz[j, : nb - 1], bx[j, : nb - 1]
            sz, sx = bz[j, 1:nb] - q0z, bx[j, 1:nb] - q0x
            denom = rz[:, None] * sx[None, :] - rx[:, None] * sz[None, :]
            qpz = q0z[None, :] - p0z[:, None]
            qpx = q0x[None, :] - p0x[:, None]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t = (qpz * sx[None, :] - qpx * sz[None, :]) / denom
                u = (qpz * rx[:, None] - qpx * rz[:, None]) / denom
            hit = (denom != 0.0) & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
            for a_seg, b_seg in zip(*np.nonzero(hit)):
                tt = t[a_seg, b_seg]
                zc, xc = p0z[a_seg] + tt * rz[a_seg], p0x[a_seg] + tt * rx[a_seg]
                hits.append((i, j, a_seg, b_seg, zc, xc))
    return hits


def _bits(points):
    return [(float(z).hex(), float(x).hex()) for z, x in points]


def _crossing_bits(az, ax, alen, bz, bx, blen):
    """The kernel's crossing arrays, checked for shape, as (z, x) bits."""
    z, x = kernels.segment_crossings(az, ax, alen, bz, bx, blen)
    assert z.dtype == x.dtype == np.float64 and z.ndim == 1 and z.shape == x.shape
    return _bits(zip(z, x))


def _coords(draw, values, n):
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), np.float64)


@st.composite
def _packed_bundle(draw, values, linear_z: bool, line=None):
    """Packed (z, x, lens) with ragged lengths; padding past a path's
    length holds arbitrary values that must never match.  With a line
    (slope, offset) every point lies on x = offset + slope * z."""
    n_paths = draw(st.integers(1, 4))
    width = draw(st.integers(2, 7))
    lens = draw(st.lists(st.integers(1, width), min_size=n_paths, max_size=n_paths))
    if linear_z:
        z0, dz = draw(values), draw(values.filter(lambda v: v > 0.0))
        z = np.tile(z0 + dz * np.arange(width), n_paths)
    else:
        z = _coords(draw, values, n_paths * width)
    x = _coords(draw, values, n_paths * width) if line is None else line[1] + line[0] * z
    return z.reshape(n_paths, width), x.reshape(n_paths, width), np.array(lens, np.int64)


def _bundle_pair(values, line=None):
    return st.booleans().flatmap(
        lambda lin: st.tuples(_packed_bundle(values, lin, line), _packed_bundle(values, lin, line))
    )


# Multiples of 1/8: every product and difference in the hit test is exact,
# so the all-pairs hits are exactly the true crossings.
_GRID = st.integers(-64, 64).map(lambda k: k / 8.0)
_FLOAT = st.floats(-8.0, 8.0, allow_nan=False, allow_subnormal=False)


@given(_bundle_pair(_GRID))
def test_segment_crossings_match_all_pairs_oracle(bundles):
    (az, ax, alen), (bz, bx, blen) = bundles
    got = _crossing_bits(az, ax, alen, bz, bx, blen)
    want = _all_pairs_crossings(az, ax, alen, bz, bx, blen)
    assert got == _bits(h[4:] for h in want)


def _is_subsequence(short, long):
    rest = iter(long)
    return all(item in rest for item in short)


@given(st.one_of(_bundle_pair(_FLOAT), st.tuples(_FLOAT, _FLOAT).flatmap(lambda ln: _bundle_pair(_FLOAT, ln))))
def test_segment_crossings_skip_only_z_disjoint_pairs(bundles):
    # On arbitrary floats, and on bundles along one shared line where the
    # all-pairs denom is rounding noise, the kernel returns the oracle's
    # hits in order, keeping every hit between segments that share some z
    # and dropping at most hits between z-disjoint segments, which are no
    # crossings.
    (az, ax, alen), (bz, bx, blen) = bundles
    got = _crossing_bits(az, ax, alen, bz, bx, blen)
    hits = _all_pairs_crossings(az, ax, alen, bz, bx, blen)

    def share_z(i, j, sa, sb):
        a_lo, a_hi = sorted(az[i, sa : sa + 2])
        b_lo, b_hi = sorted(bz[j, sb : sb + 2])
        return a_lo <= b_hi and b_lo <= a_hi

    kept = _bits(h[4:] for h in hits if share_z(*h[:4]))
    assert _is_subsequence(kept, got)
    assert _is_subsequence(got, _bits(h[4:] for h in hits))


def _event_lists(bundle):
    """Per path, its valid (x, z, t) events as Python floats."""
    z, t = bundle.z.tolist(), bundle.t.tolist()
    return [list(zip(xs[:n], z[:n], t[:n])) for xs, n in zip(bundle.x.tolist(), bundle.lengths.tolist())]


def _truncate_oracle(paths, cx, cz, radius):
    """The per-event loop truncate_bundle replaced, on (events, truncated)
    per path: a path is cut at its first event inside the disc."""
    r2 = radius * radius
    out = []
    for events, truncated in paths:
        cut = None
        for j, (x, z, _t) in enumerate(events):
            dx = x - cx
            dz = z - cz
            if dx * dx + dz * dz <= r2:
                cut = j
                break
        out.append((events, truncated) if cut is None else (events[: cut + 1], True))
    return out


def _spread_oracle(paths, t0, t_end, radius):
    """The per-event loop spread_over_disc replaced."""
    n, span = len(paths), t_end - t0
    out = []
    for j, events in enumerate(paths):
        u = radius * (2.0 * (j + 0.5) / n - 1.0)
        out.append([(x + u * ((t - t0) / span), z, t) for x, z, t in events])
    return out


def _assert_paths_match(bundle, want):
    """bundle's x bits, lengths and flags equal the oracle's (events, flag)."""
    assert bundle.lengths.tolist() == [len(events) for events, _ in want]
    assert bundle.truncated.tolist() == [flag for _, flag in want]
    got_x = [[x.hex() for x, _z, _t in events] for events in _event_lists(bundle)]
    assert got_x == [[x.hex() for x, _z, _t in events] for events, _ in want]


@st.composite
def _disc_case(draw):
    """A ragged bundle and a disc whose centre is the first or the last
    valid event of one path, or lies far from every event, or anywhere."""
    n_paths, n_events = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    z = _coords(draw, _FLOAT, n_events)
    x = _coords(draw, _FLOAT, n_paths * n_events).reshape(n_paths, n_events)
    lengths = draw(st.lists(st.integers(1, n_events), min_size=n_paths, max_size=n_paths))
    truncated = draw(st.lists(st.booleans(), min_size=n_paths, max_size=n_paths))
    bundle = _bundle(x, z, np.arange(n_events), lengths, truncated)
    where = draw(st.sampled_from(["first", "last", "never", "anywhere"]))
    p = draw(st.integers(0, n_paths - 1))
    radius = draw(st.floats(1e-6, 4.0))
    if where in ("first", "last"):
        # a small disc, so that earlier events of the path mostly miss it
        j = 0 if where == "first" else lengths[p] - 1
        centre, radius = (x[p, j], z[j]), radius * 1e-3
    elif where == "never":
        # every x is within 8 of 0, so the disc is at least 91 away
        centre, radius = (100.0, draw(_FLOAT)), min(radius, 1.0)
    else:
        centre = (draw(_FLOAT), draw(_FLOAT))
    return bundle, centre, radius


@given(_disc_case())
def test_truncate_bundle_matches_per_event_loop(case):
    bundle, (cx, cz), radius = case
    want = _truncate_oracle(list(zip(_event_lists(bundle), bundle.truncated.tolist())), cx, cz, radius)
    cut = truncate_bundle(bundle, cx, cz, radius)
    _assert_paths_match(cut, want)
    assert cut.z is bundle.z and cut.t is bundle.t


@given(
    st.integers(1, 6),
    st.integers(1, 8),
    st.integers(0, 2**32),
    _FLOAT,
    st.floats(1.0, 100.0),
    st.floats(1e-3, 50.0),
)
def test_spread_over_disc_matches_per_event_loop(particle, n_paths, n_slices, seed, end_x, end_t, radius):
    end = SpacetimeEvent(x=end_x, z=10.0, t=end_t)
    bundle = sample_bundle(START, end, n_paths, n_slices, particle, seed)
    want = _spread_oracle(_event_lists(bundle), START.t, end.t, radius)
    _assert_paths_match(spread_over_disc(bundle, radius), [(events, False) for events in want])


@pytest.mark.parametrize("seed", [20240811, 1, 2])
def test_crossings_stop_where_no_a_path_to_the_screen_edge_reaches_the_disc(seed):
    # The onset law's paths half.  A straight A path from slit A to the
    # screen point X passes within rho of the disc centre, at depth eps
    # behind slit B, while d <= d* = (rho + eps*X/L2) / (1 - eps/(2*L2)):
    # 30.0008 on desk with X = screen_max.  The desk crossing total of
    # S_to_B with the A_to_screen bundles, bisected in d, drops to zero
    # within 1% of d*.
    run = load_config(str(DESK))
    geometry = Geometry(run.apparatus, run.detector, run.particle)
    a, det = run.apparatus, run.detector
    rho, eps, L2 = det.radius_rho, det.depth_epsilon, a.L2
    d_star = (rho + eps * a.screen_max / L2) / (1.0 - eps / (2.0 * L2))
    assert d_star == pytest.approx(30.0008, abs=1e-4)
    paths = run.paths

    def crossings(d: float) -> int:
        _, pairs = experiment_paths(geometry.with_slit_separation(d), paths.n_paths, paths.n_slices, seed)
        return sum(pairs.values())

    lo, hi = 25.0, 35.0
    assert crossings(lo) > 0 and crossings(hi) == 0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if crossings(mid) > 0 else (lo, mid)
    assert abs(hi - d_star) < 0.01 * d_star

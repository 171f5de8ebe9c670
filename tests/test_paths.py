import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoslit import kernels
from twoslit.apparatus import make_particle
from twoslit.errors import InvalidArgumentError
from twoslit.paths import (
    Path,
    PathBundle,
    SpacetimeEvent,
    crossing_count,
    mc_kernel_estimate,
    path_action,
    sample_bundle,
    spread_over_disc,
    truncate_bundle,
)
from twoslit.propagator import free_kernel

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


def test_bundle_deterministic(particle):
    b1 = sample_bundle(START, END, 4, 8, particle, seed=42)
    b2 = sample_bundle(START, END, 4, 8, particle, seed=42)
    assert b1 == b2
    b3 = sample_bundle(START, END, 4, 8, particle, seed=43)
    assert b1 != b3
    b4 = sample_bundle(START, END, 4, 8, particle, seed=42, stream=1)
    assert b1 != b4


def test_bundle_domain(particle):
    with pytest.raises(InvalidArgumentError):
        sample_bundle(START, END, 0, 8, particle, seed=1)
    with pytest.raises(InvalidArgumentError):
        sample_bundle(END, START, 4, 8, particle, seed=1)


def test_path_action_straight_line():
    # constant velocity 1 for one time unit at mass 1: S = 1/2
    events = tuple(SpacetimeEvent(x=0.5 * k, z=0.0, t=0.5 * k) for k in range(3))
    assert path_action(Path(events=events), mass=1.0) == pytest.approx(0.5, rel=1e-15)


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
    events = tuple(SpacetimeEvent(x=float(k), z=float(k), t=float(k)) for k in range(6))
    bundle = PathBundle(
        start=events[0], end=events[-1], paths=(Path(events=events),), seed=0
    )
    cut = truncate_bundle(bundle, disc_center_x=3.0, disc_center_z=3.0, radius=0.5)
    p = cut.paths[0]
    assert p.truncated
    assert p.truncation_index == 3
    assert len(p.events) == 4
    assert p.events[-1].x == 3.0

    missed = truncate_bundle(bundle, disc_center_x=30.0, disc_center_z=3.0, radius=0.5)
    assert missed.paths[0] == bundle.paths[0]

    with pytest.raises(InvalidArgumentError):
        truncate_bundle(bundle, 0.0, 0.0, 0.0)


def _line_bundle(x0: float, x1: float, n_pts: int = 5) -> PathBundle:
    evs = tuple(
        SpacetimeEvent(x=x0 + (x1 - x0) * k / (n_pts - 1), z=float(k), t=float(k))
        for k in range(n_pts)
    )
    return PathBundle(start=evs[0], end=evs[-1], paths=(Path(events=evs),), seed=0)


def test_crossing_count_basics():
    rising = _line_bundle(-1.0, 1.0)
    falling = _line_bundle(1.2, -0.8)
    n, events = crossing_count(rising, falling)
    assert n == 1
    assert events[0].x == pytest.approx(0.1, abs=1e-12)
    assert events[0].z == pytest.approx(2.2, abs=1e-12)

    # symmetric in the arguments
    n_rev, _ = crossing_count(falling, rising)
    assert n_rev == n

    far = _line_bundle(10.0, 12.0)
    n_far, events_far = crossing_count(rising, far)
    assert n_far == 0
    assert events_far == []


def test_crossing_count_parallel():
    a = _line_bundle(0.0, 1.0)
    b = _line_bundle(0.5, 1.5)
    n, _ = crossing_count(a, b)
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


def _mc_phase_oracle(key, n_paths, n_slices, dx_total, t_total, mass, sigma):
    """The Monte Carlo phase loop in 2M-element chunks, with its own copy
    of the counter-based normal stream, as it was before row blocking."""

    def normals(start, count):
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
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    dt = t_total / n_slices
    dstraight = dx_total / n_slices
    half_m_over_dt = 0.5 * mass / dt
    s_cl = 0.5 * mass * dx_total * dx_total / t_total
    out = np.empty(n_paths, np.complex128)
    chunk = max(1, int(2_000_000 // max(n_slices, 1)))
    for s in range(0, n_paths, chunk):
        n = min(chunk, n_paths - s)
        z = normals(s * n_slices, n * n_slices).reshape(n, n_slices)
        zbar = z.mean(axis=1, keepdims=True)
        dxk = dstraight + sigma * (z - zbar)
        sp = half_m_over_dt * np.sum(dxk * dxk, axis=1)
        out[s : s + n] = np.exp(1j * (sp - s_cl))
    return out


@pytest.mark.parametrize(
    "n_paths, n_slices",
    [
        (3 * (kernels._BLOCK // 32) + 5, 32),  # three full blocks and a ragged tail
        (70_001, 1),
        (2, kernels._BLOCK + 3),  # one path per block
    ],
)
def test_mc_phase_array_matches_chunked_loop_bit_for_bit(kernel_workers, n_paths, n_slices):
    key = kernels.stream_key(20240811, 5)
    args = (key, n_paths, n_slices, 3.0, 100.0, 1.3, 0.7)
    got = kernels.mc_phase_array(*args)
    want = _mc_phase_oracle(*args)
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
    got = kernels.segment_crossings(az, ax, alen, bz, bx, blen)
    want = _all_pairs_crossings(az, ax, alen, bz, bx, blen)
    assert _bits(got) == _bits(h[4:] for h in want)


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
    got = _bits(kernels.segment_crossings(az, ax, alen, bz, bx, blen))
    hits = _all_pairs_crossings(az, ax, alen, bz, bx, blen)

    def share_z(i, j, sa, sb):
        a_lo, a_hi = sorted(az[i, sa : sa + 2])
        b_lo, b_hi = sorted(bz[j, sb : sb + 2])
        return a_lo <= b_hi and b_lo <= a_hi

    kept = _bits(h[4:] for h in hits if share_z(*h[:4]))
    assert _is_subsequence(kept, got)
    assert _is_subsequence(got, _bits(h[4:] for h in hits))

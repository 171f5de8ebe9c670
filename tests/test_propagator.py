import cmath
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twoslit import kernels
from twoslit.apparatus import Geometry, make_particle
from twoslit.cli import main
from twoslit.config import load_config
from twoslit.errors import InvalidArgumentError, NumericalError
from twoslit.propagator import (
    GridSpec,
    PlaneField,
    free_kernel,
    point_source_field,
    propagate,
    transmitted_power,
)
from twoslit.scenario import ChannelSet, barrier_field, disc_window

REPO = Path(__file__).resolve().parents[1]
DESK = REPO / "configs" / "desk.json"
PAPER = REPO / "configs" / "paper.json"
GOLDEN = REPO / "tests" / "data" / "golden_ok.json"

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def _window_field(x0: float, x2: float, mass: float, time: float) -> PlaneField:
    """Half-time kernel fan from x0, smoothly windowed on a grid spanning
    eight Fresnel widths about the classical midpoint."""
    fresnel = math.sqrt(2.0 * math.pi * time / mass)
    center = 0.5 * (x0 + x2)
    half = 4.0 * fresnel
    grid = GridSpec(center - half, center + half, 1024, cell_centered=True)
    x1 = grid.x
    u = (x1 - center) / half
    w = np.exp(-((u / 0.55) ** 12))
    coef = mass / time  # = m / (2 * (T/2))
    pref = cmath.sqrt(mass / (1j * math.pi * time))  # prefactor for T/2
    k1 = pref * np.exp(1j * coef * (x1 - x0) ** 2)
    return PlaneField(grid, k1 * w)


def test_free_kernel_value():
    m, T, xa, xb = 1.3, 7.0, -2.0, 5.0
    got = free_kernel(xb, xa, m, T)
    want = cmath.sqrt(m / (2.0j * math.pi * T)) * cmath.exp(1j * m * (xb - xa) ** 2 / (2.0 * T))
    assert got == want
    assert abs(got) == pytest.approx(math.sqrt(m / (2.0 * math.pi * T)), rel=1e-14)


def test_free_kernel_domain():
    with pytest.raises(InvalidArgumentError):
        free_kernel(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        free_kernel(0.0, 0.0, -1.0, 1.0)


def test_grid_symmetry():
    nodes = GridSpec(-10.0, 10.0, 64)
    assert np.array_equal(nodes.x, -nodes.x[::-1])
    assert nodes.dx == pytest.approx(20.0 / 63)
    cells = GridSpec(-10.0, 10.0, 64, cell_centered=True)
    assert np.array_equal(cells.x, -cells.x[::-1])
    assert cells.dx == pytest.approx(20.0 / 64)
    assert cells.x[0] == pytest.approx(-10.0 + 0.5 * cells.dx)
    assert not cells.x.flags.writeable
    assert cells.x is cells.x  # built once


def test_grid_domain():
    with pytest.raises(InvalidArgumentError):
        GridSpec(1.0, 1.0, 8).x
    with pytest.raises(InvalidArgumentError):
        GridSpec(0.0, 1.0, 1).x
    # one cell-centered point is legal (the cell midpoint)
    assert GridSpec(0.0, 1.0, 1, cell_centered=True).x[0] == pytest.approx(0.5)


def test_point_source_is_kernel_fan(desk_particle):
    grid = GridSpec(-5.0, 5.0, 33)
    f = point_source_field(1.5, grid, 40.0, desk_particle)
    t = 40.0 / desk_particle.velocity
    for i in (0, 7, 16, 32):
        want = free_kernel(float(f.x[i]), 1.5, desk_particle.mass, t)
        assert f.values[i] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("x0,x2", [(0.0, 0.0), (-3.0, 7.0), (2.0, -9.0), (5.0, 5.0)])
def test_kernel_composition(desk_particle, x0, x2):
    # marginalizing the midpoint plane reproduces the full-time kernel
    m, T = desk_particle.mass, 50.0
    field = _window_field(x0, x2, m, T)
    out = propagate(field, T / 2.0, desk_particle, GridSpec(x2 - 1.0, x2 + 1.0, 3))
    exact = free_kernel(x2, x0, m, T)
    assert abs(out.values[1] - exact) / abs(exact) < 1e-6


@given(alpha=finite, beta=finite)
def test_propagate_linear(alpha, beta):
    part = make_particle(1.0, 0.5)
    grid = GridSpec(-3.0, 3.0, 48, cell_centered=True)
    x = grid.x
    f = PlaneField(grid, np.exp(-(x**2) + 0.7j * x))
    g = PlaneField(grid, np.cos(x) + 1j * np.sin(2 * x))
    target = GridSpec(-20.0, 20.0, 21)
    combo = PlaneField(grid, alpha * f.values + beta * g.values)
    lhs = propagate(combo, 30.0, part, target).values
    rhs = alpha * propagate(f, 30.0, part, target).values + beta * propagate(g, 30.0, part, target).values
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_propagate_domain(desk_particle):
    grid = GridSpec(-1.0, 1.0, 8, cell_centered=True)
    f = PlaneField(grid, np.ones(8, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        propagate(f, 0.0, desk_particle, grid)


def test_transmitted_power():
    f = PlaneField(GridSpec(0.0, 1.0, 100, cell_centered=True), np.full(100, 3.0j))
    assert transmitted_power(f) == pytest.approx(9.0, rel=1e-12)


def test_plane_field_validation():
    # An amplitude (complex) and an intensity (real) need one finite
    # value per grid point, on screen-type and cell-centred grids.
    for grid in (GridSpec(-1.0, 1.0, 16), GridSpec(0.0, 1.0, 4, cell_centered=True)):
        n = grid.n
        for dtype in (float, complex):
            for values in (np.ones(n - 1, dtype), np.ones((n, 1), dtype), np.ones(n + 1, dtype)):
                with pytest.raises(InvalidArgumentError, match="one value per grid point"):
                    PlaneField(grid, values)
            bads = (math.nan, math.inf, -math.inf)
            if dtype is complex:
                bads += tuple(complex(1.0, bad) for bad in bads)
            for bad in bads:
                values = np.ones(n, dtype)
                values[2] = bad
                with pytest.raises(NumericalError, match="finite"):
                    PlaneField(grid, values)
            f = PlaneField(grid, np.ones(n, dtype))
            assert f.x is grid.x and f.dx == grid.dx


def test_grid_refuses_narrow_grid_far_off_axis():
    assert GridSpec(-2e5, 2e5, 4096).step_error is None  # rounding is far inside the bound
    # 32 points across 0.3 bohr at 2e7 bohr: the steps round unevenly
    far = GridSpec(2e7 - 0.15, 2e7 + 0.15, 32, cell_centered=True)
    assert far.step_error.startswith(f"grid must be uniform with spacing dx={far.dx!r}; a step is off by ")
    # a single point has no spacing to check
    assert GridSpec(2e7 - 0.15, 2e7 + 0.15, 1, cell_centered=True).step_error is None


def _propagate_sum_oracle(x_out, x_in, values, dx, pref, coef):
    """The direct sum of the whole term matrix: kernels.direct_sum must
    reproduce its rows bit for bit, the chirp-z path within rounding."""
    d = x_out[:, None] - x_in[None, :]
    ph = coef * d * d
    return (np.exp(1j * ph) * values[None, :]).sum(axis=1) * (complex(pref) * float(dx))


@pytest.mark.parametrize(
    "n_in, n_out",
    [
        (65573, 3),  # long rows, odd output grid
        (1000, 202),
        (500, 1),  # a single row
        (256, 775),
        (256, 1),  # a single row of 256 points
        (64, 993),
        (64, 4096),  # a desk slit pair
    ],
)
def test_propagate_sum_matches_direct_sum_bit_for_bit(n_in, n_out):
    # The centre direct sum of a field and of its mirror image equals the
    # oracle's rows bit for bit, whichever rows are asked for: a row summed
    # on its own is the same row of the whole term matrix.  direct_sum runs
    # on the calling thread, so the worker count does not enter.
    rng = np.random.default_rng(n_in * 7919 + n_out)
    x_in = rng.uniform(-50.0, 0.0) + rng.uniform(0.01, 0.1) * np.arange(n_in)
    x_out = rng.uniform(1.0, 20.0) * (np.arange(n_out) - 0.5 * (n_out - 1))
    assert np.array_equal(x_out, -x_out[::-1])
    values = rng.normal(size=n_in) + 1j * rng.normal(size=n_in)
    dx, pref, coef = 0.05, complex(rng.normal(), rng.normal()), rng.uniform(0.01, 2.0)
    centre = slice(max(n_out // 2 - 1, 0), n_out // 2 + 1)
    for xs, vs in ((x_in, values), (-x_in[::-1], values[::-1])):
        want = _propagate_sum_oracle(x_out, xs, vs, dx, pref, coef)
        for rows in (centre, slice(None)):
            got = kernels.direct_sum(x_out[rows], xs, vs, dx, pref, coef)
            assert got.dtype == want.dtype == np.complex128
            assert np.array_equal(got.view(np.uint64), want[rows].view(np.uint64))


@given(
    n_in=st.integers(1, 1500),
    n_out=st.integers(1, 1500),
    c_in=st.floats(-1e3, 1e3),
    c_out=st.floats(-1e4, 1e4),
    w_in=st.floats(1.0, 100.0),
    w_out=st.floats(1.0, 1e4),
    max_phase=st.floats(0.0, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_in=257, n_out=4096, c_in=250.0, c_out=0.0, w_in=20.0, w_out=2e5, max_phase=1e3, seed=0)
@example(n_in=257, n_out=1, c_in=-3.0, c_out=7.0, w_in=5.0, w_out=1.0, max_phase=500.0, seed=1)
@example(n_in=64, n_out=993, c_in=10.0, c_out=10.0, w_in=0.5, w_out=20.0, max_phase=1e3, seed=3)
@example(n_in=1, n_out=128, c_in=10.0, c_out=10.0, w_in=0.5, w_out=20.0, max_phase=1e3, seed=4)
@example(n_in=1, n_out=1, c_in=-3.0, c_out=7.0, w_in=5.0, w_out=1.0, max_phase=500.0, seed=5)
@example(n_in=1, n_out=1, c_in=0.0, c_out=0.0, w_in=1.0, w_out=1.0, max_phase=0.0, seed=0)
@example(n_in=1500, n_out=2, c_in=0.0, c_out=-40.0, w_in=100.0, w_out=10.0, max_phase=1e3, seed=2)
def test_chirp_z_sum_matches_direct_sum(n_in, n_out, c_in, c_out, w_in, w_out, max_phase, seed):
    # Uniform grids as the program builds them, from one input point up;
    # coef scaled so that no phase exceeds max_phase, where the direct sum
    # is itself accurate.
    grid_in = GridSpec(c_in - w_in, c_in + w_in, n_in, cell_centered=True)
    x_in, dx = grid_in.x, grid_in.dx
    if n_out == 1:
        x_out = np.array([c_out])
    else:
        x_out = GridSpec(c_out - w_out, c_out + w_out, n_out).x
    reach = max(abs(x_out[0] - x_in[-1]), abs(x_out[-1] - x_in[0]))
    coef = max_phase / reach**2 if reach > 0.0 else 0.0  # one input point on the one output
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n_in) + 1j * rng.normal(size=n_in)
    pref = complex(rng.normal(), rng.normal())
    got = kernels.propagate_sum(x_out, x_in, values, dx, pref, coef)
    want = _propagate_sum_oracle(x_out, x_in, values, dx, pref, coef)
    assert got.shape == want.shape == (n_out,)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_fft_length_is_the_smallest_5_smooth_length():
    smooth = sorted(
        2**a * 3**b * 5**c
        for a in range(16)
        for b in range(10)
        for c in range(7)
        if 2**a * 3**b * 5**c <= 2 * 20000
    )
    for n in range(1, 20001):
        want = next(m for m in smooth if m >= n)
        assert kernels._fft_length(n) == want, n
    # desk: 993 -> 4096 and 64 -> 4096 (and back), 64 -> 993
    assert [kernels._fft_length(n) for n in (4159, 5088, 1056)] == [4320, 5120, 1080]


@pytest.mark.parametrize("d", [10.0, 2000.0])
def test_chirp_plan_changes_no_bytes(d):
    # The kernel spectrum planned for a shape is the one a cold call
    # builds, so a field's bits do not depend on what ran before.
    cfg = load_config(DESK)
    app = cfg.apparatus.with_slit_separation(d)
    fields = ("psi_a", "stub_image", "detected")

    def values(name):
        return getattr(ChannelSet(Geometry(app, cfg.detector, cfg.particle)), name).values

    cold = {}
    for name in fields:
        kernels._chirp_plan.cache_clear()
        cold[name] = values(name)
    for name in fields:
        values(name)  # plan every shape again
    misses = kernels._chirp_plan.cache_info().misses
    warm = {name: values(name) for name in fields}
    assert kernels._chirp_plan.cache_info().misses == misses  # every warm sum reused a plan
    for name in fields:
        assert np.array_equal(cold[name].view(np.uint64), warm[name].view(np.uint64)), name
    n, spectrum = kernels._chirp_plan(64, 4096, 1e-3)
    assert n == 4320 and spectrum.shape == (n,)
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 0.0


def test_desk_sweep_plans_five_spectra(tmp_path, kernel_calls):
    # 36 sums over five shapes: (64, 4096), (64, 993|994), (993|994, 4096).
    kernels._chirp_plan.cache_clear()
    assert main(["sweep", "--config", str(DESK), "--out", str(tmp_path / "run")]) == 0
    assert kernel_calls.count("propagate_sum") == 36
    assert kernels._chirp_plan.cache_info().misses <= 5


SHIPPED = [DESK, PAPER, GOLDEN]


def _geometries(path):
    """The config's own geometry, then one per sweep entry."""
    cfg = load_config(path)
    apps = [cfg.apparatus] + [cfg.apparatus.with_slit_separation(d) for d in cfg.sweep_d_values]
    return cfg, apps


def _slit_oracle(cfg, app, slit, x_out):
    """The direct sum of one slit's aperture field onto the screen points."""
    t = app.L2 / cfg.particle.velocity
    pref = cmath.sqrt(cfg.particle.mass / (2.0j * math.pi * t))
    f = barrier_field(Geometry(app, cfg.detector, cfg.particle), slit)
    return _propagate_sum_oracle(x_out, f.x, f.values, f.dx, pref, cfg.particle.mass / (2.0 * t))


def test_slit_pair_centre_stays_on_the_direct_sum():
    # The two screen samples next to x = 0 decide whether the kick
    # reference has a central maximum (the d = 10 tie): they stay the
    # direct sum bit for bit, and psi_B is psi_A read backwards elsewhere.
    for path in SHIPPED:
        cfg, apps = _geometries(path)
        for app in apps:
            cs = ChannelSet(Geometry(app, cfg.detector, cfg.particle))
            n = cs.psi_a.x.size
            centre = np.zeros(n, bool)
            centre[n // 2 - 1 : n // 2 + 1] = True
            for slit, psi in (("A", cs.psi_a), ("B", cs.psi_b)):
                want = _slit_oracle(cfg, app, slit, psi.x)
                where = (path.name, app.slit_separation, slit)
                assert np.array_equal(psi.values[centre].view(np.uint64), want[centre].view(np.uint64)), where
                assert np.max(np.abs(psi.values - want)) <= 1e-9 * np.max(np.abs(want)), where
            mirrored = cs.psi_a.values[::-1]
            assert np.array_equal(cs.psi_b.values[~centre], mirrored[~centre]), (path.name, app.slit_separation)


@pytest.mark.parametrize("path", SHIPPED, ids=["desk", "paper", "golden"])
def test_every_shipped_slit_pair_takes_the_pair_sum(path, kernel_calls):
    # One chirp-z sum per pair, then the two centre samples of each field.
    cfg, apps = _geometries(path)
    for app in apps:
        kernel_calls.clear()
        ChannelSet(Geometry(app, cfg.detector, cfg.particle)).psi_b
        assert kernel_calls == ["propagate_sum", "direct_sum", "direct_sum"], app.slit_separation


def test_odd_screen_grid_takes_no_centre_patch(tmp_path, kernel_calls):
    # An odd grid has a sample at x = 0 and no adjacent pair tied in
    # exact arithmetic, so nothing is summed directly.
    root = json.loads(DESK.read_text())
    root["apparatus"]["screen_samples"] = 4095
    config = tmp_path / "desk_odd.json"
    config.write_text(json.dumps(root), encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert "direct_sum" not in kernel_calls
    cfg = load_config(config)
    cs = ChannelSet(Geometry(cfg.apparatus, cfg.detector, cfg.particle))
    for slit, psi in (("A", cs.psi_a), ("B", cs.psi_b)):
        want = _slit_oracle(cfg, cfg.apparatus, slit, psi.x)
        assert np.max(np.abs(psi.values - want)) <= 1e-9 * np.max(np.abs(want)), slit


def test_offset_source_falls_back_to_two_chirp_z_sums(kernel_calls):
    cfg = load_config(DESK)
    app = dataclasses.replace(cfg.apparatus, source_x=3.0)
    cs = ChannelSet(Geometry(app, cfg.detector, cfg.particle))
    psi = (cs.psi_a, cs.psi_b)
    assert kernel_calls == ["propagate_sum", "propagate_sum"]
    for slit, got in zip("AB", psi):
        want = _slit_oracle(cfg, app, slit, got.x)
        assert np.max(np.abs(got.values - want)) <= 1e-9 * np.max(np.abs(want)), slit


def _slit_leg_reference(cfg, app, slit, L, x_out, nodes=32):
    """Point source -> one slit -> a plane L downstream, as a direct sum
    over the slit's Gauss-Legendre nodes instead of its midpoint grid."""
    m, v = cfg.particle.mass, cfg.particle.velocity
    lo, hi = app.slit_A_interval if slit == "A" else app.slit_B_interval
    u, w = np.polynomial.legendre.leggauss(nodes)
    xs, ws = 0.5 * (hi - lo) * u + 0.5 * (lo + hi), 0.5 * (hi - lo) * w

    def fan(x_to, x_from, length):
        t = length / v
        return cmath.sqrt(m / (2.0j * math.pi * t)) * np.exp(1j * (m / (2.0 * t)) * (x_to - x_from) ** 2)

    return (fan(x_out[:, None], xs[None, :], L) * (ws * fan(xs, app.source_x, app.L1))).sum(axis=1)


@pytest.mark.parametrize("path", [DESK, PAPER], ids=["desk", "paper"])
def test_slit_legs_match_the_gauss_legendre_reference(path):
    # psi_A and the stub leg (B over epsilon to the disc, then the disc
    # window) sum the slit by the midpoint rule: within 1e-4 of the
    # reference's peak at the shipped aperture_samples, and the error
    # falls as 1/n^2 (>= 12x at 4x the points).
    cfg = load_config(path)
    det = cfg.detector
    errors = {}
    for n in (cfg.apparatus.aperture_samples, 4 * cfg.apparatus.aperture_samples):
        app = dataclasses.replace(cfg.apparatus, aperture_samples=n)
        geometry = Geometry(app, det, cfg.particle)
        cs = ChannelSet(geometry)
        disc = geometry.disc.x
        legs = {
            "psi_a": (cs.psi_a.values, _slit_leg_reference(cfg, app, "A", app.L2, geometry.screen.x)),
            "stub": (
                cs.stub.values,
                _slit_leg_reference(cfg, app, "B", det.depth_epsilon, disc)
                * disc_window((disc - app.slit_B_center) / det.radius_rho),
            ),
        }
        for leg, (got, want) in legs.items():
            errors.setdefault(leg, []).append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    for leg, (shipped, finer) in errors.items():
        assert shipped <= 1e-4, (leg, shipped)
        assert finer * 12.0 <= shipped, (leg, shipped, finer)

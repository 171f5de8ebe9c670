import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoslit import kernels
from twoslit.apparatus import make_particle
from twoslit.errors import InvalidArgumentError
from twoslit.propagator import (
    GridSpec,
    PlaneField,
    apply_aperture,
    free_kernel,
    point_source_field,
    propagate,
    transmitted_power,
)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def _window_field(x0: float, x2: float, mass: float, time: float) -> PlaneField:
    """Half-time kernel fan from x0, smoothly windowed on a grid spanning
    eight Fresnel widths about the classical midpoint."""
    fresnel = math.sqrt(2.0 * math.pi * time / mass)
    center = 0.5 * (x0 + x2)
    half = 4.0 * fresnel
    grid = GridSpec(center - half, center + half, 1024, cell_centered=True)
    x1, dx = grid.points_and_spacing()
    u = (x1 - center) / half
    w = np.exp(-((u / 0.55) ** 12))
    coef = mass / time  # = m / (2 * (T/2))
    pref = cmath.sqrt(mass / (1j * math.pi * time))  # prefactor for T/2
    k1 = pref * np.exp(1j * coef * (x1 - x0) ** 2)
    return PlaneField(z_label="mid", x=x1, values=k1 * w, dx=dx)


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
    x, dx = GridSpec(-10.0, 10.0, 64).points_and_spacing()
    assert np.array_equal(x, -x[::-1])
    assert dx == pytest.approx(20.0 / 63)
    xc, dxc = GridSpec(-10.0, 10.0, 64, cell_centered=True).points_and_spacing()
    assert np.array_equal(xc, -xc[::-1])
    assert dxc == pytest.approx(20.0 / 64)
    assert xc[0] == pytest.approx(-10.0 + 0.5 * dxc)


def test_grid_domain():
    with pytest.raises(InvalidArgumentError):
        GridSpec(1.0, 1.0, 8).points_and_spacing()
    with pytest.raises(InvalidArgumentError):
        GridSpec(0.0, 1.0, 1).points_and_spacing()
    # one cell-centered point is legal (the cell midpoint)
    x, _ = GridSpec(0.0, 1.0, 1, cell_centered=True).points_and_spacing()
    assert x[0] == pytest.approx(0.5)


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
    x, dx = grid.points_and_spacing()
    f = PlaneField(z_label="a", x=x, values=np.exp(-(x**2) + 0.7j * x), dx=dx)
    g = PlaneField(z_label="b", x=x, values=np.cos(x) + 1j * np.sin(2 * x), dx=dx)
    target = GridSpec(-20.0, 20.0, 21)
    combo = PlaneField(z_label="c", x=x, values=alpha * f.values + beta * g.values, dx=dx)
    lhs = propagate(combo, 30.0, part, target).values
    rhs = alpha * propagate(f, 30.0, part, target).values + beta * propagate(g, 30.0, part, target).values
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_propagate_domain(desk_particle):
    grid = GridSpec(-1.0, 1.0, 8, cell_centered=True)
    x, dx = grid.points_and_spacing()
    f = PlaneField(z_label="f", x=x, values=np.ones(8, dtype=complex), dx=dx)
    with pytest.raises(InvalidArgumentError):
        propagate(f, 0.0, desk_particle, grid)


def test_apply_aperture():
    x, dx = GridSpec(-4.0, 4.0, 81).points_and_spacing()
    f = PlaneField(z_label="f", x=x, values=np.full(81, 1.0 + 0.0j), dx=dx)
    cut = apply_aperture(f, [(-3.0, -1.0), (1.0, 3.0)])
    inside = (np.abs(x + 2.0) <= 1.0) | (np.abs(x - 2.0) <= 1.0)
    assert np.array_equal(cut.values != 0.0, inside)
    assert np.all(cut.values[inside] == 1.0 + 0.0j)

    blocked = apply_aperture(f, [])
    assert np.all(blocked.values == 0.0)

    with pytest.raises(InvalidArgumentError):
        apply_aperture(f, [(1.0, 1.0)])
    with pytest.raises(InvalidArgumentError):
        apply_aperture(f, [(0.0, 2.0), (1.0, 3.0)])


def test_transmitted_power():
    x, dx = GridSpec(0.0, 1.0, 100, cell_centered=True).points_and_spacing()
    f = PlaneField(z_label="f", x=x, values=np.full(100, 3.0j), dx=dx)
    assert transmitted_power(f) == pytest.approx(9.0, rel=1e-12)
    assert transmitted_power(f, (0.0, 0.5)) == pytest.approx(4.5, rel=1e-12)


def test_plane_field_validation():
    x, dx = GridSpec(0.0, 1.0, 4, cell_centered=True).points_and_spacing()
    with pytest.raises(InvalidArgumentError):
        PlaneField(z_label="f", x=x, values=np.ones(3, dtype=complex), dx=dx)
    bad = np.ones(4, dtype=complex)
    bad[2] = np.nan
    with pytest.raises(InvalidArgumentError):
        PlaneField(z_label="f", x=x, values=bad, dx=dx)


def _propagate_sum_oracle(x_out, x_in, values, dx, pref, coef):
    """The single-chunk direct sum the row-blocked kernel must reproduce."""
    d = x_out[:, None] - x_in[None, :]
    ph = coef * d * d
    return (np.exp(1j * ph) * values[None, :]).sum(axis=1) * (complex(pref) * float(dx))


@pytest.mark.parametrize(
    "n_in, n_out",
    [
        (kernels._BLOCK + 37, 3),  # one row per block, rows longer than a block
        (1000, 3 * (kernels._BLOCK // 1000) + 7),  # ragged last block
        (500, 1),  # a single row
    ],
)
def test_propagate_sum_matches_direct_sum_bit_for_bit(kernel_workers, n_in, n_out):
    rng = np.random.default_rng(n_in * 7919 + n_out)
    x_in = rng.uniform(-50.0, 0.0) + rng.uniform(0.01, 0.1) * np.arange(n_in)
    x_out = rng.uniform(-5e3, 0.0) + rng.uniform(1.0, 20.0) * np.arange(n_out)
    values = rng.normal(size=n_in) + 1j * rng.normal(size=n_in)
    dx, pref, coef = 0.05, complex(rng.normal(), rng.normal()), rng.uniform(0.01, 2.0)
    got = kernels.propagate_sum(x_out, x_in, values, dx, pref, coef)
    want = _propagate_sum_oracle(x_out, x_in, values, dx, pref, coef)
    assert got.dtype == want.dtype == np.complex128
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

"""End-to-end verdict suite over the shipped desk configuration.

Each test prints exactly one [PASS]/[FAIL] line naming the behavior it
checks, with the measured numbers, then asserts.  Heavy intermediate
results (channel fields, the separation sweep) are computed once per
module.
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from twoslit.analysis import (
    fringe_spacing,
    intensity,
    onset_metrics,
    sweep_interslit,
    visibility,
)
from twoslit.apparatus import Apparatus, make_detector, make_particle
from twoslit.cli import main
from twoslit.paths import SpacetimeEvent, mc_kernel_estimate
from twoslit.propagator import GridSpec, PlaneField, free_kernel, propagate
from twoslit.scenario import ChannelSet, combined_intensity, crossing_window, kick_visibility_factor
from twoslit.uncertainty import packet_uncertainties

REPO = Path(__file__).resolve().parent.parent
DESK_CONFIG = str(REPO / "configs" / "desk.json")
GOLDEN = REPO / "tests" / "data"
D_SWEEP = [2000.0, 1200.0, 600.0, 300.0, 100.0, 50.0, 25.0, 15.0, 10.0, 5.0]


def _verdict(ok: bool, label: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep_table(desk_apparatus, desk_detector, desk_particle, desk_window):
    return sweep_interslit(
        desk_apparatus,
        desk_detector,
        desk_particle,
        D_SWEEP,
        central_window=desk_window,
        local_window_width=8.0e4,
    )


def test_kernel_composition(desk_particle):
    t0 = time.perf_counter()
    m, big_t = desk_particle.mass, 50.0
    fresnel = math.sqrt(2.0 * math.pi * big_t / m)
    worst = 0.0
    for x0, x2 in [(0.0, 0.0), (-3.0, 7.0), (2.0, -9.0), (5.0, 5.0)]:
        center = 0.5 * (x0 + x2)
        half = 4.0 * fresnel  # grid spans 8 Fresnel widths
        grid = GridSpec(center - half, center + half, 1024, cell_centered=True)
        x1 = grid.x
        window = np.exp(-(((x1 - center) / (0.55 * half)) ** 12))
        k1 = np.array([free_kernel(float(xx), x0, m, big_t / 2.0) for xx in x1])
        mid = PlaneField(grid, k1 * window)
        out = propagate(mid, big_t / 2.0, desk_particle, GridSpec(x2 - 1.0, x2 + 1.0, 3))
        exact = free_kernel(x2, x0, m, big_t)
        worst = max(worst, abs(out.values[1] - exact) / abs(exact))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    _verdict(ok, "kernel composition", f"worst rel err {worst:.2e} (<1e-6), {elapsed:.3f}s (<1s)")


def test_path_sum_estimator(desk_particle):
    lam = desk_particle.de_broglie_wavelength
    big_t = 100.0
    start = SpacetimeEvent(0.0, 0.0, 0.0)

    def rel_err(dx: float, n: int, seed: int) -> float:
        end = SpacetimeEvent(dx, big_t, big_t)
        est = mc_kernel_estimate(start, end, desk_particle, n_paths=n, n_slices=32, seed=seed)
        exact = free_kernel(dx, 0.0, desk_particle.mass, big_t)
        return abs(est - exact) / abs(exact)

    rel_err(lam, 1000, 1)  # jit warmup before timing

    t0 = time.perf_counter()
    errs = [rel_err(f * lam, 100_000, 20240811) for f in (0.0, 0.5, 1.0, 1.5, 2.0)]
    elapsed = time.perf_counter() - t0
    worst = max(errs)

    counts = [1000, 10_000, 100_000]
    means = [np.mean([rel_err(lam, n, s) for s in range(1, 9)]) for n in counts]
    slope = float(np.polyfit(np.log10(counts), np.log10(means), 1)[0])

    ok = worst < 0.01 and abs(slope + 0.5) <= 0.1 and elapsed < 10.0
    _verdict(
        ok,
        "path-sum estimator",
        f"worst rel err {worst:.2%} (<1%) over offsets to 2 lambda, "
        f"slope {slope:.3f} (-0.5 +/- 0.1), {elapsed:.2f}s (<10s)",
    )


def test_two_slit_fringes(desk_apparatus, desk_detector, desk_particle, desk_window):
    prof = intensity(ChannelSet(desk_apparatus, desk_detector, desk_particle).no_detector)
    want = desk_particle.de_broglie_wavelength * desk_apparatus.L2 / desk_apparatus.slit_separation
    spacing = fringe_spacing(prof)
    spacing_err = abs(spacing - want) / want
    vis = visibility(prof, desk_window)
    mirror = float(np.max(np.abs(prof.values - prof.values[::-1])) / np.max(prof.values))
    ok = spacing_err < 0.02 and vis >= 0.9 and mirror < 1e-9
    _verdict(
        ok,
        "two-slit fringes",
        f"spacing err {spacing_err:.2e} (<2e-2), visibility {vis:.4f} (>=0.9), "
        f"mirror asymmetry {mirror:.1e} (<1e-9)",
    )


def test_fringe_disappearance(desk_apparatus, desk_detector, desk_particle, desk_window):
    far = desk_apparatus.with_slit_separation(100.0 * desk_detector.radius_rho)
    cs = ChannelSet(far, desk_detector, desk_particle)
    vis = visibility(combined_intensity(cs.null, cs.detected, cs.p_det), desk_window)
    psi_a = ChannelSet(far, desk_detector, desk_particle).psi_a
    bitwise = bool(np.array_equal(cs.null.values, psi_a.values))
    ok = vis < 0.01 and bitwise
    _verdict(
        ok,
        "fringe disappearance",
        f"combined visibility {vis:.4f} (<0.01) at d = 100 rho, "
        f"null record identical to one-slit: {bitwise}",
    )


def test_fringe_return(sweep_table, desk_detector):
    rows = sweep_table.rows  # ordered by decreasing d
    vis = [r.visibility_combined for r in rows]
    monotone = all(b >= a - 1e-3 for a, b in zip(vis, vis[1:]))
    half_rho = next(r for r in rows if r.d == 0.5 * desk_detector.radius_rho)
    ok = monotone and half_rho.visibility_combined > 0.05
    _verdict(
        ok,
        "fringe return",
        f"combined visibility non-decreasing over {len(rows)} separations: {monotone}, "
        f"{half_rho.visibility_combined:.3f} (>0.05) at d = rho/2",
    )


def test_onset_enters_from_crossing_side(desk_apparatus, desk_detector, desk_particle):
    on_screen = [
        d
        for d in D_SWEEP
        if crossing_window(desk_apparatus.with_slit_separation(d), desk_detector).intersects(
            desk_apparatus.screen_min, desk_apparatus.screen_max
        )
    ]
    d_edge = max(on_screen)
    app = desk_apparatus.with_slit_separation(d_edge)
    cs = ChannelSet(app, desk_detector, desk_particle)
    null = intensity(cs.null)
    base = intensity(cs.psi_a)
    rep = onset_metrics(null, base, window_width=8.0e4)
    ok = rep.onset_side == "right" and rep.visibility_centroid_x > 0.0
    _verdict(
        ok,
        "onset side, silent channel",
        f"largest on-screen separation d={d_edge:g}: side={rep.onset_side} (right), "
        f"centroid {rep.visibility_centroid_x:+.3e} (>0)",
    )


def test_onset_balances_when_detected(desk_apparatus, desk_detector, desk_particle):
    app = desk_apparatus.with_slit_separation(0.5 * desk_detector.radius_rho)
    cs = ChannelSet(app, desk_detector, desk_particle)
    det = intensity(cs.detected)
    base = intensity(cs.stub_image)
    rep = onset_metrics(det, base, window_width=8.0e4)
    ok = rep.onset_side in {"center", "left"} and rep.asymmetry_index <= 0.1
    _verdict(
        ok,
        "onset side, detected channel",
        f"d = rho/2: side={rep.onset_side} (center or left), "
        f"asymmetry {rep.asymmetry_index:+.4f} (<= +0.1)",
    )


def test_uncertainty_products():
    rng = random.Random(20240811)
    worst = 0.0
    for _ in range(100):
        d = 10.0 ** rng.uniform(-6.0, 12.0)
        part = make_particle(10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-6.0, 6.0))
        rep = packet_uncertainties(part, d)
        worst = max(worst, abs(rep.momentum_product - 1.0), abs(rep.energy_product - 1.0))
    rep = packet_uncertainties(make_particle(1.0, 0.5), 1.0e9)
    exact = rep.delta_p == 1.0e-9 and rep.delta_t == 1.0e9
    ok = worst <= 1e-15 and exact
    _verdict(
        ok,
        "uncertainty products",
        f"worst |product - 1| = {worst:.1e} (<=1e-15) over 100 draws, "
        f"wide slow packet exact: {exact}",
    )


def test_kick_visibility_oracle(desk_particle):
    ell = 1.0e5
    pairs = [(500.0, 500.0), (500.0, 1000.0), (500.0, 2000.0), (250.0, 1000.0), (750.0, 1500.0)]
    worst = 0.0
    for d, lam_ph in pairs:
        spacing = desk_particle.de_broglie_wavelength * ell / d
        step = spacing / 16.0
        half = 192.0 * step  # 385 points, fringe crests on samples
        app = Apparatus(
            source_x=0.0, L1=ell, L2=ell,
            slit_A_center=-0.5 * d, slit_B_center=0.5 * d, slit_width=1.0,
            screen_min=-half, screen_max=half, screen_samples=385, aperture_samples=64,
        )
        det = make_detector(enabled=True, photon_wavelength=lam_ph, radius_rho=20.0, depth_epsilon=5.0)
        vis = visibility(
            ChannelSet(app, det, desk_particle).kick_reference, (-10.0 * spacing, 10.0 * spacing)
        )
        worst = max(worst, abs(vis - kick_visibility_factor(d, lam_ph)))
    tiny = kick_visibility_factor(500.0, 500.0)
    ok = worst <= 1e-3 and abs(tiny - 7.19e-3) < 1e-4
    _verdict(
        ok,
        "kick visibility oracle",
        f"worst |V - gamma| = {worst:.1e} (<=1e-3) over {len(pairs)} pairs, "
        f"gamma(d = lambda_ph) = {tiny:.3e}",
    )


def test_deterministic_artifacts(tmp_path: Path):
    sim = [tmp_path / f"sim{i}" for i in range(3)]
    assert main(["simulate", "--config", DESK_CONFIG, "--out", str(sim[0])]) == 0
    assert main(["simulate", "--config", DESK_CONFIG, "--out", str(sim[1]), "--threads", "1"]) == 0
    assert main(["simulate", "--config", DESK_CONFIG, "--out", str(sim[2]), "--threads", "4"]) == 0
    sim_same = all(
        (s / name).read_bytes() == (sim[0] / name).read_bytes()
        for s in sim[1:]
        for name in ("intensity.csv", "summary.json")
    )

    sw = [tmp_path / f"sw{i}" for i in range(2)]
    assert main(["sweep", "--config", DESK_CONFIG, "--out", str(sw[0]), "--threads", "1"]) == 0
    assert main(["sweep", "--config", DESK_CONFIG, "--out", str(sw[1]), "--threads", "4"]) == 0
    sweep_same = (sw[0] / "sweep.csv").read_bytes() == (sw[1] / "sweep.csv").read_bytes()

    pa = [tmp_path / f"pa{i}" for i in range(2)]
    for p in pa:
        assert main(["paths", "--config", DESK_CONFIG, "--out", str(p), "--seed", "20240811"]) == 0
    paths_same = (pa[0] / "paths.csv").read_bytes() == (pa[1] / "paths.csv").read_bytes()

    ok = sim_same and sweep_same and paths_same
    _verdict(
        ok,
        "deterministic artifacts",
        f"simulate byte-identical across runs and threads: {sim_same}, "
        f"sweep: {sweep_same}, paths given seed: {paths_same}",
    )


def test_cli_exit_codes(tmp_path: Path):
    ok_dir = tmp_path / "ok"
    code_ok = main(["simulate", "--config", str(GOLDEN / "golden_ok.json"), "--out", str(ok_dir)])
    wrote = (ok_dir / "intensity.csv").exists() and (ok_dir / "summary.json").exists()

    schema_dir = tmp_path / "schema"
    code_schema = main(
        ["simulate", "--config", str(GOLDEN / "golden_bad_schema.json"), "--out", str(schema_dir)]
    )
    physics_dir = tmp_path / "physics"
    code_physics = main(
        ["simulate", "--config", str(GOLDEN / "golden_bad_physics.json"), "--out", str(physics_dir)]
    )
    clean = not schema_dir.exists() and not physics_dir.exists()

    ok = code_ok == 0 and wrote and code_schema == 2 and code_physics == 3 and clean
    _verdict(
        ok,
        "cli exit codes",
        f"ok config -> {code_ok} (0, artifacts written: {wrote}), "
        f"schema violation -> {code_schema} (2), impossible geometry -> {code_physics} (3), "
        f"failures left no artifacts: {clean}",
    )

"""Geometry.legs, the one table of a run's free flights.  Every
propagation that simulate and sweep make runs over one leg's L, from
inside its input span onto a grid inside its output span; every leg of
every geometry is used; and no leg gains power."""

import json
from pathlib import Path

import pytest

from twoslit import scenario
from twoslit.apparatus import Geometry, make_detector
from twoslit.cli import main
from twoslit.config import load_config
from twoslit.propagator import transmitted_power

REPO = Path(__file__).resolve().parent.parent
CONFIGS = {"desk": REPO / "configs" / "desk.json", "paper": REPO / "configs" / "paper.json"}
COMMANDS = ("simulate", "sweep")
# Free propagation onto a finite grid cannot create power; the largest
# shipped ratio is ~0.91 (paper, d = 10500, disc -> screen).
POWER_BOUND = 0.95


def _record(commands: list[tuple[str, str, Path]], tmp_path: Path) -> dict:
    """Run each (name, command, config) through the CLI and return, per
    (name, command), one (geometry, calls) entry for each ChannelSet the
    run builds.  A call is (L, input span, target grid, [(field in,
    field out)]), recorded through the names scenario imports; a point
    source has no input field."""
    log: list[tuple[Geometry, list]] = []
    real = {name: getattr(scenario, name) for name in ("point_source_field", "propagate", "propagate_pair")}

    class RecordingSet(scenario.ChannelSet):
        def __init__(self, geometry):
            log.append((geometry, []))
            super().__init__(geometry)

    def record(L, span, target, pairs=()):
        log[-1][1].append((L, span, target, list(pairs)))

    def point_source_field(source_x, target, L, particle):
        record(L, (source_x, source_x), target)
        return real["point_source_field"](source_x, target, L, particle)

    def propagate(field_in, L, particle, target):
        out = real["propagate"](field_in, L, particle, target)
        record(L, (field_in.grid.lo, field_in.grid.hi), target, [(field_in, out)])
        return out

    def propagate_pair(field_a, field_b, L, particle, target):
        out = real["propagate_pair"](field_a, field_b, L, particle, target)
        span = (min(field_a.grid.lo, field_b.grid.lo), max(field_a.grid.hi, field_b.grid.hi))
        record(L, span, target, zip((field_a, field_b), out))
        return out

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for fn in (point_source_field, propagate, propagate_pair):
            mp.setattr(scenario, fn.__name__, fn)
        mp.setattr(scenario, "ChannelSet", RecordingSet)
        for name, command, config in commands:
            start = len(log)
            assert main([command, "--config", str(config), "--out", str(tmp_path / f"{name}-{command}")]) == 0
            runs[name, command] = log[start:]
    return runs


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """desk and paper simulate and sweep, and desk with L1 != L2, where
    each leg's L names it alone."""
    tmp = tmp_path_factory.mktemp("legs")
    cfg = json.loads(CONFIGS["desk"].read_text())
    cfg["apparatus"]["L1"] = 7e4
    (tmp / "desk_l1.json").write_text(json.dumps(cfg))
    configs = {**CONFIGS, "desk_l1": tmp / "desk_l1.json"}
    return _record([(name, command, path) for name, path in configs.items() for command in COMMANDS], tmp)


def _fitting_legs(geometry: Geometry, L: float, span: tuple[float, float], target) -> set[str]:
    return {
        name
        for name, leg in geometry.legs.items()
        if leg.L == L
        and leg.span_in[0] <= span[0] and span[1] <= leg.span_in[1]
        and leg.span_out[0] <= target.lo and target.hi <= leg.span_out[1]
    }


def test_legs_name_each_flight_once():
    run = load_config(str(CONFIGS["desk"]))
    a, det = run.apparatus, run.detector
    geometry = Geometry(a, det, run.particle)
    legs = geometry.legs
    assert list(legs) == ["source_slits", "slits_screen", "slit_disc", "disc_screen"]
    assert [leg.key for leg in legs.values()] == [
        "apparatus.L1", "apparatus.L2", "detector.depth_epsilon", "detector.depth_epsilon"
    ]
    assert [leg.L for leg in legs.values()] == [a.L1, a.L2, det.depth_epsilon, a.L2 - det.depth_epsilon]
    slits, disc, screen = (-250.5, 250.5), (230.0, 270.0), (a.screen_min, a.screen_max)
    assert [(leg.span_in, leg.span_out) for leg in legs.values()] == [
        ((0.0, 0.0), slits), (slits, screen), (slits, disc), (disc, screen)
    ]
    assert (geometry.disc.lo, geometry.disc.hi) == disc
    # no disc, no disc legs
    off = make_detector(False, det.photon_wavelength, det.radius_rho, det.depth_epsilon)
    behind = make_detector(True, det.photon_wavelength, det.radius_rho, a.L2)
    for detector in (off, behind):
        geometry = Geometry(a, detector, run.particle)
        assert list(geometry.legs) == ["source_slits", "slits_screen"] and geometry.disc_need is None


@pytest.mark.parametrize("name", ["desk", "desk_l1"])
@pytest.mark.parametrize("command", COMMANDS)
def test_every_propagation_runs_along_a_leg_and_every_leg_is_used(runs, name, command):
    sets = runs[name, command]
    assert len(sets) == (1 if command == "simulate" else 10)
    for geometry, calls in sets:
        used = set()
        for L, span, target, _ in calls:
            fits = _fitting_legs(geometry, L, span, target)
            assert fits, f"L={L!r} from {span} onto [{target.lo}, {target.hi}] fits no leg of {geometry.legs}"
            if name == "desk_l1":  # every leg length differs: the call names its leg
                assert len(fits) == 1
            used |= fits
        assert used == set(geometry.legs)


def test_no_leg_gains_power(runs):
    # Every field ChannelSet sends along a leg arrives with less power.
    # The source leg starts at a point, whose power is not finite, so it
    # has no ratio; every other leg of every geometry has one.
    worst: dict[str, tuple[float, str]] = {}
    for name in CONFIGS:
        for command in COMMANDS:
            for geometry, calls in runs[name, command]:
                seen = set()
                for L, span, target, pairs in calls:
                    if not pairs:  # the point source
                        continue
                    (leg,) = _fitting_legs(geometry, L, span, target)
                    for field_in, field_out in pairs:
                        seen.add(leg)
                        ratio = transmitted_power(field_out) / transmitted_power(field_in)
                        where = f"{name} {command} d={geometry.apparatus.slit_separation:g} {leg}"
                        assert ratio < POWER_BOUND, f"{where}: P_out/P_in = {ratio:.4f}"
                        worst[name] = max(worst.get(name, (0.0, "")), (ratio, where))
                assert seen == set(geometry.legs) - {"source_slits"}
    for ratio, where in worst.values():
        print(f"largest P_out/P_in {ratio:.4f} at {where}; margin {POWER_BOUND - ratio:.4f} to {POWER_BOUND}")

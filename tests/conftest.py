import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from twoslit import kernels
from twoslit.apparatus import Apparatus, make_detector, make_particle

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def desk_particle():
    # p = v = 1, lambda_dB = 2 pi
    return make_particle(mass=1.0, kinetic_energy=0.5)


@pytest.fixture(scope="session")
def desk_apparatus():
    return Apparatus(
        source_x=0.0,
        L1=1.0e5,
        L2=1.0e5,
        slit_A_center=-250.0,
        slit_B_center=250.0,
        slit_width=1.0,
        screen_min=-2.0e5,
        screen_max=2.0e5,
        screen_samples=4096,
        aperture_samples=64,
    )


@pytest.fixture(scope="session")
def desk_detector():
    return make_detector(enabled=True, photon_wavelength=20.0, radius_rho=20.0, depth_epsilon=5.0)


@pytest.fixture(scope="session")
def desk_window():
    return (-1.55e5, 1.55e5)


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.fixture(params=["as built", "inline", "more than cores"])
def kernel_workers(request, monkeypatch):
    """Run mc_phase_array as built; inline, all paths in one block; or
    called at once from more threads than CPUs, with a short switch
    interval, every caller getting the same bits.  Yields the number of
    concurrent callers."""
    if request.param == "as built":
        yield 1
        return
    if request.param == "inline":
        monkeypatch.setattr(kernels, "_BLOCK", 1 << 17)  # more paths than any test draws
        yield 1
        return
    callers = _CPUS + 1
    real = kernels.mc_phase_array

    def concurrent(*args):
        start = threading.Barrier(callers, timeout=60)

        def call():
            start.wait()
            return real(*args)

        with ThreadPoolExecutor(callers) as pool:
            got = [f.result() for f in [pool.submit(call) for _ in range(callers)]]
        for other in got[1:]:
            assert np.array_equal(other.view(np.uint64), got[0].view(np.uint64))
        return got[0]

    monkeypatch.setattr(kernels, "mc_phase_array", concurrent)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield callers
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the propagation kernels called, in order."""
    calls = []
    for name in ("direct_sum", "propagate_sum"):
        real = getattr(kernels, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(kernels, name, counted)
    return calls

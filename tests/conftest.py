import sys

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


@pytest.fixture(params=[None, 1, kernels._WORKERS + 1], ids=["as built", "inline", "more than cores"])
def kernel_workers(request, monkeypatch):
    """Run the kernels with the pool as built, inline, or on a fresh pool
    with more threads than CPUs and a short switch interval, shut down
    afterwards."""
    if request.param is None:
        yield
        return
    monkeypatch.setattr(kernels, "_WORKERS", request.param)
    monkeypatch.setattr(kernels, "_POOL", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
        if kernels._POOL is not None:
            kernels._POOL.shutdown()


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

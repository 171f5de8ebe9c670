"""Benchmark the numba and numpy backends of the hot kernels.

Runs the kernel-weighted inner loops (plane propagation and the Monte
Carlo phase sum) on representative problem sizes with each backend and
prints a timing table.  Usage:

    python benchmarks/bench_kernels.py [--repeats 5]

Backend selection goes through the same TWOSLIT_BACKEND environment
flag the package honors, so each run reflects what a user would get.
Each column is labelled with the backend that actually ran; a backend
that cannot be selected (numba not installed) is reported as
unavailable, not timed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

CASES = [
    ("propagate 1k -> 4k", "propagate", 1024, 4096),
    ("propagate 4k -> 4k", "propagate", 4096, 4096),
    ("mc phases 1e5 x 32", "mc", 100_000, 32),
]


def _run_case(kind: str, a: int, b: int, repeats: int) -> float:
    import numpy as np

    from twoslit import kernels
    from twoslit.apparatus import make_particle
    from twoslit.propagator import GridSpec, PlaneField, propagate

    part = make_particle(mass=1.0, kinetic_energy=0.5)
    if kind == "propagate":
        src = GridSpec(-200.0, 200.0, a, cell_centered=True)
        dst = GridSpec(-2000.0, 2000.0, b)
        x, dx = src.points_and_spacing()
        field = PlaneField(z_label="bench", x=x, values=np.exp(-((x / 50.0) ** 2) + 1j * x), dx=dx)
        propagate(field, 1.0e5, part, dst)  # warm the jit
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            propagate(field, 1.0e5, part, dst)
            best = min(best, time.perf_counter() - t0)
        return best
    if kind == "mc":
        from twoslit.paths import SpacetimeEvent, mc_kernel_estimate

        start = SpacetimeEvent(x=0.0, z=0.0, t=0.0)
        end = SpacetimeEvent(x=3.0, z=100.0, t=100.0)
        mc_kernel_estimate(start, end, part, n_paths=1000, n_slices=b, seed=1)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            mc_kernel_estimate(start, end, part, n_paths=a, n_slices=b, seed=1)
            best = min(best, time.perf_counter() - t0)
        return best
    raise ValueError(kind)


def _child(backend: str, repeats: int) -> dict:
    """Run the cases in a fresh interpreter with TWOSLIT_BACKEND=backend.
    Returns the backend that actually ran, the selection error if any,
    and the timings (none when the selection failed)."""
    env = dict(os.environ, TWOSLIT_BACKEND=backend)
    code = (
        "import json, sys; sys.path.insert(0, %r); "
        "from twoslit import kernels; "
        "from bench_kernels import CASES, _run_case; "
        "times = None if kernels.BACKEND_ERROR else {name: _run_case(kind, a, b, %d) "
        "for name, kind, a, b in CASES}; "
        "print(json.dumps({'backend': kernels.BACKEND, 'error': kernels.BACKEND_ERROR, "
        "'times': times}))" % (os.path.dirname(os.path.abspath(__file__)), repeats)
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    import json

    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    results = {}
    for backend in ("numpy", "numba"):
        try:
            ran = _child(backend, args.repeats)
        except subprocess.CalledProcessError as exc:
            print(f"backend {backend} failed:\n{exc.stderr}", file=sys.stderr)
            return 1
        if ran["error"] is not None:
            print(f"{backend}: unavailable ({ran['error']})")
        elif ran["backend"] != backend:
            print(f"{backend}: unavailable (the {ran['backend']} backend ran instead)")
        else:
            results[backend] = ran["times"]

    if not results:
        return 1
    width = max(len(name) for name, *_ in CASES)
    header = f"{'case'.ljust(width)}" + "".join(f"  {b + ' (s)':>12}" for b in results)
    both = len(results) == 2
    print(header + (f"  {'speedup':>8}" if both else ""))
    for name, *_ in CASES:
        row = f"{name.ljust(width)}" + "".join(f"  {t[name]:12.4f}" for t in results.values())
        if both:
            row += f"  {results['numpy'][name] / results['numba'][name]:8.2f}x"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())

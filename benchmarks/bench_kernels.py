"""Benchmark the hot numpy kernels.

Runs the kernel-weighted inner loops (plane propagation, the Monte Carlo
phase sum and segment crossings) on representative problem sizes and
prints the best wall time of each, after the number of worker threads
the row-blocked kernels use.  Usage:

    python benchmarks/bench_kernels.py [--repeats 5]
"""

from __future__ import annotations

import argparse
import sys
import time

CASES = [
    ("propagate 1k -> 4k", "propagate", 1024, 4096),
    ("propagate 4k -> 4k", "propagate", 4096, 4096),
    ("mc phases 1e5 x 32", "mc", 100_000, 32),
    ("segment crossings 64x33 vs 64x33", "crossings", 64, 32),
]


def _best(fn, repeats: int) -> float:
    fn()  # warm caches and imports
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _run_case(kind: str, a: int, b: int, repeats: int) -> float:
    import numpy as np

    from twoslit.apparatus import make_particle
    from twoslit.paths import SpacetimeEvent, crossing_count, mc_kernel_estimate, sample_bundle
    from twoslit.propagator import GridSpec, PlaneField, propagate

    part = make_particle(mass=1.0, kinetic_energy=0.5)
    if kind == "propagate":
        src = GridSpec(-200.0, 200.0, a, cell_centered=True)
        dst = GridSpec(-2000.0, 2000.0, b)
        x, dx = src.points_and_spacing()
        field = PlaneField(z_label="bench", x=x, values=np.exp(-((x / 50.0) ** 2) + 1j * x), dx=dx)
        return _best(lambda: propagate(field, 1.0e5, part, dst), repeats)
    if kind == "mc":
        start = SpacetimeEvent(x=0.0, z=0.0, t=0.0)
        end = SpacetimeEvent(x=3.0, z=100.0, t=100.0)
        return _best(lambda: mc_kernel_estimate(start, end, part, n_paths=a, n_slices=b, seed=1), repeats)
    if kind == "crossings":
        # two bundles over the same z-slices whose straight lines cross mid-way
        rising = sample_bundle(
            SpacetimeEvent(x=-3.0, z=0.0, t=0.0), SpacetimeEvent(x=3.0, z=100.0, t=100.0), a, b, part, seed=1
        )
        falling = sample_bundle(
            SpacetimeEvent(x=3.0, z=0.0, t=0.0), SpacetimeEvent(x=-3.0, z=100.0, t=100.0), a, b, part, seed=2
        )
        return _best(lambda: crossing_count(rising, falling), repeats)
    raise ValueError(kind)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    from twoslit import kernels

    print(f"kernel workers: {kernels._WORKERS} (propagation and Monte Carlo row blocks)")
    width = max(len(name) for name, *_ in CASES)
    print(f"{'case'.ljust(width)}  {'best (s)':>10}")
    for name, kind, a, b in CASES:
        print(f"{name.ljust(width)}  {_run_case(kind, a, b, args.repeats):10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

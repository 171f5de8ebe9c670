"""One fresh-interpreter sample of set-up and, optionally, the first op.

Usage (run.py starts it): python3 perfbench/probe.py '<json spec>'

Times ``import twoslit.cli`` plus loading and validating the workload's
configs, then the first op if the spec names one, checks that op, and
prints one JSON line with the times and the artifacts' digests.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(workloads.SRC))
    t0 = time.perf_counter()
    import twoslit.cli  # noqa: F401  (timed: the set-up a CLI user pays)

    cfgs = workloads.load_configs(tuple(spec["configs"]))
    result = {"setup_s": time.perf_counter() - t0}
    if spec["op"] is not None:
        op = workloads.Op(**spec["op"])
        rc, seconds, files = workloads.run_op(op, Path(spec["out"]), cfgs)
        result.update(first_op_s=seconds, digests=workloads.digests(files), error=None)
        try:
            workloads.check(spec["workload"], op, rc, files, cfgs)
        except workloads.BenchFailure as exc:
            result["error"] = str(exc)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

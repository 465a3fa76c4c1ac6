"""One repetition of one workload, in a fresh process.

run.py starts this once per repetition, so that no graph, allocator state
or gc generation carries over between repetitions:

    python3 bench/worker.py WORKLOAD SEED SIZE TRACE SPAWNED_AT WORKDIR

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, imports and input synthesis up to the first timed
call. The record is printed as one JSON line on stdout.
"""

from __future__ import annotations

import json
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv: list[str]) -> int:
    name, seed, size, trace, spawned_at, workroot = argv
    import numpy as np

    import tracing
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workroot))
    record: dict = {"error": None, "outputs": None}
    try:
        workload = workloads.build(name, size, workdir, int(seed))
        record["sizes"] = workload.sizes()
        tracer = tracing.Tracer() if trace == "1" else None
        if tracer is not None:
            tracer.install(workload)
        record["setup_s"] = time.monotonic() - float(spawned_at)
        start = time.perf_counter()
        try:
            record["outputs"] = tracer.run(workload.run) if tracer else workload.run()
        except Exception:
            record["error"] = traceback.format_exc()
        record["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            record["layers"] = tracer.metrics()
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = {"python": platform.python_version(), "numpy": np.__version__,
                     "blas": _blas()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

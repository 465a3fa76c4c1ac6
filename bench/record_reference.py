#!/usr/bin/env python3
"""Record the correctness gate's reference outputs into bench/reference.json.

    python3 bench/record_reference.py

Runs every input set of every workload once, at both sizes, each in a
fresh worker process, and stores the outputs. Record only at a commit
whose outputs are trusted: the gate then holds every later commit to them.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads
    reference: dict = {"commit": run.git_commit(),
                       "loss_rtol": workloads.LOSS_RTOL, "per_atol": workloads.PER_ATOL}
    for size in ("full", "toy"):
        reference[size] = {}
        for name in workloads.NAMES:
            reference[size][name] = {}
            for k in range(workloads.N_INPUT_SETS):
                record = run.run_worker(name, k, size, False, run.RUN_LIMIT_S)
                if "crashed" in record or record["error"] is not None:
                    print(f"{size} {name} input set {k} failed: "
                          f"{record.get('crashed') or record['error']}", file=sys.stderr)
                    return 1
                reference[size][name][str(k)] = record["outputs"]
                print(f"{size} {name} {k}: {record['wall_s']:.2f} s", file=sys.stderr)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

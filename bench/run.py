#!/usr/bin/env python3
"""qspeech benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload train-paper --seed 3 --seconds 30 --trace 0

The workload is repeated in fresh worker processes (bench/worker.py), one
after another, for about ``--seconds``; every repetition gets the same
inputs, made from ``--seed``. Each repetition's outputs are compared with
bench/reference.json. The last line of stdout is one JSON object:

* ``--trace 0``: the end-to-end metrics over the repetitions;
* ``--trace 1``: the per-layer metrics, the median over traced
  repetitions; untraced ones alternate with them and give the tracing
  overhead.

The line before it is the environment stamp. See bench/NOTES.md for the
workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKROOT = ROOT / ".bench_work"
RUN_LIMIT_S = 170          # the whole invocation must end within 180 s

END_TO_END = [("setup_s", "s"), ("frames_per_s", "frames/s"), ("peak_rss_mb", "MB")]


def _blas_threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_worker(workload: str, seed: int, size: str, trace: bool, timeout: float) -> dict:
    """One repetition in a fresh process. A crash, a timeout (an OOM kill
    included) or unreadable output comes back as a record with ``crashed``."""
    threads = str(_blas_threads())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    WORKROOT.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), size,
           "1" if trace else "0", repr(time.monotonic()), str(WORKROOT)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {timeout:.0f} s", "elapsed": timeout}
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr[-2000:]}",
                "elapsed": elapsed}
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"crashed": f"unreadable output: {lines[-1][:200]}", "elapsed": elapsed}
    record["elapsed"] = elapsed
    return record


def repeat(workload: str, seed: int, size: str, trace: bool, seconds: float) -> list[dict]:
    """Run repetitions until the next one would end after ``seconds``.

    A traced run alternates untraced and traced repetitions, so that the
    untraced ones give the tracing overhead under the same machine load,
    and makes at least one of each."""
    start = time.monotonic()
    records: list[dict] = []
    while True:
        traced = trace and len(records) % 2 == 1
        left = RUN_LIMIT_S - (time.monotonic() - start)
        record = run_worker(workload, seed, size, traced, max(left, 1.0))
        record["traced"] = traced
        records.append(record)
        if "crashed" in record:
            break
        if trace and len(records) < 2:
            continue
        following = not traced if trace else False
        same_kind = [r["elapsed"] for r in records if r["traced"] == following]
        if time.monotonic() - start + median(same_kind) > seconds:
            break
    return records


def gate(name: str, size: str, records: list[dict], reference: dict):
    """(attempted, failures) over all repetitions."""
    import workloads
    ops = workloads.SHAPES[size][name].operations
    attempted, failures = 0, []
    for r in records:
        attempted += ops
        if "crashed" in r:
            failures += [r["crashed"]] * ops
        elif r["error"] is not None:
            failures += [r["error"]] * ops
        else:
            failures += workloads.check(name, size, r["outputs"], reference)
    return attempted, failures


def end_to_end(shape, done: list[dict]) -> dict:
    """``setup_s`` and ``peak_rss_mb``: medians over the completed
    repetitions. ``frames_per_s``: their frames over their summed wall
    time. The machine's speed changes in episodes of seconds to minutes,
    so the times of one run are often bimodal; their median jumps between
    the modes from run to run, and the pooled rate does not."""
    return {
        "setup_s": median(r["setup_s"] for r in done),
        "frames_per_s": shape.frames * len(done) / sum(r["wall_s"] for r in done),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in done),
    }


def per_layer(done: list[dict]) -> dict:
    """Medians over the completed traced repetitions, and the overhead
    against the completed untraced ones."""
    import tracing
    traced = [r for r in done if r["traced"]]
    values = {name: median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["ctc.skipped"] = median(
        sum(epoch[3] for epoch in r["outputs"].get("history", [])) for r in traced)
    untraced = [r["wall_s"] for r in done if not r["traced"]]
    values["run.untraced_s"] = median(untraced)
    values["trace.overhead_s"] = values["run.traced_s"] - values["run.untraced_s"]
    return {name: values[name] for name, _ in tracing.PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: seconds-long inputs for smoke.py")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qspeech" / "__init__.py").is_file():
        print(f"error: no qspeech sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    input_set = workloads.input_set(args.seed)
    expected = reference[args.size][args.workload].get(str(input_set))
    if expected is None:
        print(f"error: reference.json has no {args.size} {args.workload} "
              f"input set {input_set}", file=sys.stderr)
        return 2

    records = repeat(args.workload, args.seed, args.size, bool(args.trace), args.seconds)
    attempted, failures = gate(args.workload, args.size, records, expected)
    for message in failures[:5]:
        print(f"failed: {message}", file=sys.stderr)
    done = [r for r in records if "crashed" not in r and r["error"] is None]
    if not done or (args.trace and {r["traced"] for r in done} != {False, True}):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    shape = workloads.SHAPES[args.size][args.workload]
    if args.trace:
        values, units = per_layer(done), dict(tracing.PER_LAYER)
        if values["trace.unclaimed_frac"] > tracing.UNCLAIMED_MAX:
            print(f"warning: {values['trace.unclaimed_frac']:.1%} of the timed call "
                  f"is in no span (limit {tracing.UNCLAIMED_MAX:.0%}); the per-layer "
                  "metrics no longer account for it", file=sys.stderr)
    else:
        values, units = end_to_end(shape, done), dict(END_TO_END)
    env = done[0]["env"]
    print(json.dumps({"env": {
        "commit": git_commit(), **env, "blas_threads": _blas_threads(),
        "workload": args.workload, "seed": args.seed, "input_set": input_set,
        "size": args.size, "inputs": done[0]["sizes"],
        "repetitions": len(records), "traced_repetitions": sum(r["traced"] for r in records),
        "failed_frac": len(failures) / attempted}}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

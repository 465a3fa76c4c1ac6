#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy size. It makes no timing
assertions.

    python3 bench/smoke.py

Checks that:

* BENCHMARK.json names exactly the metrics run.py and tracing.py emit;
* for every workload, with --trace 0 and 1, run.py exits 0 and its last
  line is valid JSON with the result keys, every metric with its unit,
  and a passing gate, after an environment stamp line;
* with --trace 1, the layers leave at most ``tracing.UNCLAIMED_MAX`` of
  the timed call unclaimed;
* the gate trips on a deliberately altered reference.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

STAMP_KEYS = {"commit", "python", "numpy", "blas", "blas_threads", "workload", "seed",
              "input_set", "size", "inputs", "repetitions", "traced_repetitions",
              "failed_frac"}


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES), spec["workloads"]
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        assert listed == list(emitted), f"BENCHMARK.json {key} differs from the code"


def check_run(name: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    stamp_line, result_line = proc.stdout.strip().splitlines()[-2:]
    stamp = json.loads(stamp_line)["env"]
    assert set(stamp) == STAMP_KEYS, set(stamp) ^ STAMP_KEYS
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = dict(tracing.PER_LAYER if trace else run.END_TO_END)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == expected, set(got) ^ set(expected)
    for k, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (k, m)
    if trace:
        unclaimed = result["metrics"]["trace.unclaimed_frac"]["value"]
        assert unclaimed <= tracing.UNCLAIMED_MAX, \
            f"{name}: {unclaimed:.1%} of the timed call is in no span"
    print(f"ok: {name} --trace {trace}")


def check_gate_trips() -> None:
    reference = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    for name in workloads.NAMES:
        expected = reference["toy"][name]["3"]
        record = run.run_worker(name, 3, "toy", False, 170)
        ops = workloads.SHAPES["toy"][name].operations
        assert run.gate(name, "toy", [record], expected) == (ops, []), name
        altered = copy.deepcopy(expected)
        if "history" in altered:
            altered["history"][-1][1] *= 1.0 + 1e-4          # dev_loss of the last epoch
        else:
            first = sorted(altered["transcripts"])[0]
            altered["transcripts"][first] += " lo"
        attempted, failures = run.gate(name, "toy", [record], altered)
        assert attempted == ops and failures, f"{name}: gate missed an altered reference"
        print(f"ok: gate trips on {name} ({len(failures)} of {attempted} failed)")
    decode = copy.deepcopy(reference["toy"]["decode-tones"]["3"])
    decode["per"] += 1e-6
    assert len(workloads.check("decode-tones", "toy",
                               reference["toy"]["decode-tones"]["3"], decode)) \
        == workloads.SHAPES["toy"]["decode-tones"].operations
    print("ok: gate trips on an altered PER")


def main() -> int:
    check_benchmark_json()
    for name in workloads.NAMES:
        for trace in (0, 1):
            check_run(name, trace)
    check_gate_trips()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

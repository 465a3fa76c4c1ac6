#!/usr/bin/env python3
"""Time one paper-config convolution, forward and backward.

Runs ``autodiff.conv2d`` with a 3x5 kernel and 'same' padding (1, 2) at
three shapes, ``--reps`` times each, and prints the median milliseconds and
the median minor page faults (``ru_minflt``: pages mapped in afresh, one per
4 KiB of a temporary that gets new memory from the kernel, none for a
reused heap chunk) of the forward and of the backward per shape: 128 -> 128
channels at (4, 128, 13, 30) and (8, 128, 13, 300), and the paper model's
first conv, 4 -> 128 channels at (8, 4, 41, 300). The backward is the conv node's own
closure run on a fixed output gradient, so no other op is timed. It
computes the input and the weight gradient, except at the first conv,
whose input needs no gradient, as in the model.

Usage: python3 scripts/conv_time.py [--reps N]
"""

import argparse
import resource
import sys
import time
from statistics import median

import numpy as np

from qspeech.autodiff import Tensor, conv2d

# (input shape, output channels, whether the input needs a gradient)
CASES = [((4, 128, 13, 30), 128, True), ((8, 128, 13, 300), 128, True),
         ((8, 4, 41, 300), 128, False)]


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--reps", type=int, default=15, help="repetitions per shape")
    args = ap.parse_args()
    if args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")

    rng = np.random.default_rng(0)
    for shape, cout, input_grad in CASES:
        w = Tensor(rng.normal(size=(cout, shape[1], 3, 5)) / 25.0, requires_grad=True)
        x = Tensor(rng.normal(size=shape), requires_grad=input_grad)
        g = rng.normal(size=(shape[0], cout) + shape[2:])
        fwd, bwd, fwd_flt, bwd_flt = [], [], [], []
        for _ in range(args.reps):
            f0, t0 = minflt(), time.perf_counter()
            out = conv2d(x, w, padding=(1, 2))
            t1, f1 = time.perf_counter(), minflt()
            out.grad, x.grad, w.grad = g, None, None
            f2, t2 = minflt(), time.perf_counter()
            out._backward()
            t3, f3 = time.perf_counter(), minflt()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
            fwd_flt.append(f1 - f0)
            bwd_flt.append(f3 - f2)
            del out
        print(f"{shape} -> {cout}: forward {1e3 * median(fwd):.1f} ms "
              f"{median(fwd_flt):.0f} faults  backward {1e3 * median(bwd):.1f} ms "
              f"{median(bwd_flt):.0f} faults  (median of {args.reps})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

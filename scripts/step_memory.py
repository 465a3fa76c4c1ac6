#!/usr/bin/env python3
"""Peak memory and time of one training step of a model config.

Builds the model of ``--config PATH`` (by default the paper config,
``ModelConfig()`` defaults), always with 61 symbols, and one batch of
``--batch`` ``synth_toy_dataset`` utterances, each exactly ``--frames``
frames long. Then it runs one step the way the trainer does:
the forward pass with dropout on, ``batch_ctc_loss`` and ``backward``. It
prints the bytes the graph holds when ``backward`` starts
(``autodiff.graph_nbytes``, parameters not counted), the summed loss, the
seconds of the forward (CTC loss included) and of the backward, and the
peak resident set size of the process (``ru_maxrss``).

Usage: python3 scripts/step_memory.py --batch 8 --frames 300 [--seed N]
       [--config configs/qcnn10_256.cfg]

Run it under a virtual-memory limit (``ulimit -v 6500000``), so that a step
that does not fit stops with a MemoryError, reported with the stage it
reached, instead of being OOM-killed.
"""

import argparse
import resource
import sys
import time

import numpy as np

from qspeech.autodiff import backward, graph_nbytes
from qspeech.config import ModelConfig, load_config
from qspeech.ctc import SymbolTable, batch_ctc_loss
from qspeech.data import make_batches, synth_toy_dataset
from qspeech.model import build_model


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KB on Linux


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--batch", type=int, default=8)
    ap.add_argument("--frames", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--config", metavar="PATH",
                    help="config file whose model section to build (default: paper config)")
    args = ap.parse_args()
    model_cfg = ModelConfig() if args.config is None else load_config(args.config).model

    rng = np.random.default_rng(args.seed)
    table = SymbolTable(tuple(f"p{i:02d}" for i in range(61)))
    utts = synth_toy_dataset(args.batch, table.symbols, rng,
                             min_frames=args.frames, max_frames=args.frames)
    (batch,) = make_batches(utts, table, args.batch)
    model = build_model(model_cfg, table.num_classes, rng)
    print(f"batch {args.batch} x {args.frames} frames, {args.config or 'paper config'}, "
          f"setup peak RSS {peak_rss_mb():.0f} MB")

    stage = "forward"
    try:
        t0 = time.perf_counter()
        logits = model.forward(batch.features, training=True, rng=rng)
        stage = "ctc"
        loss_sum, loss_mean = batch_ctc_loss(logits, batch.lengths, batch.targets,
                                             table.blank_index)
        t1 = time.perf_counter()
        held = graph_nbytes(loss_mean, stop=[p for _, p in model.parameters()])
        print(f"graph holds {held / 2**20:.0f} MB at the start of backward")
        stage = "backward"
        t2 = time.perf_counter()
        backward(loss_mean)
        t3 = time.perf_counter()
    except MemoryError:
        print(f"MemoryError in {stage}: peak RSS {peak_rss_mb():.0f} MB")
        return 1
    print(f"loss {loss_sum.data.item():.12e}  forward {t1 - t0:.2f} s  "
          f"backward {t3 - t2:.2f} s  peak RSS {peak_rss_mb():.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One traced training step and one traced decode through the benchmark's
tracer: the tracer's proxies and wrappers must not change what the model
computes, nor read an array the model has released."""

import gc
import importlib.util
import io
import math
from pathlib import Path

import numpy as np

from qspeech import trainer as trainer_module
from qspeech.autodiff import Tensor
from qspeech.config import ModelConfig, RunConfig, TrainConfig
from qspeech.ctc import SymbolTable
from qspeech.data import synth_toy_dataset
from qspeech.optim import Adam

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
SYMBOLS = ("a", "b", "c")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class Workload:
    """What the tracer reads of a workload: the trainer it instruments."""

    def __init__(self, trainer):
        self.trainer = trainer


def step_and_decode(traced: bool):
    cfg = RunConfig(model=ModelConfig(n_conv_layers=3, conv_channels=3, n_dense_layers=2,
                                      dense_width=8, dropout=0.2),
                    train=TrainConfig(batch_size=4, seed=5))
    table = SymbolTable(SYMBOLS)
    utts = synth_toy_dataset(4, SYMBOLS, np.random.default_rng(6), min_frames=14,
                             max_frames=14, min_labels=1, max_labels=2)
    trainer = trainer_module.Trainer(cfg, table, log_stream=io.StringIO())
    optimizer = Adam(trainer.params, lr=cfg.train.adam_lr)
    tracer, metrics = None, {}
    if traced:
        tracer = load_tracing().Tracer()
    try:
        if traced:
            tracer.install(Workload(trainer))
        def run():
            loss, _ = trainer._run_epoch(optimizer, utts)   # one batch: one step
            return loss, trainer_module.decode_dataset(trainer.model, utts, table)

        if traced:
            loss, hyps = tracer.run(run)
            metrics = tracer.metrics()
        else:
            loss, hyps = run()
    finally:
        if traced:
            tracer.uninstall()
    return loss, hyps, [p.data.copy() for _, p in trainer.params], tracer, metrics


def test_traced_step_and_decode_match_the_untraced_run():
    loss, hyps, params, _, _ = step_and_decode(traced=False)
    t_loss, t_hyps, t_params, tracer, metrics = step_and_decode(traced=True)
    assert all(math.isfinite(v) for v in metrics.values())
    assert t_loss == loss and math.isfinite(loss)
    assert t_hyps == hyps
    assert all(np.array_equal(a, b) for a, b in zip(params, t_params))
    # every layer proxy ran, in the training step and in the decode
    for i in range(3):
        assert tracer.calls[f"qlayers.conv{i}.fwd"] == 2
        assert len(tracer.samples[f"conv{i}.held_mb"]) == 2
    assert tracer.calls["qlayers.pool.fwd"] == 2
    assert tracer.calls["autodiff.backward"] == 1
    assert tracer.calls["autodiff.conv1.bwd"] >= 1 and tracer.calls["autodiff.pool.bwd"] >= 1
    assert 0.0 <= metrics["trace.unclaimed_frac"] <= 1.0


def test_traced_step_and_decode_leave_no_graph_garbage():
    # The layers take and return Tensors, so the tracer's proxies make no
    # component slices: every node the traced run records is freed by
    # reference counting, none waits for the cycle collector.
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        step_and_decode(traced=True)
        gc.collect()
        nodes = [o for o in gc.garbage if isinstance(o, Tensor) and o._parents]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert len(nodes) == 0

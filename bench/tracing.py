"""Per-layer spans for the traced run, recorded from outside qspeech.

Three kinds of wrapper, none of which needs a change under ``src/``:

* module attributes that qspeech looks up at call time
  (``trainer.evaluate_loss``, ``checkpoint.save_checkpoint``, ...) are
  replaced by timing wrappers;
* the layer objects of a built model (``convs[i]``, ``conv_acts[i]``,
  ``denses[i]``, ``dense_acts[i]``, ``head``) are replaced by proxies;
* the backward closure of every autodiff node a layer call returns is
  replaced by a timed closure, so backward time is attributed to the
  layer call that created the node.

A span's self time is its duration minus the time of the spans it
contains, so the self times of all spans opened inside the root span add
up to the root's duration. Spans are aggregated by name as they close.
The tracer's own graph walks run in a ``trace.bookkeeping`` span, which
keeps them out of every layer's self time. The root's own self time is
the time no layer claims; ``trace.unclaimed_frac`` gives it as a share of
the root, and smoke.py holds it under ``UNCLAIMED_MAX``.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc
from collections import defaultdict
from statistics import median

from qspeech import checkpoint, data, metrics, model, optim, trainer
from qspeech.autodiff import Tensor
from qspeech.qlayers import QTensor

MB = float(1 << 20)
N_CONV, N_DENSE = 6, 3      # the paper config; smaller models report 0 for the rest
# The largest share of the timed call that may fall outside every span
# before the layers no longer account for it.
UNCLAIMED_MAX = 0.05

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
# "trainer.*" and "run.*" are inclusive times; every other "_s" metric is
# the self time of the span of the same name.
PER_LAYER = (
    [(f"qlayers.conv{i}.fwd_s", "s") for i in range(N_CONV)]
    + [(f"qlayers.dense{i}.fwd_s", "s") for i in range(N_DENSE)]
    + [("qlayers.prelu.fwd_s", "s"), ("qlayers.pool.fwd_s", "s"),
       ("qlayers.dropout.fwd_s", "s"), ("model.head.fwd_s", "s"),
       ("model.glue_s", "s"), ("model.build_s", "s")]
    + [(f"qlayers.conv{i}.held_mb", "MB") for i in range(N_CONV)]
    + [(f"qlayers.conv{i}.graph_nodes", "count") for i in range(N_CONV)]
    + [("autodiff.backward_s", "s")]
    + [(f"autodiff.conv{i}.bwd_s", "s") for i in range(N_CONV)]
    + [(f"autodiff.dense{i}.bwd_s", "s") for i in range(N_DENSE)]
    + [(f"autodiff.{tag}.bwd_s", "s")
       for tag in ("prelu", "pool", "dropout", "head", "ctc", "other")]
    + [("autodiff.graph_nodes", "count"), ("autodiff.gc_pause_s", "s"),
       ("autodiff.gc_collections.gen0", "count"),
       ("autodiff.gc_collections.gen1", "count"),
       ("autodiff.gc_collections.gen2", "count"),
       ("autodiff.gc_collected", "count"), ("autodiff.traced_peak_mb", "MB"),
       ("ctc.loss_s", "s"), ("ctc.eval_loss_s", "s"), ("ctc.decode_s", "s"),
       ("ctc.skipped", "count"),
       ("trainer.train_pass_s", "s"), ("trainer.eval_loss_s", "s"),
       ("trainer.eval_per_s", "s"), ("trainer.decode_s", "s"),
       ("checkpoint.save_s", "s"), ("checkpoint.save_mb", "MB"),
       ("checkpoint.saves", "count"), ("checkpoint.load_s", "s"),
       ("optim.step_s", "s"), ("optim.l2_s", "s"),
       ("features.read_wav_s", "s"), ("features.extract_s", "s"),
       ("data.make_batches_s", "s"), ("data.load_dataset_s", "s"),
       ("metrics.per_s", "s"),
       ("run.traced_s", "s"), ("run.untraced_s", "s"), ("run.self_s", "s"),
       ("trace.attributed_s", "s"), ("trace.bookkeeping_s", "s"),
       ("trace.overhead_s", "s"), ("trace.unclaimed_frac", "ratio")]
)

ROOT, BOOKKEEPING = "run", "trace.bookkeeping"


def _tensors(obj) -> list[Tensor]:
    """The Tensors in a Tensor, a QTensor, or a (nested) tuple or list of them."""
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, QTensor):
        return list(obj.components)
    if isinstance(obj, (tuple, list)):
        return [t for item in obj for t in _tensors(item)]
    return []


class _TimedBackward:
    """A node's backward closure, run inside a span named after its layer."""

    __slots__ = ("fn", "name", "tracer")

    def __init__(self, fn, name: str, tracer: "Tracer"):
        self.fn, self.name, self.tracer = fn, name, tracer

    def __call__(self):
        self.tracer.begin()
        try:
            self.fn()
        finally:
            self.tracer.end(self.name)


class _Layer:
    """Proxy for one layer object of a model: times each call, measures the
    bytes it leaves allocated, and tags the nodes it created."""

    def __init__(self, layer, tag: str, fwd_name: str, tracer: "Tracer"):
        self._layer, self._tag, self._fwd, self._tracer = layer, tag, fwd_name, tracer

    def __call__(self, q):
        return self._tracer.layer_call(self._layer, (q,), self._tag, self._fwd)

    def __getattr__(self, name):
        return getattr(self._layer, name)


class Tracer:
    def __init__(self):
        self._open: list[list[float]] = []       # [start, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.gc_pause_s, self.gc_collected = 0.0, 0
        self.gc_collections = [0, 0, 0]
        self._gc_start = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self) -> None:
        self._open.append([time.perf_counter(), 0.0])

    def end(self, name: str) -> None:
        start, covered = self._open.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - covered
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._open:
            self._open[-1][1] += dur

    def timed(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(name)
        return wrapper

    def layer_call(self, fn, args, tag: str, fwd_name: str):
        before = tracemalloc.get_traced_memory()[0]
        self.begin()
        try:
            out = fn(*args)
        finally:
            self.end(fwd_name)
        held = tracemalloc.get_traced_memory()[0] - before
        self.begin()
        nodes = self.tag_nodes(_tensors(out), _tensors(args), tag)
        self.end(BOOKKEEPING)
        self.samples[f"{tag}.held_mb"].append(held / MB)
        self.samples[f"{tag}.graph_nodes"].append(nodes)
        return out

    def tag_nodes(self, outputs, inputs, tag: str) -> int:
        """Time the backward of every node reachable from ``outputs`` without
        passing an input or a node tagged before; returns how many."""
        name = f"autodiff.{tag}.bwd"
        seen = {id(t) for t in inputs}
        stack, count = list(outputs), 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            fn = node._backward
            if fn is None or isinstance(fn, _TimedBackward):
                continue
            node._backward = _TimedBackward(fn, name, self)
            count += 1
            stack.extend(node._parents)
        return count

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_of) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def instrument_model(self, net) -> None:
        net.convs[:] = [_Layer(c, f"conv{i}", f"qlayers.conv{i}.fwd", self)
                        for i, c in enumerate(net.convs)]
        net.denses[:] = [_Layer(d, f"dense{i}", f"qlayers.dense{i}.fwd", self)
                         for i, d in enumerate(net.denses)]
        for acts in (net.conv_acts, net.dense_acts):
            acts[:] = [_Layer(a, "prelu", "qlayers.prelu.fwd", self) for a in acts]
        net.head = _Layer(net.head, "head", "model.head.fwd", self)
        net.forward = self.timed(net.forward, "model.glue")

    def install(self, workload) -> None:
        """Wrap qspeech's public calls and start memory and gc accounting."""
        def spans(name):
            return lambda fn: self.timed(fn, name)

        def tagged(tag, fwd_name):
            return lambda fn: lambda *args: self.layer_call(fn, args, tag, fwd_name)

        def traced_backward(fn):
            timed, tag_rest = self.timed(fn, "autodiff.backward"), self.timed(
                self._tag_rest, BOOKKEEPING)

            def wrapper(loss):
                self.samples["graph_nodes"].append(tag_rest(loss))
                timed(loss)
            return wrapper

        def sized_save(fn):
            timed = self.timed(fn, "checkpoint.save")

            def wrapper(path, **kwargs):
                timed(path, **kwargs)
                self.samples["checkpoint.save_mb"].append(os.path.getsize(path) / MB)
            return wrapper

        def instrumented_build(fn):
            timed, instrument = self.timed(fn, "model.build"), self.timed(
                self.instrument_model, BOOKKEEPING)

            def wrapper(*args, **kwargs):
                net = timed(*args, **kwargs)
                instrument(net)
                return net
            return wrapper

        for owner, attr, wrap in [
            (trainer, "evaluate_loss", spans("trainer.eval_loss")),
            (trainer, "evaluate_per", spans("trainer.eval_per")),
            (trainer, "decode_dataset", spans("trainer.decode")),
            (trainer, "make_batches", spans("data.make_batches")),
            (trainer, "batch_ctc_loss", tagged("ctc", "ctc.loss")),
            (trainer, "ctc_loss", spans("ctc.eval_loss")),
            (trainer, "best_path_decode", spans("ctc.decode")),
            (trainer, "backward", traced_backward),
            (trainer, "apply_l2", spans("optim.l2")),
            (trainer, "per", spans("metrics.per")),
            (metrics, "per", spans("metrics.per")),
            (optim.Adam, "step", spans("optim.step")),
            (checkpoint, "save_checkpoint", sized_save),
            (checkpoint, "load_checkpoint", spans("checkpoint.load")),
            (data, "read_wav", spans("features.read_wav")),
            (data, "extract", spans("features.extract")),
            (data, "load_dataset", spans("data.load_dataset")),
            (model, "split_maxpool_freq", tagged("pool", "qlayers.pool.fwd")),
            (model, "quaternion_dropout", tagged("dropout", "qlayers.dropout.fwd")),
            (model, "build_model", instrumented_build),
        ]:
            self._patch(owner, attr, wrap)
        if hasattr(workload, "trainer"):
            self.instrument_model(workload.trainer.model)
        gc.callbacks.append(self._on_gc)
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _tag_rest(self, loss: Tensor) -> int:
        """Tag every node of the loss's graph that no layer claimed as
        "other"; returns the number of nodes with a backward closure."""
        name = "autodiff.other.bwd"
        seen, stack, count = set(), [loss], 0
        while stack:
            node = stack.pop()
            if id(node) in seen or node._backward is None:
                continue
            seen.add(id(node))
            count += 1
            if not isinstance(node._backward, _TimedBackward):
                node._backward = _TimedBackward(node._backward, name, self)
            stack.extend(node._parents)
        return count

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_start
        self.gc_collections[info["generation"]] += 1
        self.gc_collected += info["collected"]

    def run(self, fn):
        """Call ``fn`` as the root span; returns its result."""
        self.begin()
        try:
            return fn()
        finally:
            self.end(ROOT)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this process, except those only run.py knows
        (``ctc.skipped``, ``run.untraced_s``, ``trace.overhead_s``)."""
        out: dict[str, float] = {}
        for name, _ in PER_LAYER:
            if name.endswith("_s"):
                out[name] = self.self_s.get(name[:-2], 0.0)
        for i in range(N_CONV):
            for kind in ("held_mb", "graph_nodes"):
                values = self.samples.get(f"conv{i}.{kind}")
                out[f"qlayers.conv{i}.{kind}"] = median(values) if values else 0.0
        out["autodiff.graph_nodes"] = median(self.samples["graph_nodes"] or [0])
        out["autodiff.gc_pause_s"] = self.gc_pause_s
        for gen, n in enumerate(self.gc_collections):
            out[f"autodiff.gc_collections.gen{gen}"] = n
        out["autodiff.gc_collected"] = self.gc_collected
        out["autodiff.traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
        evals = self.total_s["trainer.eval_loss"] + self.total_s["trainer.eval_per"]
        out["trainer.eval_loss_s"] = self.total_s["trainer.eval_loss"]
        out["trainer.eval_per_s"] = self.total_s["trainer.eval_per"]
        out["trainer.train_pass_s"] = (
            self.total_s[ROOT] - evals - self.total_s["checkpoint.save"]
            if self.calls["autodiff.backward"] else 0.0)
        out["checkpoint.save_mb"] = median(self.samples["checkpoint.save_mb"] or [0])
        out["checkpoint.saves"] = self.calls["checkpoint.save"]
        out["run.traced_s"] = self.total_s[ROOT]
        out["run.self_s"] = self.self_s[ROOT]
        out["trace.attributed_s"] = sum(
            v for k, v in self.self_s.items() if k not in (ROOT, BOOKKEEPING))
        out["trace.bookkeeping_s"] = self.self_s[BOOKKEEPING]
        out["trace.unclaimed_frac"] = self.self_s[ROOT] / self.total_s[ROOT]
        return out

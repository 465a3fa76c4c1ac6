import gc
import io
import shutil
import weakref

import numpy as np
import pytest

from qspeech.checkpoint import load_checkpoint
from qspeech.config import ModelConfig, RunConfig, TrainConfig
from qspeech.ctc import SymbolTable
from qspeech.data import Utterance, batch_to_qtensor, synth_toy_dataset
from qspeech.errors import DataError
from qspeech.model import build_model, build_real_model
from qspeech.optim import Adam
from qspeech.trainer import (Trainer, decode_dataset, evaluate_loss, evaluate_per,
                             restore_parameters)

SYMBOLS = ("a", "b", "c")


def tiny_cfg(**train_overrides):
    train = dict(epochs=2, fine_tune_epochs=1, batch_size=3, seed=11, adam_lr=2e-3)
    train.update(train_overrides)
    return RunConfig(
        model=ModelConfig(n_conv_layers=2, conv_channels=3, n_dense_layers=1,
                          dense_width=8, dropout=0.2, l2=1e-5),
        train=TrainConfig(**train),
    )


def tiny_data(seed=0, n=9):
    rng = np.random.default_rng(seed)
    return synth_toy_dataset(n, SYMBOLS, rng, min_frames=12, max_frames=25,
                             min_labels=1, max_labels=2)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = tiny_cfg()
    utts = tiny_data()
    trainer = Trainer(cfg, SymbolTable(SYMBOLS), log_stream=io.StringIO())
    result = trainer.train(utts[:6], utts[6:], out)
    return cfg, utts, trainer, result


def test_training_logs_and_checkpoints(trained):
    cfg, utts, trainer, result = trained
    assert len(result.history) == 3
    assert [h.phase for h in result.history] == ["adam", "adam", "sgd"]
    assert result.best_path.exists() and result.last_path.exists()
    assert result.best_epoch >= 1
    line = result.history[0].log_line()
    assert "epoch=1" in line and "train_loss=" in line and "dev_per=" in line


def test_best_checkpoint_tracks_best_dev_metric(trained):
    cfg, utts, trainer, result = trained
    best = min(h.dev_per for h in result.history)
    state = load_checkpoint(result.best_path)
    assert state["best_metric"] == pytest.approx(best)


def test_same_seed_same_epoch_losses(tmp_path):
    cfg = tiny_cfg(epochs=1, fine_tune_epochs=0)
    utts = tiny_data(seed=1)
    losses = []
    for sub in ("r1", "r2"):
        trainer = Trainer(cfg, SymbolTable(SYMBOLS), log_stream=io.StringIO())
        result = trainer.train(utts[:6], utts[6:], tmp_path / sub)
        losses.append((result.history[0].train_loss, result.history[0].dev_loss))
    assert losses[0] == losses[1]  # bit-identical


def test_zero_learning_rate_keeps_parameters(tmp_path):
    cfg = tiny_cfg(epochs=1, fine_tune_epochs=0, adam_lr=0.0)
    utts = tiny_data(seed=2)
    trainer = Trainer(cfg, SymbolTable(SYMBOLS), log_stream=io.StringIO())
    before = {n: p.data.copy() for n, p in trainer.params}
    trainer.train(utts[:6], utts[6:], tmp_path)
    for name, p in trainer.params:
        assert np.array_equal(before[name], p.data), name


def test_resume_rejects_mismatched_config(tmp_path):
    utts = tiny_data(seed=3)
    cfg2 = tiny_cfg(epochs=2, fine_tune_epochs=0)
    part = Trainer(cfg2, SymbolTable(SYMBOLS), log_stream=io.StringIO())
    part.train(utts[:6], utts[6:], tmp_path / "part")

    other_cfg = tiny_cfg(epochs=3, fine_tune_epochs=0)
    resumed = Trainer(other_cfg, SymbolTable(SYMBOLS), log_stream=io.StringIO())
    with pytest.raises(DataError, match="config hash"):
        resumed.resume(tmp_path / "part" / "last.ckpt")


def test_resume_continues_trajectory(tmp_path):
    # 2 epochs, checkpoint, then 1 more == 3 straight epochs
    utts = tiny_data(seed=4)
    train, dev = utts[:6], utts[6:]
    cfg3 = tiny_cfg(epochs=3, fine_tune_epochs=0)

    straight = Trainer(cfg3, SymbolTable(SYMBOLS), log_stream=io.StringIO())
    full = straight.train(train, dev, tmp_path / "full")

    # interrupted: same 3-epoch config, but stop by training only 2 epochs
    # (simulate by resuming from the full run's own epoch-2 state: retrain)
    first = Trainer(cfg3, SymbolTable(SYMBOLS), log_stream=io.StringIO())
    out1 = tmp_path / "phase1"
    out1.mkdir(parents=True)
    from qspeech.optim import Adam
    optimizer = Adam(first.params, lr=cfg3.train.adam_lr,
                     beta1=cfg3.train.adam_beta1, beta2=cfg3.train.adam_beta2,
                     eps=cfg3.train.adam_eps)
    losses = []
    for epoch in range(2):
        loss, _ = first._run_epoch(optimizer, train)
        losses.append(loss)
        first.save(out1 / "last.ckpt", epoch + 1, "adam", optimizer, None)

    resumed = Trainer(cfg3, SymbolTable(SYMBOLS), log_stream=io.StringIO())
    resumed.resume(out1 / "last.ckpt")
    res = resumed.train(train, dev, tmp_path / "resumed")
    combined = losses + [h.train_loss for h in res.history]
    assert combined == [h.train_loss for h in full.history]


def test_checkpoint_restore_bitwise_forward(trained, tmp_path):
    cfg, utts, trainer, result = trained
    state = load_checkpoint(result.best_path)
    model2 = build_model(cfg.model, SymbolTable(SYMBOLS).num_classes,
                         np.random.default_rng(999))
    restore_parameters(model2, state["params"])
    x = batch_to_qtensor(utts[0].features)
    out1 = trainer.model.forward(x)
    # trainer.model may have moved past best; compare two fresh restores
    model3 = build_model(cfg.model, SymbolTable(SYMBOLS).num_classes,
                         np.random.default_rng(123))
    restore_parameters(model3, state["params"])
    assert np.array_equal(model2.forward(x).data, model3.forward(x).data)


def test_restore_rejects_mismatched_model(trained):
    cfg, utts, trainer, result = trained
    state = load_checkpoint(result.best_path)
    other = build_model(ModelConfig(n_conv_layers=1, conv_channels=2,
                                    n_dense_layers=1, dense_width=4),
                        4, np.random.default_rng(0))
    with pytest.raises(DataError):
        restore_parameters(other, state["params"])


def test_infeasible_utterances_skipped_and_counted(tmp_path):
    cfg = tiny_cfg(epochs=1, fine_tune_epochs=0, batch_size=2)
    utts = tiny_data(seed=5, n=6)
    # make one utterance impossible: 30 labels in a dozen frames
    bad = Utterance("bad", utts[0].features.copy(), ["a", "b"] * 15)
    trainer = Trainer(cfg, SymbolTable(SYMBOLS), log_stream=io.StringIO())
    result = trainer.train(utts[:4] + [bad], utts[4:], tmp_path)
    assert result.history[0].skipped == 1


def test_evaluate_per_perfect_and_empty(trained):
    cfg, utts, trainer, result = trained
    from qspeech.metrics import per
    assert per([(list(u.labels), u.labels) for u in utts]) == 0.0
    assert per([([], u.labels) for u in utts]) == 100.0


def test_decode_dataset_returns_all_ids(trained):
    cfg, utts, trainer, result = trained
    table = SymbolTable(SYMBOLS)
    hyps = decode_dataset(trainer.model, utts, table)
    assert set(hyps) == {u.utt_id for u in utts}
    for labs in hyps.values():
        assert all(s in SYMBOLS for s in labs)


def test_evaluate_loss_finite(trained):
    cfg, utts, trainer, result = trained
    val = evaluate_loss(trainer.model, utts, SymbolTable(SYMBOLS), batch_size=4)
    assert np.isfinite(val) and val > 0.0


def test_per_invariant_to_dataset_order(trained):
    cfg, utts, trainer, result = trained
    table = SymbolTable(SYMBOLS)
    a = evaluate_per(trainer.model, utts, table)
    b = evaluate_per(trainer.model, list(reversed(utts)), table)
    assert a == b


class _SnapshotTrainer(Trainer):
    """Copies the run directory after every epoch, as an interrupted run
    would have left it."""

    def __init__(self, *args, snapshots, **kwargs):
        super().__init__(*args, **kwargs)
        self.snapshots = snapshots

    def save(self, path, epoch, phase, optimizer, best_metric, **kwargs):
        super().save(path, epoch, phase, optimizer, best_metric, **kwargs)
        if path.name == "last.ckpt":
            shutil.copytree(path.parent, self.snapshots / f"epoch{epoch}")


def test_resume_keeps_best_checkpoint(tmp_path):
    utts = tiny_data(seed=6)
    train, dev = utts[:6], utts[6:]
    cfg = tiny_cfg(epochs=3, fine_tune_epochs=1, early_stop_metric="loss")
    table = SymbolTable(SYMBOLS)

    straight = _SnapshotTrainer(cfg, table, log_stream=io.StringIO(),
                                snapshots=tmp_path / "snap")
    full = straight.train(train, dev, tmp_path / "full")
    total = len(full.history)
    # Resume right after the best epoch, so no later epoch beats it.
    assert full.best_epoch < total
    run_dir = tmp_path / "resumed"
    shutil.copytree(straight.snapshots / f"epoch{full.best_epoch}", run_dir)

    resumed = Trainer(cfg, table, log_stream=io.StringIO())
    resumed.resume(run_dir / "last.ckpt")
    res = resumed.train(train, dev, run_dir)
    assert (run_dir / "best.ckpt").read_bytes() == (tmp_path / "full" / "best.ckpt").read_bytes()
    assert res.best_metric == full.best_metric
    assert res.best_epoch == full.best_epoch
    assert [h.train_loss for h in res.history] == \
        [h.train_loss for h in full.history[full.best_epoch:]]
    assert (run_dir / "last.ckpt").read_bytes() == (tmp_path / "full" / "last.ckpt").read_bytes()


def test_resume_of_a_resume_across_the_optimizer_switch(tmp_path):
    # Resume from epoch 1 (Adam), stop after epoch 3 (SGD), resume from there.
    utts = tiny_data(seed=7)
    train, dev = utts[:6], utts[6:]
    cfg = tiny_cfg(epochs=2, fine_tune_epochs=2)
    table = SymbolTable(SYMBOLS)
    straight = _SnapshotTrainer(cfg, table, log_stream=io.StringIO(),
                                snapshots=tmp_path / "snap_full")
    full = straight.train(train, dev, tmp_path / "full")

    first_dir, second_dir = tmp_path / "first", tmp_path / "second"
    shutil.copytree(tmp_path / "snap_full" / "epoch1", first_dir)
    first = _SnapshotTrainer(cfg, table, log_stream=io.StringIO(),
                             snapshots=tmp_path / "snap_first")
    first.resume(first_dir / "last.ckpt")
    once = first.train(train, dev, first_dir)
    shutil.copytree(tmp_path / "snap_first" / "epoch3", second_dir)
    second = Trainer(cfg, table, log_stream=io.StringIO())
    second.resume(second_dir / "last.ckpt")
    twice = second.train(train, dev, second_dir)

    def trajectory(history):
        return [(h.epoch, h.phase, h.train_loss, h.dev_loss, h.dev_per) for h in history]
    assert [h.phase for h in full.history] == ["adam", "adam", "sgd", "sgd"]
    assert trajectory(full.history[:1] + once.history[:2] + twice.history) == \
        trajectory(full.history)
    assert (twice.best_epoch, twice.best_metric) == (full.best_epoch, full.best_metric)


class _EpochSnapshots(Trainer):
    """Keeps the bytes of every checkpoint in the run directory as each
    epoch ended."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snapshots = {}

    def save(self, path, epoch, *args, **kwargs):
        super().save(path, epoch, *args, **kwargs)
        if path.name == "last.ckpt":
            self.snapshots[epoch] = {p.name: p.read_bytes() for p in path.parent.iterdir()}


@pytest.mark.parametrize("links", [True, False])
def test_improving_epoch_serialises_one_checkpoint(tmp_path, monkeypatch, links):
    import qspeech.checkpoint as ckpt_module
    import qspeech.trainer as trainer_module
    dev_pers = iter([0.5, 0.75])   # epoch 1 improves, epoch 2 does not
    monkeypatch.setattr(trainer_module, "evaluate_per", lambda *args: next(dev_pers))
    written = []
    save = ckpt_module.save_checkpoint
    monkeypatch.setattr(ckpt_module, "save_checkpoint",
                        lambda path, **kw: (written.append(path.name), save(path, **kw)))
    if not links:
        def refuse(*args):
            raise OSError("hard links not supported")
        monkeypatch.setattr(ckpt_module.os, "link", refuse)
    utts = tiny_data(seed=3)
    run = _EpochSnapshots(tiny_cfg(epochs=2, fine_tune_epochs=0), SymbolTable(SYMBOLS),
                          log_stream=io.StringIO())
    result = run.train(utts[:6], utts[6:], tmp_path)

    # a hard link when the file system allows one, a second save when not
    assert written == ["best.ckpt", "last.ckpt"] + ([] if links else ["last.ckpt"])
    first = run.snapshots[1]
    assert first.keys() == {"best.ckpt", "last.ckpt"}
    assert first["best.ckpt"] == first["last.ckpt"]
    assert load_checkpoint(result.best_path)["epoch"] == 1
    assert result.best_path.read_bytes() == first["best.ckpt"]
    assert load_checkpoint(result.last_path)["epoch"] == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt", "last.ckpt"]


def _spy_logits(model, seen):
    forward = model.forward

    def spy(*args, **kwargs):
        logits = forward(*args, **kwargs)
        seen.append(logits)
        return logits
    model.forward = spy


def test_evaluation_records_no_graph(trained):
    cfg, utts, trainer, result = trained
    table = SymbolTable(SYMBOLS)
    model = build_model(cfg.model, table.num_classes, np.random.default_rng(5))
    seen = []
    _spy_logits(model, seen)
    evaluate_loss(model, utts, table, batch_size=4)
    evaluate_per(model, utts, table)
    assert seen
    assert all(not t.requires_grad and t._parents == () for t in seen)
    assert all(p.requires_grad and p.grad is None for _, p in model.parameters())


def test_train_step_graph_freed_by_refcount():
    cfg = tiny_cfg(batch_size=6)
    utts = tiny_data(seed=7)[:6]
    trainer = Trainer(cfg, SymbolTable(SYMBOLS), log_stream=io.StringIO())
    optimizer = Adam(trainer.params, lr=cfg.train.adam_lr)
    refs = []

    class SpyConv:
        def __init__(self, conv):
            self.conv = conv

        def __call__(self, q):
            out = self.conv(q)
            refs.append(weakref.ref(out.data))
            return out

        def __getattr__(self, name):
            return getattr(self.conv, name)
    trainer.model.convs[1] = SpyConv(trainer.model.convs[1])

    enabled = gc.isenabled()
    gc.disable()
    try:
        trainer._run_epoch(optimizer, utts)   # one batch: one train step
        assert refs and all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()


def test_train_step_records_one_ctc_node(monkeypatch):
    # Between the model's logits and the loss handed to backward there is
    # one CTC node for the whole batch, plus the node that takes the mean.
    from qspeech import trainer as trainer_module
    cfg = tiny_cfg(batch_size=6)
    utts = tiny_data(seed=7)[:6]
    trainer = Trainer(cfg, SymbolTable(SYMBOLS), log_stream=io.StringIO())
    optimizer = Adam(trainer.params, lr=cfg.train.adam_lr)
    logits, graphs = [], []
    _spy_logits(trainer.model, logits)
    real_backward = trainer_module.backward

    def spy(loss):
        nodes, stack = [], [loss]
        while stack:
            node = stack.pop()
            if node.requires_grad and node is not logits[-1] \
                    and all(node is not n for n in nodes):
                nodes.append(node)
                stack.extend(node._parents)
        graphs.append([(node, node._parents) for node in nodes])   # backward releases them
        real_backward(loss)
    monkeypatch.setattr(trainer_module, "backward", spy)

    _, skipped = trainer._run_epoch(optimizer, utts)   # one batch: one train step
    assert skipped == 0 and len(graphs) == 1
    (_, mean_parents), (total, total_parents) = graphs[0]
    assert mean_parents[0] is total and total_parents == (logits[-1],)


def test_training_and_evaluation_leave_no_cyclic_garbage():
    cfg = tiny_cfg(batch_size=3)
    utts = tiny_data(seed=8)
    table = SymbolTable(SYMBOLS)
    trainer = Trainer(cfg, table, log_stream=io.StringIO())
    optimizer = Adam(trainer.params, lr=cfg.train.adam_lr)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        trainer._run_epoch(optimizer, utts[:6])
        evaluate_loss(trainer.model, utts[6:], table, batch_size=3)
        evaluate_per(trainer.model, utts[6:], table)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_resume_of_finished_run_keeps_best_epoch(tmp_path):
    utts = tiny_data(seed=9)
    cfg = tiny_cfg(epochs=2, fine_tune_epochs=0)
    table = SymbolTable(SYMBOLS)
    full = Trainer(cfg, table, log_stream=io.StringIO()).train(utts[:6], utts[6:], tmp_path)
    assert full.best_epoch >= 1
    assert load_checkpoint(full.last_path)["best_epoch"] == full.best_epoch

    resumed = Trainer(cfg, table, log_stream=io.StringIO())
    resumed.resume(full.last_path)
    res = resumed.train(utts[:6], utts[6:], tmp_path)
    assert res.history == []
    assert (res.best_epoch, res.best_metric) == (full.best_epoch, full.best_metric)


def test_real_twin_trains_through_trainer():
    cfg = tiny_cfg()
    table = SymbolTable(SYMBOLS)
    model = build_real_model(cfg.model, table.num_classes, np.random.default_rng(12))
    trainer = Trainer(cfg, table, model=model, log_stream=io.StringIO())
    assert trainer.model is model
    optimizer = Adam(trainer.params, lr=cfg.train.adam_lr)
    utts = tiny_data(seed=12)
    losses = [trainer._run_epoch(optimizer, utts)[0] for _ in range(4)]
    assert losses == sorted(losses, reverse=True) and losses[-1] < 0.9 * losses[0], losses

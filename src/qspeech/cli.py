"""Command-line surface.

Subcommands: ``extract`` (WAV manifest -> feature files), ``train``,
``eval``, ``decode``, ``inspect`` (layer table and parameter counts) and
``selftest``. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np

from .config import ModelConfig, RunConfig, config_hash, load_config, parse_config
from .ctc import SymbolTable
from .data import Utterance, load_dataset, derive_symbol_table, read_manifest
from .errors import ConfigError, DataError, NumericalError
from .features import extract, read_wav, save_features
from .metrics import load_phone_map
from .model import build_model, build_real_model, count_params
from .selftest import run_selftest
from .trainer import Trainer, decode_dataset, evaluate_per, restore_parameters
from . import checkpoint as ckpt

USAGE_EXIT, DATA_EXIT, NUMERIC_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _int_from(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names it in "invalid int value: 'x'"
    return parse


def _load_cfg(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return load_config(path)


def _resolve_phone_map(arg: str | None):
    if arg is None:
        return None
    if arg == "timit39":
        with resources.as_file(resources.files("qspeech").joinpath(
                "data/timit_61to39.txt")) as p:
            return load_phone_map(p)
    try:
        return load_phone_map(arg)
    except OSError as e:
        raise DataError(f"{arg}: cannot read phone map ({e})") from None
    except ValueError as e:      # a malformed line, or bytes that are not UTF-8
        raise DataError(str(e)) from None


def _make_out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:     # an existing file, or a parent that is one
        raise DataError(f"{path}: cannot create output directory ({e.strerror})") from None
    return out


def _extract_one(job) -> tuple[str, str]:
    utt_id, wav_path, out_path, feat_cfg = job
    wave, _ = read_wav(wav_path, expect_rate=feat_cfg.sample_rate)
    save_features(out_path, extract(wave, feat_cfg))
    return utt_id, str(out_path)


def cmd_extract(args) -> int:
    cfg = _load_cfg(args.config)
    out_dir = _make_out_dir(args.out)
    entries = read_manifest(args.manifest)
    jobs = []
    for utt_id, wav_path, labels in entries:
        # the ID names the feature file, so it must be one plain name inside --out
        if "/" in utt_id or "\0" in utt_id or utt_id in (".", ".."):
            raise DataError(f"{args.manifest}: utterance id {utt_id!r} cannot name a feature "
                            f"file (it contains '/' or NUL, or is '.' or '..')")
        jobs.append((utt_id, wav_path, out_dir / f"{utt_id}.qfeat", cfg.features))
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            done = dict(pool.map(_extract_one, jobs))
    else:
        done = dict(_extract_one(job) for job in jobs)
    manifest_path = out_dir / "manifest.tsv"
    try:
        with open(manifest_path, "w", encoding="utf-8") as f:
            for utt_id, _, labels in entries:
                # read_manifest resolves relative entries against the manifest's directory
                rel = Path(done[utt_id]).relative_to(out_dir)
                f.write(f"{utt_id}\t{rel}\t{' '.join(labels)}\n")
    except OSError as e:
        raise DataError(f"{manifest_path}: cannot write manifest ({e.strerror})") from None
    print(f"wrote {len(entries)} feature files and {manifest_path}")
    return 0


def _split_dev(utts: list[Utterance]) -> tuple[list, list]:
    dev = [u for i, u in enumerate(utts) if i % 10 == 0]
    train = [u for i, u in enumerate(utts) if i % 10 != 0]
    if not train or not dev:
        raise DataError("dataset too small to split off a development set; "
                        "pass --dev-manifest")
    return train, dev


def _check_inputs(utts: list[Utterance], cfg: ModelConfig) -> None:
    """Raise ``DataError`` for the first utterance the model cannot take."""
    for u in utts:
        for n, what, key in ((u.features.shape[0] // 4, "quaternion channel(s)", "in_channels"),
                             (u.features.shape[1], "frequency bands", "in_freq")):
            if n != getattr(cfg, key):
                raise DataError(f"utterance {u.utt_id!r} has {n} {what}, "
                                f"but model.{key} = {getattr(cfg, key)}")


def cmd_train(args) -> int:
    cfg = _load_cfg(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.fine_tune_epochs is not None:
        overrides["fine_tune_epochs"] = args.fine_tune_epochs
    if overrides:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, **overrides))
    if not args.checkpoint and cfg.train.epochs + cfg.train.fine_tune_epochs == 0:
        raise ConfigError("train.epochs + train.fine_tune_epochs = 0: a fresh run has "
                          "nothing to train (only a --checkpoint resume may run no epoch)")

    train_set = load_dataset(args.manifest, cfg.features)
    if args.dev_manifest:
        dev_set = load_dataset(args.dev_manifest, cfg.features)
    else:
        train_set, dev_set = _split_dev(train_set)
    _check_inputs(train_set + dev_set, cfg.model)

    declared = cfg.model.symbol_list()
    table = SymbolTable(tuple(declared)) if declared else derive_symbol_table(train_set + dev_set)

    trainer = Trainer(cfg, table)
    if args.checkpoint:
        trainer.resume(args.checkpoint)
    result = trainer.train(train_set, dev_set, _make_out_dir(args.out))
    # A resumed run that never improved keeps the best of the checkpoint it resumed.
    how = "->" if result.best_epoch > trainer.start_epoch else "inherited from"
    print(f"best epoch {result.best_epoch} "
          f"({cfg.train.early_stop_metric}={result.best_metric:.3f}) {how} {result.best_path}")
    return 0


def _model_from_checkpoint(path: str):
    state = ckpt.load_checkpoint(path)
    cfg = parse_config(state["config_text"])
    table = SymbolTable(tuple(state["symbols"]))
    model = build_model(cfg.model, table.num_classes, np.random.default_rng(0))
    restore_parameters(model, state["params"])
    return model, table, cfg


def cmd_eval(args) -> int:
    model, table, cfg = _model_from_checkpoint(args.checkpoint)
    utts = load_dataset(args.manifest, cfg.features)
    _check_inputs(utts, cfg.model)
    phone_map = _resolve_phone_map(args.phone_map)
    value = evaluate_per(model, utts, table, phone_map=phone_map)
    print(f"per={value:.3f} utterances={len(utts)}")
    return 0


def cmd_decode(args) -> int:
    model, table, cfg = _model_from_checkpoint(args.checkpoint)
    utts = load_dataset(args.manifest, cfg.features)
    _check_inputs(utts, cfg.model)
    hyps = decode_dataset(model, utts, table)
    lines = [f"{u.utt_id}\t{' '.join(hyps[u.utt_id])}" for u in utts]
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as e:
            raise DataError(f"{args.out}: cannot write transcripts ({e.strerror})") from None
        print(f"wrote {len(lines)} transcripts to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_inspect(args) -> int:
    cfg = _load_cfg(args.config)
    declared = cfg.model.symbol_list()
    n_classes = (len(declared) if declared else args.n_symbols) + 1
    rng = np.random.default_rng(cfg.train.seed)
    model = build_model(cfg.model, n_classes, rng)
    real = build_real_model(cfg.model, n_classes, np.random.default_rng(cfg.train.seed))

    print(f"config hash: {config_hash(cfg)}")
    print(f"{'layer':<10} {'description':<42} {'params':>12}")
    for name, desc, n in model.layer_table():
        print(f"{name:<10} {desc:<42} {n:>12,}")
    q_total, r_total = count_params(model), count_params(real)
    print(f"quaternion model parameters: {q_total:,}")
    print(f"real-equivalent model parameters: {r_total:,}")
    q_w = sum(layer.weight_count() for layer in model.convs + model.denses)
    r_w = sum(layer.weight_count() for layer in real.convs + real.denses)
    print(f"conv+dense weight ratio (real/quaternion): {r_w / q_w:.3f}")
    return 0


def cmd_selftest(args) -> int:
    ok = run_selftest(seed=args.seed if args.seed is not None else 0)
    return 0 if ok else NUMERIC_EXIT


def build_parser() -> _Parser:
    p = _Parser(prog="qspeech", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("extract", help="compute feature files from a WAV manifest")
    sp.add_argument("--config", metavar="PATH", help="config file")
    sp.add_argument("--manifest", metavar="PATH", required=True)
    sp.add_argument("--out", metavar="DIR", required=True)
    sp.add_argument("--workers", type=_int_from(1), default=1, metavar="N")
    sp.set_defaults(fn=cmd_extract)

    sp = sub.add_parser("train", help="train a model")
    sp.add_argument("--config", metavar="PATH", help="config file")
    sp.add_argument("--manifest", metavar="PATH", required=True)
    sp.add_argument("--checkpoint", metavar="PATH")
    sp.add_argument("--seed", type=_int_from(0), metavar="N")
    sp.add_argument("--out", metavar="DIR", required=True)
    sp.add_argument("--dev-manifest", metavar="PATH")
    sp.add_argument("--epochs", type=_int_from(0), metavar="N")
    sp.add_argument("--fine-tune-epochs", type=_int_from(0), metavar="N")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="score a manifest with a checkpoint")
    sp.add_argument("--manifest", metavar="PATH", required=True)
    sp.add_argument("--checkpoint", metavar="PATH", required=True)
    sp.add_argument("--phone-map", metavar="PATH_OR_NAME",
                    help="phone reduction map file, or 'timit39'")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("decode", help="write greedy transcripts")
    sp.add_argument("--manifest", metavar="PATH", required=True)
    sp.add_argument("--out", metavar="PATH")
    sp.add_argument("--checkpoint", metavar="PATH", required=True)
    sp.set_defaults(fn=cmd_decode)

    sp = sub.add_parser("inspect", help="print the layer table and parameter counts")
    sp.add_argument("--config", metavar="PATH", help="config file")
    sp.add_argument("--n-symbols", type=_int_from(1), default=61, metavar="N",
                    help="symbol count when the config does not declare them")
    sp.set_defaults(fn=cmd_inspect)

    sp = sub.add_parser("selftest", help="run the built-in oracle checks")
    sp.add_argument("--seed", type=_int_from(0), metavar="N")
    sp.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return DATA_EXIT
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())

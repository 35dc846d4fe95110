"""Command-line entry point.

Verbs: generate (synthesize and persist the corpus splits), train, eval,
gradcheck (finite-difference verification of every differentiable op), and
inspect-pool (dump a pooler's output and learned weights for one matrix).

Exit codes: 0 success, else the raised error's ``exit_code`` (1 config,
2 data/format, 3 numerical; see ``errors``), and 3 when gradcheck finds a
failing operation. Log verbosity comes from ADRET_LOG (error|info|debug;
any other value is a configuration error).
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys

import numpy as np

from .cache import atomic_write_text, cache_read, load_tensors, save_tensors
from .config import ExperimentConfig, load_config, parse_weights, pooling_spec
from .data import generate_splits, load_corpus, save_corpus
from .encoders import BiEncoder, evaluate_split, PreparedSplit
from .errors import (AdretError, ConfigError, DataError, DimensionError,
                     EvaluationError)
from .gradcheck import run_all
from .objectives import LOSS_MODES
from .pooling import (POOL_METHODS, PoolParams, PoolingSpec, pool_forward,
                      pool_weights)
from .training import build_model, train

log = logging.getLogger("adret")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}


# the config key each generate/train/eval flag sets
_FLAG_KEYS = {"seed": "train.seed", "out": "output.dir", "loss": "train.loss",
              "k": "train.fixed_k", "epochs": "train.epochs"}


class _Parser(argparse.ArgumentParser):
    # route usage errors through the package's exit-code scheme
    def error(self, message):
        raise ConfigError(message)


def _setup_logging() -> None:
    level = os.environ.get("ADRET_LOG", "info").strip().lower()
    if level not in _LOG_LEVELS:
        raise ConfigError(f"ADRET_LOG must be one of {'|'.join(_LOG_LEVELS)}, "
                          f"got {level!r}")
    logging.basicConfig(level=_LOG_LEVELS[level],
                        format="%(levelname)s %(name)s: %(message)s")


def _output_paths(directory: str, *names: str) -> list[str]:
    """Make ``directory`` and return the paths of ``names`` in it, refusing
    one that is a directory, so a verb fails before its work, not after."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission, ...
        raise DataError(f"cannot write {directory}: {exc.strerror}") from None
    paths = [os.path.join(directory, name) for name in names]
    for path in paths:
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    return paths


def cmd_generate(cfg: ExperimentConfig) -> int:
    _output_paths(cfg.corpus_dir)
    splits = generate_splits(cfg.corpus, cfg.corpus.num_groups,
                             cfg.val_groups, cfg.test_groups)
    for name, corpus in splits.items():  # train, val, test
        try:
            save_corpus(cfg.corpus_dir, name, corpus)
        except EvaluationError:  # the writer's one finiteness check
            raise ConfigError(f"corpus.noise_scale = {cfg.corpus.noise_scale:g} "
                              f"overflows the {name} split's features to inf")
        print(f"{name}: {len(corpus.images)} images, {len(corpus.texts)} texts")
    log.info("corpus written to %s", cfg.corpus_dir)
    return 0


def cmd_train(cfg: ExperimentConfig) -> int:
    model = build_model(cfg)  # first: it refuses a missing train.seed
    log_path, params_path, metrics_path = _output_paths(
        cfg.output_dir, "train_log.csv", "params.bin", "metrics.json")
    train_corpus = load_corpus(cfg.corpus_dir, "train", cfg.corpus)
    val_corpus = load_corpus(cfg.corpus_dir, "val", cfg.corpus)
    trained, train_log = train(train_corpus, model, cfg.train, val_corpus)

    atomic_write_text(log_path, train_log.to_csv())
    save_tensors(params_path, trained.tensors())
    metrics = {
        "loss_mode": cfg.train.loss.mode,
        "epochs": cfg.train.epochs,
        "iterations": len(train_log.records),
        "val_rsum": [[epoch, rsum] for epoch, rsum in train_log.validation],
        "final_val_rsum": train_log.validation[-1][1] if train_log.validation else None,
    }
    atomic_write_text(metrics_path, json.dumps(metrics, sort_keys=True) + "\n")
    final = metrics["final_val_rsum"]
    print(f"trained {metrics['iterations']} iterations"
          + (f", final validation RSUM {final:.2f}" if final is not None else ""))
    return 0


def _load_model(params_path: str, visual_spec: PoolingSpec,
                text_spec: PoolingSpec,
                widths: dict[str, tuple[int, str]]) -> BiEncoder:
    """The model a parameter file holds; its DataErrors name the file.

    ``widths`` maps a tensor name to (the row count the caller's input needs,
    what sets it), so a file for other dimensions exits 2 before any math.
    """
    tensors = load_tensors(params_path)
    try:
        model = BiEncoder.from_tensors(tensors, visual_spec, text_spec)
    except (DataError, DimensionError) as exc:
        raise DataError(f"{params_path}: {exc}") from None
    for name, (want, source) in widths.items():
        got = len(tensors[name])
        if got != want:
            raise DataError(f"{params_path}: {name} takes {got}-dimensional "
                            f"rows, {source} is {want}")
    return model


def cmd_eval(cfg: ExperimentConfig, params_paths: list[str]) -> int:
    json_path, csv_path = _output_paths(cfg.output_dir, "results.json",
                                        "results.csv")
    corpus = load_corpus(cfg.corpus_dir, "test", cfg.corpus)
    widths = {"visual.w_proj": (cfg.corpus.visual_dim, "corpus.visual_dim"),
              "text.w_proj": (cfg.corpus.text_dim, "corpus.text_dim")}
    models = [_load_model(path, cfg.visual_pooling, cfg.text_pooling, widths)
              for path in params_paths]
    result = evaluate_split(models, PreparedSplit(corpus), cfg.eval_folds)
    atomic_write_text(json_path, result.to_json() + "\n")
    atomic_write_text(csv_path, result.to_csv())
    print(result.to_json())
    return 0


def cmd_gradcheck(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    reports = run_all(seed)
    for report in reports:
        print(report)
    failures = [r.op_name for r in reports if not r.passed]
    print(f"{len(reports)} operations checked, {len(failures)} failing")
    if failures:
        print("failing: " + ", ".join(failures), file=sys.stderr)
        return 3
    return 0


def cmd_inspect_pool(matrix_path: str, method: str, k, weights, modality: str,
                     params_path) -> int:
    matrix, _ = cache_read(matrix_path)
    if matrix.size == 0:
        raise DataError(f"{matrix_path}: matrix has no rows or columns to pool")
    for flag, value, owner in (("--k", k, "kmax"),
                               ("--weights", weights, "fixed-balance")):
        if value is not None and method != owner:
            raise ConfigError(f"{flag} is for --method {owner} only")
    spec = pooling_spec(method, modality, {"k": k, "weights": weights}.get)
    if params_path:
        model = _load_model(params_path, spec, spec, {
            f"{modality}.w_tok": (matrix.shape[1],
                                  f"the row width of {matrix_path}")})
        params = getattr(model, modality).pool
    else:
        params = PoolParams.zeros(matrix.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        pooled, cache = pool_forward(matrix, spec, params)
    if not np.isfinite(pooled).all():
        raise EvaluationError(f"{matrix_path}: the {method} pooled vector is not finite")
    learned = pool_weights(cache) or (None, None, None)
    dump = {"method": method, "pooled": pooled.tolist()}
    for name, w in zip(("theta", "delta", "omega"), learned):
        dump[name] = None if w is None else w[0].tolist()
    print(json.dumps(dump, sort_keys=True))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="adret",
                     description="Bi-encoder contrastive retrieval with "
                                 "adaptive pooling and adaptive negative "
                                 "sampling, at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", help="set output.dir")

    p = sub.add_parser("generate", help="synthesize and persist corpus splits")
    add_config_flags(p)

    p = sub.add_parser("train", help="train the bi-encoder")
    add_config_flags(p)
    p.add_argument("--seed", help="set train.seed")
    p.add_argument("--loss", choices=LOSS_MODES, help="set train.loss")
    p.add_argument("--k", help="set train.fixed_k, the infonce-fixed "
                               "negative count")
    p.add_argument("--epochs", help="set train.epochs")

    p = sub.add_parser("eval", help="evaluate retrieval on the test split")
    add_config_flags(p)
    p.add_argument("--ensemble", nargs="+", metavar="PARAMS", default=None,
                   help="parameter files to ensemble (default: OUT/params.bin)")

    p = sub.add_parser("gradcheck", help="finite-difference check every op")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("inspect-pool", help="dump pooled vector and weights")
    p.add_argument("matrix", help="cache-format matrix file")
    p.add_argument("--method", default="adpool", choices=POOL_METHODS)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--weights", default=None,
                   help="fixed-balance weights, e.g. 0.75,0.25")
    p.add_argument("--modality", choices=("visual", "text"), default="text")
    p.add_argument("--params", default=None,
                   help="parameter file providing learned pooling weights")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        _setup_logging()
        args = parser.parse_args(argv)
        if args.command == "gradcheck":
            return cmd_gradcheck(args.seed)
        if args.command == "inspect-pool":
            return cmd_inspect_pool(args.matrix, args.method, args.k,
                                    None if args.weights is None else
                                    parse_weights(args.weights, "--weights"),
                                    args.modality, args.params)
        flags = vars(args)
        cfg = load_config(args.config, {key: flags[flag] for flag, key
                                        in _FLAG_KEYS.items()
                                        if flags.get(flag) is not None})
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        paths = args.ensemble or [os.path.join(cfg.output_dir, "params.bin")]
        return cmd_eval(cfg, paths)
    except (AdretError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())

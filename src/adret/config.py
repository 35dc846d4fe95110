"""Experiment configuration: an INI file with one section per concern.

``KEYS`` declares every section and key once, with the parser that reads
its value and its default (``REQUIRED`` for a key that has none). Neither the
file nor a ``section.key`` override given to ``load_config`` may name a key
outside it, so typos fail loudly with the offending name in the message,
and every value given is parsed, whether the run reads it or not.
README's Configuration section shows a complete file.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Optional

from .data import SyntheticCorpusConfig
from .errors import ConfigError
from .objectives import LossConfig
from .pooling import PoolingSpec
from .training import TrainConfig

REQUIRED = object()  # the default of a key that must be given


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: SyntheticCorpusConfig
    val_groups: int
    test_groups: int
    train: TrainConfig
    visual_pooling: PoolingSpec
    text_pooling: PoolingSpec
    eval_folds: int
    output_dir: str

    @property
    def corpus_dir(self) -> str:
        return os.path.join(self.output_dir, "corpus")


def _integer(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _count(raw: str, name: str, low: int = 1) -> int:
    value = _integer(raw, name)
    if value < low:
        raise ConfigError(f"{name} must be >= {low}")
    return value


def _number(raw: str, name: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _text(raw: str, name: str) -> str:
    return raw


def parse_weights(raw: str, name: str) -> tuple[float, float]:
    """Fixed-balance weights written as two comma-separated numbers; the
    range is checked by ``PoolingSpec``."""
    try:
        w_tok, w_emb = map(float, raw.split(","))
    except ValueError:  # a part is not a number, or not two parts
        raise ConfigError(f"{name} must be two comma-separated numbers, "
                          f"got {raw!r}") from None
    return w_tok, w_emb


_POOLING = {
    "method": (_text, "adpool"),  # mean | max | kmax | adpool | manual | fixed-balance
    "k": (_count, REQUIRED),  # read by kmax only; <= corpus.<modality>_len_min
    "weights": (parse_weights, REQUIRED),  # read by fixed-balance only
}

# section -> key -> (parser(raw, "section.key") -> value, default)
KEYS = {
    "corpus": {
        "seed": (partial(_count, low=0), REQUIRED),
        "train_groups": (_count, 1000),
        "val_groups": (_count, 200),
        "test_groups": (_count, 200),
        "captions_per_image": (_integer, 5),
        "latent_dim": (_integer, 16),
        "visual_dim": (_integer, 32),
        "text_dim": (_integer, 32),
        "embed_dim": (_integer, 32),
        "visual_len_min": (_integer, 4),
        "visual_len_max": (_integer, 12),
        "text_len_min": (_integer, 5),
        "text_len_max": (_integer, 15),
        "noise_scale": (_number, 0.1),
    },
    "pooling.visual": _POOLING,
    "pooling.text": _POOLING,
    "train": {
        "seed": (partial(_count, low=0), None),  # required by `adret train` alone
        "batch_size": (_integer, 64),
        "epochs": (_integer, 25),
        "lr": (_number, 5e-4),
        "lr_decay_every": (_integer, 15),
        "lr_decay_factor": (_number, 0.1),
        "loss": (_text, "infonce-adaptive"),
        "margin": (_number, 0.2),
        "temperature": (_number, 0.05),
        "fixed_k": (_count, None),  # infonce-fixed only
    },
    "eval": {"folds": (_count, 1)},
    "output": {"dir": (_text, REQUIRED)},
}


def pooling_spec(method: str, modality: str,
                 value: Callable[[str], object]) -> PoolingSpec:
    """The pooler ``method`` names for ``modality``: kmax reads
    ``value("k")``, fixed-balance ``value("weights")``, and manual pools by
    the modality."""
    return PoolingSpec(
        method=method,
        k=value("k") if method == "kmax" else None,
        manual_mode=modality if method == "manual" else None,
        weights=value("weights") if method == "fixed-balance" else None)


def load_config(path: str,
                overrides: Optional[Mapping[str, str]] = None) -> ExperimentConfig:
    """Parse and validate an experiment config.

    ``overrides`` maps ``section.key`` to a value written as in the file. It
    replaces the file's value and is parsed and checked the same way.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, no permission, ...
        raise ConfigError(
            f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc.reason}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config file {path} is not valid INI: {exc}")

    given = {name: dict(parser[name]) for name in parser.sections()}
    for name, raw in (overrides or {}).items():
        section, _, key = name.rpartition(".")
        given.setdefault(section, {})[key] = raw
    for section, entries in given.items():
        if section not in KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in entries.items():
            if key not in KEYS[section]:
                raise ConfigError(f"unknown config field {section}.{key}")
            entries[key] = KEYS[section][key][0](raw, f"{section}.{key}")

    def get(section: str, key: str):
        default = KEYS[section][key][1]
        if key in given.get(section, {}):
            return given[section][key]
        if default is REQUIRED:
            raise ConfigError(f"missing required field {section}.{key}")
        return default

    from_corpus, from_train = partial(get, "corpus"), partial(get, "train")
    corpus = SyntheticCorpusConfig(
        num_groups=from_corpus("train_groups"),
        captions_per_image=from_corpus("captions_per_image"),
        latent_dim=from_corpus("latent_dim"),
        visual_dim=from_corpus("visual_dim"),
        text_dim=from_corpus("text_dim"),
        embed_dim=from_corpus("embed_dim"),
        visual_len=(from_corpus("visual_len_min"), from_corpus("visual_len_max")),
        text_len=(from_corpus("text_len_min"), from_corpus("text_len_max")),
        noise_scale=from_corpus("noise_scale"),
        seed=from_corpus("seed"))
    loss = LossConfig(mode=from_train("loss"), margin=from_train("margin"),
                      temperature=from_train("temperature"),
                      fixed_k=from_train("fixed_k"))
    train = TrainConfig(loss=loss, seed=from_train("seed"),
                        batch_size=from_train("batch_size"),
                        epochs=from_train("epochs"), lr=from_train("lr"),
                        lr_decay_every=from_train("lr_decay_every"),
                        lr_decay_factor=from_train("lr_decay_factor"))

    visual_pooling, text_pooling = (
        pooling_spec(get(f"pooling.{m}", "method"), m,
                     partial(get, f"pooling.{m}")) for m in ("visual", "text"))
    for modality, spec, (len_min, _) in (
            ("visual", visual_pooling, corpus.visual_len),
            ("text", text_pooling, corpus.text_len)):
        if spec.method == "kmax" and spec.k > len_min:
            raise ConfigError(
                f"pooling.{modality}.k = {spec.k} exceeds corpus.{modality}_len_min "
                f"= {len_min}; kmax pooling needs k rows in every instance")

    return ExperimentConfig(
        corpus=corpus,
        val_groups=from_corpus("val_groups"),
        test_groups=from_corpus("test_groups"),
        train=train,
        visual_pooling=visual_pooling,
        text_pooling=text_pooling,
        eval_folds=get("eval", "folds"),
        output_dir=get("output", "dir"))

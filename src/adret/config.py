"""Experiment configuration: an INI file with one section per concern.

Example (all keys optional unless marked; defaults are the desk-scale
settings):

    [corpus]
    seed = 1234              ; required
    train_groups = 1000
    val_groups = 200
    test_groups = 200
    captions_per_image = 5
    latent_dim = 16
    visual_dim = 32
    text_dim = 32
    embed_dim = 32
    visual_len_min = 4
    visual_len_max = 12
    text_len_min = 5
    text_len_max = 15
    noise_scale = 0.1

    [pooling.visual]
    method = adpool          ; mean | max | kmax | adpool | manual | fixed-balance
    ; k = 5                  ; kmax only
    ; weights = 0.75, 0.25   ; fixed-balance only (token weight, embedding weight)

    [pooling.text]
    method = adpool

    [train]
    seed = 7                 ; required unless --seed is given
    batch_size = 64
    epochs = 25
    lr = 5e-4
    lr_decay_every = 15
    lr_decay_factor = 0.1
    loss = infonce-adaptive  ; hard-triplet | infonce-adaptive | infonce-fixed
    margin = 0.2
    temperature = 0.05
    ; fixed_k = 10           ; infonce-fixed only

    [eval]
    folds = 1

    [output]
    dir = runs/exp1          ; required unless --out is given

Unknown sections or keys are rejected so typos fail loudly, with the
offending name in the message.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from typing import Optional

from .data import SyntheticCorpusConfig
from .errors import ConfigError
from .objectives import LossConfig
from .pooling import PoolingSpec
from .training import TrainConfig

_SCHEMA = {
    "corpus": {"seed", "train_groups", "val_groups", "test_groups",
               "captions_per_image", "latent_dim", "visual_dim", "text_dim",
               "embed_dim", "visual_len_min", "visual_len_max",
               "text_len_min", "text_len_max", "noise_scale"},
    "pooling.visual": {"method", "k", "weights"},
    "pooling.text": {"method", "k", "weights"},
    "train": {"seed", "batch_size", "epochs", "lr", "lr_decay_every",
              "lr_decay_factor", "loss", "margin", "temperature", "fixed_k"},
    "eval": {"folds"},
    "output": {"dir"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: SyntheticCorpusConfig
    train_groups: int
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


class _Section:
    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = values

    def _parse(self, key: str, default, caster, kind: str):
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing required field {self.name}.{key}")
            return default
        raw = self.values[key]
        try:
            return caster(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{self.name}.{key} must be {kind}, got {raw!r}")

    def get_int(self, key: str, default: Optional[int] = None) -> int:
        return self._parse(key, default, int, "an integer")

    def get_float(self, key: str, default: Optional[float] = None) -> float:
        value = self._parse(key, default, float, "a number")
        if not math.isfinite(value):
            raise ConfigError(f"{self.name}.{key} must be finite, got {value}")
        return value

    def get_str(self, key: str, default: Optional[str] = None) -> str:
        return self._parse(key, default, str, "a string")


def _pooling_spec(section: _Section, modality: str) -> PoolingSpec:
    method = section.get_str("method", "adpool")
    k = None
    weights = None
    manual_mode = None
    if method == "kmax":
        k = section.get_int("k")
    if method == "manual":
        manual_mode = modality
    if method == "fixed-balance":
        raw = section.get_str("weights")
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"{section.name}.weights must be two "
                              f"comma-separated numbers, got {raw!r}")
        try:
            weights = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise ConfigError(f"{section.name}.weights must be numeric, got {raw!r}")
    return PoolingSpec(method=method, k=k, manual_mode=manual_mode,
                       weights=weights)


def load_config(path: str, *, seed_override: Optional[int] = None,
                loss_override: Optional[str] = None,
                k_override: Optional[int] = None,
                out_override: Optional[str] = None,
                epochs_override: Optional[int] = None) -> ExperimentConfig:
    """Parse and validate an experiment config, applying CLI overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"config file {path} is not valid INI: {exc}")

    sections: dict[str, _Section] = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown config section [{name}]")
        for key in parser[name]:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown config field {name}.{key}")
        sections[name] = _Section(name, dict(parser[name]))
    for name in _SCHEMA:
        sections.setdefault(name, _Section(name, {}))

    corpus_sec = sections["corpus"]
    train_groups = corpus_sec.get_int("train_groups", 1000)
    val_groups = corpus_sec.get_int("val_groups", 200)
    test_groups = corpus_sec.get_int("test_groups", 200)
    corpus = SyntheticCorpusConfig(
        num_groups=train_groups,
        captions_per_image=corpus_sec.get_int("captions_per_image", 5),
        latent_dim=corpus_sec.get_int("latent_dim", 16),
        visual_dim=corpus_sec.get_int("visual_dim", 32),
        text_dim=corpus_sec.get_int("text_dim", 32),
        embed_dim=corpus_sec.get_int("embed_dim", 32),
        visual_len=(corpus_sec.get_int("visual_len_min", 4),
                    corpus_sec.get_int("visual_len_max", 12)),
        text_len=(corpus_sec.get_int("text_len_min", 5),
                  corpus_sec.get_int("text_len_max", 15)),
        noise_scale=corpus_sec.get_float("noise_scale", 0.1),
        seed=corpus_sec.get_int("seed"))

    train_sec = sections["train"]
    mode = loss_override or train_sec.get_str("loss", "infonce-adaptive")
    fixed_k = k_override if k_override is not None else train_sec.get_int("fixed_k", 0)
    loss = LossConfig(mode=mode,
                      margin=train_sec.get_float("margin", 0.2),
                      temperature=train_sec.get_float("temperature", 0.05),
                      fixed_k=fixed_k if fixed_k > 0 else None)
    if seed_override is not None:
        train_seed = seed_override
    else:
        train_seed = train_sec.get_int("seed")
    epochs = (epochs_override if epochs_override is not None
              else train_sec.get_int("epochs", 25))
    train = TrainConfig(loss=loss, seed=train_seed,
                        batch_size=train_sec.get_int("batch_size", 64),
                        epochs=epochs,
                        lr=train_sec.get_float("lr", 5e-4),
                        lr_decay_every=train_sec.get_int("lr_decay_every", 15),
                        lr_decay_factor=train_sec.get_float("lr_decay_factor", 0.1))

    output_dir = out_override or sections["output"].get_str("dir")

    eval_folds = sections["eval"].get_int("folds", 1)
    if eval_folds < 1:
        raise ConfigError("eval.folds must be >= 1")
    for name, count in (("train_groups", train_groups),
                        ("val_groups", val_groups),
                        ("test_groups", test_groups)):
        if count < 1:
            raise ConfigError(f"corpus.{name} must be >= 1")

    return ExperimentConfig(
        corpus=corpus,
        train_groups=train_groups,
        val_groups=val_groups,
        test_groups=test_groups,
        train=train,
        visual_pooling=_pooling_spec(sections["pooling.visual"], "visual"),
        text_pooling=_pooling_spec(sections["pooling.text"], "text"),
        eval_folds=eval_folds,
        output_dir=output_dir)

"""Synthetic paired corpus generation.

Each group is an "image" with several "captions". A group draws one latent
vector; the visual instance is N rows of that latent pushed through a fixed
visual mixing matrix plus per-row noise, and every caption is M rows through
a text mixing matrix plus its own noise. Matched pairs therefore share a
latent direction that a linear projection can recover, which is all the
structure the trainable pipeline needs.

Generation is fully deterministic given the seed: a single PCG64 generator
drives the mixing matrices first, then the groups in order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

import numpy as np

from .cache import atomic_write_text, cache_read, cache_write
from .errors import ConfigError, DataError
from .tensor import Array

GroundTruth = Dict[str, FrozenSet[str]]


@dataclass(frozen=True)
class RawInstance:
    modality: str  # "visual" or "text"
    features: Array  # length x dim
    id: str
    group_id: str


@dataclass(frozen=True)
class Corpus:
    images: Tuple[RawInstance, ...]
    texts: Tuple[RawInstance, ...]


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    num_groups: int
    captions_per_image: int = 5
    latent_dim: int = 16
    visual_dim: int = 32
    text_dim: int = 32
    embed_dim: int = 32
    visual_len: Tuple[int, int] = (4, 12)
    text_len: Tuple[int, int] = (5, 15)
    noise_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("num_groups", "captions_per_image", "latent_dim",
                     "visual_dim", "text_dim", "embed_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"corpus.{name} must be >= 1")
        for name in ("visual_len", "text_len"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ConfigError(f"corpus.{name} must satisfy 1 <= min <= max")
        if not self.noise_scale >= 0:
            raise ConfigError("corpus.noise_scale must be >= 0")


def _draw_groups(rng: np.random.Generator, cfg: SyntheticCorpusConfig,
                 mix_v: Array, mix_t: Array, start: int, count: int) -> Corpus:
    images = []
    texts = []
    for g in range(start, start + count):
        gid = f"g{g:06d}"
        z = rng.standard_normal(cfg.latent_dim)
        n = int(rng.integers(cfg.visual_len[0], cfg.visual_len[1] + 1))
        feats = z @ mix_v + cfg.noise_scale * rng.standard_normal((n, cfg.visual_dim))
        images.append(RawInstance("visual", feats, f"i{g:06d}", gid))
        for c in range(cfg.captions_per_image):
            m = int(rng.integers(cfg.text_len[0], cfg.text_len[1] + 1))
            feats = z @ mix_t + cfg.noise_scale * rng.standard_normal((m, cfg.text_dim))
            texts.append(RawInstance("text", feats, f"t{g:06d}.{c}", gid))
    return Corpus(tuple(images), tuple(texts))


def generate_corpus(cfg: SyntheticCorpusConfig) -> tuple[Corpus, GroundTruth]:
    """One corpus of cfg.num_groups groups, the train split of
    generate_splits; bit-identical for a fixed seed."""
    corpus = generate_splits(cfg, cfg.num_groups, 0, 0)["train"]
    return corpus, ground_truth(corpus)


def generate_splits(cfg: SyntheticCorpusConfig, train_groups: int,
                    val_groups: int, test_groups: int) -> dict[str, Corpus]:
    """Train/val/test corpora sharing one latent world (same mixing matrices).

    Groups are drawn sequentially from a single seeded stream, so any prefix
    of the splits is stable under changes to the later ones.
    """
    rng = np.random.default_rng(cfg.seed)
    mix_v = rng.standard_normal((cfg.latent_dim, cfg.visual_dim))
    mix_t = rng.standard_normal((cfg.latent_dim, cfg.text_dim))
    splits = {}
    start = 0
    for name, count in (("train", train_groups), ("val", val_groups),
                        ("test", test_groups)):
        splits[name] = _draw_groups(rng, cfg, mix_v, mix_t, start, count)
        start += count
    return splits


def save_corpus(directory: str, split: str, corpus: Corpus) -> None:
    """Persist a split as two cache files plus a JSON sidecar.

    Instances are stacked row-wise per modality with the instance id repeated
    on every row; the sidecar maps instance ids to group ids. All files are
    byte-deterministic for a fixed corpus.
    """
    groups: dict[str, str] = {}
    for name, instances in (("visual", corpus.images), ("text", corpus.texts)):
        rows = np.concatenate([inst.features for inst in instances], axis=0)
        ids = [inst.id for inst in instances for _ in range(inst.features.shape[0])]
        cache_write(os.path.join(directory, f"{split}_{name}.bin"), rows, ids)
        for inst in instances:
            groups[inst.id] = inst.group_id
    atomic_write_text(os.path.join(directory, f"{split}_meta.json"),
                      json.dumps({"groups": groups}, sort_keys=True) + "\n")
    truth = {qid: sorted(rel) for qid, rel in ground_truth(corpus).items()}
    atomic_write_text(os.path.join(directory, f"{split}_truth.json"),
                      json.dumps(truth, sort_keys=True) + "\n")


def load_corpus(directory: str, split: str) -> Corpus:
    meta_path = os.path.join(directory, f"{split}_meta.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            groups = json.load(fh)["groups"]
    except FileNotFoundError:
        raise DataError(f"missing corpus sidecar {meta_path}; run generate first")

    def read(name: str) -> tuple:
        path = os.path.join(directory, f"{split}_{name}.bin")
        matrix, ids = cache_read(path)
        instances = []
        start = 0
        for stop in range(1, len(ids) + 1):
            if stop == len(ids) or ids[stop] != ids[start]:
                iid = ids[start]
                if iid not in groups:
                    raise DataError(f"instance {iid!r} in {path} missing from sidecar")
                instances.append(RawInstance(name, matrix[start:stop], iid,
                                             groups[iid]))
                start = stop
        return tuple(instances)

    return Corpus(read("visual"), read("text"))


def ground_truth(corpus: Corpus) -> GroundTruth:
    """Relevance sets for both directions keyed by instance id.

    A text query's relevant set is its group's image; an image query's
    relevant set is all of its group's captions.
    """
    captions_by_group: dict[str, set[str]] = {}
    image_by_group: dict[str, str] = {}
    for img in corpus.images:
        image_by_group[img.group_id] = img.id
    for txt in corpus.texts:
        captions_by_group.setdefault(txt.group_id, set()).add(txt.id)
    truth: GroundTruth = {}
    for img in corpus.images:
        truth[img.id] = frozenset(captions_by_group.get(img.group_id, ()))
    for txt in corpus.texts:
        truth[txt.id] = frozenset({image_by_group[txt.group_id]})
    return truth

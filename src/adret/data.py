"""Synthetic paired corpus generation.

Each group is an "image" with several "captions". A group draws one latent
vector; the visual instance is N rows of that latent pushed through a fixed
visual mixing matrix plus per-row noise, and every caption is M rows through
a text mixing matrix plus its own noise. Matched pairs therefore share a
latent direction that a linear projection can recover, which is all the
structure the trainable pipeline needs.

Generation is fully deterministic given the seed: a single PCG64 generator
drives the mixing matrices first, then the groups in order. Each group draws
z, n, the image's noise, then m and the noise for each caption in turn (into
the next rows of one scratch buffer: a group's captions are views of one array).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from .cache import (atomic_write_bytes, atomic_write_text, cache_read_runs,
                    encode_blob)
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
    noise = np.empty((cfg.captions_per_image * cfg.text_len[1], cfg.text_dim))
    for g in range(start, start + count):
        gid = f"g{g:06d}"
        z = rng.standard_normal(cfg.latent_dim)
        n = int(rng.integers(cfg.visual_len[0], cfg.visual_len[1] + 1))
        feats = rng.standard_normal((n, cfg.visual_dim))
        feats *= cfg.noise_scale
        feats += z @ mix_v
        images.append(RawInstance("visual", feats, f"i{g:06d}", gid))
        ends = [0]
        for _ in range(cfg.captions_per_image):
            m = int(rng.integers(cfg.text_len[0], cfg.text_len[1] + 1))
            rng.standard_normal(out=noise[ends[-1]:ends[-1] + m])
            ends.append(ends[-1] + m)
        feats = np.multiply(noise[:ends[-1]], cfg.noise_scale)
        feats += z @ mix_t
        texts.extend(RawInstance("text", feats[a:b], f"t{g:06d}.{c}", gid)
                     for c, (a, b) in enumerate(zip(ends, ends[1:])))
    return Corpus(tuple(images), tuple(texts))


def generate_splits(cfg: SyntheticCorpusConfig, train_groups: int,
                    val_groups: int, test_groups: int) -> dict[str, Corpus]:
    """Train/val/test corpora sharing one latent world (same mixing matrices).

    Groups are drawn sequentially from a single seeded stream, so any prefix
    of the splits is stable under changes to the later ones. ``train_groups``
    must equal ``cfg.num_groups``.
    """
    if train_groups != cfg.num_groups:
        raise ConfigError(f"train_groups = {train_groups} disagrees with "
                          f"corpus.num_groups = {cfg.num_groups}")
    rng = np.random.default_rng(cfg.seed)
    mix_v = rng.standard_normal((cfg.latent_dim, cfg.visual_dim))
    mix_t = rng.standard_normal((cfg.latent_dim, cfg.text_dim))
    splits = {}
    start = 0
    with np.errstate(over="ignore"):  # inf is left to the writer's check
        for name, count in (("train", train_groups), ("val", val_groups),
                            ("test", test_groups)):
            splits[name] = _draw_groups(rng, cfg, mix_v, mix_t, start, count)
            start += count
    return splits


def save_corpus(directory: str, split: str, corpus: Corpus) -> None:
    """Persist a split as two cache files plus a JSON sidecar.

    Instances are stacked row-wise per modality with the instance id repeated
    on every row, written and read by runs of one id; the sidecar maps instance
    ids to group ids. All files are byte-deterministic for a fixed corpus.
    """
    for name, instances in (("visual", corpus.images), ("text", corpus.texts)):
        blocks = [inst.features for inst in instances]
        atomic_write_bytes(os.path.join(directory, f"{split}_{name}.bin"),
                           encode_blob(blocks, [inst.id for inst in instances],
                                       list(map(len, blocks))))
    groups = {inst.id: inst.group_id for inst in corpus.images + corpus.texts}
    atomic_write_text(os.path.join(directory, f"{split}_meta.json"),
                      json.dumps({"groups": groups}, sort_keys=True) + "\n")


def load_corpus(directory: str, split: str,
                cfg: Optional[SyntheticCorpusConfig] = None) -> Corpus:
    """A split written by ``save_corpus``; with ``cfg``, each feature file
    must hold rows of ``cfg.visual_dim``/``text_dim`` columns."""
    widths = {} if cfg is None else {"visual": cfg.visual_dim,
                                     "text": cfg.text_dim}
    meta_path = os.path.join(directory, f"{split}_meta.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"missing corpus sidecar {meta_path}; run generate first")
    except OSError as exc:  # a directory, no permission, ...
        raise DataError(f"cannot read corpus sidecar {meta_path}: "
                        f"{exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{meta_path}: corpus sidecar is not JSON: {exc}") from None
    groups = meta.get("groups") if isinstance(meta, dict) else None
    if not (isinstance(groups, dict)
            and all(isinstance(g, str) for g in groups.values())):
        raise DataError(f"{meta_path}: corpus sidecar must be "
                        '{"groups": {instance id: group id}}')

    def read(name: str) -> tuple:
        path = os.path.join(directory, f"{split}_{name}.bin")
        matrix, runs = cache_read_runs(path)
        if name in widths and matrix.shape[1] != widths[name]:
            raise DataError(f"{path}: rows are {matrix.shape[1]}-dimensional, "
                            f"corpus.{name}_dim is {widths[name]}")
        instances: dict[str, RawInstance] = {}
        start = 0
        for iid, rows in runs:
            if iid in instances:
                raise DataError(f"instance {iid!r} occurs in two separate "
                                f"runs of rows in {path}")
            if iid not in groups:
                raise DataError(f"instance {iid!r} in {path} missing from sidecar")
            instances[iid] = RawInstance(name, matrix[start:start + rows], iid,
                                         groups[iid])
            start += rows
        if start != len(matrix):
            raise DataError(f"{path}: id table covers {start} rows, payload "
                            f"has {len(matrix)}")
        return tuple(instances.values())

    images, texts = read("visual"), read("text")
    shared = {img.id for img in images}.intersection(txt.id for txt in texts)
    if shared:
        raise DataError(f"instance {min(shared)!r} is both an image in "
                        f"{os.path.join(directory, split + '_visual.bin')} and a "
                        f"caption in {os.path.join(directory, split + '_text.bin')}")
    image_of: dict[str, str] = {}
    for img in images:
        if image_of.setdefault(img.group_id, img.id) != img.id:
            raise DataError(f"{meta_path}: group {img.group_id!r} has two images, "
                            f"{image_of[img.group_id]!r} and {img.id!r}")
    for txt in texts:
        if txt.group_id not in image_of:
            raise DataError(f"{meta_path}: caption {txt.id!r} names group "
                            f"{txt.group_id!r}, which has no image")
    captioned = {txt.group_id for txt in texts}
    for img in images:
        if img.group_id not in captioned:
            raise DataError(f"{meta_path}: image {img.id!r} has no caption in "
                            f"group {img.group_id!r}")
    return Corpus(images, texts)


def ground_truth(corpus: Corpus) -> GroundTruth:
    """Relevance sets for both directions keyed by instance id.

    A text query's relevant set is its group's image; an image query's
    relevant set is all of its group's captions.
    """
    captions: dict[str, set[str]] = {}
    for txt in corpus.texts:
        captions.setdefault(txt.group_id, set()).add(txt.id)
    image = {img.group_id: frozenset({img.id}) for img in corpus.images}
    truth: GroundTruth = {img.id: frozenset(captions.get(img.group_id, ()))
                          for img in corpus.images}
    truth.update((txt.id, image[txt.group_id]) for txt in corpus.texts)
    return truth

"""Retrieval metrics: Recall@K both ways, RSUM, and similarity ensembling.

Direction naming: caption retrieval takes captions as queries and ranks
images; image retrieval takes images as queries and ranks captions.

Candidates rank by descending score, ties toward the smaller index. A
query hits at K when its best relevant candidate has 0-based rank < K, where
rank = #(score > best) + #(score == best at a smaller index), counted with
no sort: one pass over contiguous blocks of score-matrix rows gives both
directions' ranks, so every K comes from that pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence, Set

import numpy as np

from .errors import DataError, DimensionError
from .tensor import Array, as_matrix, cosine_sim_matrix, finite_matrix

RECALL_KS = (1, 5, 10)
_BLOCK_ROWS = 256  # query rows per counting block


@dataclass(frozen=True)
class EmbeddingSet:
    """Unit-normalized embeddings with their instance ids, row-aligned."""

    vectors: Array
    ids: tuple[str, ...]

    def __post_init__(self):
        v = as_matrix(self.vectors, "embeddings")
        object.__setattr__(self, "vectors", v)
        if len(self.ids) != v.shape[0]:
            raise DimensionError(f"{len(self.ids)} ids for {v.shape[0]} rows")


@dataclass(frozen=True)
class RetrievalResult:
    ir_r1: float
    ir_r5: float
    ir_r10: float
    cr_r1: float
    cr_r5: float
    cr_r10: float
    rsum: float

    def to_json(self) -> str:
        return json.dumps({k: float(v) for k, v in self.__dict__.items()},
                          sort_keys=True)

    def to_csv(self) -> str:
        row = ",".join(repr(float(v)) for v in self.__dict__.values())
        return f"{','.join(self.__dict__)}\n{row}\n"


def _best_relevant(scores: Array, query_ids: Sequence[str],
                   candidate_ids: Sequence[str],
                   truth: Mapping[str, Set[str]]) -> np.ndarray:
    """Index of each query's best relevant candidate (highest score, then
    smaller index) from one sort of the (query, relevant) pairs. ``scores``
    may be a transposed view."""
    if scores.shape != (len(query_ids), len(candidate_ids)):
        raise DimensionError(f"score matrix {scores.shape} does not match "
                             f"{len(query_ids)} queries x {len(candidate_ids)} candidates")
    column_of = {cid: j for j, cid in enumerate(candidate_ids)}
    queries, candidates, starts = [], [], []
    for q, qid in enumerate(query_ids):
        if qid not in truth:
            raise DataError(f"query {qid!r} missing from ground truth")
        relevant = [column_of[cid] for cid in truth[qid] if cid in column_of]
        if not relevant:
            raise DataError(f"query {qid!r} has no relevant candidate in the index")
        starts.append(len(candidates))
        queries += [q] * len(relevant)
        candidates += relevant
    queries, candidates = (np.array(a, dtype=np.intp) for a in (queries, candidates))
    order = np.lexsort((candidates, -scores[queries, candidates], queries))
    return candidates[order[starts]]


def _rank_counts(scores: Array, row_best: np.ndarray, col_best=None):
    """(Rank of each row's best column along its row, rank of each column's
    best row down its column or None without ``col_best``) from one pass
    over blocks of _BLOCK_ROWS rows. A row counts #(s > best), plus its ties
    at smaller columns where its best value occurs twice or more. A column
    adds #(s >= best), as ``s > nextafter(best, -inf)``, in blocks above its
    best row, then #(s > best), plus the ties above it in its own block."""
    columns = np.arange(scores.shape[1])
    row_top = scores[np.arange(len(scores)), row_best]
    row_ranks = np.empty(len(scores), dtype=np.intp)
    col_ranks = None if col_best is None else np.zeros(len(columns), dtype=np.intp)
    if col_best is not None:
        col_top = scores[col_best, columns]
        col_ge = np.nextafter(col_top, -np.inf)
    for lo in range(0, len(scores), _BLOCK_ROWS):
        block = scores[lo:lo + _BLOCK_ROWS]
        hi = lo + len(block)
        top = row_top[lo:hi, None]
        row_ranks[lo:hi] = np.count_nonzero(block > top, axis=1)
        tied = np.flatnonzero(np.count_nonzero(block == top, axis=1) > 1)
        row_ranks[lo + tied] += np.count_nonzero(
            (block[tied] == top[tied]) & (columns < row_best[lo + tied, None]), axis=1)
        if col_best is not None:
            after = col_best >= hi
            col_ranks += np.count_nonzero(block > np.where(after, col_ge, col_top), axis=0)
            inside = np.flatnonzero((col_best >= lo) & ~after)
            col_ranks[inside] += np.count_nonzero(
                (block[:, inside] == col_top[inside])
                & (np.arange(lo, hi)[:, None] < col_best[inside]), axis=0)
    return row_ranks, col_ranks


def _recall(ranks: np.ndarray, k: int) -> float:
    return 100.0 * np.count_nonzero(ranks < k) / len(ranks)


def recall_at_k(scores: Array, query_ids: Sequence[str],
                candidate_ids: Sequence[str],
                truth: Mapping[str, Set[str]], k: int) -> float:
    """Percent of queries with a relevant candidate in their top-K;
    ``scores[q, c]`` ranks candidate c for query q, higher is better."""
    if k < 1:
        raise ValueError(f"recall_at_k: k must be >= 1, got {k}")
    scores = finite_matrix(scores, "score matrix")
    ranks, _ = _rank_counts(
        scores, _best_relevant(scores, query_ids, candidate_ids, truth))
    return _recall(ranks, k)


def evaluate_scores(scores: Array, text_ids: Sequence[str],
                    image_ids: Sequence[str],
                    truth: Mapping[str, Set[str]]) -> RetrievalResult:
    """Both directions' R@{1,5,10} from a text-by-image score matrix."""
    scores = finite_matrix(scores, "score matrix")
    cr_ranks, ir_ranks = _rank_counts(
        scores, _best_relevant(scores, text_ids, image_ids, truth),
        _best_relevant(scores.T, image_ids, text_ids, truth))
    cr = [_recall(cr_ranks, k) for k in RECALL_KS]
    ir = [_recall(ir_ranks, k) for k in RECALL_KS]
    return RetrievalResult(ir_r1=ir[0], ir_r5=ir[1], ir_r10=ir[2],
                           cr_r1=cr[0], cr_r5=cr[1], cr_r10=cr[2],
                           rsum=float(sum(ir) + sum(cr)))


def evaluate(texts: EmbeddingSet, images: EmbeddingSet,
             truth: Mapping[str, Set[str]]) -> RetrievalResult:
    """Build the similarity table once and score both directions."""
    scores = cosine_sim_matrix(texts.vectors, images.vectors)
    return evaluate_scores(scores, texts.ids, images.ids, truth)


def evaluate_scores_folds(scores: Array, text_ids: Sequence[str],
                          image_ids: Sequence[str],
                          truth: Mapping[str, Set[str]],
                          folds: int) -> RetrievalResult:
    """Average metrics over contiguous image folds, each with its captions.

    folds=1 is plain evaluate_scores. The averaged result's RSUM is the sum
    of the six averaged metrics.
    """
    if not 1 <= folds <= len(image_ids):
        raise ValueError(f"folds must be in [1, {len(image_ids)}] for "
                         f"{len(image_ids)} test images, got {folds}")
    if folds == 1:
        return evaluate_scores(scores, text_ids, image_ids, truth)
    scores = as_matrix(scores, "score matrix")
    text_row = {tid: i for i, tid in enumerate(text_ids)}
    parts = []
    for img_idx in np.array_split(np.arange(len(image_ids)), folds):
        fold_image_ids = [image_ids[i] for i in img_idx]
        caption_ids = [tid for iid in fold_image_ids for tid in sorted(truth[iid])]
        rows = [text_row[tid] for tid in caption_ids]
        sub = scores[np.ix_(rows, img_idx)]
        parts.append(evaluate_scores(sub, caption_ids, fold_image_ids, truth))
    mean = {name: float(np.mean([getattr(p, name) for p in parts]))
            for name in ("ir_r1", "ir_r5", "ir_r10", "cr_r1", "cr_r5", "cr_r10")}
    return RetrievalResult(rsum=float(sum(mean.values())), **mean)


def ensemble_similarity(matrices: Sequence[Array]) -> Array:
    """Element-wise mean of same-shaped similarity matrices, bit-equal to
    ``np.mean(np.stack(matrices), axis=0)`` without the stacked copy; one
    matrix comes back unchanged."""
    if not matrices:
        raise ValueError("ensemble_similarity needs at least one matrix")
    mats = [as_matrix(m, f"similarity matrix {i}") for i, m in enumerate(matrices)]
    shape = mats[0].shape
    for i, m in enumerate(mats[1:], start=1):
        if m.shape != shape:
            raise DimensionError(f"matrix {i} has shape {m.shape}, expected {shape}")
    total = sum(mats[1:], mats[0])  # (m0 + m1) + m2 ..., as np.mean adds
    return total / len(mats) if len(mats) > 1 else total

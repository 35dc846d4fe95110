"""Retrieval metrics: Recall@K both ways and RSUM, from a score matrix.

Direction naming: caption retrieval takes captions as queries and ranks
images; image retrieval takes images as queries and ranks captions.

Candidates rank by descending score, ties toward the smaller index. A query
hits at K when its best relevant candidate has 0-based rank < K, where rank =
#(score > best) + #(score == best at a smaller index), counted with no sort:
one pass over contiguous blocks of score-matrix rows gives both directions'
ranks, so every K comes from that pass. Each block's maxima first skip the
queries that no score beats: fast when most rank first, one extra pass when
few do. The pass also checks each block's finiteness before it counts it,
while the block is in cache, so no separate scan reads the whole matrix. A NaN
or inf score raises EvaluationError, but the ground truth is read first, as
``relevant_pairs`` (which a split builds once), so a query missing from it
raises DataError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence, Set

import numpy as np

from .errors import DataError, DimensionError
from .tensor import Array, as_matrix, finite_matrix

RECALL_KS = (1, 5, 10)
_BLOCK_SCORES = 1 << 17  # scores per counting block (1 MB of float64)


def _block_rows(n_columns: int) -> int:
    """Rows per counting block of a matrix with ``n_columns`` columns: 65 at
    2000 columns, 655 at 200."""
    return max(1, _BLOCK_SCORES // max(n_columns, 1))


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


def relevant_pairs(query_ids: Sequence[str], candidate_ids: Sequence[str],
                   truth: Mapping[str, Set[str]]):
    """(query, relevant candidate) index pairs in query order, from one pass
    over the truth sets, and each query's first pair: what ranking reads."""
    column_of = {cid: j for j, cid in enumerate(candidate_ids)}
    pairs = [x for q, qid in enumerate(query_ids) for cid in truth.get(qid, ())
             if cid in column_of for x in (q, column_of[cid])]
    queries, candidates = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    counts = np.bincount(queries, minlength=len(query_ids))
    if not counts.all():  # argmin: the first query without a pair
        qid = query_ids[int(counts.argmin())]
        raise DataError(f"query {qid!r} missing from ground truth" if qid not in truth
                        else f"query {qid!r} has no relevant candidate in the index")
    return queries, candidates, np.cumsum(counts) - counts


def _best_relevant(scores: Array, pairs) -> np.ndarray:
    """Each query's best relevant candidate: highest score, then smaller index."""
    queries, candidates, first = pairs
    order = np.lexsort((candidates, -scores[queries, candidates], queries))
    return candidates[order[first]]


def _score_matrix(scores, query_ids: Sequence[str], candidate_ids: Sequence[str]):
    scores = as_matrix(scores, "score matrix")
    if scores.shape != (len(query_ids), len(candidate_ids)):
        raise DimensionError(f"score matrix {scores.shape} does not match "
                             f"{len(query_ids)} queries x {len(candidate_ids)} candidates")
    return scores


def _rank_counts(scores: Array, row_best: np.ndarray, col_best=None):
    """(Rank of each row's best column along its row, rank of each column's
    best row down its column or None without ``col_best``) from one pass
    over blocks of ``_block_rows`` rows, each checked by ``finite_matrix``
    (EvaluationError names the "score matrix") before it is counted.

    A row counts #(s > best), plus its ties at smaller columns where its
    best value occurs twice or more. A column adds #(s >= best), as
    ``s > nextafter(best, -inf)``, in blocks above its best row, then
    #(s > best), plus the ties above it in its own block. Max first: a row
    whose argmax (first maximum) is its best column has rank 0, a column
    whose block maximum is not above its threshold adds 0, and the rest
    are gathered and counted. A block with over half its rows left counts
    whole in place, with no column maxima; so do the columns of one with
    over half its columns left."""
    n_rows, n_columns = scores.shape
    step = _block_rows(n_columns)
    columns = np.arange(n_columns)
    row_top = scores[np.arange(n_rows), row_best]
    row_ranks = np.zeros(n_rows, dtype=np.intp)
    col_ranks = None if col_best is None else np.zeros(n_columns, dtype=np.intp)
    if col_best is not None:
        col_top = scores[col_best, columns]
        col_ge = np.nextafter(col_top, -np.inf)
    buffer = np.empty((min(step, n_rows), n_columns), dtype=bool)
    for lo in range(0, n_rows, step):
        block = finite_matrix(scores[lo:lo + step], "score matrix")
        hi = lo + len(block)
        rows = _failing(block.argmax(axis=1) != row_best[lo:hi])
        sub, best = block[rows], row_best[lo:hi][rows]
        top, mask = row_top[lo:hi, None][rows], buffer[:len(sub)]
        ranks = _count(np.greater(sub, top, out=mask), axis=1)
        tied = np.flatnonzero(_count(np.equal(sub, top, out=mask), axis=1) > 1)
        ranks[tied] += _count(mask[tied] & (columns < best[tied, None]), axis=1)
        row_ranks[lo:hi][rows] = ranks
        if col_best is not None:
            bound = np.where(col_best >= hi, col_ge, col_top)
            cols = rows if isinstance(rows, slice) else _failing(block.max(0) > bound)
            sub = block[:, cols]
            col_ranks[cols] += _count(np.greater(
                sub, bound[cols], out=buffer[:hi - lo, :sub.shape[1]]), axis=0)
            inside = np.flatnonzero((col_best >= lo) & (col_best < hi))
            col_ranks[inside] += _count(
                (block[:, inside] == col_top[inside])
                & (np.arange(lo, hi)[:, None] < col_best[inside]), axis=0)
    return row_ranks, col_ranks


def _failing(fails: np.ndarray):
    """Indices where ``fails`` holds, or a slice of all (a view) where over half do."""
    index = np.flatnonzero(fails)
    return index if 2 * len(index) <= len(fails) else slice(None)


def _count(mask: np.ndarray, axis: int) -> np.ndarray:
    """True entries of a boolean matrix along ``axis``, summed as bytes,
    which is faster than ``np.count_nonzero(mask, axis)``."""
    return mask.view(np.uint8).sum(axis=axis, dtype=np.uint32)


def _recall(ranks: np.ndarray, k: int) -> float:
    return 100.0 * np.count_nonzero(ranks < k) / len(ranks)


def recall_at_k(scores: Array, query_ids: Sequence[str],
                candidate_ids: Sequence[str],
                truth: Mapping[str, Set[str]], k: int) -> float:
    """Percent of queries with a relevant candidate in their top-K;
    ``scores[q, c]`` ranks candidate c for query q, higher is better."""
    if k < 1:
        raise ValueError(f"recall_at_k: k must be >= 1, got {k}")
    if len(query_ids) == 0:
        raise ValueError("recall_at_k: query_ids is empty, no query to score")
    scores = _score_matrix(scores, query_ids, candidate_ids)
    ranks, _ = _rank_counts(scores, _best_relevant(
        scores, relevant_pairs(query_ids, candidate_ids, truth)))
    return _recall(ranks, k)


def evaluate_scores(scores: Array, text_ids: Sequence[str],
                    image_ids: Sequence[str], truth: Mapping[str, Set[str]],
                    folds: int = 1) -> RetrievalResult:
    """Both directions' R@{1,5,10} from a text-by-image score matrix,
    averaged over ``folds`` contiguous image folds. A fold ranks each caption
    relevant to one of its images (in each fold, if they span folds), by its
    first such image, then id. RSUM is the sum of the six averaged metrics."""
    if not 1 <= folds <= len(image_ids):
        raise ValueError(f"folds must be in [1, {len(image_ids)}] for "
                         f"{len(image_ids)} test images, got {folds}")
    scores = _score_matrix(scores, text_ids, image_ids)
    if folds > 1:  # the truth raises as at folds=1
        queries, candidates, _ = relevant_pairs(text_ids, image_ids, truth)
        parts = []
        for img_idx in np.array_split(np.arange(len(image_ids)), folds):
            first = {}  # caption row -> its first relevant image in the fold
            for q, c in zip(queries.tolist(), candidates.tolist()):
                if img_idx[0] <= c <= img_idx[-1]:
                    first[q] = min(c, first.get(q, c))
            rows = sorted(first, key=lambda q: (first[q], text_ids[q]))
            parts.append(evaluate_scores(
                scores[np.ix_(rows, img_idx)], [text_ids[q] for q in rows],
                [image_ids[i] for i in img_idx], truth))
        mean = {name: float(np.mean([getattr(p, name) for p in parts])) for name
                in ("ir_r1", "ir_r5", "ir_r10", "cr_r1", "cr_r5", "cr_r10")}
        return RetrievalResult(rsum=float(sum(mean.values())), **mean)
    return rank_pairs(scores, relevant_pairs(text_ids, image_ids, truth),
                      relevant_pairs(image_ids, text_ids, truth))


def rank_pairs(scores: Array, text_pairs, image_pairs) -> RetrievalResult:
    """Both directions' R@{1,5,10} of a text-by-image matrix, by ``relevant_pairs``."""
    cr_ranks, ir_ranks = _rank_counts(scores, _best_relevant(scores, text_pairs),
                                      _best_relevant(scores.T, image_pairs))
    cr = [_recall(cr_ranks, k) for k in RECALL_KS]
    ir = [_recall(ir_ranks, k) for k in RECALL_KS]
    return RetrievalResult(ir_r1=ir[0], ir_r5=ir[1], ir_r10=ir[2],
                           cr_r1=cr[0], cr_r5=cr[1], cr_r10=cr[2],
                           rsum=float(sum(ir) + sum(cr)))

"""Exact Recall@K by counting, with no sort.

For a query, the best relevant candidate is the relevant one that ranks
highest: largest score, ties going to the smaller index. Its 0-based rank is

    #(candidates scoring higher) + #(candidates scoring the same at a smaller index)

and the query hits at K when that rank is below K. This is the ranking
``adret.evaluation`` defines (descending score, stable in candidate index),
derived independently of its argsort.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Set

import numpy as np

RECALL_KS = (1, 5, 10)
BLOCK_ROWS = 512


def best_relevant_ranks(scores: np.ndarray, query_ids: Sequence[str],
                        candidate_ids: Sequence[str],
                        truth: Mapping[str, Set[str]]) -> np.ndarray:
    """0-based rank of each query's best relevant candidate."""
    column_of = {cid: j for j, cid in enumerate(candidate_ids)}
    best = np.empty(len(query_ids), dtype=np.int64)
    for q, qid in enumerate(query_ids):
        relevant = sorted(column_of[c] for c in truth[qid] if c in column_of)
        if not relevant:
            raise ValueError(f"query {qid!r} has no relevant candidate")
        row = scores[q]
        best[q] = max(relevant, key=lambda j: (row[j], -j))
    ranks = np.empty(len(query_ids), dtype=np.int64)
    columns = np.arange(scores.shape[1])
    for lo in range(0, len(query_ids), BLOCK_ROWS):
        block = scores[lo:lo + BLOCK_ROWS]
        b = best[lo:lo + BLOCK_ROWS]
        s_best = block[np.arange(len(b)), b][:, None]
        ahead = (block > s_best).sum(axis=1)
        tied_before = ((block == s_best) & (columns[None, :] < b[:, None])).sum(axis=1)
        ranks[lo:lo + BLOCK_ROWS] = ahead + tied_before
    return ranks


def recall_from_ranks(ranks: np.ndarray, k: int) -> float:
    """Percent of queries whose rank is below k, as adret computes it."""
    return 100.0 * int((ranks < k).sum()) / len(ranks)


def oracle_scores(scores: np.ndarray, text_ids: Sequence[str],
                  image_ids: Sequence[str],
                  truth: Mapping[str, Set[str]]) -> dict[str, float]:
    """The fields of adret's RetrievalResult, summed in the same order."""
    cr_ranks = best_relevant_ranks(scores, text_ids, image_ids, truth)
    ir_ranks = best_relevant_ranks(scores.T, image_ids, text_ids, truth)
    cr = [recall_from_ranks(cr_ranks, k) for k in RECALL_KS]
    ir = [recall_from_ranks(ir_ranks, k) for k in RECALL_KS]
    return {"ir_r1": ir[0], "ir_r5": ir[1], "ir_r10": ir[2],
            "cr_r1": cr[0], "cr_r5": cr[1], "cr_r10": cr[2],
            "rsum": float(sum(ir) + sum(cr))}

"""Retrieval metrics against brute-force ranking oracles."""

import json

import numpy as np
import pytest

from adret.errors import DataError, DimensionError, EvaluationError
from adret.evaluation import (
    _BLOCK_ROWS,
    EmbeddingSet,
    RetrievalResult,
    ensemble_similarity,
    evaluate,
    evaluate_scores,
    evaluate_scores_folds,
    recall_at_k,
)
from adret.tensor import l2_normalize_rows


def _recall_oracle(scores, relevant_columns, k):
    """Rank-scan reimplementation: a query hits when the best rank among its
    relevant candidates is <= k, ranks assigned by (-score, index)."""
    hits = 0
    for q in range(len(scores)):
        order = sorted(range(len(scores[q])), key=lambda j: (-scores[q][j], j))
        rank_of = {j: r + 1 for r, j in enumerate(order)}
        if min(rank_of[j] for j in relevant_columns[q]) <= k:
            hits += 1
    return 100.0 * hits / len(scores)


def _both_directions(scores, caption_relevant):
    """evaluate_scores against the oracle in both directions; an image is
    relevant to every caption that lists it."""
    n_texts, n_images = scores.shape
    image_relevant = [{t for t in range(n_texts) if j in caption_relevant[t]}
                      for j in range(n_images)]
    tids = [f"t{t}" for t in range(n_texts)]
    iids = [f"i{j}" for j in range(n_images)]
    truth = {tids[t]: {iids[j] for j in rel}
             for t, rel in enumerate(caption_relevant)}
    truth.update({iids[j]: {tids[t] for t in rel}
                  for j, rel in enumerate(image_relevant)})
    r = evaluate_scores(scores, tids, iids, truth)
    for k in (1, 5, 10):
        assert getattr(r, f"cr_r{k}") == _recall_oracle(
            scores.tolist(), caption_relevant, k)
        assert getattr(r, f"ir_r{k}") == _recall_oracle(
            scores.T.tolist(), image_relevant, k)


class TestRecallAtK:
    def test_relevant_ranked_first(self):
        truth = {"q0": {"c1"}}
        scores = np.array([[0.1, 0.9, 0.2]])
        assert recall_at_k(scores, ["q0"], ["c0", "c1", "c2"], truth, 1) == 100.0

    def test_rank_six_boundary(self):
        scores = np.array([[9.0, 8.0, 7.0, 6.0, 5.0, 1.0, 0.5]])
        truth = {"q0": {"c5"}}  # ranked exactly 6th
        cids = [f"c{j}" for j in range(7)]
        assert recall_at_k(scores, ["q0"], cids, truth, 5) == 0.0
        assert recall_at_k(scores, ["q0"], cids, truth, 10) == 100.0

    def test_matches_rank_scan_oracle(self):
        rng = np.random.default_rng(0)
        cids = [f"c{j}" for j in range(20)]
        for trial in range(20):
            scores = rng.standard_normal((20, 20))
            relevant = [set(rng.choice(20, size=rng.integers(1, 4),
                                       replace=False).tolist())
                        for _ in range(20)]
            truth = {f"q{i}": {f"c{j}" for j in relevant[i]} for i in range(20)}
            qids = [f"q{i}" for i in range(20)]
            for k in (1, 5, 10):
                ours = recall_at_k(scores, qids, cids, truth, k)
                ref = _recall_oracle(scores.tolist(), relevant, k)
                assert ours == ref

        # One decimal: the best relevant candidate ties with candidates at
        # smaller and at larger indices. The last case spans three blocks.
        tied_before = tied_after = 0
        for n_queries, n_cands in [(20, 20)] * 20 + [(2 * _BLOCK_ROWS + 3, 30)]:
            scores = np.round(rng.standard_normal((n_queries, n_cands)), 1)
            relevant = [set(rng.choice(n_cands, size=rng.integers(1, 4),
                                       replace=False).tolist())
                        for _ in range(n_queries)]
            qids = [f"q{i}" for i in range(n_queries)]
            cids = [f"c{j}" for j in range(n_cands)]
            truth = {qids[i]: {cids[j] for j in relevant[i]}
                     for i in range(n_queries)}
            for k in (1, 5, 10):
                ours = recall_at_k(scores, qids, cids, truth, k)
                assert ours == _recall_oracle(scores.tolist(), relevant, k)
            for row, rel in zip(scores, relevant):
                best = max(rel, key=lambda j: (row[j], -j))
                tied = np.flatnonzero(row == row[best])
                tied_before += int(np.any(tied < best))
                tied_after += int(np.any(tied > best))
        assert tied_before > 0 and tied_after > 0

        # evaluate_scores, both directions, 5 captions per image; the 300
        # caption queries span two blocks
        n_images, captions = 60, 5
        assert n_images * captions > _BLOCK_ROWS
        scores = np.round(rng.standard_normal((n_images * captions, n_images)), 1)
        scores[np.arange(n_images * captions),
               np.arange(n_images * captions) // captions] += 1.0
        _both_directions(scores, [{t // captions} for t in range(len(scores))])

        # image queries whose best caption sits in the middle of three row
        # blocks, tied with a caption in the block before and one after
        n_images = 7
        scores = np.round(rng.uniform(-1, 1, (3 * _BLOCK_ROWS, n_images)), 1)
        caption_relevant = [{t % n_images} for t in range(3 * _BLOCK_ROWS)]
        rows = np.arange(3 * _BLOCK_ROWS)
        for j in range(n_images):
            mid = rows[_BLOCK_ROWS:][rows[_BLOCK_ROWS:] % n_images == j][0]
            others = rows[rows % n_images == (j + 1) % n_images]
            before, after = others[0], others[-1]
            assert before < _BLOCK_ROWS and after >= 2 * _BLOCK_ROWS
            scores[[mid, before, after], j] = 5.0
            greater = rows[rows % n_images == (j + 2) % n_images]
            scores[rng.choice(greater, size=j, replace=False), j] = 6.0
        _both_directions(scores, caption_relevant)

        # captions with two or three relevant images; one-row and
        # one-column matrices
        for n_texts, n_images in [(40, 12), (2 * _BLOCK_ROWS + 5, 9),
                                  (1, 9), (9, 1), (1, 1)]:
            scores = np.round(rng.standard_normal((n_texts, n_images)), 1)
            caption_relevant = [
                set(rng.choice(n_images, size=min(n_images, rng.integers(2, 4)),
                               replace=False).tolist())
                for _ in range(n_texts)]
            for j in range(n_images):
                caption_relevant[j % n_texts].add(j)
            _both_directions(scores, caption_relevant)
        for n_cands in (1, 9):
            scores = np.round(rng.standard_normal((1, n_cands)), 1)
            for k in (1, 5, 10):
                assert recall_at_k(scores, ["q0"], [f"c{j}" for j in range(n_cands)],
                                   {"q0": {f"c{n_cands - 1}"}}, k) == \
                    _recall_oracle(scores.tolist(), [{n_cands - 1}], k)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((10, 15))
        cids = [f"c{j}" for j in range(15)]
        qids = [f"q{i}" for i in range(10)]
        truth = {q: {f"c{rng.integers(15)}"} for q in qids}
        values = [recall_at_k(scores, qids, cids, truth, k)
                  for k in range(1, 16)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 100.0

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0.1, 1.0, size=(8, 12))
        cids = [f"c{j}" for j in range(12)]
        qids = [f"q{i}" for i in range(8)]
        truth = {q: {f"c{rng.integers(12)}"} for q in qids}
        for k in (1, 5):
            base = recall_at_k(scores, qids, cids, truth, k)
            assert recall_at_k(np.exp(3 * scores), qids, cids, truth, k) == base

    def test_non_finite_scores_raise(self):
        scores = np.eye(3)
        scores[2, 0] = np.nan
        truth = {f"q{i}": {f"c{i}"} for i in range(3)}
        with pytest.raises(EvaluationError, match="score matrix"):
            recall_at_k(scores, ["q0", "q1", "q2"], ["c0", "c1", "c2"], truth, 1)

    def test_missing_query_raises(self):
        with pytest.raises(DataError, match="q0"):
            recall_at_k(np.ones((1, 2)), ["q0"], ["c0", "c1"], {}, 1)

    def test_unindexed_relevant_raises(self):
        with pytest.raises(DataError):
            recall_at_k(np.ones((1, 2)), ["q0"], ["c0", "c1"],
                        {"q0": {"elsewhere"}}, 1)


class TestEvaluate:
    def _toy(self, rng, n_images=20, captions=3):
        d = 8
        images = l2_normalize_rows(rng.standard_normal((n_images, d)))
        texts = np.repeat(images, captions, axis=0)
        texts = l2_normalize_rows(texts + 0.05 * rng.standard_normal(texts.shape))
        iids = tuple(f"i{j}" for j in range(n_images))
        tids = tuple(f"t{j}.{c}" for j in range(n_images) for c in range(captions))
        truth = {}
        for j in range(n_images):
            truth[f"i{j}"] = {f"t{j}.{c}" for c in range(captions)}
            for c in range(captions):
                truth[f"t{j}.{c}"] = {f"i{j}"}
        return EmbeddingSet(texts, tids), EmbeddingSet(images, iids), truth

    def test_rsum_is_sum_of_six(self):
        rng = np.random.default_rng(3)
        texts, images, truth = self._toy(rng)
        r = evaluate(texts, images, truth)
        total = r.ir_r1 + r.ir_r5 + r.ir_r10 + r.cr_r1 + r.cr_r5 + r.cr_r10
        assert r.rsum == total
        assert r.ir_r1 <= r.ir_r5 <= r.ir_r10
        assert r.cr_r1 <= r.cr_r5 <= r.cr_r10

    def test_near_duplicates_retrieve_perfectly(self):
        rng = np.random.default_rng(4)
        texts, images, truth = self._toy(rng, n_images=10)
        assert evaluate(texts, images, truth).rsum == 600.0

    def test_random_embeddings_near_chance(self):
        rng = np.random.default_rng(5)
        images = l2_normalize_rows(rng.standard_normal((200, 16)))
        texts = l2_normalize_rows(rng.standard_normal((1000, 16)))
        iids = tuple(f"i{j}" for j in range(200))
        tids = tuple(f"t{j}.{c}" for j in range(200) for c in range(5))
        truth = {f"i{j}": {f"t{j}.{c}" for c in range(5)} for j in range(200)}
        truth.update({f"t{j}.{c}": {f"i{j}"} for j in range(200) for c in range(5)})
        r = evaluate(EmbeddingSet(texts, tids), EmbeddingSet(images, iids), truth)
        assert r.ir_r1 < 20.0 and r.cr_r1 < 20.0

    def test_candidate_permutation_invariance(self):
        rng = np.random.default_rng(6)
        texts, images, truth = self._toy(rng)
        base = evaluate(texts, images, truth)
        perm = rng.permutation(len(images.ids))
        shuffled = EmbeddingSet(images.vectors[perm],
                                tuple(images.ids[i] for i in perm))
        assert evaluate(texts, shuffled, truth) == base

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_scores_raise(self, value):
        scores = np.eye(2)
        scores[0, 1] = value
        truth = {"t0": {"i0"}, "t1": {"i1"}, "i0": {"t0"}, "i1": {"t1"}}
        with pytest.raises(EvaluationError, match="score matrix"):
            evaluate_scores(scores, ["t0", "t1"], ["i0", "i1"], truth)

    def test_folds_one_equals_plain(self):
        rng = np.random.default_rng(7)
        texts, images, truth = self._toy(rng)
        scores = texts.vectors @ images.vectors.T
        a = evaluate_scores(scores, texts.ids, images.ids, truth)
        b = evaluate_scores_folds(scores, texts.ids, images.ids, truth, 1)
        assert a == b

    def test_five_folds_average(self):
        rng = np.random.default_rng(8)
        texts, images, truth = self._toy(rng, n_images=25)
        scores = texts.vectors @ images.vectors.T
        r = evaluate_scores_folds(scores, texts.ids, images.ids, truth, 5)
        assert 0.0 <= r.rsum <= 600.0
        assert abs(r.rsum - (r.ir_r1 + r.ir_r5 + r.ir_r10
                             + r.cr_r1 + r.cr_r5 + r.cr_r10)) <= 1e-12

    def test_more_folds_than_images_rejected(self):
        rng = np.random.default_rng(9)
        texts, images, truth = self._toy(rng, n_images=4)
        scores = texts.vectors @ images.vectors.T
        with pytest.raises(ValueError, match=r"\[1, 4\].*got 6"):
            evaluate_scores_folds(scores, texts.ids, images.ids, truth, 6)


class TestEnsemble:
    def test_single_matrix_identity(self):
        m = np.array([[0.5, 0.1]])
        np.testing.assert_array_equal(ensemble_similarity([m]), m)

    def test_duplicate_matrices(self):
        m = np.random.default_rng(9).standard_normal((3, 3))
        np.testing.assert_allclose(ensemble_similarity([m, m]), m, atol=1e-15)

    def test_bit_equal_to_stacked_mean(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 3, 5):
            mats = [rng.standard_normal((37, 23)) for _ in range(n)]
            assert ensemble_similarity(mats).tobytes() == \
                np.mean(np.stack(mats), axis=0).tobytes()
        assert ensemble_similarity(mats[:1]) is mats[0]

    def test_mean_example(self):
        out = ensemble_similarity([np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])])
        np.testing.assert_array_equal(out, [[0.5, 0.5]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ensemble_similarity([np.ones((2, 2)), np.ones((2, 3))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ensemble_similarity([])


class TestSerialization:
    def test_json_keys(self):
        r = RetrievalResult(1, 2, 3, 4, 5, 6, 21)
        data = json.loads(r.to_json())
        assert set(data) == {"ir_r1", "ir_r5", "ir_r10",
                             "cr_r1", "cr_r5", "cr_r10", "rsum"}
        assert data["rsum"] == 21

    def test_csv_round_trip(self):
        r = RetrievalResult(1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 24.0)
        header, row = r.to_csv().strip().split("\n")
        assert header == "ir_r1,ir_r5,ir_r10,cr_r1,cr_r5,cr_r10,rsum"
        assert [float(x) for x in row.split(",")] == [1.5, 2.5, 3.5, 4.5, 5.5,
                                                      6.5, 24.0]

    def test_embedding_set_validates_id_count(self):
        with pytest.raises(DimensionError):
            EmbeddingSet(np.ones((3, 2)), ("a", "b"))

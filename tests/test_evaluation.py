"""Retrieval metrics against brute-force ranking oracles."""

import json

import numpy as np
import pytest

from adret import encoders, evaluation
from adret.data import Corpus, SyntheticCorpusConfig, generate_splits, ground_truth
from adret.encoders import (BiEncoder, PreparedSplit, encode_all, evaluate_split,
                            init_encoder_params, split_scores)
from adret.errors import DataError, DimensionError, EvaluationError
from adret.evaluation import (
    RetrievalResult,
    _block_rows,
    evaluate_scores,
    recall_at_k,
)
from adret.pooling import PoolingSpec
from adret.tensor import cosine_sim_matrix, l2_normalize_rows


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


@pytest.fixture
def small_blocks(monkeypatch):
    """Counting blocks of 1024 scores, so that the matrices the Python
    oracle can afford span several blocks."""
    monkeypatch.setattr(evaluation, "_BLOCK_SCORES", 1024)


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

    def test_matches_rank_scan_oracle(self, small_blocks):
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
        for n_queries, n_cands in [(20, 20)] * 20 + [(2 * _block_rows(30) + 3, 30)]:
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
        # caption queries span several blocks
        n_images, captions = 60, 5
        assert n_images * captions > 2 * _block_rows(n_images)
        scores = np.round(rng.standard_normal((n_images * captions, n_images)), 1)
        scores[np.arange(n_images * captions),
               np.arange(n_images * captions) // captions] += 1.0
        _both_directions(scores, [{t // captions} for t in range(len(scores))])

        # image queries whose best caption sits in the middle of three row
        # blocks, tied with a caption in the block before and one after
        n_images = 7
        block = _block_rows(n_images)
        scores = np.round(rng.uniform(-1, 1, (3 * block, n_images)), 1)
        caption_relevant = [{t % n_images} for t in range(3 * block)]
        rows = np.arange(3 * block)
        for j in range(n_images):
            mid = rows[block:][rows[block:] % n_images == j][0]
            others = rows[rows % n_images == (j + 1) % n_images]
            before, after = others[0], others[-1]
            assert before < block and after >= 2 * block
            scores[[mid, before, after], j] = 5.0
            greater = rows[rows % n_images == (j + 2) % n_images]
            scores[rng.choice(greater, size=j, replace=False), j] = 6.0
        _both_directions(scores, caption_relevant)

        # captions with two or three relevant images; one-row and
        # one-column matrices
        for n_texts, n_images in [(40, 12), (2 * _block_rows(9) + 5, 9),
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

    def test_no_queries_raise(self):
        # a recall over no queries is 0/0: refused, as a split with no images is
        with pytest.raises(ValueError, match="query_ids is empty"):
            recall_at_k(np.zeros((0, 2)), [], ["a", "b"], {}, 1)

    def test_missing_query_raises(self):
        with pytest.raises(DataError, match="q0"):
            recall_at_k(np.ones((1, 2)), ["q0"], ["c0", "c1"], {}, 1)

    def test_unindexed_relevant_raises(self):
        with pytest.raises(DataError):
            recall_at_k(np.ones((1, 2)), ["q0"], ["c0", "c1"],
                        {"q0": {"elsewhere"}}, 1)

    @pytest.mark.parametrize("queries,message", [
        (["q0", "q1", "q2"], "'q1' has no relevant candidate in the index"),
        (["q0", "q2", "q1"], "'q2' missing from ground truth")])
    def test_first_bad_query_is_named(self, queries, message):
        truth = {"q0": {"c0"}, "q1": {"elsewhere"}}  # no entry for q2
        with pytest.raises(DataError, match=message):
            recall_at_k(np.ones((3, 2)), queries, ["c0", "c1"], truth, 1)


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
        return texts, tids, images, iids, truth

    def test_rsum_is_sum_of_six(self):
        rng = np.random.default_rng(3)
        texts, tids, images, iids, truth = self._toy(rng)
        r = evaluate_scores(cosine_sim_matrix(texts, images), tids, iids, truth)
        total = r.ir_r1 + r.ir_r5 + r.ir_r10 + r.cr_r1 + r.cr_r5 + r.cr_r10
        assert r.rsum == total
        assert r.ir_r1 <= r.ir_r5 <= r.ir_r10
        assert r.cr_r1 <= r.cr_r5 <= r.cr_r10

    def test_near_duplicates_retrieve_perfectly(self):
        rng = np.random.default_rng(4)
        texts, tids, images, iids, truth = self._toy(rng, n_images=10)
        scores = cosine_sim_matrix(texts, images)
        assert evaluate_scores(scores, tids, iids, truth).rsum == 600.0

    def test_random_embeddings_near_chance(self):
        rng = np.random.default_rng(5)
        images = l2_normalize_rows(rng.standard_normal((200, 16)))
        texts = l2_normalize_rows(rng.standard_normal((1000, 16)))
        iids = tuple(f"i{j}" for j in range(200))
        tids = tuple(f"t{j}.{c}" for j in range(200) for c in range(5))
        truth = {f"i{j}": {f"t{j}.{c}" for c in range(5)} for j in range(200)}
        truth.update({f"t{j}.{c}": {f"i{j}"} for j in range(200) for c in range(5)})
        r = evaluate_scores(cosine_sim_matrix(texts, images), tids, iids, truth)
        assert r.ir_r1 < 20.0 and r.cr_r1 < 20.0

    def test_candidate_permutation_invariance(self):
        rng = np.random.default_rng(6)
        texts, tids, images, iids, truth = self._toy(rng)
        base = evaluate_scores(cosine_sim_matrix(texts, images), tids, iids, truth)
        perm = rng.permutation(len(iids))
        shuffled = evaluate_scores(cosine_sim_matrix(texts, images[perm]), tids,
                                   tuple(iids[i] for i in perm), truth)
        assert shuffled == base

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_scores_raise(self, value):
        scores = np.eye(2)
        scores[0, 1] = value
        truth = {"t0": {"i0"}, "t1": {"i1"}, "i0": {"t0"}, "i1": {"t1"}}
        with pytest.raises(EvaluationError, match="score matrix"):
            evaluate_scores(scores, ["t0", "t1"], ["i0", "i1"], truth)

    def test_folds_one_equals_plain(self):
        rng = np.random.default_rng(7)
        texts, tids, images, iids, truth = self._toy(rng)
        scores = texts @ images.T
        a = evaluate_scores(scores, tids, iids, truth)
        b = evaluate_scores(scores, tids, iids, truth, folds=1)
        assert a == b

    def test_folds_average_each_fold_scored_alone(self):
        # 20 images, 3 captions each, in image order: fold k is images
        # 5k..5k+4 and caption rows 15k..15k+14; noisy scores, so a query
        # ranks differently among 5 candidates than among all 20
        rng = np.random.default_rng(10)
        texts, tids, images, iids, truth = self._toy(rng)
        scores = texts @ images.T + rng.standard_normal((60, 20))
        parts = [evaluate_scores(scores[15 * k:15 * k + 15, 5 * k:5 * k + 5],
                                 tids[15 * k:15 * k + 15], iids[5 * k:5 * k + 5],
                                 truth) for k in range(4)]
        r = evaluate_scores(scores, tids, iids, truth, folds=4)
        names = ("ir_r1", "ir_r5", "ir_r10", "cr_r1", "cr_r5", "cr_r10")
        for name in names:
            assert getattr(r, name) == np.mean([getattr(p, name) for p in parts])
        assert r.rsum == sum(getattr(r, name) for name in names)
        assert r != evaluate_scores(scores, tids, iids, truth)

    def test_five_folds_average(self):
        rng = np.random.default_rng(8)
        texts, tids, images, iids, truth = self._toy(rng, n_images=25)
        scores = texts @ images.T
        r = evaluate_scores(scores, tids, iids, truth, 5)
        assert 0.0 <= r.rsum <= 600.0
        assert abs(r.rsum - (r.ir_r1 + r.ir_r5 + r.ir_r10
                             + r.cr_r1 + r.cr_r5 + r.cr_r10)) <= 1e-12

    def test_more_folds_than_images_rejected(self):
        rng = np.random.default_rng(9)
        texts, tids, images, iids, truth = self._toy(rng, n_images=4)
        scores = texts @ images.T
        with pytest.raises(ValueError, match=r"\[1, 4\].*got 6"):
            evaluate_scores(scores, tids, iids, truth, 6)

    @pytest.mark.parametrize("folds", [1, 2])
    def test_image_missing_from_truth_is_data_error(self, folds):
        tids, iids, truth = _grouped(6, 3)
        del truth["i000004"]
        scores = np.random.default_rng(14).standard_normal((len(tids), len(iids)))
        with pytest.raises(DataError, match="'i000004' missing from ground truth"):
            evaluate_scores(scores, tids, iids, truth, folds)

    @pytest.mark.parametrize("folds", [1, 2])
    def test_truth_captions_outside_the_index_are_ignored(self, folds):
        # "t" sorts before every indexed caption, "t000004a" between two
        tids, iids, truth = _grouped(6, 3)
        scores = np.random.default_rng(15).standard_normal((len(tids), len(iids)))
        expected = evaluate_scores(scores, tids, iids, truth, folds)
        truth["i000001"] = truth["i000001"] | {"t", "t000004a"}
        truth["i000005"] = truth["i000005"] | {"t999999"}
        assert evaluate_scores(scores, tids, iids, truth, folds) == expected

    @pytest.mark.parametrize("folds", [1, 2])
    def test_caption_no_image_lists_is_ranked(self, folds):
        # "tx" names i3, whose own set does not list it; it ranks i3 second,
        # behind i2, so it misses R@1 in the whole matrix and in fold 2
        scores, tids, iids, truth = _one_sided()
        r = evaluate_scores(scores, tids, iids, truth, folds)
        assert r.cr_r1 == pytest.approx(
            100 * 6 / 7 if folds == 1 else (100 + 100 * 2 / 3) / 2)
        assert r.cr_r5 == 100.0

    def test_folds_rank_one_sided_captions_in_their_images_fold(self):
        scores, tids, iids, truth = _one_sided()
        row = {tid: i for i, tid in enumerate(tids)}
        folds = [(["a.0", "a.1", "b.0", "b.1"], [0, 1]),
                 (["c.0", "d.0", "tx"], [2, 3])]
        _assert_fold_mean(scores, tids, iids, truth, row, folds)

    def test_caption_whose_images_span_folds_is_ranked_in_each(self):
        # "s" is relevant to i1 (fold 1) and i2 (fold 2): each fold ranks
        # it against its own images, placed by its image there, then by id
        scores, tids, iids, truth = _one_sided()
        del truth["tx"]
        tids = [t for t in tids if t != "tx"] + ["s"]
        scores = np.vstack([scores[:-1], [0.0, 0.5, 0.25, 1.0]])
        truth.update({"s": {"i1", "i2"}, "i1": {"b.0", "b.1", "s"},
                      "i2": {"c.0", "s"}})
        row = {tid: i for i, tid in enumerate(tids)}
        folds = [(["a.0", "a.1", "b.0", "b.1", "s"], [0, 1]),
                 (["c.0", "s", "d.0"], [2, 3])]
        _assert_fold_mean(scores, tids, iids, truth, row, folds)

    @pytest.mark.parametrize("folds", [1, 2])
    def test_caption_missing_from_truth_is_data_error(self, folds):
        scores, tids, iids, truth = _one_sided()
        del truth["tx"]
        with pytest.raises(DataError, match="'tx' missing from ground truth"):
            evaluate_scores(scores, tids, iids, truth, folds)


def _one_sided():
    """Seven captions of four images; "tx" names i3 in the truth, but i3's
    set does not list it. Each caption scores 1 on its image, "tx" 2 on i2."""
    tids = ["a.0", "a.1", "b.0", "b.1", "c.0", "d.0", "tx"]
    iids = ["i0", "i1", "i2", "i3"]
    truth = {tid: {"i" + str("abcd".index(tid[0]))} for tid in tids[:-1]}
    truth["tx"] = {"i3"}
    truth.update({iid: {t for t in tids[:-1] if truth[t] == {iid}}
                  for iid in iids})
    scores = np.zeros((len(tids), len(iids)))
    for t, tid in enumerate(tids[:-1]):
        scores[t, "abcd".index(tid[0])] = 1.0
    scores[-1, 2:] = [2.0, 1.0]
    return scores, tids, iids, truth


def _assert_fold_mean(scores, tids, iids, truth, row, folds):
    """``evaluate_scores`` at len(folds) folds is the mean of each fold's
    own call on its listed caption rows, in order, and image columns."""
    parts = [evaluate_scores(scores[np.ix_([row[t] for t in rows], columns)],
                             rows, [iids[j] for j in columns], truth)
             for rows, columns in folds]
    r = evaluate_scores(scores, tids, iids, truth, len(folds))
    for name in ("ir_r1", "ir_r5", "ir_r10", "cr_r1", "cr_r5", "cr_r10"):
        assert getattr(r, name) == np.mean([getattr(p, name) for p in parts])


def _grouped(n_images, captions):
    """Ids and truth where caption t describes image t // captions; the
    zero-padded ids keep each fold's captions in row order."""
    tids = [f"t{t:06d}" for t in range(n_images * captions)]
    iids = [f"i{j:06d}" for j in range(n_images)]
    truth = {tid: {iids[t // captions]} for t, tid in enumerate(tids)}
    truth.update({iid: set(tids[j * captions:(j + 1) * captions])
                  for j, iid in enumerate(iids)})
    return tids, iids, truth


class TestCountingBlocks:
    """The ranking pass checks each block of score rows for finiteness as
    it counts it; there is no separate scan of the whole matrix."""

    def test_full_size_blocks_match_the_oracle(self):
        n_images = 200
        rng = np.random.default_rng(11)
        scores = np.round(rng.standard_normal(
            (_block_rows(n_images) + 3, n_images)), 1)
        _both_directions(scores, [{t % n_images} for t in range(len(scores))])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_in_the_last_block_raises(self, value):
        n_images, captions = 400, 5
        tids, iids, truth = _grouped(n_images, captions)
        scores = np.random.default_rng(12).uniform(-1, 1, (len(tids), n_images))
        # the last score is in the last of several blocks, both of the whole
        # matrix and of the second of two folds
        assert len(tids) > 2 * _block_rows(n_images)
        assert len(tids) // 2 > _block_rows(n_images // 2)
        scores[-1, -1] = value
        for score in (lambda: evaluate_scores(scores, tids, iids, truth),
                      lambda: recall_at_k(scores, tids, iids, truth, 5),
                      lambda: evaluate_scores(scores, tids, iids, truth, 2)):
            with pytest.raises(EvaluationError, match="score matrix"):
                score()

    def test_finite_scores_whose_block_sum_overflows_rank(self, small_blocks):
        n_images = 8
        n_texts = 3 * _block_rows(n_images)
        scores = np.random.default_rng(13).choice(
            [-0.5e308, 0.5e308, 1e308, -np.finfo(float).max], size=(n_texts, n_images))
        with np.errstate(over="ignore", invalid="ignore"):
            sums = [scores[lo:lo + _block_rows(n_images)].sum()
                    for lo in range(0, n_texts, _block_rows(n_images))]
        assert not np.isfinite(sums).any()
        _both_directions(scores, [{t % n_images} for t in range(n_texts)])

    def test_missing_truth_is_reported_before_non_finite_scores(self):
        # the queries' truth is read before the scores: a DataError (exit 2),
        # where a separate scan first used to raise EvaluationError (exit 3)
        scores = np.full((2, 2), np.nan)
        truth = {"t0": {"i0"}, "i0": {"t0"}, "i1": {"t1"}}
        with pytest.raises(DataError, match="'t1' missing"):
            evaluate_scores(scores, ["t0", "t1"], ["i0", "i1"], truth)
        with pytest.raises(DataError, match="'t1' missing"):
            recall_at_k(scores, ["t0", "t1"], ["i0", "i1"], truth, 1)


def _rank_scan(scores, relevant):
    """Each query's 0-based rank of its best relevant candidate, from a full
    sort of its row by (-score, index)."""
    ranks = []
    for row, rel in zip(scores.tolist(), relevant):
        order = sorted(range(len(row)), key=lambda j: (-row[j], j))
        ranks.append(min(order.index(j) for j in rel))
    return ranks


class TestMaxFirstCounting:
    """A block counts only the caption rows whose first maximum is not their
    best relevant column and the image columns whose block maximum beats
    their threshold: all of the block where more than half of its rows are
    left, all of its columns where more than half of them are. Under
    ``small_blocks`` the 128 x 32 matrices below are four blocks of 32 rows;
    caption t describes image t // 4."""

    N_IMAGES, CAPTIONS = 32, 4

    def _check(self, scores):
        """Integer ranks both ways equal the rank scan's, with and without
        the column pass; recall_at_k and evaluate_scores equal the oracle."""
        tids, iids, truth = _grouped(self.N_IMAGES, self.CAPTIONS)
        row_best = evaluation._best_relevant(
            scores, evaluation.relevant_pairs(tids, iids, truth))
        col_best = evaluation._best_relevant(
            scores.T, evaluation.relevant_pairs(iids, tids, truth))
        rows, cols = evaluation._rank_counts(scores, row_best, col_best)
        caption_relevant = [{t // self.CAPTIONS} for t in range(len(tids))]
        assert rows.tolist() == _rank_scan(scores, caption_relevant)
        assert cols.tolist() == _rank_scan(scores.T, [
            set(range(j * self.CAPTIONS, (j + 1) * self.CAPTIONS))
            for j in range(self.N_IMAGES)])
        only_rows, no_cols = evaluation._rank_counts(scores, row_best)
        assert no_cols is None and only_rows.tolist() == rows.tolist()
        for k in (1, 5, 10):
            assert recall_at_k(scores, tids, iids, truth, k) == _recall_oracle(
                scores.tolist(), caption_relevant, k)
        _both_directions(scores, caption_relevant)
        return rows, cols

    def test_planted_ties_and_crowded_blocks(self, small_blocks):
        step = _block_rows(self.N_IMAGES)
        assert step == 32
        rng = np.random.default_rng(16)
        t = np.arange(self.N_IMAGES * self.CAPTIONS)
        scores = np.round(rng.uniform(-8, 8, (len(t), self.N_IMAGES))) / 16
        scores[t, t // self.CAPTIONS] = 1.0
        # rows 40 and 120 tie their best column with an earlier one, so their
        # first maximum lands early; rows 0, 5, 33 and 100 tie after it
        scores[40, 3] = scores[120, 12] = scores[100, 30] = 1.0
        scores[[5, 33], 12] = 1.0
        # row 0 ties 24 of the 32 columns (best rows 32 on), so more than
        # half of block 0's columns are left while none of its rows are
        scores[0, 8:] = 1.0
        # 20 of block 2's rows are beaten at column 0, which they outrank too;
        # block 3 next to it has two rows left, and row 101 alone outranks
        # column 5's best row (20), so block 3 gathers that one column
        scores[64:84, 0] = scores[101, 5] = 1.5
        fails = [np.count_nonzero(scores[lo:lo + step].argmax(axis=1)
                                  != t[lo:lo + step] // self.CAPTIONS)
                 for lo in range(0, len(t), step)]
        assert fails == [0, 1, 20, 2]
        rows, cols = self._check(scores)
        assert rows[[40, 120]].tolist() == [1, 1]
        assert rows[[0, 5, 33, 100]].tolist() == [0, 0, 0, 0]
        assert rows[64:84].tolist() == [1] * 20 and rows[101] == 1
        # column 12 (best row 48, block 1) ties rows 0 and 5 in block 0 and
        # row 33 in its own block above it; row 120 in block 3 does not count
        assert cols[12] == 3 and cols[0] == 20 and cols[3] == 0 and cols[5] == 1
        assert (cols[8:] >= 1).all()

    @pytest.mark.parametrize("noise", [0.05, 0.3, 1.0, 5.0])
    def test_tie_heavy_matrices_at_every_recall_level(self, small_blocks, noise):
        # scores on a 1/16 grid: from nearly every query ranking first to
        # near chance, with ties everywhere
        rng = np.random.default_rng(17)
        t = np.arange(self.N_IMAGES * self.CAPTIONS)
        scores = noise * rng.standard_normal((len(t), self.N_IMAGES))
        scores[t, t // self.CAPTIONS] += 1.0
        scores = np.round(scores * 16) / 16
        assert len(np.unique(scores)) < scores.size // 4
        self._check(scores)


def _tiny_split():
    cfg = SyntheticCorpusConfig(num_groups=1, visual_dim=6, text_dim=5,
                                embed_dim=4, seed=3)
    return generate_splits(cfg, 1, 1, 12)["test"]


def _model(seed):
    rng = np.random.default_rng([seed, 0])
    return BiEncoder(init_encoder_params(rng, 6, 4, PoolingSpec("adpool")),
                     init_encoder_params(rng, 5, 4, PoolingSpec("mean")))


def _ragged_split(seed, groups):
    """A test split whose instances vary in length and whose groups keep 1 to
    3 of their captions."""
    cfg = SyntheticCorpusConfig(num_groups=1, visual_dim=6, text_dim=5,
                                embed_dim=4, captions_per_image=3,
                                visual_len=(1, 4), text_len=(1, 3), seed=seed)
    split = generate_splits(cfg, 1, 1, groups)["test"]
    keep = np.random.default_rng(seed).integers(1, 4, size=groups)
    texts = tuple(t for img, n in zip(split.images, keep) for t in
                  [t for t in split.texts if t.group_id == img.group_id][:n])
    return Corpus(images=split.images, texts=texts)


class TestEvaluateSplit:
    @pytest.fixture
    def ranked(self, monkeypatch):
        """The (scores, folds) of each call evaluate_split makes to its
        ranking, evaluation.rank_pairs for one fold and
        evaluation.evaluate_scores for more, and the matrices split_scores
        returned."""
        calls, scored = [], []

        def capture(scores, text_ids, image_ids, truth, folds):
            calls.append((scores, folds))

        def capture_one_fold(scores, text_pairs, image_pairs):
            calls.append((scores, 1))

        def record(model, split):
            scored.append(split_scores(model, split))
            return scored[-1]

        monkeypatch.setattr(evaluation, "evaluate_scores", capture)
        monkeypatch.setattr(evaluation, "rank_pairs", capture_one_fold)
        monkeypatch.setattr(encoders, "split_scores", record)
        return calls, scored

    def test_ranks_the_bit_exact_mean_of_the_members(self, ranked):
        calls, scored = ranked
        split = PreparedSplit(_tiny_split())
        models = [_model(seed) for seed in range(5)]
        for n in (1, 2, 3, 5):
            mean = np.mean(np.stack([split_scores(m, split)
                                     for m in models[:n]]), axis=0)
            for folds in (1, 2):
                evaluate_split(models[:n], split, folds)
                assert calls[-1][1] == folds
                assert calls[-1][0].tobytes() == mean.tobytes()
        assert calls[0][0] is scored[0]  # one model ranks by its own matrix

    def test_folds_are_passed_through(self, ranked):
        evaluate_split([_model(0)], PreparedSplit(_tiny_split()), 3)
        assert ranked[0][-1][1] == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_split([], PreparedSplit(_tiny_split()))
        with pytest.raises(ValueError, match="no images"):
            PreparedSplit(Corpus(images=(), texts=()))

    def test_one_model_is_evaluate_scores_of_its_split(self):
        corpus, model = _tiny_split(), _model(1)
        split = PreparedSplit(corpus)
        assert evaluate_split([model], split) == evaluate_scores(
            split_scores(model, split), [t.id for t in corpus.texts],
            [i.id for i in corpus.images], ground_truth(corpus))

    @pytest.mark.parametrize("seed, groups", [(3, 12), (4, 7), (5, 150)])
    def test_equals_evaluate_scores_of_the_member_mean(self, seed, groups):
        # 150 groups give more than ENCODE_BLOCK captions of one length, so
        # the text side's plan holds more than one block of that length
        corpus = _ragged_split(seed, groups)
        split = PreparedSplit(corpus)
        models = [_model(s) for s in range(3)]
        for n in (1, 2, 3):
            mean = np.mean(np.stack([cosine_sim_matrix(
                encode_all(corpus.texts, m.text),
                encode_all(corpus.images, m.visual)) for m in models[:n]]), axis=0)
            for folds in (1, 2, 3):
                assert evaluate_split(models[:n], split, folds) == evaluate_scores(
                    mean, tuple(t.id for t in corpus.texts),
                    tuple(i.id for i in corpus.images), ground_truth(corpus),
                    folds)

    @pytest.mark.parametrize("prepare", [ground_truth, PreparedSplit],
                             ids=["ground_truth", "PreparedSplit"])
    def test_uncaptioned_image_is_data_error(self, prepare):
        corpus = _tiny_split()
        image = corpus.images[0]
        uncaptioned = Corpus(images=corpus.images,
                             texts=tuple(t for t in corpus.texts
                                         if t.group_id != image.group_id))
        with pytest.raises(DataError, match=(
                f"image '{image.id}' has no caption in group '{image.group_id}'")):
            prepare(uncaptioned)

    @pytest.mark.parametrize("prepare", [ground_truth, PreparedSplit],
                             ids=["ground_truth", "PreparedSplit"])
    def test_orphan_caption_is_data_error(self, prepare):
        corpus = _tiny_split()
        orphan = corpus.texts[0]._replace(id="t999999.0", group_id="gX")
        with pytest.raises(DataError, match=(
                "caption 't999999.0' names group 'gX', which has no image")):
            prepare(Corpus(corpus.images, corpus.texts + (orphan,)))


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

    def test_id_counts_must_match_the_score_matrix(self):
        truth = {"a": {"x"}, "b": {"y"}, "x": {"a"}, "y": {"b"}}
        with pytest.raises(DimensionError, match=r"\(3, 2\) does not match 2 queries"):
            evaluate_scores(np.ones((3, 2)), ("a", "b"), ("x", "y"), truth)

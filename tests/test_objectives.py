"""Loss functions and the adaptive negative-count machinery.

The heavier checks re-derive every value through straight-line scalar
oracles (plain loops and math.* calls) that share no code with the package.
"""

import math

import numpy as np
import pytest

from adret import objectives
from adret.errors import ConfigError, EvaluationError
from adret.objectives import (
    LossConfig,
    adaptive_k,
    adopt_loss,
    alignment,
    hard_triplet_loss,
    info_nce_loss,
    negatives_only_info_nce,
    select_negatives,
    uniformity,
)


# ---------------------------------------------------------------------------
# independent scalar oracles
# ---------------------------------------------------------------------------

def _triplet_oracle(s, margin):
    b = len(s)
    total = 0.0
    for i in range(b):
        hardest_col = max((s[i][j], -j) for j in range(b) if j != i)
        hardest_row = max((s[j][i], -j) for j in range(b) if j != i)
        total += max(0.0, margin - s[i][i] + hardest_col[0])
        total += max(0.0, margin - s[i][i] + hardest_row[0])
    return total


def _select_oracle(s, k):
    b = len(s)
    t2i, i2t = [], []
    for i in range(b):
        cols = sorted((j for j in range(b) if j != i),
                      key=lambda j: (-s[i][j], j))
        rows = sorted((j for j in range(b) if j != i),
                      key=lambda j: (-s[j][i], j))
        t2i.append(tuple(cols[:k]))
        i2t.append(tuple(rows[:k]))
    return t2i, i2t


def _infonce_oracle(s, t2i, i2t, tau):
    b = len(s)
    loss = 0.0
    for i in range(b):
        denom = math.exp(s[i][i] / tau) + sum(math.exp(s[i][j] / tau)
                                              for j in t2i[i])
        loss += -math.log(math.exp(s[i][i] / tau) / denom) / b
        denom = math.exp(s[i][i] / tau) + sum(math.exp(s[j][i] / tau)
                                              for j in i2t[i])
        loss += -math.log(math.exp(s[i][i] / tau) / denom) / b
    return loss


def _negatives_only_oracle(s, t2i, i2t, tau):
    b = len(s)
    loss = 0.0
    for i in range(b):
        loss += math.log(sum(math.exp(s[i][j] / tau) for j in t2i[i])) / b
        loss += math.log(sum(math.exp(s[j][i] / tau) for j in i2t[i])) / b
        loss -= 2 * s[i][i] / tau / b
    return loss


def _contrastive_grad_oracle(s, t2i, i2t, tau, with_positive):
    """dL/dS one anchor at a time: each denominator term gets its softmax
    weight / (b tau), the positive gets -1 / (b tau) from the numerator."""
    b = len(s)
    grad = [[0.0] * b for _ in range(b)]
    for i in range(b):
        for cells in ([(i, j) for j in t2i[i]], [(j, i) for j in i2t[i]]):
            terms = ([(i, i)] if with_positive else []) + cells
            zmax = max(s[r][c] / tau for r, c in terms)
            weights = [math.exp(s[r][c] / tau - zmax) for r, c in terms]
            total = sum(weights)
            for (r, c), w in zip(terms, weights):
                grad[r][c] += w / total / (b * tau)
            grad[i][i] -= 1.0 / (b * tau)
    return np.array(grad)


def _adopt_oracle(s, tau):
    b = len(s)
    ga = min(1.0, max(0.0, sum(s[i][i] for i in range(b)) / b))
    mean_exp = sum(math.exp(s[i][j]) for i in range(b) for j in range(b)) / b ** 2
    gu = min(1.0, max(0.0, math.log(mean_exp)))
    k = max(1, min(math.floor(b * math.cos((ga + gu) * math.pi / 4)), b - 1))
    t2i, i2t = _select_oracle(s, k)
    loss = 0.0
    for i in range(b):
        loss += math.log(sum(math.exp(s[i][j] / tau) for j in t2i[i])) / b
        loss -= s[i][i] / tau / b
        loss += math.log(sum(math.exp(s[j][i] / tau) for j in i2t[i])) / b
        loss -= s[i][i] / tau / b
    return loss, ga, gu, k


class TestHardTriplet:
    def test_all_hinges_inactive(self):
        loss, grad = hard_triplet_loss([[0.9, 0.2], [0.3, 0.8]], 0.2)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((2, 2)))

    def test_worked_example(self):
        loss, _ = hard_triplet_loss([[0.5, 0.6], [0.4, 0.7]], 0.2)
        assert loss == 0.5  # 0.3 + 0.1 + 0 + 0.1

    def test_zero_margin_separated(self):
        loss, _ = hard_triplet_loss(np.eye(3), 0.0)
        assert loss == 0.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            s = rng.uniform(-1, 1, size=(8, 8))
            loss, _ = hard_triplet_loss(s, 0.2)
            assert abs(loss - _triplet_oracle(s.tolist(), 0.2)) <= 1e-12

    def test_nonnegative_and_zero_iff_inactive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=(5, 5))
            loss, grad = hard_triplet_loss(s, 0.2)
            assert loss >= 0.0
            assert (loss == 0.0) == np.array_equal(grad, np.zeros_like(grad))

    def test_tiny_batch_rejected(self):
        with pytest.raises(ValueError):
            hard_triplet_loss([[1.0]], 0.2)

    def test_non_finite_similarity_raises(self):
        with pytest.raises(EvaluationError, match="similarity matrix"):
            hard_triplet_loss([[0.5, np.nan], [0.4, 0.7]], 0.2)
        with pytest.raises(EvaluationError, match="similarity matrix"):
            adopt_loss([[0.5, 0.1], [np.inf, 0.7]], 0.05)


class TestBatchStatistics:
    def test_alignment_examples(self):
        assert alignment(np.eye(2)) == 1.0
        assert abs(alignment(np.diag([0.2, 0.4])) - 0.3) <= 1e-12

    def test_alignment_is_diagonal_mean(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(-1, 1, size=(6, 6))
        assert abs(alignment(s) - np.trace(s) / 6) <= 1e-12

    def test_uniformity_constant_matrix(self):
        s = np.full((4, 4), 0.37)
        assert abs(uniformity(s) - 0.37) <= 1e-12

    def test_uniformity_identity(self):
        expected = math.log((2 * math.e + 2) / 4)
        assert abs(uniformity(np.eye(2)) - expected) <= 1e-12

    def test_uniformity_bounded_for_similarities(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=(5, 5))
            assert -1.0 <= uniformity(s) <= 1.0


class TestAdaptiveK:
    def test_mature_endpoint(self):
        assert adaptive_k(1.0, 1.0, 128) == 1

    def test_cold_endpoint(self):
        assert adaptive_k(0.0, 0.0, 128) == 127

    def test_midpoint(self):
        assert adaptive_k(0.5, 0.5, 128) == 90  # floor(128 * cos(pi/4))

    def test_monotone_over_grid(self):
        grid = [i * 0.05 for i in range(41)]  # gamma sums 0.0 .. 2.0
        ks = [adaptive_k(g / 2, g / 2, 128) for g in grid]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_clamps_wild_inputs(self):
        for ga, gu in ((-5.0, 0.3), (0.3, 7.0), (-2.0, -2.0), (9.0, 9.0)):
            assert 1 <= adaptive_k(ga, gu, 32) <= 31

    def test_small_batch_rejected(self):
        with pytest.raises(ValueError):
            adaptive_k(0.5, 0.5, 1)


class TestSelectNegatives:
    def test_full_selection(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(-1, 1, size=(5, 5))
        sel = select_negatives(s, 4)
        for i in range(5):
            assert set(sel.text_to_image[i]) == set(range(5)) - {i}
            assert set(sel.image_to_text[i]) == set(range(5)) - {i}

    def test_argmax_case(self):
        s = np.array([[0.5, 0.6, 0.1], [0.0, 0.9, 0.2], [0.3, 0.2, 0.8]])
        sel = select_negatives(s, 1)
        assert sel.text_to_image[0] == (1,)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=(6, 6))
            sel = select_negatives(s, 3)
            t2i, i2t = _select_oracle(s.tolist(), 3)
            assert np.array_equal(sel.text_to_image, t2i)
            assert np.array_equal(sel.image_to_text, i2t)
        s = np.round(rng.uniform(-1, 1, size=(250, 250)), 2)  # many ties
        for k in (1, 249):
            sel = select_negatives(s, k)
            t2i, i2t = _select_oracle(s.tolist(), k)
            assert sel.text_to_image.shape == sel.image_to_text.shape == (250, k)
            assert np.array_equal(sel.text_to_image, t2i)
            assert np.array_equal(sel.image_to_text, i2t)

    def test_never_contains_positive_and_no_duplicates(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(-1, 1, size=(7, 7))
        sel = select_negatives(s, 5)
        for i in range(7):
            for lst in (sel.text_to_image[i], sel.image_to_text[i]):
                assert i not in lst
                assert len(set(lst)) == len(lst) == 5

    def test_k_out_of_range(self):
        s = np.zeros((4, 4))
        for k in (0, 4):
            with pytest.raises(ValueError):
                select_negatives(s, k)


class TestInfoNCE:
    def test_identity_matrix_value(self):
        s = np.eye(2)
        loss, _ = info_nce_loss(s, select_negatives(s, 1), 1.0)
        assert abs(loss - 2 * math.log(1 + math.exp(-1))) <= 1e-12

    def test_saturation(self):
        s = np.full((3, 3), 1.0) + np.eye(3) * 41.0  # gap/tau >= 40
        loss, _ = info_nce_loss(s, select_negatives(s, 2), 1.0)
        assert 0.0 <= loss <= 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=(8, 8))
            sel = select_negatives(s, 4)
            loss, _ = info_nce_loss(s, sel, 0.05)
            ref = _infonce_oracle(s.tolist(), sel.text_to_image,
                                  sel.image_to_text, 0.05)
            assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_direction_of_change(self):
        rng = np.random.default_rng(8)
        s = rng.uniform(-0.5, 0.5, size=(5, 5))
        sel = select_negatives(s, 2)
        base, _ = info_nce_loss(s, sel, 0.1)
        up = s.copy()
        up[2, 2] += 1e-3
        assert info_nce_loss(up, sel, 0.1)[0] < base
        worse = s.copy()
        worse[2, sel.text_to_image[2][0]] += 1e-3
        assert info_nce_loss(worse, sel, 0.1)[0] > base

    def test_bad_temperature(self):
        s = np.eye(2)
        with pytest.raises(ConfigError):
            info_nce_loss(s, select_negatives(s, 1), 0.0)
        with pytest.raises(ConfigError):
            LossConfig(mode="infonce-adaptive", temperature=-1.0)


class TestNegativesOnlyInfoNCE:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=(6, 6))
            sel = select_negatives(s, 3)
            loss, _ = negatives_only_info_nce(s, sel, 0.05)
            ref = 0.0
            for i in range(6):
                ref += math.log(sum(math.exp(s[i][j] / 0.05)
                                    for j in sel.text_to_image[i])) / 6
                ref += math.log(sum(math.exp(s[j][i] / 0.05)
                                    for j in sel.image_to_text[i])) / 6
                ref -= 2 * s[i][i] / 0.05 / 6
            assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_positive_keeps_constant_pull(self):
        rng = np.random.default_rng(10)
        s = rng.uniform(-0.5, 0.5, size=(4, 4))
        sel = select_negatives(s, 2)
        _, grad = negatives_only_info_nce(s, sel, 0.1)
        np.testing.assert_allclose(np.diag(grad), -2.0 / (4 * 0.1), atol=1e-12)

    def test_can_go_negative_once_separated(self):
        s = np.full((3, 3), -0.9) + np.eye(3) * 1.8
        sel = select_negatives(s, 1)
        loss, _ = negatives_only_info_nce(s, sel, 0.05)
        assert loss < 0.0


class TestWideBatch:
    """Both InfoNCE forms at B=250, at both ends of K, against the oracles."""

    @pytest.mark.parametrize("k", [1, 249])
    @pytest.mark.parametrize("with_positive", [True, False])
    def test_loss_and_gradient_match_oracles(self, k, with_positive):
        rng = np.random.default_rng(13)
        s = rng.uniform(-1, 1, size=(250, 250))
        sel = select_negatives(s, k)
        t2i, i2t = _select_oracle(s.tolist(), k)
        if with_positive:
            loss, grad = info_nce_loss(s, sel, 0.05)
            ref = _infonce_oracle(s.tolist(), t2i, i2t, 0.05)
        else:
            loss, grad = negatives_only_info_nce(s, sel, 0.05)
            ref = _negatives_only_oracle(s.tolist(), t2i, i2t, 0.05)
        assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))
        ref_grad = _contrastive_grad_oracle(s.tolist(), t2i, i2t, 0.05,
                                            with_positive)
        np.testing.assert_allclose(grad, ref_grad, rtol=0.0, atol=1e-12)


class TestAdoptLoss:
    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=(8, 8))
            loss, maturity, _ = adopt_loss(s, 0.05)
            ref_loss, ga, gu, k = _adopt_oracle(s.tolist(), 0.05)
            assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
            assert maturity.k_selected == k
            assert abs(maturity.gamma_align - ga) <= 1e-12
            assert abs(maturity.gamma_uniform - gu) <= 1e-12

    def test_all_zero_similarities(self):
        loss, maturity, _ = adopt_loss(np.zeros((6, 6)), 0.05)
        assert maturity.gamma_align == 0.0
        assert maturity.gamma_uniform == 0.0
        assert maturity.k_selected == 5

    def test_perfectly_trained_batch(self):
        loss, maturity, _ = adopt_loss(np.eye(4), 0.05)
        assert maturity.gamma_align == 1.0
        expected_gu = math.log((4 * math.e + 12) / 16)
        assert abs(maturity.gamma_uniform - expected_gu) <= 1e-12
        # gamma sum 1.357 -> floor(4 * cos(1.066)) = 1
        assert maturity.k_selected == 1
        assert loss < 0.0  # positives already clear the negatives

    def test_batch_is_scanned_once_per_public_step(self, monkeypatch):
        # select_negatives and the loss each check s; nothing else rescans it
        calls = []
        real = objectives.finite_matrix
        monkeypatch.setattr(objectives, "finite_matrix",
                            lambda m, name: calls.append(name) or real(m, name))
        adopt_loss(np.random.default_rng(13).uniform(-1, 1, (6, 6)), 0.05)
        assert len(calls) == 2

    def test_gammas_always_clamped(self):
        rng = np.random.default_rng(12)
        s = rng.uniform(-1, 1, size=(5, 5)) * 0.99
        _, maturity, _ = adopt_loss(s, 0.05)
        assert 0.0 <= maturity.gamma_align <= 1.0
        assert 0.0 <= maturity.gamma_uniform <= 1.0


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LossConfig(mode="contrastive")
        with pytest.raises(ConfigError):
            LossConfig(mode="hard-triplet", margin=-0.1)
        with pytest.raises(ConfigError):
            LossConfig(mode="infonce-fixed")  # fixed_k missing
        cfg = LossConfig(mode="hard-triplet")
        assert cfg.margin == 0.2 and cfg.temperature == 0.05

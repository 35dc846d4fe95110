"""Loss functions and the adaptive negative-count machinery.

The heavier checks re-derive every value through straight-line scalar
oracles (plain loops and math.* calls) that share no code with the package.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adret import objectives
from adret.errors import ConfigError, EvaluationError
from adret.objectives import (
    LOSS_MODES,
    BatchMaturity,
    LossConfig,
    adaptive_k,
    alignment,
    batch_loss,
    contrastive_loss,
    negative_count,
    select_negatives,
    uniformity,
)


def _triplet(s, margin):
    """(loss, grad) of the hard-triplet mode through the training path."""
    loss, grad, maturity = batch_loss(s, LossConfig("hard-triplet", margin=margin))
    assert maturity is None
    return loss, grad


def _infonce(tau, k=1):
    """The saturating InfoNCE term's config."""
    return LossConfig("infonce-fixed", temperature=tau, fixed_k=k)


def _negatives_only(tau):
    """The adaptive mode's negatives-only term's config."""
    return LossConfig("infonce-adaptive", temperature=tau)


# ---------------------------------------------------------------------------
# independent scalar oracles
# ---------------------------------------------------------------------------

def _triplet_oracle(s, margin, k=1):
    """The hinge summed over each anchor's k hardest negatives (the smaller
    index on a tie), both directions; k = 1 is the hard triplet."""
    t2i, i2t = _select_oracle(s, k)
    total = 0.0
    for i in range(len(s)):
        for j in t2i[i]:
            total += max(0.0, margin - s[i][i] + s[i][j])
        for j in i2t[i]:
            total += max(0.0, margin - s[i][i] + s[j][i])
    return total


def _triplet_grad_oracle(s, margin, k=1):
    """dL/dS of the k-negative hinge: +1 on each active hinge's negative,
    -1 on its positive."""
    b = len(s)
    t2i, i2t = _select_oracle(s, k)
    grad = [[0.0] * b for _ in range(b)]
    for i in range(b):
        for j in t2i[i]:
            if margin - s[i][i] + s[i][j] > 0:
                grad[i][j] += 1.0
                grad[i][i] -= 1.0
        for j in i2t[i]:
            if margin - s[i][i] + s[j][i] > 0:
                grad[j][i] += 1.0
                grad[i][i] -= 1.0
    return np.array(grad)


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


def _as_mask(rows, b):
    """The (b, b) boolean mask marking row i's indices ``rows[i]``."""
    mask = np.zeros((b, b), dtype=bool)
    for i, cols in enumerate(rows):
        mask[i, list(cols)] = True
    return mask


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
        loss, grad = _triplet([[0.9, 0.2], [0.3, 0.8]], 0.2)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((2, 2)))

    def test_worked_example(self):
        loss, _ = _triplet([[0.5, 0.6], [0.4, 0.7]], 0.2)
        assert loss == 0.5  # 0.3 + 0.1 + 0 + 0.1

    def test_zero_margin_separated(self):
        loss, _ = _triplet(np.eye(3), 0.0)
        assert loss == 0.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            s = rng.uniform(-1, 1, size=(8, 8))
            loss, _ = _triplet(s, 0.2)
            assert abs(loss - _triplet_oracle(s.tolist(), 0.2)) <= 1e-12

    def test_nonnegative_and_zero_iff_inactive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=(5, 5))
            loss, grad = _triplet(s, 0.2)
            assert loss >= 0.0
            assert (loss == 0.0) == np.array_equal(grad, np.zeros_like(grad))

    def test_tied_hardest_negatives_pick_the_smaller_index(self):
        # row 0 ties columns 1 and 2, column 0 ties rows 1 and 2
        s = np.array([[0.5, 0.6, 0.6], [0.6, 0.5, 0.1], [0.6, 0.1, 0.5]])
        _, grad = _triplet(s, 0.2)
        assert np.array_equal(grad, [[-2.0, 2.0, 1.0],
                                     [2.0, -2.0, 0.0],
                                     [1.0, 0.0, -2.0]])

    def test_gradient_matches_oracle_on_ties(self):
        s = np.round(np.random.default_rng(14).uniform(-1, 1, size=(64, 64)), 1)
        loss, grad = _triplet(s, 0.2)
        assert abs(loss - _triplet_oracle(s.tolist(), 0.2)) <= 1e-12
        assert np.array_equal(grad, _triplet_grad_oracle(s.tolist(), 0.2))

    def test_tiny_batch_rejected(self):
        with pytest.raises(ValueError):
            _triplet([[1.0]], 0.2)

    def test_non_finite_similarity_raises(self):
        with pytest.raises(EvaluationError, match="similarity matrix"):
            _triplet([[0.5, np.nan], [0.4, 0.7]], 0.2)
        with pytest.raises(EvaluationError, match="similarity matrix"):
            batch_loss([[0.5, 0.1], [np.inf, 0.7]], _negatives_only(0.05))
        s = [[0.5, np.nan], [0.4, 0.7]]
        with pytest.raises(EvaluationError, match="similarity matrix"):
            contrastive_loss(s, select_negatives(np.eye(2), 1), _infonce(0.05))

    def test_pinned_selection_at_k_1_is_the_training_loss(self):
        s = np.random.default_rng(15).uniform(-1, 1, size=(4, 4))
        cfg = LossConfig("hard-triplet", margin=0.2)
        loss, grad = contrastive_loss(s, select_negatives(s, 1), cfg)
        ref_loss, ref_grad = _triplet(s, 0.2)
        assert loss == ref_loss and np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("margin", [0.0, 0.2])
    @pytest.mark.parametrize("k", [1, 2, 5, 15])
    def test_k_negative_hinge_matches_oracles(self, k, margin, tied):
        # rounded to tenths, rows tie among the negatives and hinges at zero
        cfg = LossConfig("hard-triplet", margin=margin)
        rng = np.random.default_rng(16)
        for _ in range(5):
            s = rng.uniform(-1, 1, size=(16, 16))
            s = np.round(s, 1) if tied else s
            loss, grad = contrastive_loss(s, select_negatives(s, k), cfg)
            ref = _triplet_oracle(s.tolist(), margin, k)
            assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))
            assert np.array_equal(grad,
                                  _triplet_grad_oracle(s.tolist(), margin, k))


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
        assert np.array_equal(sel.text_to_image, ~np.eye(5, dtype=bool))
        assert np.array_equal(sel.image_to_text, ~np.eye(5, dtype=bool))

    def test_argmax_case(self):
        s = np.array([[0.5, 0.6, 0.1], [0.0, 0.9, 0.2], [0.3, 0.2, 0.8]])
        sel = select_negatives(s, 1)
        assert np.flatnonzero(sel.text_to_image[0]).tolist() == [1]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=(6, 6))
            sel = select_negatives(s, 3)
            t2i, i2t = _select_oracle(s.tolist(), 3)
            assert np.array_equal(sel.text_to_image, _as_mask(t2i, 6))
            assert np.array_equal(sel.image_to_text, _as_mask(i2t, 6))
        s = np.round(rng.uniform(-1, 1, size=(250, 250)), 2)  # many ties
        hardest = select_negatives(s, 1)
        for k in (1, 2, 249):
            sel = select_negatives(s, k)
            t2i, i2t = _select_oracle(s.tolist(), k)
            assert sel.text_to_image.shape == sel.image_to_text.shape == (250, 250)
            assert np.array_equal(sel.text_to_image, _as_mask(t2i, 250))
            assert np.array_equal(sel.image_to_text, _as_mask(i2t, 250))
            # every k's set holds the hardest negative
            assert not (hardest.text_to_image & ~sel.text_to_image).any()
            assert not (hardest.image_to_text & ~sel.image_to_text).any()

    def test_never_contains_positive_and_marks_k(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(-1, 1, size=(7, 7))
        sel = select_negatives(s, 5)
        for mask in (sel.text_to_image, sel.image_to_text):
            assert mask.dtype == bool
            assert not np.diag(mask).any()
            assert mask.sum(axis=1).tolist() == [5] * 7

    def test_k_out_of_range(self):
        s = np.zeros((4, 4))
        for k in (0, 4):
            with pytest.raises(ValueError):
                select_negatives(s, k)


class TestSelectNegativesProperty:
    """The threshold selection counts ties only in rows with more than k
    values at or above the k-th largest; for every k it must mark the set a
    stable argsort puts first."""

    LEVELS = (0.0, -0.0, 0.5, -0.5, 0.25, 1.0, -1.0, 0.75)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(2, 250), st.sampled_from((2, 3, 8, "rounded", None)),
           st.integers(0, 2**32 - 1), st.integers(1, 249))
    @example(250, None, 1, 200)
    @example(250, "rounded", 2, 249)
    @example(250, "rounded", 3, 2)
    @example(250, 2, 4, 120)
    def test_equals_the_stable_argsort(self, b, levels, seed, k):
        k = min(k, b - 1)
        rng = np.random.default_rng(seed)
        s = rng.uniform(-1, 1, size=(b, b))  # levels None: no ties
        if levels == "rounded":  # ties in some rows' heads, not all
            s = np.round(s, 2)
        elif levels is not None:  # two levels are 0.0 and -0.0: all tied
            s = rng.choice(self.LEVELS[:levels], size=(b, b))
        masked = np.where(np.eye(b, dtype=bool), -np.inf, s)
        sel = select_negatives(s, k)
        for mask, keys in ((sel.text_to_image, -masked),
                           (sel.image_to_text, -masked.T)):
            head = np.argsort(keys, axis=1, kind="stable")[:, :k]
            assert np.array_equal(mask, _as_mask(head, b))


class TestInfoNCE:
    def test_identity_matrix_value(self):
        s = np.eye(2)
        loss, _, _ = batch_loss(s, _infonce(1.0))
        assert abs(loss - 2 * math.log(1 + math.exp(-1))) <= 1e-12

    def test_saturation(self):
        s = np.full((3, 3), 1.0) + np.eye(3) * 41.0  # gap/tau >= 40
        loss, _, _ = batch_loss(s, _infonce(1.0, 2))
        assert 0.0 <= loss <= 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=(8, 8))
            loss, _, _ = batch_loss(s, _infonce(0.05, 4))
            ref = _infonce_oracle(s.tolist(), *_select_oracle(s.tolist(), 4),
                                  0.05)
            assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_direction_of_change(self):
        rng = np.random.default_rng(8)
        s = rng.uniform(-0.5, 0.5, size=(5, 5))
        sel = select_negatives(s, 2)
        base, _ = contrastive_loss(s, sel, _infonce(0.1))
        up = s.copy()
        up[2, 2] += 1e-3
        assert contrastive_loss(up, sel, _infonce(0.1))[0] < base
        worse = s.copy()
        worse[2, np.flatnonzero(sel.text_to_image[2])[0]] += 1e-3
        assert contrastive_loss(worse, sel, _infonce(0.1))[0] > base

    def test_bad_temperature(self):
        with pytest.raises(ConfigError):
            _infonce(0.0)
        with pytest.raises(ConfigError):
            LossConfig(mode="infonce-adaptive", temperature=-1.0)


class TestNegativesOnlyInfoNCE:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=(6, 6))
            loss, _ = contrastive_loss(s, select_negatives(s, 3),
                                       _negatives_only(0.05))
            t2i, i2t = _select_oracle(s.tolist(), 3)
            ref = 0.0
            for i in range(6):
                ref += math.log(sum(math.exp(s[i][j] / 0.05)
                                    for j in t2i[i])) / 6
                ref += math.log(sum(math.exp(s[j][i] / 0.05)
                                    for j in i2t[i])) / 6
                ref -= 2 * s[i][i] / 0.05 / 6
            assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_positive_keeps_constant_pull(self):
        rng = np.random.default_rng(10)
        s = rng.uniform(-0.5, 0.5, size=(4, 4))
        sel = select_negatives(s, 2)
        _, grad = contrastive_loss(s, sel, _negatives_only(0.1))
        np.testing.assert_allclose(np.diag(grad), -2.0 / (4 * 0.1), atol=1e-12)

    def test_can_go_negative_once_separated(self):
        s = np.full((3, 3), -0.9) + np.eye(3) * 1.8
        sel = select_negatives(s, 1)
        loss, _ = contrastive_loss(s, sel, _negatives_only(0.05))
        assert loss < 0.0


class TestWideBatch:
    """Every loss at B=250 against the oracles: both InfoNCE forms at both
    ends of K and in between, where the threshold and its tie count decide
    the set, and the hinge; on distinct and on rounded, tied similarities."""

    @staticmethod
    def similarity(tied):
        s = np.random.default_rng(13).uniform(-1, 1, size=(250, 250))
        return np.round(s, 2) if tied else s

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 125, 248, 249])
    @pytest.mark.parametrize("with_positive", [True, False])
    def test_loss_and_gradient_match_oracles(self, k, with_positive, tied):
        s = self.similarity(tied)
        sel = select_negatives(s, k)
        t2i, i2t = _select_oracle(s.tolist(), k)
        if with_positive:
            loss, grad = contrastive_loss(s, sel, _infonce(0.05))
            ref = _infonce_oracle(s.tolist(), t2i, i2t, 0.05)
        else:
            loss, grad = contrastive_loss(s, sel, _negatives_only(0.05))
            ref = _negatives_only_oracle(s.tolist(), t2i, i2t, 0.05)
        assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))
        ref_grad = _contrastive_grad_oracle(s.tolist(), t2i, i2t, 0.05,
                                            with_positive)
        np.testing.assert_allclose(grad, ref_grad, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("tied", [False, True])
    def test_hard_triplet_matches_oracles(self, tied):
        s = self.similarity(tied)
        loss, grad = _triplet(s, 0.2)
        ref = _triplet_oracle(s.tolist(), 0.2)
        assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))
        np.testing.assert_allclose(grad, _triplet_grad_oracle(s.tolist(), 0.2),
                                   rtol=0.0, atol=1e-12)


class TestAdaptiveMode:
    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = rng.uniform(-1, 1, size=(8, 8))
            loss, _, maturity = batch_loss(s, _negatives_only(0.05))
            ref_loss, ga, gu, k = _adopt_oracle(s.tolist(), 0.05)
            assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
            assert maturity.k_selected == k
            assert abs(maturity.gamma_align - ga) <= 1e-12
            assert abs(maturity.gamma_uniform - gu) <= 1e-12

    def test_all_zero_similarities(self):
        loss, _, maturity = batch_loss(np.zeros((6, 6)), _negatives_only(0.05))
        assert maturity.gamma_align == 0.0
        assert maturity.gamma_uniform == 0.0
        assert maturity.k_selected == 5

    def test_perfectly_trained_batch(self):
        loss, _, maturity = batch_loss(np.eye(4), _negatives_only(0.05))
        assert maturity.gamma_align == 1.0
        expected_gu = math.log((4 * math.e + 12) / 16)
        assert abs(maturity.gamma_uniform - expected_gu) <= 1e-12
        # gamma sum 1.357 -> floor(4 * cos(1.066)) = 1
        assert maturity.k_selected == 1
        assert loss < 0.0  # positives already clear the negatives

    def test_gammas_always_clamped(self):
        rng = np.random.default_rng(12)
        s = rng.uniform(-1, 1, size=(5, 5)) * 0.99
        _, maturity = negative_count(s, _negatives_only(0.05))
        assert 0.0 <= maturity.gamma_align <= 1.0
        assert 0.0 <= maturity.gamma_uniform <= 1.0


class TestBatchLoss:
    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_equals_its_term_at_the_pinned_selection(self, mode):
        # the gradient checks run contrastive_loss on the selection
        # negative_count picks; training runs batch_loss
        s = np.random.default_rng(16).uniform(-1, 1, size=(6, 6))
        cfg = LossConfig(mode, margin=0.3, temperature=0.1, fixed_k=3)
        k, ref_maturity = negative_count(s, cfg)
        ref_loss, ref_grad = contrastive_loss(s, select_negatives(s, k), cfg)
        loss, grad, maturity = batch_loss(s, cfg)
        assert (loss, maturity) == (ref_loss, ref_maturity)
        assert np.array_equal(grad, ref_grad)
        assert isinstance(maturity, BatchMaturity) == (mode == "infonce-adaptive")

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_batch_is_scanned_once_per_public_step(self, mode, monkeypatch):
        # batch_loss checks s; its K rule, selection and term reuse it
        calls = []
        real = objectives.finite_matrix
        monkeypatch.setattr(objectives, "finite_matrix",
                            lambda m, name: calls.append(name) or real(m, name))
        batch_loss(np.random.default_rng(13).uniform(-1, 1, (6, 6)),
                   LossConfig(mode, fixed_k=3))
        assert len(calls) == 1

    def test_fixed_k_is_clamped_to_the_batch(self):
        s = np.random.default_rng(17).uniform(-1, 1, size=(3, 3))
        loss, grad, _ = batch_loss(s, _infonce(0.1, 10))
        ref_loss, ref_grad = contrastive_loss(s, select_negatives(s, 2),
                                              _infonce(0.1, 10))
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


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

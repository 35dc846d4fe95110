"""The claim and regression verdicts of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

OLD = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def _verdict(old, new, better="lower", bound=0.1):
    metrics = {"m": {"name": "m", "better": better, "bound": bound}}
    summary = bench_pairs._summary({"old": {"m": old}, "new": {"m": new}},
                                   metrics)["m"]
    return summary["wins"], summary["claim"], summary["regression"]


class TestVerdicts:
    def test_clear_win_is_claimed(self):
        assert _verdict(OLD, [0.9 * v for v in OLD]) == (10, True, False)

    def test_tie_is_neither_claimed_nor_a_regression(self):
        assert _verdict(OLD, list(OLD)) == (0, False, False)

    @pytest.mark.parametrize("better,factor", [("lower", 1.2), ("higher", 0.8)])
    def test_regression_past_the_bound(self, better, factor):
        assert _verdict(OLD, [factor * v for v in OLD], better) == (0, False, True)

    def test_worse_within_the_bound_is_no_regression(self):
        assert _verdict(OLD, [1.05 * v for v in OLD]) == (0, False, False)

    def test_nine_wins_in_ten_with_a_gap_inside_the_spread_is_no_claim(self):
        new = [v - 0.005 for v in OLD[:9]] + [OLD[9] + 0.01]
        assert _verdict(OLD, new) == (9, False, False)

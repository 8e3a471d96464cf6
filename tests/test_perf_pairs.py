"""Tests for the paired-runs verdict and the ``--relative-to`` ratio row
(tools/perf_pairs.py)."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perf_pairs", REPO_ROOT / "tools" / "perf_pairs.py"
)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)
verdict = perf_pairs.verdict
relative = perf_pairs.relative

#: Ten parent runs of a throughput: median 100, quartiles 97.75 / 102.25.
PARENT = [96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0]


class TestVerdict:
    def test_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parents_iqr(self):
        result = verdict(PARENT, [p + 50 for p in PARENT], "higher")
        assert result["verdict"] == "gain"
        assert (result["wins"], result["losses"], result["pairs"]) == (10, 0, 10)
        assert result["parent_iqr"] == pytest.approx(4.5)
        assert result["gap"] == pytest.approx(50.0)
        assert result["ratio"] == pytest.approx(1.5)

    def test_nine_wins_are_enough_eight_are_not(self):
        change = [p + 50 for p in PARENT]
        assert verdict(PARENT, [0.0] + change[1:], "higher")["verdict"] == "gain"
        assert verdict(PARENT, [0.0, 0.0] + change[2:], "higher")["verdict"] == "unresolved"

    def test_a_tie_counts_for_neither_side(self):
        change = [p + 50 for p in PARENT]
        result = verdict(PARENT, PARENT[:2] + change[2:], "higher")
        assert result["winners"][:3] == ["tie", "tie", "change"]
        assert (result["wins"], result["losses"]) == (8, 0)
        assert result["verdict"] == "unresolved"  # 8 of all 10 pairs run

    def test_winning_every_pair_inside_the_parents_spread_is_no_gain(self):
        result = verdict(PARENT, [p + 1 for p in PARENT], "higher")
        assert result["wins"] == 10 and result["gap"] < result["parent_iqr"]
        assert result["verdict"] == "unresolved"

    def test_lower_is_better_flips_the_direction(self):
        change = [p - 50 for p in PARENT]
        assert verdict(PARENT, change, "lower")["verdict"] == "gain"
        assert verdict(PARENT, change, "higher")["verdict"] == "loss"
        assert verdict(PARENT, change, "lower")["gap"] == pytest.approx(50.0)

    def test_a_sim_clock_metric_that_repeats_exactly(self):
        # zero spread on both sides: any strict move is beyond the IQR
        assert verdict([5343.6] * 10, [3943.6] * 10, "lower")["verdict"] == "gain"
        same = verdict([20.2216] * 10, [20.2216] * 10, "lower")
        assert same["verdict"] == "equal" and same["winners"] == ["tie"] * 10

    def test_a_single_pair_and_bad_input(self):
        assert verdict([100.0], [200.0], "higher")["verdict"] == "gain"
        with pytest.raises(ValueError):
            verdict([1.0, 2.0], [1.0], "higher")
        with pytest.raises(ValueError):
            verdict([], [], "higher")


def _reports(throughputs):
    """Canned ``perf/run.py`` workload reports, one per pair."""
    return [{"metrics": {"ops_per_host_s": {"median": value}}} for value in throughputs]


class TestRelativeTo:
    #: nf_mix per pair: the host drifts by a tenth over the session, and
    #: both checkouts drift with it.
    BASE = [9000.0 + 100.0 * pair for pair in range(10)]

    def test_the_ratio_is_taken_pair_by_pair(self):
        watched = [0.47 * b for b in self.BASE]
        ratios = relative(_reports(watched), _reports(self.BASE))
        assert ratios == pytest.approx([0.47] * 10)

    def test_a_smaller_tax_is_a_gain_through_the_same_verdict(self):
        parent = relative(_reports([0.47 * b for b in self.BASE]), _reports(self.BASE))
        change = relative(_reports([0.56 * b for b in self.BASE]), _reports(self.BASE))
        result = verdict(parent, change, "higher")
        assert result["verdict"] == "gain" and result["wins"] == 10
        assert result["parent"]["median"] == pytest.approx(0.47)
        assert result["change"]["median"] == pytest.approx(0.56)
        assert result["gap"] == pytest.approx(0.09)

    def test_a_faster_base_workload_is_not_a_smaller_tax(self):
        # the change speeds nf_mix and nf_mix_obs up alike: the
        # throughput row gains, the ratio row must not
        parent = relative(_reports([0.47 * b for b in self.BASE]), _reports(self.BASE))
        faster = [1.2 * b for b in self.BASE]
        change = relative(_reports([0.47 * b for b in faster]), _reports(faster))
        assert verdict(parent, change, "higher")["verdict"] != "gain"

"""Slowdown trackers: thresholds, verdicts, error bands."""

import pytest

from repro.core.tolerance import SlowdownTracker, ToleranceVerdict, tolerance_bid
from repro.errors import ControllerError


def tracker(tol=0.10, err=0.01):
    return SlowdownTracker(tolerated_slowdown=tol, measurement_error=err)


class TestConstruction:
    def test_bad_slowdown_rejected(self):
        with pytest.raises(ControllerError):
            SlowdownTracker(tolerated_slowdown=1.0, measurement_error=0.01)

    def test_bad_error_rejected(self):
        with pytest.raises(ControllerError):
            SlowdownTracker(tolerated_slowdown=0.1, measurement_error=0.6)


class TestPhaseMax:
    def test_observe_tracks_max(self):
        t = tracker()
        t.observe(100.0)
        t.observe(80.0)
        assert t.phase_max == 100.0

    def test_reset_reseeds(self):
        t = tracker()
        t.observe(100.0)
        t.reset(40.0)
        assert t.phase_max == 40.0

    def test_negative_rejected(self):
        with pytest.raises(ControllerError):
            tracker().observe(-1.0)


class TestVerdicts:
    def test_within_when_nothing_observed(self):
        assert tracker().judge(50.0) is ToleranceVerdict.WITHIN

    def test_clearly_within(self):
        t = tracker(tol=0.10)
        t.observe(100.0)
        assert t.judge(98.0) is ToleranceVerdict.WITHIN

    def test_clearly_below(self):
        t = tracker(tol=0.10)
        t.observe(100.0)
        assert t.judge(80.0) is ToleranceVerdict.BELOW

    def test_boundary_holds(self):
        t = tracker(tol=0.10, err=0.01)
        t.observe(100.0)
        assert t.judge(90.0) is ToleranceVerdict.AT_BOUNDARY

    def test_threshold_value(self):
        t = tracker(tol=0.10)
        t.observe(200.0)
        assert t.threshold == pytest.approx(180.0)

    def test_band_edges(self):
        t = tracker(tol=0.10, err=0.02)
        t.observe(100.0)
        # WITHIN above threshold + half band; BELOW under threshold - band.
        assert t.judge(91.1) is ToleranceVerdict.WITHIN
        assert t.judge(90.5) is ToleranceVerdict.AT_BOUNDARY
        assert t.judge(87.9) is ToleranceVerdict.BELOW


class TestZeroToleranceSemantics:
    def test_effective_slowdown_floored_at_error(self):
        t = tracker(tol=0.0, err=0.01)
        assert t.effective_slowdown == pytest.approx(0.01)

    def test_noise_level_values_still_within(self):
        # The 0 %-tolerance savings of the paper: noise-sized drops are
        # indistinguishable from no drop, so the knob keeps moving.
        t = tracker(tol=0.0, err=0.01)
        t.observe(100.0)
        assert t.judge(99.6) is ToleranceVerdict.WITHIN

    def test_real_drops_still_caught(self):
        t = tracker(tol=0.0, err=0.01)
        t.observe(100.0)
        assert t.judge(97.0) is ToleranceVerdict.BELOW

    def test_large_tolerance_unaffected_by_floor(self):
        t = tracker(tol=0.20, err=0.01)
        assert t.effective_slowdown == pytest.approx(0.20)


class TestToleranceBid:
    """One rule for the budget coordinator's and the hetero node's bids."""

    def test_throttled_bids_two_steps_above_its_limit(self):
        assert tolerance_bid(ToleranceVerdict.BELOW, 80.0, 90.0, 5.0, 65.0) == 100.0

    def test_within_offers_a_step_back_down_to_its_floor(self):
        assert tolerance_bid(ToleranceVerdict.WITHIN, 80.0, 90.0, 5.0, 65.0) == 75.0
        assert tolerance_bid(ToleranceVerdict.WITHIN, 68.0, 90.0, 5.0, 65.0) == 65.0

    def test_at_the_boundary_bids_its_draw(self):
        assert tolerance_bid(ToleranceVerdict.AT_BOUNDARY, 80.0, 90.0, 5.0, 65.0) == 80.0

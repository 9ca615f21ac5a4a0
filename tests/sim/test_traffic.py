"""Unit tests for traffic patterns."""

import pytest

from repro.sim.traffic import (
    BidirectionalTraffic,
    ConstantBitrateTraffic,
    SaturatedTraffic,
)


class TestSaturated:
    def test_is_one_way(self):
        assert SaturatedTraffic().burst_packets is None

    def test_no_gaps(self):
        assert SaturatedTraffic().gap_s == 0.0

    def test_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            SaturatedTraffic(payload_bytes=0)


class TestBidirectional:
    def test_roles_switch_every_burst(self):
        traffic = BidirectionalTraffic(burst_packets=4)
        directions = [traffic.direction_for_packet(i) for i in range(12)]
        assert directions == [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]

    def test_equal_share_over_long_run(self):
        traffic = BidirectionalTraffic(burst_packets=7)
        directions = [traffic.direction_for_packet(i) for i in range(7 * 200)]
        assert sum(directions) == len(directions) // 2

    def test_no_gaps(self):
        assert BidirectionalTraffic().gap_s == 0.0

    def test_rejects_bad_burst(self):
        with pytest.raises(ValueError):
            BidirectionalTraffic(burst_packets=0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            BidirectionalTraffic().direction_for_packet(-1)


class TestConstantBitrate:
    def test_gap_produces_offered_rate(self):
        traffic = ConstantBitrateTraffic(
            payload_bytes=30, offered_bps=10_000, link_bps=1_000_000
        )
        payload_bits = 240
        period = payload_bits / 1_000_000 + traffic.gap_s
        assert payload_bits / period == pytest.approx(10_000, rel=1e-9)

    def test_saturated_cbr_has_no_gap(self):
        traffic = ConstantBitrateTraffic(
            payload_bytes=30, offered_bps=1_000_000, link_bps=1_000_000
        )
        assert traffic.gap_s == 0.0

    def test_is_one_way(self):
        assert ConstantBitrateTraffic().burst_packets is None

    def test_rejects_offered_above_link(self):
        with pytest.raises(ValueError):
            ConstantBitrateTraffic(offered_bps=2e6, link_bps=1e6)

"""Unit tests for in-band interference injection and controller fallback."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.braidio import BraidioRadio
from repro.core.modes import LinkMode
from repro.core.regimes import LinkMap
from repro.hardware.battery import Battery
from repro.phy.modulation import bit_error_rate, packet_error_rate
from repro.sim.interference import BurstyInterferer, InterferedLink
from repro.sim.policies import BraidioPolicy
from repro.sim.session import CommunicationSession
from repro.sim.simulator import Simulator


def _interferer(seed=0, **kwargs):
    return BurstyInterferer(np.random.default_rng(seed), **kwargs)


class TestBurstyInterferer:
    def test_starts_quiet(self):
        assert not _interferer().is_active(0.0)

    def test_duty_cycle_matches_dwell_ratio(self):
        interferer = _interferer(seed=3, mean_on_s=1.0, mean_off_s=3.0)
        duty = interferer.duty_cycle(2000.0)
        assert duty == pytest.approx(0.25, abs=0.05)

    def test_deterministic_per_seed(self):
        a, b = _interferer(seed=5), _interferer(seed=5)
        for t in (0.1, 1.0, 7.3, 42.0):
            assert a.is_active(t) == b.is_active(t)

    def test_penalty_zero_when_quiet(self):
        interferer = _interferer()
        assert interferer.snr_penalty_at(0.0) == 0.0

    def test_penalty_applied_during_burst(self):
        interferer = _interferer(seed=1, mean_on_s=5.0, mean_off_s=0.5)
        burst_times = [t for t in np.linspace(0, 100, 500) if interferer.is_active(t)]
        assert burst_times
        assert interferer.snr_penalty_at(burst_times[0]) == interferer.penalty_db

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            BurstyInterferer(rng, mean_on_s=0.0)
        with pytest.raises(ValueError):
            BurstyInterferer(rng, snr_penalty_db=-1.0)
        with pytest.raises(ValueError):
            _interferer().is_active(-1.0)

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("mean_on_s", float("nan")),
            ("mean_on_s", float("inf")),
            ("mean_off_s", float("nan")),
            ("mean_off_s", float("inf")),
            ("snr_penalty_db", float("nan")),
            ("snr_penalty_db", float("inf")),
            ("horizon_s", float("nan")),
            # An infinite horizon is the hang case: see the test below.
        ],
    )
    def test_non_finite_parameters_rejected_by_name(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            _interferer(**{field: bad})

    def test_infinite_horizon_raises_instead_of_sampling_forever(self):
        # Pre-sampling an infinite horizon never ends, so the check runs
        # in a child process under a deadline: a regression fails here
        # instead of hanging the suite.
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import math, numpy as np\n"
            "from repro.sim.interference import BurstyInterferer\n"
            "BurstyInterferer(np.random.default_rng(0), horizon_s=math.inf)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "horizon_s must be finite" in proc.stderr

    def test_is_active_matches_searchsorted_reference(self):
        interferer = _interferer(seed=2, mean_on_s=0.05, mean_off_s=0.15, horizon_s=4.0)
        edges = np.asarray(interferer._edges)
        states = np.asarray(interferer._state_on)
        times = {0.0, 5.0, 100.0}
        for edge in edges:
            times.update(
                (float(edge), float(np.nextafter(edge, np.inf)), float(np.nextafter(edge, 0.0)))
            )
        for t in sorted(times):
            index = int(np.searchsorted(edges, t, side="right")) - 1
            index = min(index, len(states) - 1)
            assert interferer.is_active(t) == bool(states[index]), t


class TestInterferedLink:
    def _link(self, seed=0, penalty=30.0):
        rng = np.random.default_rng(seed)
        interferer = BurstyInterferer(
            rng, mean_on_s=5.0, mean_off_s=5.0, snr_penalty_db=penalty
        )
        return InterferedLink(LinkMap(), 0.5, rng, interferer)

    def _burst_time(self, link):
        for t in np.linspace(0.0, 200.0, 4000):
            if link.interferer.is_active(float(t)):
                return float(t)
        raise AssertionError("no burst found")

    def test_envelope_modes_penalized_during_burst(self):
        link = self._link()
        t = self._burst_time(link)
        clean = SimulatedSnr = link.snr_db(LinkMode.BACKSCATTER, 1_000_000, 0.0)
        assert link.snr_db(LinkMode.BACKSCATTER, 1_000_000, t) == pytest.approx(
            clean - 30.0
        )

    def test_active_mode_immune(self):
        link = self._link()
        t = self._burst_time(link)
        assert link.snr_db(LinkMode.ACTIVE, 1_000_000, t) == pytest.approx(
            link.snr_db(LinkMode.ACTIVE, 1_000_000, 0.0)
        )

    def test_controller_falls_back_during_bursts(self):
        sim = Simulator(seed=9)
        interferer = BurstyInterferer(
            sim.rng, mean_on_s=2.0, mean_off_s=2.0, snr_penalty_db=40.0
        )
        link = InterferedLink(LinkMap(), 0.5, sim.rng, interferer)
        a = BraidioRadio.for_device("Apple Watch")
        a.battery = Battery(5e-3)
        b = BraidioRadio.for_device("iPhone 6S")
        b.battery = Battery(5e-2)
        policy = BraidioPolicy()
        session = CommunicationSession(
            sim, a, b, link, policy, max_time_s=10.0, max_packets=10**9
        )
        metrics = session.run()
        # Bursts crush the backscatter mode; the failure-driven fallback
        # must have fired and the session must survive on the active link.
        assert policy.controller.fallbacks >= 1
        assert metrics.mode_fractions().get(LinkMode.ACTIVE, 0.0) > 0.0
        assert metrics.packets_delivered > 0


def _uncached_per(link_map, mode, bitrate_bps, bits, distance_m, offset_db, burst_db):
    """The full budget chain, from scratch, for one packet."""
    budget = link_map.budget(mode, bitrate_bps)
    snr = budget.snr_db(distance_m, bitrate_bps)
    if offset_db != 0.0:
        snr += offset_db
    if mode is not LinkMode.ACTIVE:
        snr -= burst_db
    return packet_error_rate(bit_error_rate(budget.modulation, snr), bits)


class TestInterferedLinkMemo:
    """The burst-keyed PER memo against an uncached computation."""

    SHAPES = (
        (LinkMode.BACKSCATTER, 1_000_000),
        (LinkMode.PASSIVE, 1_000_000),
        (LinkMode.ACTIVE, 1_000_000),
    )
    BITS = 328

    def test_outcomes_and_pers_match_uncached_reference(self):
        penalty_db = 3.0
        interferer = BurstyInterferer(
            np.random.default_rng(2),
            mean_on_s=0.05,
            mean_off_s=0.15,
            snr_penalty_db=penalty_db,
            horizon_s=4.0,
        )
        link = InterferedLink(LinkMap(), 0.7, np.random.default_rng(11), interferer)
        reference_rng = np.random.default_rng(11)
        link_map = LinkMap()
        edges = np.asarray(interferer._edges)
        states = np.asarray(interferer._state_on)
        # Every burst edge, and the instants either side of it.
        times = sorted(
            {
                float(t)
                for edge in edges[1:]
                for t in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf))
            }
        )
        distance_m, offset_db = 0.7, 0.0
        bursts_seen = set()
        for step, t in enumerate(times):
            if step == len(times) // 4:
                link.set_distance(0.8)
                assert link._per_cache == {}
                distance_m = 0.8
            elif step == len(times) // 2:
                link.snr_offset_db = -3.0  # a noise surge
                assert link._per_cache == {}
                offset_db = -3.0
            elif step == 3 * len(times) // 4:
                link.snr_offset_db = 0.0
                assert link._per_cache == {}
                offset_db = 0.0
            index = min(int(np.searchsorted(edges, t, side="right")) - 1, len(states) - 1)
            burst_db = penalty_db if states[index] else 0.0
            bursts_seen.add(burst_db)
            for mode, bitrate in self.SHAPES:
                per = _uncached_per(
                    link_map, mode, bitrate, self.BITS, distance_m, offset_db, burst_db
                )
                assert link.expected_packet_success(mode, bitrate, self.BITS, t) == 1.0 - per
                expected = bool(reference_rng.random() >= per)
                assert link.packet_success(mode, bitrate, self.BITS, t) == expected
        assert bursts_seen == {0.0, penalty_db}
        # The memo is keyed by burst state; the active mode ignores it.
        assert (LinkMode.BACKSCATTER, 1_000_000, self.BITS, True) in link._per_cache
        assert (LinkMode.BACKSCATTER, 1_000_000, self.BITS, False) in link._per_cache
        assert (LinkMode.ACTIVE, 1_000_000, self.BITS, True) not in link._per_cache

    def test_fading_bypasses_the_memo(self):
        from repro.phy.fading import BlockFadingProcess, RayleighFading

        rng = np.random.default_rng(7)
        fading = BlockFadingProcess(RayleighFading(), coherence_s=0.01, rng=rng)
        link = InterferedLink(LinkMap(), 0.7, rng, _interferer(seed=1), fading=fading)
        for t in (0.0, 0.02, 0.04):
            link.packet_success(LinkMode.BACKSCATTER, 1_000_000, self.BITS, t)
        assert link._per_cache == {}

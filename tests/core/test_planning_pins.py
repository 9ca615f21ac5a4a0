"""Pins of what the planning layer computes, byte for byte.

The gain runners' metrics are pinned by ``tests/runtime/test_campaign_pins.py``;
these pins cover the planning entry points no other pin reaches, over
every ordered pair of the Fig 1 catalog (diagonal included) at one
distance per regime, with each end point's full nameplate energy in
joules:

* ``plan_transfer`` on fresh radios: every ``TransferPlan`` field, the
  plan's solution, regime, bitrates and schedule, and the solution's
  mode fractions;
* ``braidio_bidirectional_joint``, ``braidio_unidirectional_harvesting``
  and ``lifetime_at_demand``;
* ``solve_max_bits`` and ``best_single_mode`` over the distance's
  available operating points;
* ``DynamicOffloadController.start_from_reports`` on the reports of a
  seeded ``LinkProber`` at each distance.

Each pin is the SHA-256 of the results' float reprs, one line per input.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.core.braidio import BraidioRadio, plan_transfer
from repro.core.controller import DynamicOffloadController
from repro.core.offload import best_single_mode, solve_max_bits
from repro.core.regimes import LinkMap
from repro.hardware.battery import JOULES_PER_WATT_HOUR
from repro.hardware.devices import DEVICES
from repro.sim.estimation import LinkProber
from repro.sim.lifetime import (
    braidio_bidirectional_joint,
    braidio_unidirectional_harvesting,
    lifetime_at_demand,
)
from repro.sim.link import SimulatedLink

#: One distance in each of regimes A, B and C.
DISTANCES_M = (0.3, 3.0, 6.0)

#: Offered load for ``lifetime_at_demand``; below every regime's air rate.
DEMAND_BPS = 1_000.0


def _inputs():
    """(distance, tx spec, rx spec, tx joules, rx joules) per input."""
    for distance in DISTANCES_M:
        for tx, rx in itertools.product(DEVICES, repeat=2):
            yield (
                distance,
                tx,
                rx,
                tx.battery_wh * JOULES_PER_WATT_HOUR,
                rx.battery_wh * JOULES_PER_WATT_HOUR,
            )


def _fractions_text(fractions) -> str:
    return repr(sorted((mode.value, share) for mode, share in fractions.items()))


def _point_text(point) -> str:
    return repr((point.mode.value, point.bitrate_bps, point.tx_w, point.rx_w))


def _solution_text(solution) -> str:
    return " ".join(
        [
            "[" + ",".join(_point_text(p) for p in solution.points) + "]",
            repr(solution.fractions),
            repr(solution.proportional),
            repr(solution.energy_ratio),
            _fractions_text(solution.mode_fractions()),
        ]
    )


def _plan_text(plan) -> str:
    schedule = plan.schedule
    return " ".join(
        [
            _solution_text(plan.solution),
            plan.regime.name,
            repr(sorted((mode.value, rate) for mode, rate in plan.bitrates.items())),
            repr(schedule.period_packets),
            _fractions_text(schedule.target_fractions),
            repr([mode.value for mode in schedule.round_modes(0)]),
            repr([mode.value for mode in schedule.round_modes(1)]),
        ]
    )


def _lifetime_text(result) -> str:
    return " ".join(
        [
            repr(result.total_bits),
            repr(result.tx_energy_per_bit_j),
            repr(result.rx_energy_per_bit_j),
            _fractions_text(result.mode_fractions),
            result.limited_by,
        ]
    )


def plan_transfer_lines():
    link_map = LinkMap()
    for distance, tx, rx, _, _ in _inputs():
        transfer = plan_transfer(
            BraidioRadio.for_device(tx.name),
            BraidioRadio.for_device(rx.name),
            distance,
            link_map,
        )
        yield " ".join(
            [
                _plan_text(transfer.plan),
                repr(transfer.total_bits),
                repr(transfer.tx_power_w),
                repr(transfer.rx_power_w),
                repr(transfer.duration_s),
                _fractions_text(transfer.plan.solution.mode_fractions()),
            ]
        )


def bidirectional_joint_lines():
    link_map = LinkMap()
    for distance, _, _, e_a, e_b in _inputs():
        yield _lifetime_text(braidio_bidirectional_joint(e_a, e_b, distance, link_map))


def harvesting_lines():
    link_map = LinkMap()
    for distance, _, _, e_tx, e_rx in _inputs():
        yield _lifetime_text(
            braidio_unidirectional_harvesting(e_tx, e_rx, distance, link_map)
        )


def demand_lines():
    link_map = LinkMap()
    for distance, _, _, e_tx, e_rx in _inputs():
        result = lifetime_at_demand(e_tx, e_rx, DEMAND_BPS, distance, link_map)
        yield " ".join(
            [
                repr(result.lifetime_s),
                result.limited_by,
                repr(result.tx_power_w),
                repr(result.rx_power_w),
                repr(result.air_time_fraction),
            ]
        )


def max_bits_lines():
    link_map = LinkMap()
    for distance, _, _, e_tx, e_rx in _inputs():
        points = link_map.available_powers(distance)
        solution = solve_max_bits(points, e_tx, e_rx)
        yield _solution_text(solution) + " " + repr(solution.total_bits(e_tx, e_rx))


def best_single_mode_lines():
    link_map = LinkMap()
    for distance, _, _, e_tx, e_rx in _inputs():
        point, bits = best_single_mode(link_map.available_powers(distance), e_tx, e_rx)
        yield _point_text(point) + " " + repr(bits)


def start_from_reports_lines():
    reports = {}
    for index, distance in enumerate(DISTANCES_M):
        rng = np.random.default_rng(index)
        prober = LinkProber(link=SimulatedLink(LinkMap(), distance, rng), rng=rng)
        reports[distance] = prober.viable_reports()
        yield repr(
            [(r.mode.value, r.bitrate_bps, r.snr_db, r.ber) for r in reports[distance]]
        )
    for distance, _, _, e_tx, e_rx in _inputs():
        controller = DynamicOffloadController()
        yield _plan_text(controller.start_from_reports(reports[distance], e_tx, e_rx))


PINS = {
    plan_transfer_lines: (
        "4035cbbc93b5e3fc5905f651ed093d4d"
        "42dfa43364619102b183c29cbf284af8"
    ),
    bidirectional_joint_lines: (
        "a7f587c614d0aa1e8a20d58e11250c6e"
        "f7c788fbe1fc78394d2e88f562270b3a"
    ),
    harvesting_lines: (
        "39ef80b018cd8b7bca03ff99f7cc4288"
        "f20db601af8b90e65a181d407488e0d6"
    ),
    demand_lines: (
        "18c2189ea04df8d58cdcf31f687e26be"
        "52aa19124e81dca299a46ecc556e350d"
    ),
    max_bits_lines: (
        "04159ba2225a37a6fa4972be7ec06ff4"
        "29328cb90193c4f7f0afb91483b5103f"
    ),
    best_single_mode_lines: (
        "da1f45146475301890b026334d74550d"
        "ac450bf0bb5c14079d433b17e38c4fe1"
    ),
    start_from_reports_lines: (
        "0fd838515d0c8db35f383ee85c7169ee"
        "730725a44c9916a7d13d0a4a827fbb6a"
    ),
}


@pytest.mark.parametrize("lines", list(PINS), ids=[f.__name__ for f in PINS])
def test_planning_results_are_pinned(lines):
    text = "\n".join(lines())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINS[lines]

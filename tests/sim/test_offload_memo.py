"""The lifetime engine's Eq 1 memo on a ``LinkMap``.

``braidio_unidirectional`` and ``braidio_bidirectional`` share their Eq 1
solutions through ``LinkMap.offload_memo``, keyed by the solver's exact
inputs (operating points, E1, E2).  A memoized solution must equal a
fresh ``solve_offload`` of the same inputs in every field, cells that
solve the same program must share one solution, and the memo must stay
within its bound.
"""

import dataclasses

import pytest

from repro.core.offload import OffloadSolution, solve_offload
from repro.core.regimes import LinkMap
from repro.hardware.battery import JOULES_PER_WATT_HOUR as WH
from repro.hardware.devices import DEVICES
from repro.sim import lifetime
from repro.sim.lifetime import braidio_bidirectional, braidio_unidirectional

#: Battery pairs spanning the paper's asymmetry range, clamped corners
#: included.
_ENERGIES = [
    (d_tx.battery_wh * WH, d_rx.battery_wh * WH) for d_tx in DEVICES for d_rx in DEVICES
] + [(1e9, 1.0), (1.0, 1e9)]

_DISTANCES = [0.3, 1.0, 2.0, 3.5, 5.0]


def _assert_same_fields(memoized: OffloadSolution, fresh: OffloadSolution) -> None:
    for field in dataclasses.fields(OffloadSolution):
        assert getattr(memoized, field.name) == getattr(fresh, field.name), field.name


@pytest.mark.parametrize("distance_m", _DISTANCES)
def test_memoized_solutions_equal_fresh_solves(distance_m):
    link_map = LinkMap()
    points = link_map.available_powers(distance_m)
    for e1_j, e2_j in _ENERGIES:
        memoized = lifetime._solve_offload(link_map, points, e1_j, e2_j)
        _assert_same_fields(memoized, solve_offload(points, e1_j, e2_j))
        again = lifetime._solve_offload(
            link_map, link_map.available_powers(distance_m), e1_j, e2_j
        )
        assert again is memoized


def test_lifetimes_are_unchanged_by_the_memo():
    shared = LinkMap()
    for distance_m in _DISTANCES:
        for e1_j, e2_j in _ENERGIES[::7]:
            for solve in (braidio_unidirectional, braidio_bidirectional):
                memoized = solve(e1_j, e2_j, distance_m, shared)
                assert memoized == solve(e1_j, e2_j, distance_m, LinkMap())
                assert solve(e1_j, e2_j, distance_m, shared) == memoized


def test_one_way_and_bidirectional_cells_share_their_solves():
    link_map = LinkMap()
    a, b = 0.26 * WH, 11.1 * WH
    braidio_unidirectional(a, b, 0.3, link_map)
    assert len(link_map.offload_memo) == 1
    # (a, b) solves a -> b (the one-way cell's program) and b -> a.
    braidio_bidirectional(a, b, 0.3, link_map)
    assert len(link_map.offload_memo) == 2
    # (b, a) solves the same two programs.
    braidio_bidirectional(b, a, 0.3, link_map)
    braidio_unidirectional(b, a, 0.3, link_map)
    assert len(link_map.offload_memo) == 2


def test_failed_solves_are_not_memoized():
    link_map = LinkMap()
    with pytest.raises(ValueError, match="positive energy"):
        braidio_unidirectional(0.0, 1.0, 0.3, link_map)
    assert link_map.offload_memo == {}


def test_the_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(lifetime, "_OFFLOAD_MEMO_MAX", 4)
    link_map = LinkMap()
    points = link_map.available_powers(0.3)
    for e1_j, e2_j in _ENERGIES[:12]:
        memoized = lifetime._solve_offload(link_map, points, e1_j, e2_j)
        assert len(link_map.offload_memo) <= 4
        _assert_same_fields(memoized, solve_offload(points, e1_j, e2_j))

"""TdmaSchedule against copies of the slot builders it replaced.

The schedule apportions over numpy arrays, answers ``client_for_packet``
with one bisect and builds :class:`Slot` objects only on demand.  These
properties pin every observable (slots, the client of each packet, the
realized shares, the packet iterator) to the original dict-based
builder, including schedules reached through chains of ``without`` and
``with_client``, and pin the array split to the list-based split it
replaced on weights full of repeats and quota ties.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.tdma import TdmaSchedule


def _reference_slots(weights, round_packets):
    """The original builder, verbatim apart from returning pairs."""
    items = list(weights.items())
    total = sum(w for _, w in items)
    shares = {client: w / total for client, w in items}
    quotas = {c: share * round_packets for c, share in shares.items()}
    counts = {c: max(1, int(q)) for c, q in quotas.items()}
    while sum(counts.values()) > round_packets:
        richest = max(counts, key=lambda c: counts[c])
        counts[richest] -= 1
    leftover = round_packets - sum(counts.values())
    by_remainder = sorted(quotas, key=lambda c: quotas[c] - counts[c], reverse=True)
    for client in by_remainder[:leftover]:
        counts[client] += 1
    return list(counts.items())


def _reference_list_split(weights, round_packets):
    """The list-based largest-remainder split, verbatim apart from
    taking the weights as arguments."""
    total = sum(weights)
    quotas = [w / total * round_packets for w in weights]
    counts = [int(q) or 1 for q in quotas]
    for _ in range(sum(counts) - round_packets):
        counts[counts.index(max(counts))] -= 1
    leftover = round_packets - sum(counts)
    if leftover:
        remainders = [q - c for q, c in zip(quotas, counts)]
        ranked = sorted(
            range(len(counts)), key=remainders.__getitem__, reverse=True
        )
        for index in ranked[:leftover]:
            counts[index] += 1
    return counts


def _reference_client(slots, round_packets, index):
    """The original linear walk over the round's slots."""
    position = index % round_packets
    for client, packets in slots:
        if position < packets:
            return client
        position -= packets
    raise AssertionError("unreachable")


def _assert_matches_reference(schedule, weights, round_packets):
    slots = _reference_slots(weights, round_packets)
    assert schedule.round_packets == round_packets
    assert [(s.client, s.packets) for s in schedule.slots] == slots
    assert schedule.air_time_shares() == {c: n / round_packets for c, n in slots}
    indices = range(2 * round_packets + 3)
    expected = [_reference_client(slots, round_packets, i) for i in indices]
    assert [schedule.client_for_packet(i) for i in indices] == expected
    assert list(itertools.islice(schedule.packet_clients(), len(expected))) == expected


# Weights from a small set force quota ties (the tie order is part of the
# contract); arbitrary floats cover everything else.
_WEIGHT = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _schedules(draw, max_clients=40):
    n = draw(st.integers(1, max_clients))
    weights = {f"c{i}": draw(_WEIGHT) for i in range(n)}
    round_packets = draw(st.integers(n, 3 * n + 64))
    return weights, round_packets


@settings(max_examples=300, deadline=None)
@given(_schedules())
def test_fresh_schedule_matches_reference(case):
    weights, round_packets = case
    _assert_matches_reference(TdmaSchedule(weights, round_packets), weights, round_packets)


@settings(max_examples=150, deadline=None)
@given(_schedules(max_clients=25), st.data())
def test_without_and_with_client_chains_match_reference(case, data):
    weights, round_packets = case
    schedule = TdmaSchedule(weights, round_packets)
    fresh = itertools.count()
    for _ in range(data.draw(st.integers(1, 6))):
        if len(weights) > 1 and data.draw(st.booleans()):
            names = data.draw(
                st.lists(
                    st.sampled_from(sorted(weights)),
                    min_size=1,
                    max_size=len(weights) - 1,
                    unique=True,
                )
            )
            schedule = schedule.without(names)
            weights = {c: w for c, w in weights.items() if c not in names}
        else:
            name = f"new{next(fresh)}"
            weight = data.draw(_WEIGHT)
            schedule = schedule.with_client(name, weight)
            weights = {**weights, name: weight}
            round_packets = max(round_packets, len(weights))
        _assert_matches_reference(schedule, weights, round_packets)


# Few distinct values, many clients: most quotas tie, and the richest
# counts tie when a round is trimmed.
_REPEATED_WEIGHTS = st.lists(
    st.sampled_from([0.1, 0.5, 1.0, 1.0, 2.0, 3.0, 7.0]), min_size=1, max_size=150
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_REPEATED_WEIGHTS, st.lists(_WEIGHT, min_size=1, max_size=150)),
    st.data(),
)
def test_array_split_matches_the_list_split(weights, data):
    n = len(weights)
    round_packets = data.draw(st.integers(n, 3 * n + 64))
    schedule = TdmaSchedule([(f"c{i}", w) for i, w in enumerate(weights)], round_packets)
    assert [slot.packets for slot in schedule.slots] == _reference_list_split(
        weights, round_packets
    )


def test_total_is_summed_left_to_right():
    # numpy's pairwise sum of these weights differs from Python's
    # left-to-right sum in the last bit, which moves one slot of the
    # 34-packet round.
    weights = [0.3, 0.2, 0.8999999999999999, 0.6000000000000001, 0.1, 0.3]
    weights += [0.8999999999999999, 0.8999999999999999, 0.6000000000000001, 0.3]
    weights += [0.3, 0.8999999999999999, 0.8999999999999999, 0.5, 0.3, 0.3, 0.9]
    assert sum(weights) != float(np.sum(weights))
    schedule = TdmaSchedule([(f"c{i}", w) for i, w in enumerate(weights)], 34)
    assert [slot.packets for slot in schedule.slots] == _reference_list_split(weights, 34)


class TestTdmaReclaim:
    def test_without_drops_named_clients(self):
        schedule = TdmaSchedule({"a": 1.0, "b": 3.0}, round_packets=32)
        reduced = schedule.without(["b"])
        assert set(reduced.weights) == {"a"}
        assert reduced.air_time_shares()["a"] == pytest.approx(1.0)

    def test_without_everyone_rejected(self):
        schedule = TdmaSchedule({"a": 1.0, "b": 1.0})
        with pytest.raises(ValueError):
            schedule.without(["a", "b"])

    def test_without_unknown_is_noop(self):
        schedule = TdmaSchedule({"a": 1.0, "b": 1.0}, round_packets=16)
        assert set(schedule.without(["zz"]).weights) == {"a", "b"}

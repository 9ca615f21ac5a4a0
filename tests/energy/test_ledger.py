"""Unit tests for the EnergyLedger subsystem (accounts, categories,
snapshots, pooled counters and the conservation helper)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import (
    CATEGORIES,
    N_CATEGORIES,
    BatteryEmptyError,
    ChargeCategory,
    EnergyLedger,
    LedgerAccount,
    conservation_residual_j,
)
from repro.hardware.battery import Battery


def _charge(account, category, joules):
    """Drain the backing battery, then attribute and meter the joules, as
    the session loops book a packet side that survives its drain."""
    account.battery.drain_energy(joules)
    account.book(category, joules, joules)


class TestChargeCategory:
    def test_values_are_dense_indices(self):
        assert sorted(int(c) for c in ChargeCategory) == list(range(N_CATEGORIES))

    def test_labels(self):
        assert ChargeCategory.TX_AIR.label == "tx_air"
        assert ChargeCategory.HARVEST_CREDIT.label == "harvest_credit"

    def test_categories_tuple_in_index_order(self):
        assert CATEGORIES == tuple(ChargeCategory)


class TestAccounts:
    def test_for_pair_layout(self):
        ledger = EnergyLedger.for_pair(label_a="tag", label_b="reader")
        assert [a.name for a in ledger] == ["a", "b"]
        assert ledger.account("a").label == "tag"
        assert "b" in ledger
        assert ledger.account("b").label == "reader"

    def test_duplicate_account_rejected(self):
        ledger = EnergyLedger.for_pair()
        with pytest.raises(ValueError):
            ledger.open_account("a")

    def test_unknown_account_raises(self):
        with pytest.raises(KeyError):
            EnergyLedger().account("missing")

    def test_bind_battery_once(self):
        account = LedgerAccount("a")
        battery = Battery(1.0)
        account.bind_battery(battery)
        account.bind_battery(battery)  # same object is fine
        with pytest.raises(RuntimeError):
            account.bind_battery(Battery(1.0))

    def test_remaining_j_reads_the_bound_battery(self):
        account = LedgerAccount("a")
        assert account.remaining_j is None
        account.bind_battery(Battery(1.0))
        assert account.remaining_j == 3600.0


class TestPrimitives:
    def test_book_never_drains(self):
        battery = Battery(1.0)
        account = LedgerAccount("a", battery)
        account.book(ChargeCategory.TX_AIR, 100.0, 100.0)
        assert battery.remaining_j == 3600.0

    def test_category_and_metered_amounts_are_independent(self):
        account = LedgerAccount("a")
        account.book(ChargeCategory.TX_AIR, 2.0, 3.0)
        assert account.category_j(ChargeCategory.TX_AIR) == 2.0
        assert account.metered_j == 3.0

    def test_mode_switch_booking_is_not_metered(self):
        # Switch energy drains batteries but has never counted toward
        # the per-device session totals: the loops book it unmetered.
        account = LedgerAccount("a")
        account.book(ChargeCategory.MODE_SWITCH, 1.0, 0.0)
        assert account.category_j(ChargeCategory.MODE_SWITCH) == 1.0
        assert account.metered_j == 0.0

    def test_attributed_subtracts_harvest_credit(self):
        account = LedgerAccount("a")
        account.book(ChargeCategory.TX_AIR, 5.0, 0.0, credit_j=2.0)
        assert account.attributed_j == pytest.approx(3.0)


#: The categories a packet's or idle gap's air time can be booked to.
_AIR_CATEGORIES = (
    ChargeCategory.TX_AIR,
    ChargeCategory.RX_AIR,
    ChargeCategory.CARRIER,
    ChargeCategory.IDLE,
    ChargeCategory.RETRANSMIT,
)
#: The categories booked with no metered total: mode switches and faults.
_UNMETERED_CATEGORIES = (ChargeCategory.MODE_SWITCH, ChargeCategory.FAULT)
_JOULES = st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(1e-12, 10.0))

_ACK = int(ChargeCategory.ACK)
_HARVEST_CREDIT = int(ChargeCategory.HARVEST_CREDIT)


class _Reference:
    """One account's slots and metered total as the session loops added
    to them before ``book``: a packet side added its category joules,
    then its harvest credit and its ACK joules only when non-zero, then
    its metered total; a mode switch or a fault added its category
    joules alone."""

    def __init__(self, name="a"):
        self.name = name
        self.slots = [0.0] * N_CATEGORIES
        self.metered_j = 0.0

    def packet_side(self, category, joules, metered_j, ack_j=0.0, credit_j=0.0):
        self.slots[category] += joules
        if credit_j != 0.0:
            self.slots[_HARVEST_CREDIT] += credit_j
        if ack_j != 0.0:
            self.slots[_ACK] += ack_j
        self.metered_j += metered_j

    def unmetered(self, category, joules):
        self.slots[category] += joules

    def comparable_state(self):
        return (self.name, self.metered_j, tuple(self.slots))


_PACKET_SIDES = st.tuples(
    st.just("packet"), st.sampled_from(_AIR_CATEGORIES), _JOULES, _JOULES, _JOULES, _JOULES
)
_UNMETERED_SIDES = st.tuples(
    st.just("unmetered"), st.sampled_from(_UNMETERED_CATEGORIES), _JOULES
)


class TestBook:
    """``book`` against the additions the session loops made before it."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(_PACKET_SIDES, _UNMETERED_SIDES), max_size=40))
    def test_book_equals_the_reference_additions(self, sides):
        booked, reference = LedgerAccount("a"), _Reference()
        for side in sides:
            if side[0] == "packet":
                _, category, joules, metered_j, ack_j, credit_j = side
                booked.book(category, joules, metered_j, ack_j, credit_j)
                reference.packet_side(category, joules, metered_j, ack_j, credit_j)
            else:
                _, category, joules = side
                booked.book(category, joules, 0.0)
                reference.unmetered(category, joules)
        # repr tells -0.0 from 0.0 and compares every float exactly.
        assert repr(booked.comparable_state()) == repr(reference.comparable_state())

    def test_defaults_book_no_ack_and_no_credit(self):
        account = LedgerAccount("a")
        account.book(ChargeCategory.IDLE, 2.0, 2.0)
        assert account.category_j(ChargeCategory.IDLE) == 2.0
        assert account.category_j(ChargeCategory.ACK) == 0.0
        assert account.category_j(ChargeCategory.HARVEST_CREDIT) == 0.0
        assert account.metered_j == 2.0

    @pytest.mark.parametrize(
        "tx_j,rx_j",
        [(0.5, 0.25), (3.0, 0.25), (0.5, 3.0), (3.0, 3.0)],
        ids=["both-drain", "tx-dies", "rx-dies", "both-over"],
    )
    def test_fatal_packet_matches_the_old_sequence(self, tx_j, rx_j):
        """Both sides are booked before either drains, the tx side drains
        first, and an empty battery leaves the same partial drain."""
        ledger = EnergyLedger.for_pair(Battery(1.0 / 3600), Battery(2.0 / 3600))
        tx_account, rx_account = ledger.account("a"), ledger.account("b")

        # The reference: each side's additions, then the tx battery
        # drained before the rx one, the first empty one left at zero.
        ref_tx, ref_rx = _Reference("a"), _Reference("b")
        ref_tx.packet_side(ChargeCategory.TX_AIR, tx_j, tx_j + 0.1, 0.1)
        ref_rx.packet_side(ChargeCategory.CARRIER, rx_j, rx_j + 0.2, 0.2)
        ref_remaining = [tx_account.remaining_j, rx_account.remaining_j]
        for index, joules in enumerate((tx_j + 0.1, rx_j + 0.2)):
            if joules > ref_remaining[index]:
                ref_remaining[index] = 0.0
                break
            ref_remaining[index] -= joules

        tx_account.book(ChargeCategory.TX_AIR, tx_j, tx_j + 0.1, 0.1)
        rx_account.book(ChargeCategory.CARRIER, rx_j, rx_j + 0.2, 0.2)
        try:
            tx_account.battery.drain_energy(tx_j + 0.1)
            rx_account.battery.drain_energy(rx_j + 0.2)
            died = False
        except BatteryEmptyError:
            died = True

        assert died == (tx_j > 0.9 or rx_j > 1.8)
        assert ledger.comparable_state() == (
            (ref_tx.comparable_state(), ref_rx.comparable_state()),
            0.0,
            0.0,
        )
        assert [tx_account.remaining_j, rx_account.remaining_j] == ref_remaining


class TestPools:
    def test_pooled_counters(self):
        ledger = EnergyLedger.for_pair()
        ledger.pool_switch(1.0)
        ledger.pool_switch(0.5)
        ledger.pool_idle(2.0)
        assert ledger.switch_energy_j == 1.5
        assert ledger.idle_energy_j == 2.0

    def test_category_total_across_accounts(self):
        ledger = EnergyLedger.for_pair()
        ledger.account("a").book(ChargeCategory.IDLE, 1.0, 1.0)
        ledger.account("b").book(ChargeCategory.IDLE, 2.0, 2.0)
        assert ledger.category_total_j(ChargeCategory.IDLE) == pytest.approx(3.0)


class TestSnapshots:
    def _ledger(self):
        ledger = EnergyLedger.for_pair(Battery(1.0), label_a="tag")
        _charge(ledger.account("a"), ChargeCategory.TX_AIR, 10.0)
        ledger.account("b").book(ChargeCategory.CARRIER, 4.0, 4.0)
        ledger.pool_switch(0.5)
        return ledger

    def test_snapshot_is_frozen_copy(self):
        ledger = self._ledger()
        snap = ledger.snapshot()
        _charge(ledger.account("a"), ChargeCategory.TX_AIR, 10.0)
        assert snap.account("a").category_j(ChargeCategory.TX_AIR) == 10.0
        assert snap.account("a").metered_j == 10.0
        assert snap.switch_pool_j == 0.5

    def test_snapshot_battery_fields(self):
        snap = self._ledger().snapshot()
        assert snap.account("a").remaining_j == pytest.approx(3590.0)
        assert snap.account("a").capacity_j == pytest.approx(3600.0)
        assert snap.account("b").remaining_j is None
        assert snap.account("b").capacity_j is None

    def test_snapshot_unknown_account(self):
        with pytest.raises(KeyError):
            self._ledger().snapshot().account("c")

    def test_category_totals(self):
        totals = self._ledger().snapshot().category_totals()
        assert totals["tx_air"] == 10.0
        assert totals["carrier"] == 4.0
        assert totals["idle"] == 0.0

    def test_to_dict_round_trips_to_json(self):
        import json

        payload = json.dumps(self._ledger().snapshot().to_dict())
        decoded = json.loads(payload)
        assert decoded["switch_pool_j"] == 0.5
        assert decoded["accounts"][0]["label"] == "tag"

    def test_format_table(self):
        text = self._ledger().snapshot().format_table()
        assert "tx_air" in text
        assert "tag (a)" in text
        assert "net attributed" in text
        assert "metered total" in text
        assert "pooled: mode_switch" in text


class TestConservationHelper:
    def test_metering_only_account_has_no_residual(self):
        assert conservation_residual_j(LedgerAccount("a"), 0.0) is None

    def test_charge_based_account_balances(self):
        account = LedgerAccount("a", Battery(1.0))
        _charge(account, ChargeCategory.TX_AIR, 10.0)
        _charge(account, ChargeCategory.ACK, 2.5)
        assert conservation_residual_j(account, 3600.0) == pytest.approx(0.0)

    def test_unbacked_attribution_shows_up(self):
        account = LedgerAccount("a", Battery(1.0))
        account.book(ChargeCategory.TX_AIR, 10.0, 10.0)  # attributed, not drained
        assert conservation_residual_j(account, 3600.0) == pytest.approx(-10.0)


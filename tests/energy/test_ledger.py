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
    merge_category_totals,
)
from repro.hardware.battery import Battery


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
        assert [a.name for a in ledger.accounts()] == ["a", "b"]
        assert ledger.account("a").label == "tag"
        assert "b" in ledger
        assert ledger["b"].label == "reader"

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

    def test_budget_requires_battery(self):
        account = LedgerAccount("a")
        with pytest.raises(RuntimeError):
            account.budget()
        account.bind_battery(Battery(1.0))
        budget = account.budget()
        assert budget.available_j == 3600.0
        assert budget.source == "a"


class TestPrimitives:
    def test_drain_hits_battery(self):
        battery = Battery(1.0)
        account = LedgerAccount("a", battery)
        account.drain(100.0)
        assert battery.remaining_j == pytest.approx(3500.0)
        assert account.metered_j == 0.0  # drain alone never meters

    def test_drain_propagates_battery_empty(self):
        battery = Battery(1e-6)
        account = LedgerAccount("a", battery)
        with pytest.raises(BatteryEmptyError):
            account.drain(1.0)
        assert battery.is_empty

    def test_metering_only_drain_validates(self):
        account = LedgerAccount("a")
        account.drain(5.0)  # no store: accepted, nothing recorded
        with pytest.raises(ValueError):
            account.drain(-1.0)

    def test_note_and_meter_are_independent(self):
        account = LedgerAccount("a")
        account.note(ChargeCategory.TX_AIR, 2.0)
        account.meter(3.0)
        assert account.category_j(ChargeCategory.TX_AIR) == 2.0
        assert account.metered_j == 3.0

    def test_record_meters_by_default(self):
        account = LedgerAccount("a")
        account.record(ChargeCategory.RX_AIR, 1.5)
        assert account.metered_j == 1.5

    def test_record_mode_switch_not_metered(self):
        # Switch energy drains batteries but has never counted toward
        # the per-device session totals.
        account = LedgerAccount("a")
        account.record(ChargeCategory.MODE_SWITCH, 1.0)
        assert account.category_j(ChargeCategory.MODE_SWITCH) == 1.0
        assert account.metered_j == 0.0
        account.record(ChargeCategory.MODE_SWITCH, 1.0, metered=True)
        assert account.metered_j == 1.0

    def test_charge_drains_and_records(self):
        battery = Battery(1.0)
        account = LedgerAccount("a", battery)
        account.charge(ChargeCategory.ACK, 10.0)
        assert battery.remaining_j == pytest.approx(3590.0)
        assert account.category_j(ChargeCategory.ACK) == 10.0
        assert account.metered_j == 10.0

    def test_failed_charge_attributes_nothing(self):
        account = LedgerAccount("a", Battery(1e-6))
        with pytest.raises(BatteryEmptyError):
            account.charge(ChargeCategory.TX_AIR, 1.0)
        assert account.category_j(ChargeCategory.TX_AIR) == 0.0
        assert account.metered_j == 0.0

    def test_attributed_subtracts_harvest_credit(self):
        account = LedgerAccount("a")
        account.note(ChargeCategory.TX_AIR, 5.0)
        account.note(ChargeCategory.HARVEST_CREDIT, 2.0)
        assert account.attributed_j == pytest.approx(3.0)


#: The categories a packet's or idle gap's air time can be booked to.
_AIR_CATEGORIES = (
    ChargeCategory.TX_AIR,
    ChargeCategory.RX_AIR,
    ChargeCategory.CARRIER,
    ChargeCategory.IDLE,
    ChargeCategory.RETRANSMIT,
)
_JOULES = st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(1e-12, 10.0))


def _old_booking(account, category, joules, metered_j, ack_j, credit_j):
    """A packet side as the session loop booked it before ``book``: one
    ``note`` per non-zero component, then ``meter``."""
    account.note(category, joules)
    if credit_j != 0.0:
        account.note(ChargeCategory.HARVEST_CREDIT, credit_j)
    if ack_j != 0.0:
        account.note(ChargeCategory.ACK, ack_j)
    account.meter(metered_j)


class TestBook:
    """``book`` against the ``note``/``meter`` sequence it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(_AIR_CATEGORIES), _JOULES, _JOULES, _JOULES, _JOULES),
            max_size=40,
        )
    )
    def test_book_equals_the_note_and_meter_sequence(self, sides):
        booked, noted = LedgerAccount("a"), LedgerAccount("a")
        for category, joules, metered_j, ack_j, credit_j in sides:
            booked.book(category, joules, metered_j, ack_j, credit_j)
            _old_booking(noted, category, joules, metered_j, ack_j, credit_j)
        # repr tells -0.0 from 0.0 and compares every float exactly.
        assert repr(booked.comparable_state()) == repr(noted.comparable_state())

    def test_defaults_book_no_ack_and_no_credit(self):
        account = LedgerAccount("a")
        account.book(ChargeCategory.IDLE, 2.0, 2.0)
        assert account.breakdown()[ChargeCategory.IDLE] == 2.0
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

        def pair():
            ledger = EnergyLedger.for_pair(Battery(1.0 / 3600), Battery(2.0 / 3600))
            return ledger, ledger.account("a"), ledger.account("b")

        old_ledger, old_tx, old_rx = pair()
        _old_booking(old_tx, ChargeCategory.TX_AIR, tx_j, tx_j + 0.1, 0.1, 0.0)
        _old_booking(old_rx, ChargeCategory.CARRIER, rx_j, rx_j + 0.2, 0.2, 0.0)
        try:
            old_tx.drain(tx_j + 0.1)
            old_rx.drain(rx_j + 0.2)
            old_died = False
        except BatteryEmptyError:
            old_died = True

        new_ledger, new_tx, new_rx = pair()
        new_tx.book(ChargeCategory.TX_AIR, tx_j, tx_j + 0.1, 0.1)
        new_rx.book(ChargeCategory.CARRIER, rx_j, rx_j + 0.2, 0.2)
        try:
            new_tx.battery.drain_energy(tx_j + 0.1)
            new_rx.battery.drain_energy(rx_j + 0.2)
            new_died = False
        except BatteryEmptyError:
            new_died = True

        assert new_died == old_died == (tx_j > 0.9 or rx_j > 1.8)
        assert new_ledger.comparable_state() == old_ledger.comparable_state()
        assert new_ledger.snapshot() == old_ledger.snapshot()  # remaining charge too


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
        ledger.account("a").note(ChargeCategory.IDLE, 1.0)
        ledger.account("b").note(ChargeCategory.IDLE, 2.0)
        assert ledger.category_total_j(ChargeCategory.IDLE) == pytest.approx(3.0)


class TestSnapshots:
    def _ledger(self):
        ledger = EnergyLedger.for_pair(Battery(1.0), label_a="tag")
        ledger.account("a").charge(ChargeCategory.TX_AIR, 10.0)
        ledger.account("b").record(ChargeCategory.CARRIER, 4.0)
        ledger.pool_switch(0.5)
        return ledger

    def test_snapshot_is_frozen_copy(self):
        ledger = self._ledger()
        snap = ledger.snapshot()
        ledger.account("a").charge(ChargeCategory.TX_AIR, 10.0)
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
        account.charge(ChargeCategory.TX_AIR, 10.0)
        account.charge(ChargeCategory.ACK, 2.5)
        assert conservation_residual_j(account, 3600.0) == pytest.approx(0.0)

    def test_unbacked_attribution_shows_up(self):
        account = LedgerAccount("a", Battery(1.0))
        account.record(ChargeCategory.TX_AIR, 10.0)  # attributed, not drained
        assert conservation_residual_j(account, 3600.0) == pytest.approx(-10.0)


class TestMergeCategoryTotals:
    def test_merges_into_running_totals(self):
        ledger = EnergyLedger.for_pair()
        ledger.account("a").note(ChargeCategory.TX_AIR, 1.0)
        merged = merge_category_totals({"tx_air": 2.0}, ledger.snapshot())
        assert merged["tx_air"] == pytest.approx(3.0)
        assert merged["idle"] == 0.0

    def test_none_starts_fresh(self):
        ledger = EnergyLedger.for_pair()
        ledger.account("b").note(ChargeCategory.IDLE, 1.0)
        assert merge_category_totals(None, ledger.snapshot())["idle"] == 1.0

"""Unit tests for the multi-device hub network extension."""

import pytest

from repro.core.modes import LinkMode
from repro.hardware.battery import JOULES_PER_WATT_HOUR
from repro.hardware.devices import device
from repro.net import ClientPlacement, HubNetwork, TdmaSchedule


def _clients():
    return [
        ClientPlacement("band", device("Nike Fuel Band"), 0.4),
        ClientPlacement("watch", device("Apple Watch"), 0.6),
        ClientPlacement("cam", device("Pivothead"), 1.2, weight=4.0),
    ]


def _spent_budgets(network, plan):
    """Per device ("hub" or client name), whether ``plan`` spends its
    whole nameplate battery."""
    spent = {
        "hub": plan.hub_energy_used_j
        == pytest.approx(network.hub.battery_wh * JOULES_PER_WATT_HOUR, rel=1e-6)
    }
    for client in network.clients:
        budget = client.spec.battery_wh * JOULES_PER_WATT_HOUR
        used = plan.allocation(client.name).client_energy_j
        spent[client.name] = used == pytest.approx(budget, rel=1e-6)
    return spent


class TestTdmaSchedule:
    def test_shares_match_weights(self):
        schedule = TdmaSchedule({"a": 1.0, "b": 3.0}, round_packets=128)
        shares = schedule.air_time_shares()
        assert shares["a"] == pytest.approx(0.25, abs=1 / 128)
        assert shares["b"] == pytest.approx(0.75, abs=1 / 128)

    def test_every_client_gets_a_slot(self):
        schedule = TdmaSchedule({"a": 1000.0, "b": 1.0}, round_packets=16)
        assert set(schedule.air_time_shares()) == {"a", "b"}

    def test_client_for_packet_periodic(self):
        schedule = TdmaSchedule({"a": 1.0, "b": 1.0}, round_packets=8)
        for i in range(8):
            assert schedule.client_for_packet(i) == schedule.client_for_packet(i + 8)

    def test_slots_cover_the_round(self):
        schedule = TdmaSchedule({"a": 2.0, "b": 1.0, "c": 1.0}, round_packets=64)
        assert sum(slot.packets for slot in schedule.slots) == 64

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            TdmaSchedule({})
        with pytest.raises(ValueError):
            TdmaSchedule({"a": -1.0})
        with pytest.raises(ValueError):
            TdmaSchedule({"a": 1.0, "b": 1.0, "c": 1.0}, round_packets=2)

    def test_iterator_matches_lookup(self):
        import itertools

        schedule = TdmaSchedule({"a": 1.0, "b": 2.0}, round_packets=12)
        iterated = list(itertools.islice(schedule.packet_clients(), 24))
        assert iterated == [schedule.client_for_packet(i) for i in range(24)]

    def test_with_client_admits_at_weight(self):
        schedule = TdmaSchedule({"a": 1.0, "b": 1.0}, round_packets=64)
        grown = schedule.with_client("c", 2.0)
        shares = grown.air_time_shares()
        assert set(shares) == {"a", "b", "c"}
        assert shares["c"] == pytest.approx(0.5, abs=1 / 64)
        # The original schedule is untouched (schedules are immutable).
        assert set(schedule.air_time_shares()) == {"a", "b"}

    def test_with_client_rejects_duplicates_and_bad_weights(self):
        schedule = TdmaSchedule({"a": 1.0}, round_packets=16)
        with pytest.raises(ValueError, match="already scheduled"):
            schedule.with_client("a", 1.0)
        with pytest.raises(ValueError, match="positive"):
            schedule.with_client("b", 0.0)

    def test_duplicate_client_rejected_by_name(self):
        # A repeated name used to be folded into one client whose share
        # was computed against both weights (shares no longer summed to 1).
        with pytest.raises(ValueError, match="client 'a' is listed more than once"):
            TdmaSchedule([("a", 1.0), ("a", 2.0)], round_packets=16)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="client 'b' weight must be finite"):
            TdmaSchedule({"a": 1.0, "b": bad}, round_packets=16)
        with pytest.raises(ValueError, match="client 'c' weight must be finite"):
            TdmaSchedule({"a": 1.0}, round_packets=16).with_client("c", bad)

    def test_with_client_round_trips_through_without(self):
        schedule = TdmaSchedule({"a": 2.0, "b": 1.0}, round_packets=24)
        again = schedule.with_client("c", 1.0).without(["c"])
        assert again.air_time_shares() == schedule.air_time_shares()


class TestHubNetwork:
    def test_total_objective_maximizes_fleet_bits(self):
        network = HubNetwork("iPhone 6S", _clients())
        total = network.plan("total")
        maxmin = network.plan("maxmin")
        assert total.total_bits >= maxmin.total_bits

    def test_maxmin_equalizes_weighted_bits(self):
        network = HubNetwork("iPhone 6S", _clients())
        plan = network.plan("maxmin")
        normalized = [
            plan.allocation(c.name).bits / c.weight for c in network.clients
        ]
        assert max(normalized) == pytest.approx(min(normalized), rel=1e-3)

    def test_hub_battery_respected(self):
        network = HubNetwork("iPhone 6S", _clients())
        plan = network.plan("total")
        hub_energy = device("iPhone 6S").battery_wh * JOULES_PER_WATT_HOUR
        assert plan.hub_energy_used_j <= hub_energy * (1 + 1e-6)

    def test_client_batteries_respected(self):
        network = HubNetwork("iPhone 6S", _clients())
        plan = network.plan("total")
        for client in network.clients:
            allocation = plan.allocation(client.name)
            budget = client.spec.battery_wh * JOULES_PER_WATT_HOUR
            assert allocation.client_energy_j <= budget * (1 + 1e-6)

    def test_total_optimum_spends_the_nameplate_budgets(self):
        # Slack in the hub's battery and in some client's would buy that
        # client more bits, so one side is spent down to its nameplate.
        network = HubNetwork("iPhone 6S", _clients())
        spent = _spent_budgets(network, network.plan("total"))
        assert spent["hub"] or all(spent[c.name] for c in network.clients)

    def test_maxmin_optimum_spends_a_nameplate_budget(self):
        network = HubNetwork("iPhone 6S", _clients())
        assert any(_spent_budgets(network, network.plan("maxmin")).values())

    def test_bigger_hub_moves_clients_to_backscatter(self):
        # With a laptop hub, the shared battery is plentiful, so clients
        # offload their carriers onto it.
        clients = _clients()
        phone_plan = HubNetwork("iPhone 6S", clients).plan("total")
        laptop_plan = HubNetwork("MacBook Pro 15", clients).plan("total")
        assert laptop_plan.total_bits > phone_plan.total_bits

        def backscatter_share(plan):
            total = 0.0
            for allocation in plan.allocations:
                total += allocation.mode_fractions.get(LinkMode.BACKSCATTER, 0.0)
            return total

        assert backscatter_share(laptop_plan) >= backscatter_share(phone_plan)

    def test_out_of_range_client_rejected(self):
        clients = [ClientPlacement("far", device("Apple Watch"), 50.0)]
        with pytest.raises(ValueError):
            HubNetwork("iPhone 6S", clients).plan()

    def test_duplicate_names_rejected(self):
        clients = [
            ClientPlacement("x", device("Apple Watch"), 0.5),
            ClientPlacement("x", device("Pebble Watch"), 0.5),
        ]
        with pytest.raises(ValueError):
            HubNetwork("iPhone 6S", clients)

    def test_duplicate_names_listed_in_error(self):
        # Regression: the error must name the offending ids so a
        # generated deployment (thousands of clients) is debuggable.
        clients = [
            ClientPlacement("x", device("Apple Watch"), 0.5),
            ClientPlacement("x", device("Pebble Watch"), 0.5),
            ClientPlacement("y", device("Pivothead"), 0.7),
            ClientPlacement("y", device("Apple Watch"), 0.9),
        ]
        with pytest.raises(ValueError, match=r"\['x', 'y'\]"):
            HubNetwork("iPhone 6S", clients)

    def test_non_positive_distance_rejected_with_client_name(self):
        with pytest.raises(ValueError, match="'close'.*positive distance"):
            ClientPlacement("close", device("Apple Watch"), 0.0)
        with pytest.raises(ValueError, match="positive distance"):
            ClientPlacement("behind", device("Apple Watch"), -1.0)

    def test_empty_client_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ClientPlacement("", device("Apple Watch"), 0.5)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            HubNetwork("iPhone 6S", _clients()).plan("fastest")

    def test_allocation_lookup(self):
        plan = HubNetwork("iPhone 6S", _clients()).plan()
        assert plan.allocation("cam").bits > 0
        with pytest.raises(KeyError):
            plan.allocation("toaster")

    def test_single_client_matches_pairwise_solver(self):
        # A one-client hub degenerates to the two-device problem.
        from repro.sim.lifetime import braidio_unidirectional

        client = ClientPlacement("watch", device("Apple Watch"), 0.5)
        plan = HubNetwork("iPhone 6S", [client]).plan("total")
        e1 = device("Apple Watch").battery_wh * JOULES_PER_WATT_HOUR
        e2 = device("iPhone 6S").battery_wh * JOULES_PER_WATT_HOUR
        pairwise = braidio_unidirectional(e1, e2, 0.5).total_bits
        assert plan.total_bits == pytest.approx(pairwise, rel=1e-6)

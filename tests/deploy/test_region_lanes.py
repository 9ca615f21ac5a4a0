"""Armed regions on hub lanes against one region calendar.

A fault-armed region runs each hub on its own lane of the region kernel
and keeps only faults, handoffs and the warmup snapshot on the region
kernel itself.  The reference kernel's ``lane()`` returns the kernel,
which puts every hub back on one shared calendar; every catalog
scenario under every non-empty region profile must report the same.
"""

import pytest

from repro.deploy import partition, scenario, simulate_region
from repro.deploy import region as region_module
from repro.faults import REGION_FAULT_PROFILES, region_fault_plan_for
from repro.sim.simulator import Simulator


class OneCalendar(Simulator):
    """The reference kernel: every lane is the kernel itself."""

    def lane(self, seed):
        return self


ARMED_PROFILES = [name for name in REGION_FAULT_PROFILES if name != "none"]


@pytest.mark.parametrize("profile", ARMED_PROFILES)
@pytest.mark.parametrize("scenario_name", ["smoke", "ci-small", "mobile-small"])
def test_hub_lanes_report_what_one_calendar_reports(
    monkeypatch, scenario_name, profile
):
    spec = scenario(scenario_name)
    plan = region_fault_plan_for(profile, spec)
    assert not plan.is_empty
    regions = partition(spec).regions
    laned = [simulate_region(spec, region, plan) for region in regions]
    monkeypatch.setattr(region_module, "Simulator", OneCalendar)
    reference = [simulate_region(spec, region, plan) for region in regions]
    assert all("resilience" in report for report in reference)
    assert laned == reference

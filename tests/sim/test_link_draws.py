"""Block link draws against their definition.

A link without a fading process draws its uniforms ``DRAW_BLOCK`` at a
time and serves them in order; each packet's outcome must still be
``rng.random() >= per``, drawn one at a time from a twin of its
generator, whatever the distance and fault offset do in between.  A link
with a fading process keeps one scalar draw per packet, interleaved with
its process's draws on a shared generator.
"""

import numpy as np
import pytest

from repro.core.modes import LinkMode
from repro.core.regimes import LinkMap
from repro.phy.fading import BlockFadingProcess, RayleighFading
from repro.phy.modulation import packet_error_rate
from repro.sim.interference import BurstyInterferer, InterferedLink
from repro.sim.link import DRAW_BLOCK, SimulatedLink

#: (mode, bitrate, packet bits) shapes whose loss rates span (0, 1) over
#: the distances below.
SHAPES = (
    (LinkMode.BACKSCATTER, 1_000_000, 328),
    (LinkMode.BACKSCATTER, 100_000, 88),
    (LinkMode.PASSIVE, 1_000_000, 328),
    (LinkMode.ACTIVE, 1_000_000, 328),
)

PACKETS = 5 * DRAW_BLOCK + 17


def _per(link, mode, bitrate, bits, time_s):
    """The definition of a packet's loss rate, from the public API."""
    return packet_error_rate(link.ber(mode, bitrate, time_s), bits)


def _link(kind, seed, cache=True):
    rng = np.random.default_rng(seed)
    if kind == "interfered":
        interferer = BurstyInterferer(
            np.random.default_rng(seed + 1000),
            mean_on_s=0.01,
            mean_off_s=0.03,
            snr_penalty_db=8.0,
            horizon_s=10.0,
        )
        return InterferedLink(LinkMap(), 1.0, rng, interferer)
    return SimulatedLink(LinkMap(), 1.0, rng, cache=cache)


@pytest.mark.parametrize("kind,cache", [("plain", True), ("plain", False), ("interfered", False)])
@pytest.mark.parametrize("seed", [0, 7, 31])
def test_outcomes_equal_scalar_draws_of_a_twin(kind, cache, seed):
    link = _link(kind, seed, cache)
    twin = np.random.default_rng(seed)
    plan = np.random.default_rng(seed + 1)
    outcomes, expected = [], []
    for packet in range(PACKETS):
        # Move and fault the link now and then, across block boundaries.
        if packet % 23 == 5:
            link.set_distance(float(plan.choice([0.6, 0.9, 1.1, 1.3, 2.0])))
        if packet % 41 == 11:
            link.snr_offset_db = float(plan.choice([0.0, -3.0, -9.0]))
        mode, bitrate, bits = SHAPES[int(plan.integers(len(SHAPES)))]
        time_s = packet * 1e-3
        per = _per(link, mode, bitrate, bits, time_s)
        outcomes.append(link.packet_success(mode, bitrate, bits, time_s))
        expected.append(bool(twin.random() >= per))
    assert outcomes == expected
    assert 0 < sum(outcomes) < PACKETS  # the draws decided something
    # The link's generator stands at the end of its last block.
    twin.random(-PACKETS % DRAW_BLOCK)
    assert link._rng.bit_generator.state == twin.bit_generator.state


def test_block_fills_match_scalar_draws():
    scalar = np.random.default_rng(5)
    blocked = np.random.default_rng(5)
    values = [scalar.random() for _ in range(3 * DRAW_BLOCK)]
    assert values == [x for _ in range(3) for x in blocked.random(DRAW_BLOCK).tolist()]
    assert scalar.bit_generator.state == blocked.bit_generator.state


def test_a_run_draws_no_further_than_its_last_block():
    link = _link("plain", 3)
    for _ in range(DRAW_BLOCK + 1):
        link.packet_success(LinkMode.ACTIVE, 1_000_000, 328)
    twin = np.random.default_rng(3)
    twin.random(2 * DRAW_BLOCK)
    assert link._rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("seed", [0, 4])
def test_fading_link_interleaves_one_draw_per_packet_with_its_process(seed):
    """The fading process redraws on the link's own generator whenever a
    packet enters a new coherence block; the link must then draw exactly
    one scalar after it, never ahead of it."""

    def build():
        rng = np.random.default_rng(seed)
        fading = BlockFadingProcess(RayleighFading(), coherence_s=0.004, rng=rng)
        return rng, SimulatedLink(LinkMap(), 0.9, rng, fading=fading)

    rng, link = build()
    twin_rng, twin = build()
    outcomes, expected = [], []
    for packet in range(3 * DRAW_BLOCK):
        mode, bitrate, bits = SHAPES[packet % len(SHAPES)]
        time_s = packet * 1.5e-3
        outcomes.append(link.packet_success(mode, bitrate, bits, time_s))
        per = _per(twin, mode, bitrate, bits, time_s)  # the process draws here
        expected.append(bool(twin_rng.random() >= per))
        # No draw ahead: both generators stand at the same point after
        # every packet.
        assert rng.bit_generator.state == twin_rng.bit_generator.state
    assert outcomes == expected
    assert 0 < sum(outcomes) < len(outcomes)

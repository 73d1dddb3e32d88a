"""Property tests: a hard-range channel is evaluated exactly up to its range.

On a channel with a hard range (the unit disk behind ``ideal-disk-250m`` and
``dsrc-congested``) the medium evaluates receivers, carrier sense and
interferers only out to that range, instead of twice the nominal range.
Beyond it the received power is exactly ``NO_SIGNAL_DBM``, so the skipped
candidates had no side effects.  These tests pin that on random layouts
that crowd the boundary: receivers at exactly 250.0 m and at the next float
above it, and interferers 250-500 m from the sender -- the band the old
2x-nominal reach evaluated and the hard range skips.  Every backend must
produce the same event trace, and so must a linear oracle that still uses
the old wide reach.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Vec2
from repro.radio.registry import radio_from_name
from repro.sim.engine import Simulator
from repro.sim.medium import WirelessMedium
from repro.sim.network import Network
from repro.sim.node import StaticPositionProvider
from repro.sim.packet import BROADCAST, make_data_packet
from repro.sim.statistics import StatsCollector
from repro.sim.trace import EventTrace
from tests.sim.test_medium_backends import normalized_records

HARD_RANGE_RADIOS = ["ideal-disk-250m", "dsrc-congested"]
RANGE_M = 250.0
JUST_BEYOND_M = math.nextafter(RANGE_M, math.inf)


class RecordingProtocol:
    def __init__(self):
        self.received = []

    def start(self):  # pragma: no cover - unused
        pass

    def handle_packet(self, packet, sender_id):
        self.received.append((packet.uid, sender_id))


class WideReachMedium(WirelessMedium):
    """The pre-hard-range rule: always 2x the nominal range."""

    def _evaluation_reach(self, tx_power_dbm, threshold_dbm):
        nominal = self.propagation.nominal_range(tx_power_dbm, threshold_dbm)
        return nominal * 2.0 if nominal > 0 else 0.0


layouts = st.fixed_dictionaries(
    {
        # Integer anchor rows keep `0 - x` and the squared distances exact,
        # so the boundary receivers sit at exactly the distances named.
        "anchor_y": st.integers(-1500, 1500),
        "interferers": st.lists(
            st.tuples(
                st.floats(0.0, 2.0 * math.pi, allow_nan=False),
                st.floats(RANGE_M, 2.0 * RANGE_M, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
        "offsets_us": st.lists(st.integers(0, 3000), min_size=12, max_size=12),
        "seed": st.integers(0, 2**16),
    }
)


def run_layout(radio, backend, layout, medium_cls=WirelessMedium):
    """Build the layout, fire a burst of overlapping frames, return the trace."""
    sim = Simulator(seed=layout["seed"])
    stats = StatsCollector()
    trace = EventTrace(enabled=True, max_records=100_000)
    stack = radio_from_name(radio, sim.rng.stream("radio"))
    medium = medium_cls(
        sim, stats=stats, trace=trace, spatial_backend=backend, stack=stack
    )
    # Engage the array path on a handful of rows (the default threshold
    # would hand these frames to the scalar loop).
    medium.vectorized_min_rows = 0
    network = Network(sim, medium=medium, stats=stats, trace=trace)
    y = float(layout["anchor_y"])
    positions = [
        (0.0, y),
        (RANGE_M, y),
        (-RANGE_M, y),
        (JUST_BEYOND_M, y),
        (-JUST_BEYOND_M, y),
    ]
    for angle, radius in layout["interferers"]:
        positions.append((radius * math.cos(angle), y + radius * math.sin(angle)))
    nodes = []
    for x, node_y in positions:
        node = network.add_vehicle(StaticPositionProvider(Vec2(x, node_y)))
        node.attach_protocol(RecordingProtocol())
        nodes.append(node)
    sender, at_range, _, beyond, _ = nodes[:5]
    offsets = layout["offsets_us"]
    for i, node in enumerate(nodes):
        packet = make_data_packet("p", node.node_id, BROADCAST, size_bytes=400)
        sim.schedule(offsets[i % len(offsets)] * 1e-6, node.send, packet, BROADCAST)
    # Unicasts to both boundary receivers: delivered (or collided) at exactly
    # the range, retried to exhaustion just beyond it.
    for target, offset in ((at_range, offsets[-1]), (beyond, offsets[-2])):
        packet = make_data_packet("p", sender.node_id, target.node_id, size_bytes=400)
        sim.schedule(offset * 1e-6, sender.send, packet, target.node_id)
    sim.run(until=0.5)
    within = [n.node_id for n in medium.nodes_within(sender.position, RANGE_M)]
    return normalized_records(trace), stats.mac_collisions, within


@pytest.mark.parametrize("radio", HARD_RANGE_RADIOS)
@given(layout=layouts)
@settings(max_examples=25, deadline=None)
def test_grid_matches_linear_oracle_and_wide_reach(radio, layout):
    grid = run_layout(radio, "grid", layout)
    assert grid == run_layout(radio, "linear", layout)
    assert grid == run_layout(radio, "linear", layout, medium_cls=WideReachMedium)
    records, _, within = grid
    # The 250.0 m receivers are in range, the next float out is not.
    assert within[:3] == [0, 1, 2]
    assert 3 not in within and 4 not in within
    assert records


@pytest.mark.parametrize("radio", HARD_RANGE_RADIOS)
@given(layout=layouts)
@settings(max_examples=25, deadline=None)
def test_vectorized_matches_grid(radio, layout):
    pytest.importorskip("numpy")
    assert run_layout(radio, "vectorized", layout) == run_layout(radio, "grid", layout)


def test_boundary_receivers_split_at_the_range():
    # A lone broadcast from the anchor: both 250.0 m receivers decode it,
    # neither receiver one ulp further out hears anything.
    sim = Simulator(seed=1)
    stack = radio_from_name("ideal-disk-250m", sim.rng.stream("radio"))
    medium = WirelessMedium(sim, stack=stack)
    network = Network(sim, medium=medium, stats=medium.stats)
    nodes = []
    for x in (0.0, RANGE_M, -RANGE_M, JUST_BEYOND_M, -JUST_BEYOND_M):
        node = network.add_vehicle(StaticPositionProvider(Vec2(x, 0.0)))
        node.attach_protocol(RecordingProtocol())
        nodes.append(node)
    sender = nodes[0]
    sim.schedule(0.0, sender.send, make_data_packet("p", 0, BROADCAST), BROADCAST)
    sim.run(until=0.1)
    heard = [bool(node.protocol.received) for node in nodes[1:]]
    assert heard == [True, True, False, False]

"""Additional medium/PHY tests: capture, carrier sensing and power-dependent reception."""

import pytest

from repro.geometry import Vec2
from repro.radio.mac import MacConfig
from repro.radio.propagation import TwoRayGroundPropagation
from repro.radio.reception import SnrThresholdReception
from repro.sim.engine import Simulator
from repro.sim.medium import WirelessMedium
from repro.sim.network import Network
from repro.sim.node import StaticPositionProvider
from repro.sim.packet import BROADCAST, make_data_packet
from repro.sim.statistics import StatsCollector


class RecordingProtocol:
    def __init__(self):
        self.received = []

    def start(self):  # pragma: no cover - unused
        pass

    def handle_packet(self, packet, sender_id):
        self.received.append((packet.uid, sender_id))


def build_two_ray_network(positions, tx_power_dbm=5.0):
    """A network on a physical (two-ray) channel where power depends on distance."""
    sim = Simulator(seed=9)
    stats = StatsCollector()
    medium = WirelessMedium(
        sim,
        propagation=TwoRayGroundPropagation(),
        reception=SnrThresholdReception(snr_threshold_db=10.0),
        stats=stats,
    )
    network = Network(sim, medium=medium, stats=stats)
    nodes = []
    for x, y in positions:
        node = network.add_vehicle(StaticPositionProvider(Vec2(x, y)))
        node.tx_power_dbm = tx_power_dbm
        node.attach_protocol(RecordingProtocol())
        nodes.append(node)
    return sim, network, stats, nodes


class TestCaptureEffect:
    def test_nearby_transmitter_captures_over_distant_interferer(self):
        # Receiver at the origin; a transmitter 50 m away and an interferer
        # 800 m away transmit simultaneously.  On a physical channel the near
        # frame is >10 dB stronger and survives (capture); the far one is lost.
        sim, network, stats, nodes = build_two_ray_network(
            [(0, 0), (50, 0), (800, 0)], tx_power_dbm=10.0
        )
        receiver, near, far = nodes
        sim.schedule(0.0, near.send, make_data_packet("p", near.node_id, BROADCAST, size_bytes=500), BROADCAST)
        sim.schedule(0.0, far.send, make_data_packet("p", far.node_id, BROADCAST, size_bytes=500), BROADCAST)
        sim.run(until=1.0)
        senders = {sender for _, sender in receiver.protocol.received}
        assert near.node_id in senders
        assert far.node_id not in senders

    def test_simultaneous_in_cs_range_transmitters_serialise_instead_of_colliding(self):
        # Two transmitters that can hear each other both want to send at t=0:
        # carrier sensing makes one defer, so the receiver in the middle gets
        # both frames intact (no collision) -- the non-hidden-terminal case.
        sim, network, stats, nodes = build_two_ray_network(
            [(0, 0), (150, 0), (-150, 0)], tx_power_dbm=10.0
        )
        receiver, left, right = nodes
        sim.schedule(0.0, left.send, make_data_packet("p", left.node_id, BROADCAST, size_bytes=500), BROADCAST)
        sim.schedule(0.0, right.send, make_data_packet("p", right.node_id, BROADCAST, size_bytes=500), BROADCAST)
        sim.run(until=1.0)
        senders = {sender for _, sender in receiver.protocol.received}
        assert senders == {left.node_id, right.node_id}
        assert stats.mac_collisions == 0


class TestCarrierSense:
    def test_nearby_sender_defers_distant_sender_does_not(self):
        # Node 1 is within carrier-sense range of node 0's transmission;
        # node 3 is far beyond it.  When both want to transmit while node 0
        # is on the air, only node 1 defers.
        sim, network, stats, nodes = build_two_ray_network(
            [(0, 0), (200, 0), (5000, 0), (5200, 0)], tx_power_dbm=10.0
        )
        a, b, c, d = nodes
        long_frame = make_data_packet("p", a.node_id, BROADCAST, size_bytes=1500)
        sim.schedule(0.0, a.send, long_frame, BROADCAST)
        sim.schedule(0.0005, b.send, make_data_packet("p", b.node_id, BROADCAST), BROADCAST)
        sim.schedule(0.0005, c.send, make_data_packet("p", c.node_id, BROADCAST), BROADCAST)
        sim.run(until=1.0)
        assert b.mac.busy_deferrals >= 1
        assert c.mac.busy_deferrals == 0

    def test_medium_reports_busy_only_within_cs_range(self):
        sim, network, stats, nodes = build_two_ray_network(
            [(0, 0), (200, 0), (5000, 0)], tx_power_dbm=10.0
        )
        a, b, c = nodes
        a.send(make_data_packet("p", a.node_id, BROADCAST, size_bytes=2000), BROADCAST)
        # Let the MAC actually put the frame on the air (DIFS + backoff).
        sim.run(until=0.002)
        assert network.medium.channel_busy(b)
        assert not network.medium.channel_busy(c)


class TestMacConfigOverride:
    def test_custom_mac_config_applies_to_new_nodes(self):
        sim = Simulator(seed=1)
        stats = StatsCollector()
        medium = WirelessMedium(sim, stats=stats, mac_config=MacConfig(max_queue=2))
        network = Network(sim, medium=medium, stats=stats)
        node = network.add_vehicle(StaticPositionProvider(Vec2(0, 0)))
        node.attach_protocol(RecordingProtocol())
        accepted = [
            node.mac.enqueue(make_data_packet("p", 0, BROADCAST), BROADCAST) for _ in range(4)
        ]
        assert accepted == [True, True, False, False]

    def test_nominal_range_cache(self):
        sim = Simulator(seed=1)
        medium = WirelessMedium(sim)
        first = medium._reception_cutoff(20.0)
        second = medium._reception_cutoff(20.0)
        assert first == second
        assert first > 0
        # The default unit disk has a hard range: the cutoff is the range
        # itself, not 2x nominal (beyond it every power is NO_SIGNAL_DBM).
        assert first == 250.0
        assert medium._default_cell_size() == 250.0
        medium._max_tx_power_dbm = 20.0
        assert medium._carrier_sense_reach() == 250.0

    def test_channel_without_hard_range_keeps_twice_nominal(self):
        from repro.radio.propagation import LogNormalShadowing

        sim = Simulator(seed=1)
        medium = WirelessMedium(sim, propagation=LogNormalShadowing(sigma_db=4.0))
        nominal = medium.nominal_range(20.0)
        assert nominal > 0
        assert medium._reception_cutoff(20.0) == nominal * 2.0
        assert medium._default_cell_size() == nominal * 2.0

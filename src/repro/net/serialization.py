"""Protobuf-style serialization used by the baseline gRPC stack.

A real varint/tag-length-value codec (wire-compatible in spirit with
protobuf, not with any specific .proto): the baseline path actually
serializes and deserializes application messages through it, so its byte
counts — which feed the cost model's per-byte terms and the header-size
benchmark — are real.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from ..dsl.schema import FieldType, RpcSchema
from ..errors import RuntimeFault

_WIRE_VARINT = 0
_WIRE_I64 = 1
_WIRE_LEN = 2


def encode_varint(value: int) -> bytes:
    if value < 0:
        raise RuntimeFault("varint cannot encode negatives; zigzag first")
    out = bytearray()
    while True:
        bits = value & 0x7F
        value >>= 7
        if value:
            out.append(bits | 0x80)
        else:
            out.append(bits)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise RuntimeFault("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise RuntimeFault("varint too long")


def zigzag_encode(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


class ProtoCodec:
    """Encodes/decodes an RPC's application fields per an
    :class:`~repro.dsl.schema.RpcSchema` (field numbers are assigned by
    schema order, starting at 1)."""

    def __init__(self, schema: RpcSchema):
        self.schema = schema
        self._numbers: Dict[str, int] = {
            name: index + 1
            for index, name in enumerate(schema.application_field_names())
        }
        self._names: Dict[int, str] = {v: k for k, v in self._numbers.items()}

    def encode(self, fields: Dict[str, object]) -> bytes:
        out = bytearray()
        for name in self.schema.application_field_names():
            if name not in fields or fields[name] is None:
                continue
            number = self._numbers[name]
            value = fields[name]
            field_type = self.schema.fields[name].type
            out.extend(self._encode_field(number, field_type, value))
        return bytes(out)

    def _encode_field(
        self, number: int, field_type: FieldType, value: object
    ) -> bytes:
        if field_type is FieldType.INT:
            tag = encode_varint((number << 3) | _WIRE_VARINT)
            return tag + encode_varint(zigzag_encode(int(value)))  # type: ignore[arg-type]
        if field_type is FieldType.BOOL:
            tag = encode_varint((number << 3) | _WIRE_VARINT)
            return tag + encode_varint(1 if value else 0)
        if field_type is FieldType.FLOAT:
            tag = encode_varint((number << 3) | _WIRE_I64)
            return tag + struct.pack("<d", float(value))  # type: ignore[arg-type]
        if field_type in (FieldType.STR, FieldType.BYTES):
            raw = (
                value.encode("utf-8") if isinstance(value, str) else bytes(value)  # type: ignore[arg-type]
            )
            tag = encode_varint((number << 3) | _WIRE_LEN)
            return tag + encode_varint(len(raw)) + raw
        raise RuntimeFault(f"cannot encode type {field_type}")

    def decode(self, data: bytes) -> Dict[str, object]:
        fields: Dict[str, object] = {}
        offset = 0
        while offset < len(data):
            key, offset = decode_varint(data, offset)
            number = key >> 3
            wire_type = key & 0x07
            name = self._names.get(number)
            if wire_type == _WIRE_VARINT:
                raw, offset = decode_varint(data, offset)
                if name is None:
                    continue
                field_type = self.schema.fields[name].type
                if field_type is FieldType.BOOL:
                    fields[name] = bool(raw)
                else:
                    fields[name] = zigzag_decode(raw)
            elif wire_type == _WIRE_I64:
                if offset + 8 > len(data):
                    raise RuntimeFault("truncated i64 field")
                if name is not None:
                    fields[name] = struct.unpack_from("<d", data, offset)[0]
                offset += 8
            elif wire_type == _WIRE_LEN:
                length, offset = decode_varint(data, offset)
                if offset + length > len(data):
                    raise RuntimeFault("truncated length-delimited field")
                raw_bytes = data[offset : offset + length]
                offset += length
                if name is None:
                    continue
                field_type = self.schema.fields[name].type
                if field_type is FieldType.STR:
                    fields[name] = raw_bytes.decode("utf-8")
                else:
                    fields[name] = raw_bytes
            else:
                raise RuntimeFault(f"unknown wire type {wire_type}")
        return fields

    def encoded_size(self, fields: Dict[str, object]) -> int:
        return len(self.encode(fields))

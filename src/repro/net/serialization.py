"""Protobuf-style serialization used by the baseline gRPC stack.

A real varint/tag-length-value codec (wire-compatible in spirit with
protobuf, not with any specific .proto): the baseline path actually
serializes and deserializes application messages through it, so its byte
counts — which feed the cost model's per-byte terms and the header-size
benchmark — are real.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

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


def varint_size(value: int) -> int:
    """Length of ``encode_varint(value)`` for ``value >= 0``, without
    building it."""
    return (value.bit_length() + 6) // 7 or 1


_UNENCODABLE = (ValueError, TypeError, OverflowError)
_DOUBLE = struct.Struct("<d")
# module-level aliases: an enum member lookup per field is measurable
_INT = FieldType.INT
_BOOL = FieldType.BOOL
_FLOAT = FieldType.FLOAT
_WIRE_TYPES = {
    FieldType.INT: _WIRE_VARINT,
    FieldType.BOOL: _WIRE_VARINT,
    FieldType.FLOAT: _WIRE_I64,
    FieldType.STR: _WIRE_LEN,
    FieldType.BYTES: _WIRE_LEN,
}


class ProtoCodec:
    """Encodes/decodes an RPC's application fields per an
    :class:`~repro.dsl.schema.RpcSchema` (field numbers are assigned by
    schema order, starting at 1).

    A value the field's type cannot carry (``"abc"`` in an INT field, an
    object in a STR field) raises :class:`RuntimeFault` from ``encode``
    and ``encoded_size`` alike. Rows may carry fields outside the
    schema; both ignore them.
    """

    def __init__(self, schema: RpcSchema):
        self.schema = schema
        self._numbers: Dict[str, int] = {
            name: index + 1
            for index, name in enumerate(schema.application_field_names())
        }
        self._names: Dict[int, str] = {v: k for k, v in self._numbers.items()}
        #: (name, type, encoded tag) per field, in schema order
        self._fields: List[Tuple[str, FieldType, bytes]] = [
            (
                name,
                schema.fields[name].type,
                encode_varint(
                    (number << 3) | _WIRE_TYPES[schema.fields[name].type]
                ),
            )
            for name, number in self._numbers.items()
        ]

    def encode(self, fields: Dict[str, object]) -> bytes:
        out = bytearray()
        for name, field_type, tag in self._fields:
            value = fields.get(name)
            if value is None:
                continue
            try:
                if field_type is _INT:
                    body = encode_varint(zigzag_encode(int(value)))  # type: ignore[call-overload]
                elif field_type is _FLOAT:
                    body = _DOUBLE.pack(float(value))  # type: ignore[arg-type]
                elif field_type is _BOOL:
                    body = b"\x01" if value else b"\x00"
                else:
                    raw = (
                        value.encode("utf-8")
                        if isinstance(value, str)
                        else bytes(value)  # type: ignore[call-overload]
                    )
                    body = encode_varint(len(raw)) + raw
            except _UNENCODABLE as exc:
                raise _unencodable(name, field_type, value, exc) from None
            out += tag
            out += body
        return bytes(out)

    def encoded_size(self, fields: Dict[str, object]) -> int:
        """``len(self.encode(fields))``, counted without building the
        bytes."""
        size = 0
        for name, field_type, tag in self._fields:
            value = fields.get(name)
            if value is None:
                continue
            # the conversions encode makes, so both fault on the same values
            try:
                if field_type is _INT:
                    size += varint_size(zigzag_encode(int(value)))  # type: ignore[call-overload]
                elif field_type is _FLOAT:
                    float(value)  # type: ignore[arg-type]
                    size += 8
                elif field_type is _BOOL:
                    bool(value)
                    size += 1
                else:
                    if type(value) is bytes:
                        length = len(value)
                    elif type(value) is str and value.isascii():
                        length = len(value)
                    elif isinstance(value, str):
                        length = len(value.encode("utf-8"))
                    else:
                        length = len(bytes(value))  # type: ignore[call-overload]
                    size += varint_size(length) + length
            except _UNENCODABLE as exc:
                raise _unencodable(name, field_type, value, exc) from None
            size += len(tag)
        return size

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


def _unencodable(
    name: str, field_type: FieldType, value: object, exc: Exception
) -> RuntimeFault:
    return RuntimeFault(
        f"field {name!r}: cannot encode {type(value).__name__} value as "
        f"{field_type.value} ({exc})"
    )

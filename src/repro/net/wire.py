"""The ADN compact wire format.

Encodes exactly the fields a :class:`~repro.compiler.headers.HeaderLayout`
says must cross a hop — nothing else — in the layout's order: fixed-width
fields first at stable offsets (so a switch can match them inside its
parse window), then variable-width fields with varint lengths. Each field
is prefixed by its 1-byte field id. A decoder accepts exactly its own
layout: an unknown or out-of-place field id, a truncated field or a
truncated varint raises :class:`~repro.errors.RuntimeFault`, so a layout
mismatch between two hops fails loudly instead of decoding garbage.

The codec is compiled once per layout: the fixed region is one
precompiled :class:`struct.Struct` with the id bytes interleaved, so
encoding it is a single ``pack`` and decoding it a single
``unpack_from``. :meth:`AdnWireCodec.encoded_size` computes the length
without building the message, which is all a sender needs to charge
wire time.

This is the concrete answer to the paper's Q2: "How the RPC message is
packaged on the wire and what headers are needed are ... automatically
determined" (§3).
"""

from __future__ import annotations

import struct
from typing import Dict

from ..compiler.headers import HeaderLayout
from ..dsl.schema import FieldType
from ..errors import RuntimeFault
from .serialization import decode_varint, encode_varint

#: struct codes and value coercions of the fixed-width types (``?``
#: packs truthiness, exactly what the format stores for a bool)
_FIXED_CODES = {FieldType.INT: "q", FieldType.FLOAT: "d", FieldType.BOOL: "?"}
_FIXED_COERCE = {FieldType.INT: int, FieldType.FLOAT: float, FieldType.BOOL: bool}

#: one-byte varints, by value
_SHORT_VARINTS = tuple(bytes((length,)) for length in range(0x80))


def _raw(value: object) -> bytes:
    """The bytes a variable-width field carries (None encodes empty)."""
    if value is None:
        return b""
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    return str(value).encode("utf-8")


def _raw_length(value: object) -> int:
    """``len(_raw(value))``, without encoding an ASCII string."""
    if value is None:
        return 0
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    return len(str(value).encode("utf-8"))


class AdnWireCodec:
    """Encoder/decoder bound to one hop's :class:`HeaderLayout`."""

    def __init__(self, layout: HeaderLayout):
        self.layout = layout
        fixed = [entry for entry in layout.fields if entry.fixed]
        variable = layout.fields[len(fixed):]
        if any(entry.fixed for entry in variable):
            raise RuntimeFault(
                "fixed-width fields must precede variable-width ones"
            )
        for entry in fixed:
            if entry.type not in _FIXED_CODES:
                raise RuntimeFault(f"{entry.type} is not fixed-width")
        #: the fixed region: ``>`` then ``B<code>`` per field (id, value)
        self._fixed = struct.Struct(
            ">" + "".join("B" + _FIXED_CODES[entry.type] for entry in fixed)
        )
        self._fixed_names = tuple(entry.name for entry in fixed)
        self._fixed_coerce = tuple(_FIXED_COERCE[entry.type] for entry in fixed)
        self._fixed_ids = tuple(entry.field_id for entry in fixed)
        #: ``pack`` arguments with the ids in place; values fill the
        #: odd slots on every encode
        self._fixed_args = [
            slot for field_id in self._fixed_ids for slot in (field_id, 0)
        ]
        #: (id byte, name) per variable field, in wire order
        self._variable = tuple(
            (bytes((entry.field_id,)), entry.name) for entry in variable
        )
        #: (id, name, decodes to str) per variable field
        self._variable_decode = tuple(
            (entry.field_id, entry.name, entry.type is not FieldType.BYTES)
            for entry in variable
        )

    def encode(self, fields: Dict[str, object]) -> bytes:
        """Encode a tuple. Missing fixed fields default to zero values;
        missing variable fields encode empty. None encodes as the
        type's zero (the compact format has no presence bits — absence
        is resolved by the layout itself)."""
        get = fields.get
        args = self._fixed_args[:]
        args[1::2] = [
            0 if value is None else coerce(value)
            for coerce, value in zip(
                self._fixed_coerce, map(get, self._fixed_names)
            )
        ]
        parts = [self._fixed.pack(*args)]
        for id_byte, name in self._variable:
            raw = _raw(get(name))
            length = len(raw)
            parts.append(id_byte)
            parts.append(
                _SHORT_VARINTS[length] if length < 0x80 else encode_varint(length)
            )
            parts.append(raw)
        return b"".join(parts)

    def decode(self, data: bytes) -> Dict[str, object]:
        try:
            unpacked = self._fixed.unpack_from(data)
        except struct.error:
            raise RuntimeFault(
                "truncated fixed-width region (layout mismatch)"
            ) from None
        if unpacked[0::2] != self._fixed_ids:
            raise RuntimeFault(
                f"field ids {unpacked[0::2]} where the layout has "
                f"{self._fixed_ids} (layout mismatch)"
            )
        fields: Dict[str, object] = dict(zip(self._fixed_names, unpacked[1::2]))
        offset = self._fixed.size
        end = len(data)
        for field_id, name, is_text in self._variable_decode:
            if offset + 1 >= end:  # no room for the id and a length
                raise RuntimeFault(f"truncated message at field {name!r}")
            if data[offset] != field_id:
                raise RuntimeFault(
                    f"field id {data[offset]} where the layout has "
                    f"{field_id} (layout mismatch)"
                )
            length = data[offset + 1]
            if length < 0x80:
                offset += 2
            else:
                length, offset = decode_varint(data, offset + 1)
            stop = offset + length
            if stop > end:
                raise RuntimeFault("truncated variable field")
            raw = data[offset:stop]
            fields[name] = raw.decode("utf-8") if is_text else raw
            offset = stop
        if offset != end:
            raise RuntimeFault(
                f"unknown field id {data[offset]} after the layout's last "
                "field (layout mismatch)"
            )
        return fields

    def encoded_size(self, fields: Dict[str, object]) -> int:
        """``len(self.encode(fields))``, computed without encoding."""
        get = fields.get
        size = self._fixed.size
        for _id_byte, name in self._variable:
            length = _raw_length(get(name))
            # id byte + varint length + value
            size += (
                2 + length
                if length < 0x80
                else 1 + len(encode_varint(length)) + length
            )
        return size

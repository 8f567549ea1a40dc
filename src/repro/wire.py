"""Protobuf-like wire format used by the CRIU-style image files.

Real CRIU encodes most of its image files with Google protocol buffers.
This module implements the subset of the protobuf wire format that the
reproduction needs, from scratch:

* base-128 varints (wire type 0),
* length-delimited fields (wire type 2) for bytes, strings, nested
  messages and packed repeated varints.

Two levels: the schemaless field helpers (:func:`encode_field`,
:func:`iter_fields` — one field at a time, by number) define the format,
and :class:`Schema` maps field numbers to names so that images can be
decoded into human-readable JSON (the CRIT ``decode`` operation) and
re-encoded byte-identically (CRIT ``encode``). Everything on the
migration path goes through :class:`Schema`, whose codec is one fused
loop per direction.

Signed integers use zigzag encoding, mirroring protobuf's ``sint64``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple, Union

from .errors import WireError, WireTruncated

WIRE_VARINT = 0
WIRE_LEN = 2

Scalar = Union[int, bytes, str]


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a base-128 varint."""
    if value < 0:
        raise WireError(f"varint must be non-negative, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint from ``data`` at ``offset``.

    Returns ``(value, new_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise WireTruncated("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise WireError("varint too long")


def zigzag_encode(value: int) -> int:
    """Map a signed integer onto an unsigned one (protobuf sint64).

    Python ints have no word size, so there is no sign bit to fold in:
    non-negatives are ``2n``, negatives ``2|n| - 1``, at any magnitude.
    """
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def encode_signed_varint(value: int) -> bytes:
    return encode_varint(zigzag_encode(value))


def decode_signed_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    raw, pos = decode_varint(data, offset)
    return zigzag_decode(raw), pos


def _encode_key(field: int, wire_type: int) -> bytes:
    return encode_varint((field << 3) | wire_type)


def encode_field(field: int, value: Scalar) -> bytes:
    """Encode one field. ints → varint; bytes/str → length-delimited."""
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return _encode_key(field, WIRE_VARINT) + encode_signed_varint(value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return _encode_key(field, WIRE_LEN) + encode_varint(len(payload)) + payload
    if isinstance(value, (bytes, bytearray)):
        return _encode_key(field, WIRE_LEN) + encode_varint(len(value)) + bytes(value)
    raise WireError(f"cannot encode value of type {type(value).__name__}")


def iter_fields(data: bytes) -> Iterator[Tuple[int, int, Union[int, bytes]]]:
    """Yield ``(field_number, wire_type, raw_value)`` for each field.

    Varint fields yield the *zigzag-decoded* integer; length-delimited
    fields yield raw bytes.
    """
    pos = 0
    while pos < len(data):
        key, pos = decode_varint(data, pos)
        field = key >> 3
        wire_type = key & 0x7
        if wire_type == WIRE_VARINT:
            value, pos = decode_signed_varint(data, pos)
            yield field, wire_type, value
        elif wire_type == WIRE_LEN:
            length, pos = decode_varint(data, pos)
            if pos + length > len(data):
                raise WireTruncated("truncated length-delimited field")
            yield field, wire_type, data[pos:pos + length]
            pos += length
        else:
            raise WireError(f"unsupported wire type {wire_type}")


class FieldSpec:
    """Schema entry for one message field."""

    __slots__ = ("number", "name", "kind", "repeated", "message",
                 "varint_key", "len_key")

    def __init__(self, number: int, name: str, kind: str,
                 repeated: bool = False, message: "Schema" = None):
        if kind not in ("int", "bytes", "str", "message"):
            raise WireError(f"unknown field kind {kind!r}")
        if kind == "message" and message is None:
            raise WireError(f"field {name!r}: message kind needs a schema")
        self.number = number
        self.name = name
        self.kind = kind
        self.repeated = repeated
        self.message = message
        #: the field's two possible key encodings, computed once
        self.varint_key = _encode_key(number, WIRE_VARINT)
        self.len_key = _encode_key(number, WIRE_LEN)


class Schema:
    """A named collection of :class:`FieldSpec` — one protobuf message type.

    :meth:`encode` and :meth:`decode` are the codec every image file,
    DELF section and journal header goes through, so each is a single
    loop: no generator, no call per field, no intermediate ``bytes`` per
    field. They accept and produce exactly what the field-at-a-time
    helpers above do (:func:`encode_field`, :func:`iter_fields`), byte
    for byte and error for error.
    """

    def __init__(self, name: str, fields: List[FieldSpec]):
        self.name = name
        self.by_number: Dict[int, FieldSpec] = {}
        self.by_name: Dict[str, FieldSpec] = {}
        for spec in fields:
            if spec.number in self.by_number:
                raise WireError(f"{name}: duplicate field number {spec.number}")
            if spec.name in self.by_name:
                raise WireError(f"{name}: duplicate field name {spec.name}")
            self.by_number[spec.number] = spec
            self.by_name[spec.name] = spec
        self._repeated = tuple(s.name for s in fields if s.repeated)

    # -- encoding ---------------------------------------------------------

    def encode(self, obj: dict) -> bytes:
        """Encode a dict keyed by field *names* into wire bytes.

        The wire type follows the *value*: ints (and bools) are zigzag
        varints; ``str``, ``bytes`` and nested messages are
        length-delimited.
        """
        out = bytearray()
        by_name = self.by_name
        for name, value in obj.items():
            spec = by_name.get(name)
            if spec is None:
                raise WireError(f"{self.name}: unknown field {name!r}")
            kind = spec.kind
            for item in (value if spec.repeated else (value,)):
                if kind == "message":
                    item = spec.message.encode(item)
                elif isinstance(item, int):
                    out += spec.varint_key
                    item = item << 1 if item >= 0 else ((-item) << 1) - 1
                    while item > 0x7F:
                        out.append((item & 0x7F) | 0x80)
                        item >>= 7
                    out.append(item)
                    continue
                elif isinstance(item, str):
                    # JSON round-trips bytes as latin-1 strings; accept both.
                    item = item.encode(
                        "latin-1" if kind == "bytes" else "utf-8")
                elif not isinstance(item, (bytes, bytearray)):
                    raise WireError(
                        f"cannot encode value of type {type(item).__name__}")
                out += spec.len_key
                length = len(item)
                if length < 0x80:
                    out.append(length)
                else:
                    out += encode_varint(length)
                out += item
        return bytes(out)

    # -- decoding ---------------------------------------------------------

    def decode(self, data: bytes) -> dict:
        """Decode wire bytes into a dict keyed by field names.

        Checks run in wire order, field by field: the key and the value
        (or length) must parse — :class:`WireTruncated` for a cut varint
        or a length past the end, :class:`WireError` for an over-long
        varint or an unsupported wire type — before the field number is
        looked up, its kind compared with the wire type, and a ``str``
        or nested message decoded.
        """
        obj: dict = {}
        by_number = self.by_number
        end = len(data)
        pos = 0
        while pos < end:
            key = data[pos]
            if key < 0x80:
                pos += 1
            else:
                key, pos = decode_varint(data, pos)
            wire_type = key & 0x7
            if wire_type != WIRE_VARINT and wire_type != WIRE_LEN:
                raise WireError(f"unsupported wire type {wire_type}")
            # The varint after the key: the zigzag value or the length.
            if pos >= end:
                raise WireTruncated("truncated varint")
            byte = data[pos]
            pos += 1
            raw = byte & 0x7F
            shift = 7
            while byte & 0x80:
                if shift > 70:
                    raise WireError("varint too long")
                if pos >= end:
                    raise WireTruncated("truncated varint")
                byte = data[pos]
                pos += 1
                raw |= (byte & 0x7F) << shift
                shift += 7
            if wire_type == WIRE_LEN and pos + raw > end:
                raise WireTruncated("truncated length-delimited field")
            spec = by_number.get(key >> 3)
            if spec is None:
                raise WireError(
                    f"{self.name}: unexpected field number {key >> 3}")
            kind = spec.kind
            if wire_type == WIRE_VARINT:
                if kind != "int":
                    raise WireError(
                        f"{self.name}.{spec.name}: expected length-delimited")
                value = (raw >> 1) ^ -(raw & 1)
            elif kind == "int":
                raise WireError(f"{self.name}.{spec.name}: expected varint")
            else:
                value = data[pos:pos + raw]
                pos += raw
                if kind == "str":
                    try:
                        value = value.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise WireError(
                            f"{self.name}.{spec.name}: invalid utf-8") from exc
                elif kind == "message":
                    value = spec.message.decode(value)
            if spec.repeated:
                items = obj.get(spec.name)
                if items is None:
                    obj[spec.name] = [value]
                else:
                    items.append(value)
            else:
                obj[spec.name] = value
        # Materialize empty lists for absent repeated fields so decoded
        # images always have a stable shape.
        for name in self._repeated:
            if name not in obj:
                obj[name] = []
        return obj


def field(number: int, name: str, kind: str, repeated: bool = False,
          message: Schema = None) -> FieldSpec:
    """Convenience constructor mirroring a .proto field line."""
    return FieldSpec(number, name, kind, repeated, message)

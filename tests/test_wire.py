"""Tests for the protobuf-like wire format."""

import pytest
from hypothesis import given, strategies as st

from repro import wire
from repro.errors import WireError, WireTruncated


class TestVarint:
    def test_zero(self):
        assert wire.encode_varint(0) == b"\x00"

    def test_small_values_single_byte(self):
        for value in range(128):
            assert len(wire.encode_varint(value)) == 1

    def test_128_takes_two_bytes(self):
        assert wire.encode_varint(128) == b"\x80\x01"

    def test_decode_roundtrip_specific(self):
        for value in (0, 1, 127, 128, 300, 2 ** 32, 2 ** 63):
            data = wire.encode_varint(value)
            decoded, pos = wire.decode_varint(data)
            assert decoded == value
            assert pos == len(data)

    def test_negative_rejected(self):
        with pytest.raises(WireError):
            wire.encode_varint(-1)

    def test_truncated_raises(self):
        with pytest.raises(WireError):
            wire.decode_varint(b"\x80")

    def test_decode_with_offset(self):
        data = b"\xff" + wire.encode_varint(300)
        value, pos = wire.decode_varint(data, 1)
        assert value == 300
        assert pos == len(data)

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_roundtrip_property(self, value):
        decoded, _ = wire.decode_varint(wire.encode_varint(value))
        assert decoded == value


class TestZigzag:
    def test_known_values(self):
        assert wire.zigzag_encode(0) == 0
        assert wire.zigzag_encode(-1) == 1
        assert wire.zigzag_encode(1) == 2
        assert wire.zigzag_encode(-2) == 3

    @given(st.integers(min_value=-(2 ** 64), max_value=2 ** 64))
    def test_roundtrip_property(self, value):
        assert wire.zigzag_decode(wire.zigzag_encode(value)) == value

    @given(st.integers(min_value=-(2 ** 64), max_value=2 ** 64))
    def test_signed_varint_roundtrip(self, value):
        data = wire.encode_signed_varint(value)
        decoded, _ = wire.decode_signed_varint(data)
        assert decoded == value

    def test_upper_half_of_u64_survives_a_schema_roundtrip(self):
        """Python ints have no 64-bit sign bit: 2**63 used to come back
        as -(2**63) - 1, i.e. an address or register in the upper half
        of the u64 space restored as a different, negative number."""
        schema = wire.Schema("t", [wire.field(1, "x", "int"),
                                   wire.field(2, "xs", "int", repeated=True)])
        for value in (2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64,
                      -(2 ** 63) - 1, -(2 ** 64)):
            assert wire.zigzag_encode(value) >= 0
            obj = {"x": value, "xs": [value, -value]}
            assert schema.decode(schema.encode(obj)) == obj

    def test_in_range_bytes_unchanged(self):
        """Golden vectors written at the commit before the fix: every
        value in the signed 64-bit range encodes to the same bytes."""
        golden = {
            0: "00", -1: "01", 1: "02", 63: "7e", -64: "7f", 64: "8001",
            2 ** 31: "8080808010", -(2 ** 31): "ffffffff0f",
            2 ** 63 - 1: "feffffffffffffffff01",
            -(2 ** 63): "ffffffffffffffffff01",
        }
        for value, want in golden.items():
            assert wire.encode_signed_varint(value).hex() == want


class TestFields:
    def test_int_field_roundtrip(self):
        data = wire.encode_field(3, -42)
        fields = list(wire.iter_fields(data))
        assert fields == [(3, wire.WIRE_VARINT, -42)]

    def test_bytes_field_roundtrip(self):
        data = wire.encode_field(5, b"hello")
        fields = list(wire.iter_fields(data))
        assert fields == [(5, wire.WIRE_LEN, b"hello")]

    def test_str_field_encodes_utf8(self):
        data = wire.encode_field(1, "héllo")
        fields = list(wire.iter_fields(data))
        assert fields[0][2] == "héllo".encode("utf-8")

    def test_bool_encodes_as_int(self):
        data = wire.encode_field(1, True)
        assert list(wire.iter_fields(data))[0][2] == 1

    def test_unsupported_type_raises(self):
        with pytest.raises(WireError):
            wire.encode_field(1, 3.14)

    def test_truncated_length_delimited(self):
        data = wire.encode_field(1, b"hello")[:-2]
        with pytest.raises(WireError):
            list(wire.iter_fields(data))


NESTED = wire.Schema("inner", [
    wire.field(1, "x", "int"),
    wire.field(2, "tag", "str"),
])

OUTER = wire.Schema("outer", [
    wire.field(1, "name", "str"),
    wire.field(2, "count", "int"),
    wire.field(3, "blob", "bytes"),
    wire.field(4, "items", "message", repeated=True, message=NESTED),
    wire.field(5, "numbers", "int", repeated=True),
])


class TestSchema:
    def test_roundtrip(self):
        obj = {"name": "abc", "count": -7, "blob": b"\x00\x01",
               "items": [{"x": 1, "tag": "a"}, {"x": -2, "tag": "b"}],
               "numbers": [1, 2, 3]}
        decoded = OUTER.decode(OUTER.encode(obj))
        assert decoded == obj

    def test_absent_repeated_decodes_empty(self):
        decoded = OUTER.decode(OUTER.encode({"name": "x"}))
        assert decoded["items"] == []
        assert decoded["numbers"] == []

    def test_unknown_field_name_raises(self):
        with pytest.raises(WireError):
            OUTER.encode({"bogus": 1})

    def test_unknown_field_number_raises(self):
        data = wire.encode_field(99, 1)
        with pytest.raises(WireError):
            OUTER.decode(data)

    def test_duplicate_field_number_rejected(self):
        with pytest.raises(WireError):
            wire.Schema("bad", [wire.field(1, "a", "int"),
                                wire.field(1, "b", "int")])

    def test_duplicate_field_name_rejected(self):
        with pytest.raises(WireError):
            wire.Schema("bad", [wire.field(1, "a", "int"),
                                wire.field(2, "a", "int")])

    def test_message_kind_requires_schema(self):
        with pytest.raises(WireError):
            wire.field(1, "m", "message")

    def test_wrong_wire_type_raises(self):
        # field 2 ("count") is an int; feed it a length-delimited value
        data = wire.encode_field(2, b"oops")
        with pytest.raises(WireError):
            OUTER.decode(data)

    @given(st.lists(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
                    max_size=20),
           st.binary(max_size=64), st.text(max_size=32))
    def test_roundtrip_property(self, numbers, blob, name):
        obj = {"name": name, "blob": blob, "numbers": numbers, "items": []}
        assert OUTER.decode(OUTER.encode(obj)) == obj


class TestDecoderFuzz:
    """Truncated and garbage input must raise WireError — never hang,
    never read past the buffer, never leak a non-wire exception.

    The flight-recorder journal decoder sits on top of this layer, so a
    corrupt journal file must surface as a clean error."""

    def _decode_all(self, data):
        # Force the iter_fields generator to completion.
        return list(wire.iter_fields(data))

    def test_truncated_varint_every_prefix(self):
        data = wire.encode_varint(2 ** 56 - 1)
        for cut in range(len(data)):
            with pytest.raises(WireError):
                wire.decode_varint(data[:cut] if cut else b"")

    def test_overlong_varint_rejected(self):
        # 11 continuation bytes exceed the 70-bit shift limit.
        with pytest.raises(WireError):
            wire.decode_varint(b"\x80" * 11 + b"\x01")

    def test_length_prefix_beyond_buffer(self):
        # claims an on-wire length far past the end of the data
        data = wire._encode_key(1, wire.WIRE_LEN) + wire.encode_varint(1000)
        with pytest.raises(WireError):
            self._decode_all(data + b"short")

    def test_huge_length_prefix_does_not_allocate(self):
        data = wire._encode_key(1, wire.WIRE_LEN) \
            + wire.encode_varint(2 ** 62)
        with pytest.raises(WireError):
            self._decode_all(data)

    def test_unsupported_wire_types_rejected(self):
        for wire_type in (1, 3, 4, 5, 6, 7):
            with pytest.raises(WireError):
                self._decode_all(wire.encode_varint((1 << 3) | wire_type))

    def test_truncated_message_every_prefix(self):
        full = OUTER.encode({"name": "hello", "count": 7,
                             "blob": b"\x01\x02\x03",
                             "numbers": [1, -2, 3]})
        for cut in range(len(full)):
            try:
                OUTER.decode(full[:cut])
            except WireError:
                pass  # rejecting a truncation is always acceptable

    def test_invalid_utf8_in_str_field_raises_wire_error(self):
        data = wire._encode_key(1, wire.WIRE_LEN) \
            + wire.encode_varint(2) + b"\xff\xfe"
        with pytest.raises(WireError):
            OUTER.decode(data)

    @given(st.binary(max_size=256))
    def test_garbage_never_escapes_wire_error(self, data):
        try:
            self._decode_all(data)
        except WireError:
            pass

    @given(st.binary(max_size=256))
    def test_schema_decode_garbage_never_escapes_wire_error(self, data):
        try:
            OUTER.decode(data)
        except WireError:
            pass

    @given(st.binary(max_size=128), st.integers(0, 127))
    def test_corrupted_valid_message(self, noise, position):
        base = OUTER.encode({"name": "seed", "count": 1,
                             "blob": b"abc", "numbers": [5, 6]})
        data = base[:position % (len(base) + 1)] + noise
        try:
            OUTER.decode(data)
        except WireError:
            pass


# -- the fused Schema codec against the field-at-a-time helpers ----------------

def reference_encode(schema, obj):
    """``Schema.encode`` as it was before the loops were fused: one
    ``bytes`` per field from :func:`wire.encode_field`, concatenated."""
    out = b""
    for name, value in obj.items():
        spec = schema.by_name.get(name)
        if spec is None:
            raise WireError(f"{schema.name}: unknown field {name!r}")
        for item in (value if spec.repeated else [value]):
            if spec.kind == "message":
                payload = reference_encode(spec.message, item)
                out += (wire._encode_key(spec.number, wire.WIRE_LEN)
                        + wire.encode_varint(len(payload)) + payload)
                continue
            if spec.kind == "bytes" and isinstance(item, str):
                item = item.encode("latin-1")
            out += wire.encode_field(spec.number, item)
    return out


def reference_decode(schema, data):
    """``Schema.decode`` as it was before the loops were fused: fields
    from the :func:`wire.iter_fields` generator, typed one at a time.
    The order of the checks here *is* the error precedence the fused
    loop must keep."""
    obj = {}
    for number, wire_type, raw in wire.iter_fields(data):
        spec = schema.by_number.get(number)
        if spec is None:
            raise WireError(f"{schema.name}: unexpected field number {number}")
        if spec.kind == "int":
            if wire_type != wire.WIRE_VARINT:
                raise WireError(f"{schema.name}.{spec.name}: expected varint")
            value = raw
        elif wire_type != wire.WIRE_LEN:
            raise WireError(
                f"{schema.name}.{spec.name}: expected length-delimited")
        elif spec.kind == "bytes":
            value = raw
        elif spec.kind == "str":
            try:
                value = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireError(
                    f"{schema.name}.{spec.name}: invalid utf-8") from exc
        else:
            value = reference_decode(spec.message, raw)
        if spec.repeated:
            obj.setdefault(spec.name, []).append(value)
        else:
            obj[spec.name] = value
    for spec in schema.by_number.values():
        if spec.repeated and spec.name not in obj:
            obj[spec.name] = []
    return obj


def outcome(decode, schema, data):
    """What a decoder did with ``data``: the ordered fields, or the
    exact exception class and message."""
    try:
        return list(decode(schema, data).items())
    except WireError as exc:
        return type(exc), str(exc)


def same_decode(schema, data):
    got = outcome(lambda s, d: s.decode(d), schema, data)
    assert got == outcome(reference_decode, schema, data), data.hex()
    return got


#: OUTER plus a two-byte key (field 20), which the one-byte fast path
#: for keys must hand to the general varint reader
WIDE = wire.Schema("wide", [
    wire.field(1, "name", "str"),
    wire.field(2, "count", "int"),
    wire.field(3, "blob", "bytes"),
    wire.field(4, "items", "message", repeated=True, message=NESTED),
    wire.field(5, "numbers", "int", repeated=True),
    wire.field(20, "far", "int"),
])

GOLDEN_OBJ = {"name": "héllo", "count": -7, "blob": bytes(range(130)),
              "items": [{"x": 1, "tag": "a"}, {"x": -(2 ** 40), "tag": ""},
                        {}],
              "numbers": [0, -1, 127, 128, 2 ** 63 - 1, -(2 ** 63)]}

#: OUTER.encode(GOLDEN_OBJ), written at the commit before the fusion
GOLDEN_HEX = (
    "0a0668c3a96c6c6f100d1a8201" + bytes(range(130)).hex()
    + "22050802120161220908ffffffffff3f12002200"
    + "2800280128fe0128800228feffffffffffffffff0128ffffffffffffffffff01")


class TestFusedCodec:
    def test_golden_bytes(self):
        assert OUTER.encode(GOLDEN_OBJ).hex() == GOLDEN_HEX
        decoded = OUTER.decode(bytes.fromhex(GOLDEN_HEX))
        assert decoded == {**GOLDEN_OBJ,
                           "items": [{"x": 1, "tag": "a"},
                                     {"x": -(2 ** 40), "tag": ""}, {}]}
        assert OUTER.encode(decoded).hex() == GOLDEN_HEX

    def test_decode_keeps_wire_order_then_absent_repeated(self):
        data = OUTER.encode({"numbers": [1], "count": 2, "name": "n"})
        assert list(OUTER.decode(data)) == ["numbers", "count", "name",
                                            "items"]

    def test_error_precedence(self):
        key = wire._encode_key
        cases = [
            # a cut value beats the unknown field number it belongs to
            (key(9, wire.WIRE_VARINT) + b"\x80", WireTruncated),
            (key(9, wire.WIRE_LEN) + b"\x05ab", WireTruncated),
            # an unsupported wire type beats everything after the key
            (wire.encode_varint((9 << 3) | 5), WireError),
            # over-long beats truncated: the 11th continuation byte
            (key(2, wire.WIRE_VARINT) + b"\x80" * 11, WireError),
            (key(2, wire.WIRE_VARINT) + b"\x80" * 10, WireTruncated),
            # known number, wrong wire type, both ways
            (key(2, wire.WIRE_LEN) + b"\x01a", WireError),
            (key(1, wire.WIRE_VARINT) + b"\x02", WireError),
            # a two-byte key: truncated, then unknown, then fine
            (b"\xa0", WireTruncated),
            (wire.encode_varint(21 << 3) + b"\x02", WireError),
        ]
        for data, want in cases:
            got = same_decode(WIDE, data)
            assert got[0] is want, (data.hex(), got)
        assert same_decode(WIDE, key(20, wire.WIRE_VARINT) + b"\x03")[0] \
            == ("far", -2)

    def test_truncation_at_every_offset_matches_reference(self):
        full = WIDE.encode({**GOLDEN_OBJ, "far": 2 ** 64})
        for cut in range(len(full) + 1):
            same_decode(WIDE, full[:cut])

    def test_value_type_picks_the_wire_type(self):
        """Mistyped values encode exactly as they always did."""
        for obj in ({"count": "text"}, {"name": 5}, {"blob": "latin\xe9"},
                    {"count": True}, {"blob": bytearray(b"ab")},
                    {"numbers": [True, "x", b"y"]}):
            assert OUTER.encode(obj) == reference_encode(OUTER, obj)
        for obj in ({"count": 1.5}, {"bogus": 1}, {"items": [{"nope": 1}]}):
            with pytest.raises(WireError) as new:
                OUTER.encode(obj)
            with pytest.raises(WireError) as old:
                reference_encode(OUTER, obj)
            assert str(new.value) == str(old.value)

    @given(st.lists(st.integers(-(2 ** 64), 2 ** 64), max_size=12),
           st.binary(max_size=200), st.text(max_size=32),
           st.lists(st.tuples(st.integers(-(2 ** 64), 2 ** 64),
                              st.text(max_size=8)), max_size=4))
    def test_encode_matches_reference(self, numbers, blob, name, items):
        obj = {"name": name, "blob": blob, "numbers": numbers,
               "items": [{"x": x, "tag": tag} for x, tag in items]}
        data = OUTER.encode(obj)
        assert data == reference_encode(OUTER, obj)
        assert OUTER.decode(data) == obj

    @given(st.binary(max_size=96))
    def test_decode_matches_reference_on_garbage(self, data):
        same_decode(WIDE, data)

    @given(st.lists(st.tuples(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 20]),
                              st.sampled_from([0, 0, 2, 2, 1, 5]),
                              st.binary(max_size=12)), max_size=5))
    def test_decode_matches_reference_on_plausible_fields(self, parts):
        data = b"".join(wire.encode_varint((number << 3) | wire_type) + tail
                        for number, wire_type, tail in parts)
        same_decode(WIDE, data)

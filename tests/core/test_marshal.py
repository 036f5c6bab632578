"""Unit and property tests for the opaque invocation codec."""

import collections
import enum
import struct
from typing import Any, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marshal import (MarshalError, marshal_invocation,
                                marshal_result, pack, unmarshal_invocation,
                                unmarshal_result, unpack)


def test_scalar_round_trips():
    for value in (None, True, False, 0, -1, 2 ** 100, 3.25, "héllo", b"raw"):
        assert unpack(pack(value)) == value


def test_container_round_trips():
    value = {"files": [{"name": "a", "data": b"\x00" * 64}],
             "sizes": (1, 2, 3), "empty": [], "nested": {"k": None}}
    result = unpack(pack(value))
    assert result["files"] == value["files"]
    assert result["sizes"] == (1, 2, 3)


def test_canonical_dict_encoding():
    assert pack({"a": 1, "b": 2}) == pack({"b": 2, "a": 1})


def test_non_string_dict_keys_rejected():
    with pytest.raises(MarshalError):
        pack({1: "x"})


def test_unknown_type_rejected():
    with pytest.raises(MarshalError):
        pack(object())


def test_truncated_message_rejected():
    data = pack("hello world")
    with pytest.raises(MarshalError):
        unpack(data[:-3])


def test_trailing_garbage_rejected():
    with pytest.raises(MarshalError):
        unpack(pack(1) + b"x")


def test_invocation_round_trip():
    payload = marshal_invocation("getFileContents",
                                 {"path": "bin/gimp", "offset": 0})
    method, args = unmarshal_invocation(payload)
    assert method == "getFileContents"
    assert args == {"path": "bin/gimp", "offset": 0}


def test_result_round_trip():
    assert unmarshal_result(marshal_result([1, "two", b"3"])) == [1, "two",
                                                                  b"3"]


def test_result_is_not_an_invocation():
    with pytest.raises(MarshalError):
        unmarshal_invocation(marshal_result("x"))


_values = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.floats(allow_nan=False, allow_infinity=False) |
    st.text(max_size=40) | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20)


@given(_values)
def test_pack_unpack_property(value):
    assert unpack(pack(value)) == value


@given(_values)
def test_packed_size_grows_with_content(value):
    # Size sanity: encoding is never absurdly smaller than the content.
    data = pack(value)
    assert len(data) >= 1


@pytest.mark.parametrize("data", [
    b"", b"S", b"S\x00", b"M", b"M\x00\x00", b"D\x00", b"I\x00\x00\x00",
    b"L\x00\x00\x00\x01"], ids=["empty", "str-tag", "str-length",
                                "dict-tag", "dict-count", "float",
                                "int-length", "list-item"])
def test_truncated_headers_raise_marshal_error(data):
    with pytest.raises(MarshalError):
        unpack(data)


def test_invalid_utf8_raises_marshal_error():
    with pytest.raises(MarshalError):
        unpack(b"S\x00\x00\x00\x01\xff")


def test_runaway_nesting_raises_marshal_error():
    with pytest.raises(MarshalError):
        unpack(b"L\x00\x00\x00\x01" * 5000 + pack(None))


def test_non_str_dict_key_on_the_wire_rejected():
    # pack never writes one; an int or list key is malformed input.
    with pytest.raises(MarshalError):
        unpack(b"M\x00\x00\x00\x01" + pack(1) + pack(None))
    with pytest.raises(MarshalError):
        unpack(b"M\x00\x00\x00\x01" + pack([]) + pack(None))


@given(_values)
def test_every_proper_prefix_raises_marshal_error(value):
    data = pack(value)
    for end in range(len(data)):
        with pytest.raises(MarshalError):
            unpack(data[:end])


# -- reference codec ----------------------------------------------------------
#
# The plain isinstance ladder the codec used before it grew exact-type
# fast paths, kept here verbatim as the model of the wire format.

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_TUPLE = b"U"
_TAG_DICT = b"M"


def _ref_pack(value: Any) -> bytes:
    out = bytearray()
    _ref_encode(value, out)
    return bytes(out)


def _ref_encode(value: Any, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big",
                             signed=True)
        out += _TAG_INT + struct.pack(">I", len(raw)) + raw
    elif isinstance(value, float):
        out += _TAG_FLOAT + struct.pack(">d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _TAG_STR + struct.pack(">I", len(raw)) + raw
    elif isinstance(value, bytes):
        out += _TAG_BYTES + struct.pack(">I", len(value)) + value
    elif isinstance(value, (list, tuple)):
        tag = _TAG_LIST if isinstance(value, list) else _TAG_TUPLE
        out += tag + struct.pack(">I", len(value))
        for item in value:
            _ref_encode(item, out)
    elif isinstance(value, dict):
        out += _TAG_DICT + struct.pack(">I", len(value))
        # Sort keys for a canonical encoding (keys must be strings).
        try:
            items = sorted(value.items())
        except TypeError as exc:
            raise MarshalError("dict keys must be sortable strings") from exc
        for key, item in items:
            if not isinstance(key, str):
                raise MarshalError("dict keys must be str, got %r" % (key,))
            _ref_encode(key, out)
            _ref_encode(item, out)
    else:
        raise MarshalError("cannot marshal %r" % type(value).__name__)


def _ref_unpack(data: bytes) -> Any:
    value, offset = _ref_decode(data, 0)
    if offset != len(data):
        raise MarshalError("trailing garbage after value")
    return value


def _ref_decode(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise MarshalError("truncated message")
    tag = data[offset:offset + 1]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_FLOAT:
        (value,) = struct.unpack_from(">d", data, offset)
        return value, offset + 8
    if tag in (_TAG_INT, _TAG_STR, _TAG_BYTES):
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        raw = data[offset:offset + length]
        if len(raw) != length:
            raise MarshalError("truncated payload")
        offset += length
        if tag == _TAG_INT:
            return int.from_bytes(raw, "big", signed=True), offset
        if tag == _TAG_STR:
            return raw.decode("utf-8"), offset
        return raw, offset
    if tag in (_TAG_LIST, _TAG_TUPLE):
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _ref_decode(data, offset)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    if tag == _TAG_DICT:
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        result = {}
        for _ in range(count):
            key, offset = _ref_decode(data, offset)
            value, offset = _ref_decode(data, offset)
            result[key] = value
        return result, offset
    raise MarshalError("unknown tag %r at offset %d" % (tag, offset - 1))


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 2 ** 40


class _Label(str):
    pass


def _defaultdict(items):
    result = collections.defaultdict(list)
    result.update(items)
    return result


_keys = st.text(max_size=6) | st.text(max_size=6).map(_Label)
_leaves = (
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([2 ** 100, -2 ** 100, -1, 0, 2 ** 31, -2 ** 63])
    | st.sampled_from(list(_Level))
    | st.floats() | st.just(-0.0)
    | st.text(max_size=20) | st.text(max_size=20).map(_Label)
    | st.sampled_from(["héllo", "٠١٢", "日本語", "\U0001f600"])
    | st.binary(max_size=20))
_any_values = st.recursive(
    _leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_keys, children, max_size=4)
        | st.dictionaries(_keys, children, max_size=4).map(
            collections.OrderedDict)
        | st.dictionaries(_keys, children, max_size=4).map(_defaultdict)
        # Non-str keys: unsortable mixes and sortable ints alike.
        | st.dictionaries(st.integers(-3, 3) | st.text(max_size=2),
                          children, min_size=1, max_size=3)),
    max_leaves=20)


def _outcome(function, value):
    """``("ok", result)`` or ``("error", type, message)``."""
    try:
        return ("ok", function(value))
    except MarshalError as exc:
        return ("error", type(exc), str(exc))


def _same(a, b) -> bool:
    """Equal in value and in type, with floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return (list(a) == list(b)
                and all(_same(a[key], b[key]) for key in a))
    return a == b


@settings(deadline=None)
@given(_any_values)
def test_pack_matches_reference_codec(value):
    expected = _outcome(_ref_pack, value)
    assert _outcome(pack, value) == expected
    if expected[0] == "ok":
        data = expected[1]
        assert _same(unpack(data), _ref_unpack(data))


def _str_keys_only(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(map(_str_keys_only, value))
    if isinstance(value, dict):
        return all(type(key) is str and _str_keys_only(item)
                   for key, item in value.items())
    return True


@settings(deadline=None)
@given(_values, st.data())
def test_unpack_agrees_with_reference_on_damaged_input(value, data):
    """A damaged message either decodes as the reference decodes it or
    raises MarshalError, never another exception."""
    wire = bytearray(pack(value))
    for _ in range(data.draw(st.integers(1, 3))):
        index = data.draw(st.integers(0, len(wire) - 1))
        wire[index] = data.draw(st.integers(0, 255))
    wire = bytes(wire[:data.draw(st.integers(0, len(wire)))])
    try:
        expected = _ref_unpack(wire)
    except Exception:
        expected = MarshalError
    if expected is not MarshalError and not _str_keys_only(expected):
        # The reference let any decoded value be a dict key; the codec
        # accepts only the str keys pack writes.
        expected = MarshalError
    if expected is MarshalError:
        with pytest.raises(MarshalError):
            unpack(wire)
    else:
        assert _same(unpack(wire), expected)

"""Opaque invocation marshalling (paper §3.3).

Replication and communication subobjects "operate only on opaque
invocation messages in which method identifiers and parameters have
been encoded".  This module is that encoding: a small, deterministic,
self-describing binary format (tag + length + value) covering the value
types DSO methods use.  Because payloads really are ``bytes``, the
simulator's traffic accounting of invocation messages is exact.

The encoder dispatches on the exact type of a value and writes tag,
length and payload straight into the output buffer.  Its tests run in
the order of how often one round of each perfbench workload packs each
type: ``str`` (dict keys included, about two thirds of all values),
``dict``, ``int``, ``bytes``, ``list``/``tuple``, then ``True`` (the
``"ok"`` flag of reply envelopes that TLS MACs), ``None``, ``False``
and ``float``, which no workload packs.  A value of a subclass, such as
an ``IntEnum`` or an ``OrderedDict``, is first turned into its exact
base type by :func:`_as_base`, so each encoding rule is written once
and the wire format does not depend on the Python type.  The decoder
tests ``str``, ``int`` and ``bytes`` first, as they share one length
header and ``str`` alone is about two thirds of the tags read, then
dict, list/tuple and the one-byte tags; it raises :class:`MarshalError`
on any malformed input, including a truncated header.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

__all__ = [
    "pack",
    "unpack",
    "marshal_invocation",
    "unmarshal_invocation",
    "marshal_result",
    "unmarshal_result",
    "MarshalError",
]


class MarshalError(Exception):
    """Raised on encoding/decoding failures."""


# One-byte type tags, as ints (``bytearray.append``, ``data[offset]``).
_N, _T, _F, _I, _D, _S, _B, _L, _U, _M = b"NTFIDSBLUM"

_pack_u32 = struct.Struct(">I").pack
_pack_f64 = struct.Struct(">d").pack
_unpack_u32 = struct.Struct(">I").unpack_from
_unpack_f64 = struct.Struct(">d").unpack_from


def pack(value: Any) -> bytes:
    """Encode ``value`` into the tagged binary format."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def _encode(value: Any, out: bytearray) -> None:
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        out.append(_S)
        out += _pack_u32(len(raw))
        out += raw
    elif kind is dict:
        out.append(_M)
        out += _pack_u32(len(value))
        # Sort keys for a canonical encoding (keys must be strings).
        try:
            items = sorted(value.items())
        except TypeError as exc:
            raise MarshalError("dict keys must be sortable strings") from exc
        for key, item in items:
            if not isinstance(key, str):
                raise MarshalError("dict keys must be str, got %r" % (key,))
            _encode(key, out)
            _encode(item, out)
    elif kind is int:
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big",
                             signed=True)
        out.append(_I)
        out += _pack_u32(len(raw))
        out += raw
    elif kind is bytes:
        out.append(_B)
        out += _pack_u32(len(value))
        out += value
    elif kind is list or kind is tuple:
        out.append(_L if kind is list else _U)
        out += _pack_u32(len(value))
        for item in value:
            _encode(item, out)
    elif value is True:
        out.append(_T)
    elif value is None:
        out.append(_N)
    elif value is False:
        out.append(_F)
    elif kind is float:
        out.append(_D)
        out += _pack_f64(value)
    else:
        _encode(_as_base(value), out)


def _as_base(value: Any) -> Any:
    """``value``, an instance of a subclass of an encodable type, as an
    instance of that exact type; tested in the order of the type ladder
    the format was defined by (``bool`` is already handled as a value)."""
    if isinstance(value, int):
        return int.__int__(value)
    if isinstance(value, float):
        return float.__float__(value)
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, bytes):
        return bytes.__bytes__(value)
    if isinstance(value, list):
        return list(value)
    if isinstance(value, tuple):
        return tuple(value)
    if isinstance(value, dict):
        return dict(value.items())
    raise MarshalError("cannot marshal %r" % type(value).__name__)


def unpack(data: bytes) -> Any:
    """Decode a value previously produced by :func:`pack`."""
    try:
        value, offset = _decode(data, 0)
    except (IndexError, struct.error) as exc:
        # A tag, length, count or float header runs past the end.
        raise MarshalError("truncated message") from exc
    except UnicodeDecodeError as exc:
        raise MarshalError("string is not UTF-8") from exc
    except RecursionError as exc:
        raise MarshalError("containers nested too deeply") from exc
    if offset != len(data):
        raise MarshalError("trailing garbage after value")
    return value


def _decode(data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one value at ``offset``; return it and the next offset.

    Reading past the end raises ``IndexError`` or ``struct.error``,
    which :func:`unpack` turns into :class:`MarshalError`.
    """
    tag = data[offset]
    offset += 1
    if tag == _S or tag == _I or tag == _B:
        (length,) = _unpack_u32(data, offset)
        offset += 4
        end = offset + length
        raw = data[offset:end]
        if len(raw) != length:
            raise MarshalError("truncated payload")
        if tag == _S:
            return raw.decode("utf-8"), end
        if tag == _I:
            return int.from_bytes(raw, "big", signed=True), end
        return raw, end
    if tag == _M:
        (count,) = _unpack_u32(data, offset)
        offset += 4
        result = {}
        for _ in range(count):
            key, end = _decode(data, offset)
            if type(key) is not str:
                raise MarshalError("dict key at offset %d is not a str"
                                   % offset)
            result[key], offset = _decode(data, end)
        return result, offset
    if tag == _L or tag == _U:
        (count,) = _unpack_u32(data, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode(data, offset)
            items.append(item)
        return (items if tag == _L else tuple(items)), offset
    if tag == _N:
        return None, offset
    if tag == _T:
        return True, offset
    if tag == _F:
        return False, offset
    if tag == _D:
        (value,) = _unpack_f64(data, offset)
        return value, offset + 8
    raise MarshalError("unknown tag %r at offset %d"
                       % (data[offset - 1:offset], offset - 1))


def marshal_invocation(method: str, args: dict) -> bytes:
    """Encode a method invocation into an opaque message."""
    return pack({"m": method, "a": args})


def unmarshal_invocation(payload: bytes) -> Tuple[str, dict]:
    message = unpack(payload)
    try:
        return message["m"], message["a"]
    except (TypeError, KeyError) as exc:
        raise MarshalError("not an invocation message") from exc


def marshal_result(value: Any) -> bytes:
    """Encode a method result (or fault) into an opaque message."""
    return pack({"r": value})


def unmarshal_result(payload: bytes) -> Any:
    message = unpack(payload)
    try:
        return message["r"]
    except (TypeError, KeyError) as exc:
        raise MarshalError("not a result message") from exc

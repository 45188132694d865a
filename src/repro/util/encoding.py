"""Canonical encoding for signable protocol data.

Signatures are computed over a *canonical* byte representation so that two
parties independently serialising the same logical value always obtain the
same bytes.  The canonical form is JSON with sorted keys, no insignificant
whitespace, and ``bytes`` values encoded as tagged base64 strings.  This
mirrors the role DER/XER plays in classical non-repudiation systems while
remaining dependency-free and human-debuggable.
"""

from __future__ import annotations

import base64
import json
from binascii import b2a_base64
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable

_BYTES_TAG = "__b64__"
_FLOAT_TAG = "__float__"
#: Stored-record tags (record format v2, ``repro.storage``): a signed part
#: held inline, and a reference to one by content digest.
PART_TAG = "__part__"
REF_TAG = "__ref__"
#: Dict keys no value may use: a one-key dict with a tag as its key would
#: read back as the tagged value, not as itself.
RESERVED_KEYS = frozenset((_BYTES_TAG, _FLOAT_TAG, PART_TAG, REF_TAG))
_LEAVES = frozenset((str, int, bool, float, bytes))

# JSON cannot represent bytes, tuples or non-string keys; canonicalisation
# maps bytes to a tagged wrapper and tuples to lists.  Non-string dict keys
# are rejected outright: silently coercing them would let two parties
# disagree about what was signed.  Floats round-trip exactly through repr,
# but different producers may still format them differently (protocol
# data should use ints or strings), so they travel as a tagged repr.


class Encoded(bytes):
    """Canonical bytes of a value, spliced verbatim by :func:`canonical_bytes`.

    Wrapping the output of :func:`canonical_bytes` lets a caller embed an
    already-encoded value in a larger record without encoding it again:
    ``canonical_bytes({"k": Encoded(canonical_bytes(v))})`` equals
    ``canonical_bytes({"k": v})`` byte for byte.
    """

    __slots__ = ()


def _b64_leaf(data: bytes) -> str:
    return '{"__b64__":"' + b2a_base64(data, newline=False).decode("ascii") + '"}'


def _check_keys(value: dict) -> None:
    for key in value:
        if not isinstance(key, str):
            raise TypeError(f"canonical encoding requires str keys, got {key!r}")
        if key in RESERVED_KEYS:
            raise ValueError(f"dict key {key!r} is reserved")


def _emit(value: Any) -> str:
    # Exact-type dispatch with the common leaves inlined in the dict loop:
    # per-node calls and isinstance chains are the emitter's main cost.
    # The output is exactly json.dumps(sort_keys=True, separators=(",", ":"))
    # of the tagged form, so stored, hashed and signed bytes never change.
    cls = value.__class__
    if cls is str:
        return _quote(value)
    if cls is dict:
        if (_BYTES_TAG in value or _FLOAT_TAG in value or PART_TAG in value
                or REF_TAG in value
                or not all(map(isinstance, value, repeat(str)))):
            _check_keys(value)
        parts = []
        for key in sorted(value):
            item = value[key]
            kind = item.__class__
            if kind is str:
                parts.append(_quote(key) + ":" + _quote(item))
            elif kind is int:
                parts.append(_quote(key) + ":" + int.__repr__(item))
            elif kind is bytes:
                parts.append(_quote(key) + ":" + _b64_leaf(item))
            else:
                parts.append(_quote(key) + ":" + _emit(item))
        return "{" + ",".join(parts) + "}"
    if cls is bytes:
        return _b64_leaf(value)
    if cls is int:
        return int.__repr__(value)
    if cls is list or cls is tuple:
        return "[" + ",".join([_emit(item) for item in value]) + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if cls is Encoded:
        return value.decode("ascii")
    # Floats, and subclasses of the encodable types (rare in protocol data).
    if isinstance(value, float):
        return "{" + _quote(_FLOAT_TAG) + ":" + _quote(repr(value)) + "}"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, bytes):
        return _b64_leaf(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        return _emit(list(value))
    if isinstance(value, dict):
        return _emit(dict(value.items()))
    raise TypeError(f"value of type {type(value).__name__} is not canonically encodable")


def _decode_object(value: dict) -> Any:
    if len(value) == 1:
        if _BYTES_TAG in value:
            return base64.b64decode(value[_BYTES_TAG])
        if _FLOAT_TAG in value:
            return float(value[_FLOAT_TAG])
    return value


def canonical_bytes(value: Any) -> bytes:
    """Serialise *value* to its unique canonical byte string.

    :class:`Encoded` leaves are spliced in verbatim.
    """
    return _emit(value).encode("ascii")


def from_canonical_bytes(data: bytes) -> Any:
    """Inverse of :func:`canonical_bytes`."""
    return json.loads(data.decode("ascii"), object_hook=_decode_object)


def from_stored_bytes(data: bytes, resolve: "Callable[[str], bytes]") -> Any:
    """Decode a stored record that may hold part tags (record format v2).

    ``{"__part__": p}`` reads as ``p`` and ``{"__ref__": ref}`` as the
    value whose canonical bytes ``resolve(ref)`` returns, so the result is
    the record that was written.  The tags are reserved keys, so no
    encodable value contains them.
    """
    def hook(value: dict) -> Any:
        if len(value) == 1:
            if PART_TAG in value:
                return value[PART_TAG]
            if REF_TAG in value:
                return from_canonical_bytes(resolve(value[REF_TAG]))
        return _decode_object(value)

    return json.loads(data.decode("ascii"), object_hook=hook)


def canonical_copy(value: Any) -> Any:
    """``from_canonical_bytes(canonical_bytes(value))``, without the bytes.

    Engine states and read-cache snapshots are private copies.  This
    builds the tree the round trip would decode, but shares the immutable
    leaves instead of recreating every string, so copies held by readers
    cost far less memory.  Anything unusual takes the round trip, and a
    value the round trip rejects (reserved or non-str keys) raises the
    round trip's own error.
    """
    try:
        return _copy(value)
    except (TypeError, ValueError):
        return from_canonical_bytes(canonical_bytes(value))


def _copy(value: Any) -> Any:
    cls = value.__class__
    if cls is dict:
        if (_BYTES_TAG in value or _FLOAT_TAG in value or PART_TAG in value
                or REF_TAG in value
                or not all(key.__class__ is str for key in value)):
            return from_canonical_bytes(canonical_bytes(value))
        return {key: _copy(value[key]) for key in sorted(value)}
    if cls is list or cls is tuple:
        return [_copy(item) for item in value]
    if cls in _LEAVES or value is None:
        return value
    return from_canonical_bytes(canonical_bytes(value))


def b64(data: bytes) -> str:
    """Compact base64 helper used in logs and debug output."""
    return base64.b64encode(data).decode("ascii")


def unb64(text: str) -> bytes:
    """Inverse of :func:`b64`."""
    return base64.b64decode(text.encode("ascii"))

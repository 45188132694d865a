"""Canonical encoding: determinism, round-trips, and rejection rules."""

from __future__ import annotations

import base64
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.encoding import (
    Encoded,
    b64,
    canonical_bytes,
    canonical_copy,
    from_canonical_bytes,
    unb64,
)


# Keys the format reserves for its tags (bytes, floats, and the stored
# record's part tags).
_RESERVED = ("__b64__", "__float__", "__part__", "__ref__")


def _reference_encode_value(value):
    """The original two-pass canonicaliser, kept as the byte-identity oracle
    (rejecting every reserved key, not only ``__b64__``)."""
    if isinstance(value, bytes):
        return {"__b64__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, (list, tuple)):
        return [_reference_encode_value(item) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"canonical encoding requires str keys, got {key!r}")
            if key in _RESERVED:
                raise ValueError(f"dict key {key!r} is reserved")
            encoded[key] = _reference_encode_value(item)
        return encoded
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    raise TypeError(f"value of type {type(value).__name__} is not canonically encodable")


def reference_canonical_bytes(value):
    encoded = _reference_encode_value(value)
    text = json.dumps(encoded, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return text.encode("ascii")


def _outcome(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


class TestCanonicalBytes:
    def test_dict_key_order_is_irrelevant(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_nested_structures_round_trip(self):
        value = {"a": [1, 2, {"b": b"\x00\xff", "c": None}], "d": True}
        assert from_canonical_bytes(canonical_bytes(value)) == value

    def test_bytes_round_trip(self):
        value = {"blob": bytes(range(256))}
        assert from_canonical_bytes(canonical_bytes(value)) == value

    def test_tuples_normalise_to_lists(self):
        assert canonical_bytes((1, 2)) == canonical_bytes([1, 2])

    def test_distinct_values_encode_distinctly(self):
        assert canonical_bytes({"a": 1}) != canonical_bytes({"a": 2})

    def test_bool_and_int_are_distinguished_from_each_other(self):
        # JSON maps True -> true and 1 -> 1, which differ.
        assert canonical_bytes(True) != canonical_bytes(1)

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes({1: "a"})

    def test_reserved_key_rejected(self):
        with pytest.raises(ValueError):
            canonical_bytes({"__b64__": "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes({"x": object()})

    def test_float_round_trip(self):
        value = {"f": 0.1}
        assert from_canonical_bytes(canonical_bytes(value)) == value

    def test_output_is_ascii(self):
        canonical_bytes({"text": "héllo ünïcode"}).decode("ascii")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**53), max_value=2**53)
    | st.text(max_size=20) | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.text(max_size=8).filter(lambda s: s not in _RESERVED),
        children, max_size=4,
    ),
    max_leaves=12,
)


class TestCanonicalProperties:
    @given(json_values)
    def test_round_trip(self, value):
        assert from_canonical_bytes(canonical_bytes(value)) == value

    @given(json_values)
    def test_deterministic(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)

    @given(st.binary(max_size=64))
    def test_b64_round_trip(self, data):
        assert unb64(b64(data)) == data


# Every shape the protocol ships, plus the awkward corners: tuples,
# non-ASCII and astral text, big ints, floats, and dict keys that may be
# non-str or the reserved tag (both must still be rejected).
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.floats(),
    st.text(),
    st.text(alphabet=st.characters(min_codepoint=0x80)),
    st.binary(max_size=64),
)
_keys = st.one_of(
    st.text(max_size=10),
    st.sampled_from(list(_RESERVED) + ["", "é", "\u2028"]),
    st.integers(),
)
_any_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
    ),
    max_leaves=30,
)


class TestByteIdentity:
    """The single-pass emitter is byte-identical to the original encoder."""

    @settings(max_examples=400, deadline=None)
    @given(_any_values)
    def test_matches_reference_encoder(self, value):
        # A value with several faults may report any one of them.
        expected = _outcome(reference_canonical_bytes, value)
        if isinstance(expected, bytes):
            assert canonical_bytes(value) == expected
        else:
            with pytest.raises((TypeError, ValueError)):
                canonical_bytes(value)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(max_size=10), _any_values, max_size=4),
           st.text(max_size=10))
    def test_encoded_leaf_is_spliced_verbatim(self, outer, key):
        try:
            inner_bytes = canonical_bytes(outer)
        except (TypeError, ValueError):
            return
        expected = reference_canonical_bytes({"inner": outer, key: [outer]})
        spliced = canonical_bytes({"inner": Encoded(inner_bytes),
                                   key: [Encoded(inner_bytes)]})
        assert spliced == expected

    def test_reserved_key_rejected_at_any_depth(self):
        for key in _RESERVED:
            with pytest.raises(ValueError):
                canonical_bytes({"a": [{"b": {key: "x"}}]})

    def test_first_bad_key_decides_the_error(self):
        with pytest.raises(TypeError):
            canonical_bytes({1: "a", "__b64__": "x"})
        with pytest.raises(ValueError):
            canonical_bytes({"__b64__": "x", 1: "a"})

    def test_subclasses_encode_like_their_base(self):
        from collections import OrderedDict, namedtuple
        from enum import IntEnum

        class Colour(IntEnum):
            RED = 7

        Pair = namedtuple("Pair", "left right")
        value = OrderedDict([("z", Pair(Colour.RED, "x")), ("a", b"\x01")])
        assert canonical_bytes(value) == reference_canonical_bytes(value)

    def test_bytearray_is_not_encodable(self):
        with pytest.raises(TypeError):
            canonical_bytes({"x": bytearray(b"1")})


def _shape(value):
    """Value plus container types and dict key order, for exact comparison."""
    if isinstance(value, dict):
        return ("dict", type(value), [(key, _shape(item)) for key, item in value.items()])
    if isinstance(value, (list, tuple)):
        return ("seq", type(value), [_shape(item) for item in value])
    if isinstance(value, float) and value != value:
        return ("nan",)
    return (type(value), value)


class TestCanonicalCopy:
    """``canonical_copy`` is the codec round trip, without the bytes."""

    @settings(max_examples=400, deadline=None)
    @given(_any_values)
    def test_matches_the_round_trip(self, value):
        expected = _outcome(lambda v: _shape(from_canonical_bytes(canonical_bytes(v))), value)
        assert _outcome(lambda v: _shape(canonical_copy(v)), value) == expected

    def test_tag_shaped_dicts_round_trip_like_the_codec(self):
        # Every tag is a reserved key: the round trip rejects a dict using
        # one, so the copy does too.
        for key in _RESERVED:
            with pytest.raises(ValueError):
                canonical_copy({"x": {key: "1.5"}})

    def test_copy_is_independent_of_the_original(self):
        original = {"b": [1, {"c": [2]}], "a": "text"}
        copy = canonical_copy(original)
        original["b"][1]["c"].append(3)
        original["b"].append(4)
        assert copy == {"a": "text", "b": [1, {"c": [2]}]}
        assert list(copy) == ["a", "b"]

    def test_copy_shares_immutable_leaves(self):
        text = "x" * 1000
        original = {"a": [text, 1.5], "b": {"c": b"raw"}}
        copy = canonical_copy(original)
        assert copy["a"][0] is text
        assert copy["b"]["c"] is original["b"]["c"]
        assert copy["a"] is not original["a"]

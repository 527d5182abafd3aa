"""Property-based tests (hypothesis) for the CONGEST bit-size model.

``bits_of_payload`` is the measurement every O(log n)-bandwidth claim in
the reproduction rests on, so its algebra is pinned for *all* payloads,
not just fixtures: exact framing arithmetic, strict nesting monotonicity,
the bool-before-int dispatch subtlety, two's-complement width for
negative integers, and independence from set iteration order (documented
in the module docstring of :mod:`repro.congest.message`).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.message import Message, bits_of_payload

pytestmark = pytest.mark.property

# -- strategies --------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)

payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)

# No booleans: False == 0 (and True == 1), so a set built in a different
# insertion order can keep a different *representative* of an equal set —
# {False} is 1 bit, {0} is 2.  Order-independence of the accounting is a
# statement about fixed elements; see the note in repro.congest.message.
hashable_scalars = st.one_of(
    st.none(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=8),
)


# -- framing overhead bounds -------------------------------------------------


@given(items=st.lists(payloads, max_size=6))
@settings(max_examples=200)
def test_sequence_framing_is_exactly_two_bits_per_element(items):
    expected = sum(bits_of_payload(x) + 2 for x in items)
    assert bits_of_payload(items) == expected
    assert bits_of_payload(tuple(items)) == expected


@given(mapping=st.dictionaries(st.text(max_size=6), payloads, max_size=5))
@settings(max_examples=200)
def test_dict_framing_is_exactly_four_bits_per_pair(mapping):
    expected = sum(
        bits_of_payload(k) + bits_of_payload(v) + 4 for k, v in mapping.items()
    )
    assert bits_of_payload(mapping) == expected


@given(payload=payloads)
@settings(max_examples=200)
def test_every_payload_costs_at_least_framing(payload):
    bits = bits_of_payload(payload)
    assert bits >= 0
    if isinstance(payload, (list, tuple)):
        assert bits >= 2 * len(payload)
    if isinstance(payload, dict):
        assert bits >= 4 * len(payload)


# -- nesting monotonicity ----------------------------------------------------


@given(payload=payloads)
@settings(max_examples=200)
def test_wrapping_strictly_increases_size(payload):
    inner = bits_of_payload(payload)
    assert bits_of_payload([payload]) == inner + 2
    assert bits_of_payload((payload,)) == inner + 2
    assert bits_of_payload([payload]) > inner


@given(payload=payloads, depth=st.integers(min_value=1, max_value=6))
@settings(max_examples=100)
def test_nesting_depth_adds_exactly_two_bits_per_level(payload, depth):
    wrapped = payload
    for _ in range(depth):
        wrapped = [wrapped]
    assert bits_of_payload(wrapped) == bits_of_payload(payload) + 2 * depth


# -- bool vs int dispatch ----------------------------------------------------


@given(flag=st.booleans())
def test_bool_is_one_bit_despite_being_an_int(flag):
    # bool subclasses int; the isinstance(bool) check must win.
    assert bits_of_payload(flag) == 1
    assert bits_of_payload(int(flag)) == 2


# -- negative-int width ------------------------------------------------------


@given(value=st.integers(min_value=-(2**128), max_value=2**128))
@settings(max_examples=300)
def test_int_width_is_two_complement_with_sign_bit(value):
    assert bits_of_payload(value) == max(1, abs(value).bit_length()) + 1


@given(value=st.integers(min_value=0, max_value=2**128))
def test_negation_costs_nothing(value):
    assert bits_of_payload(-value) == bits_of_payload(value)


# -- set / frozenset ---------------------------------------------------------


@given(items=st.lists(hashable_scalars, max_size=8))
@settings(max_examples=200)
def test_set_bits_match_elementwise_sum_and_ignore_order(items):
    forward = set(items)
    backward = set()
    for item in reversed(items):
        backward.add(item)
    expected = sum(bits_of_payload(x) + 2 for x in forward)
    assert bits_of_payload(forward) == expected
    assert bits_of_payload(backward) == expected
    assert bits_of_payload(frozenset(items)) == expected


def test_equal_sets_with_different_representatives():
    # The documented Python quirk: equal sets, different elements kept.
    assert {False} == {0}
    assert bits_of_payload({False}) == 3  # 1 element bit + 2 framing
    assert bits_of_payload({0}) == 4  # 2 element bits + 2 framing


# -- Message integration -----------------------------------------------------


@given(payload=payloads)
@settings(max_examples=100)
def test_message_bits_equal_payload_bits(payload):
    assert Message(0, 1, payload).bits == bits_of_payload(payload)

"""Tests for the APNA header/packet wire format (paper Fig. 7)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wire.apna import (
    HEADER_SIZE,
    HEADER_SIZE_WITH_NONCE,
    ApnaHeader,
    ApnaPacket,
    Endpoint,
)
from repro.wire.errors import FieldError, ParseError


def make_header(**overrides):
    fields = dict(
        src_aid=0x0000AAAA,
        src_ephid=bytes(range(16)),
        dst_ephid=bytes(range(16, 32)),
        dst_aid=0x0000BBBB,
        mac=b"\xab" * 8,
    )
    fields.update(overrides)
    return ApnaHeader(**fields)


def test_header_is_48_bytes():
    # The paper's Fig. 7 sums the fields to 48 bytes.
    assert HEADER_SIZE == 48
    assert len(make_header().pack()) == 48


def test_header_with_nonce_is_56_bytes():
    assert HEADER_SIZE_WITH_NONCE == 56
    assert len(make_header(nonce=7).pack()) == 56


def test_field_layout_matches_figure_7():
    wire = make_header().pack()
    assert wire[0:4] == (0x0000AAAA).to_bytes(4, "big")  # Source AID
    assert wire[4:20] == bytes(range(16))  # Source EphID
    assert wire[20:36] == bytes(range(16, 32))  # Dest EphID
    assert wire[36:40] == (0x0000BBBB).to_bytes(4, "big")  # Dest AID
    assert wire[40:48] == b"\xab" * 8  # MAC


def test_parse_roundtrip():
    header = make_header()
    assert ApnaHeader.parse(header.pack()) == header


def test_parse_roundtrip_with_nonce():
    header = make_header(nonce=123456789)
    assert ApnaHeader.parse(header.pack(), with_nonce=True) == header


def test_parse_rejects_short_input():
    with pytest.raises(ParseError):
        ApnaHeader.parse(bytes(47))
    with pytest.raises(ParseError):
        ApnaHeader.parse(bytes(48), with_nonce=True)


@pytest.mark.parametrize(
    "overrides",
    [
        {"src_aid": -1},
        {"src_aid": 2**32},
        {"dst_aid": 2**32},
        {"src_ephid": bytes(15)},
        {"dst_ephid": bytes(17)},
        {"mac": bytes(7)},
        {"nonce": -1},
        {"nonce": 2**64},
    ],
)
def test_field_validation(overrides):
    with pytest.raises(FieldError):
        make_header(**overrides)


def test_mac_input_zeroes_mac_and_appends_payload():
    header = make_header()
    mac_input = header.mac_input(b"payload")
    assert mac_input[40:48] == bytes(8)
    assert mac_input[48:] == b"payload"
    # Everything else identical.
    assert mac_input[:40] == header.pack()[:40]


def test_with_mac():
    header = make_header(mac=bytes(8))
    stamped = header.with_mac(b"\x01" * 8)
    assert stamped.mac == b"\x01" * 8
    assert stamped.src_ephid == header.src_ephid


def test_reversed_swaps_endpoints():
    header = make_header(nonce=5)
    rev = header.reversed()
    assert rev.src_aid == header.dst_aid
    assert rev.dst_aid == header.src_aid
    assert rev.src_ephid == header.dst_ephid
    assert rev.dst_ephid == header.src_ephid
    assert rev.mac == bytes(8)
    assert rev.nonce == header.nonce


def test_packet_roundtrip():
    packet = ApnaPacket(make_header(), b"hello world")
    recovered = ApnaPacket.from_wire(packet.to_wire())
    assert recovered == packet
    assert recovered.wire_size == 48 + len(b"hello world")


def test_endpoint_validation():
    Endpoint(1, bytes(16))
    with pytest.raises(FieldError):
        Endpoint(2**32, bytes(16))
    with pytest.raises(FieldError):
        Endpoint(1, bytes(15))


def test_endpoint_str_redacts_ephid():
    text = str(Endpoint(7, bytes(16)))
    assert text.startswith("7:")
    assert len(text) < 20


@settings(max_examples=50, deadline=None)
@given(
    src_aid=st.integers(min_value=0, max_value=2**32 - 1),
    dst_aid=st.integers(min_value=0, max_value=2**32 - 1),
    src_ephid=st.binary(min_size=16, max_size=16),
    dst_ephid=st.binary(min_size=16, max_size=16),
    mac=st.binary(min_size=8, max_size=8),
    nonce=st.none() | st.integers(min_value=0, max_value=2**64 - 1),
    payload=st.binary(max_size=100),
)
def test_property_roundtrip(src_aid, dst_aid, src_ephid, dst_ephid, mac, nonce, payload):
    header = ApnaHeader(src_aid, src_ephid, dst_ephid, dst_aid, mac, nonce)
    packet = ApnaPacket(header, payload)
    recovered = ApnaPacket.from_wire(packet.to_wire(), with_nonce=nonce is not None)
    assert recovered == packet


# -- parse builds headers without rerunning the field checks -------------

_BOUNDARY_AIDS = (0, 1, 2**32 - 1)
_BOUNDARY_NONCES = (None, 0, 1, 2**64 - 1)


@pytest.mark.parametrize("nonce", _BOUNDARY_NONCES)
@pytest.mark.parametrize("src_aid", _BOUNDARY_AIDS)
@pytest.mark.parametrize("dst_aid", _BOUNDARY_AIDS)
def test_parsed_header_equals_constructed_header(src_aid, dst_aid, nonce):
    built = make_header(src_aid=src_aid, dst_aid=dst_aid, nonce=nonce)
    parsed = ApnaHeader.parse(built.pack() + b"trailing", with_nonce=nonce is not None)
    assert parsed == built and built == parsed
    assert hash(parsed) == hash(built)
    assert {parsed: 1}[built] == 1
    assert (parsed.src_aid, parsed.dst_aid, parsed.nonce) == (src_aid, dst_aid, nonce)
    assert parsed.wire_size == built.wire_size
    assert parsed.pack() == built.pack()
    assert parsed.mac_input(b"p") == built.mac_input(b"p")
    assert repr(parsed) == repr(built)


def test_parse_does_not_run_field_checks(monkeypatch):
    wire = make_header(nonce=9).pack()
    calls = []
    monkeypatch.setattr(ApnaHeader, "__post_init__", lambda self: calls.append(self))
    ApnaHeader.parse(wire, with_nonce=True)
    ApnaPacket.from_wire(wire[:HEADER_SIZE])
    assert calls == []
    make_header()
    assert len(calls) == 1


@pytest.mark.parametrize("with_nonce", [False, True])
def test_short_frames_raise_parse_error_in_both_formats(with_nonce):
    needed = HEADER_SIZE_WITH_NONCE if with_nonce else HEADER_SIZE
    for length in (0, 1, HEADER_SIZE - 1, needed - 1):
        with pytest.raises(ParseError):
            ApnaHeader.parse(bytes(length), with_nonce=with_nonce)
        with pytest.raises(ParseError):
            ApnaPacket.from_wire(bytes(length), with_nonce=with_nonce)
    assert ApnaHeader.parse(bytes(needed), with_nonce=with_nonce).src_aid == 0


def test_parsed_header_is_frozen():
    parsed = ApnaHeader.parse(make_header().pack())
    with pytest.raises(dataclasses.FrozenInstanceError):
        parsed.src_aid = 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"src_aid": 2**32},
        {"dst_aid": -1},
        {"src_ephid": bytes(15)},
        {"mac": bytes(9)},
        {"nonce": 2**64},
    ],
)
def test_derived_headers_still_validate(overrides):
    parsed = ApnaHeader.parse(make_header(nonce=3).pack(), with_nonce=True)
    with pytest.raises(FieldError):
        dataclasses.replace(parsed, **overrides)
    with pytest.raises(FieldError):
        ApnaHeader(**{**dataclasses.asdict(parsed), **overrides})
    if "mac" in overrides:
        with pytest.raises(FieldError):
            parsed.with_mac(overrides["mac"])


def test_reversed_validates_swapped_fields():
    # reversed() goes through the constructor: a header whose fields are
    # out of range (only reachable by bypassing the checks) fails there.
    parsed = ApnaHeader.parse(make_header().pack())
    broken = dataclasses.replace(parsed)
    object.__setattr__(broken, "dst_aid", 2**32)
    with pytest.raises(FieldError):
        broken.reversed()

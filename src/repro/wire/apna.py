"""The APNA network header (paper Fig. 7).

The header carries the communication endpoints as AID:EphID tuples plus a
MAC over the packet computed with the host<->AS shared key:

====================  ========
Field                 Size
====================  ========
Source AID            4 bytes
Source EphID          16 bytes
Dest EphID            16 bytes
Dest AID              4 bytes
MAC                   8 bytes
====================  ========

Total: 48 bytes.  Section VIII-D of the paper proposes an additional
per-packet nonce for replay protection; this is supported as an optional
8-byte extension negotiated deployment-wide (the base header stays 48
bytes so that the paper's overhead numbers hold by default).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

from .errors import FieldError, ParseError

EPHID_SIZE = 16
AID_SIZE = 4
MAC_SIZE = 8
HEADER_SIZE = 48
NONCE_SIZE = 8
HEADER_SIZE_WITH_NONCE = HEADER_SIZE + NONCE_SIZE

_MAX_AID = 2**32 - 1
_MAX_NONCE = 2**64 - 1

#: Wire layout of the fixed Fig. 7 header; the optional nonce extension
#: is a ``>Q`` suffix.  Shared by pack/parse/mac_input so the MAC is
#: always computed over exactly the bytes the wire carries.
_HEADER_FMT = f">I{EPHID_SIZE}s{EPHID_SIZE}sI{MAC_SIZE}s"
_HEADER = struct.Struct(_HEADER_FMT)
_HEADER_WITH_NONCE = struct.Struct(_HEADER_FMT + "Q")
_ZERO_MAC = bytes(MAC_SIZE)


@dataclass(frozen=True)
class ApnaHeader:
    """Parsed APNA header.

    ``mac`` is filled in by the sending host (see
    :meth:`repro.core.host.Host.send`); a zero MAC is used while computing
    the MAC input itself.  ``nonce`` is ``None`` unless the deployment
    enables replay protection (paper Section VIII-D).
    """

    src_aid: int
    src_ephid: bytes
    dst_ephid: bytes
    dst_aid: int
    mac: bytes = bytes(MAC_SIZE)
    nonce: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.src_aid <= _MAX_AID:
            raise FieldError(f"src_aid out of range: {self.src_aid}")
        if not 0 <= self.dst_aid <= _MAX_AID:
            raise FieldError(f"dst_aid out of range: {self.dst_aid}")
        if len(self.src_ephid) != EPHID_SIZE:
            raise FieldError(f"src_ephid must be {EPHID_SIZE} bytes")
        if len(self.dst_ephid) != EPHID_SIZE:
            raise FieldError(f"dst_ephid must be {EPHID_SIZE} bytes")
        if len(self.mac) != MAC_SIZE:
            raise FieldError(f"mac must be {MAC_SIZE} bytes")
        if self.nonce is not None and not 0 <= self.nonce <= _MAX_NONCE:
            raise FieldError(f"nonce out of range: {self.nonce}")

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE_WITH_NONCE if self.nonce is not None else HEADER_SIZE

    def pack(self) -> bytes:
        """Serialize the header."""
        return self._pack(self.mac)

    def _pack(self, mac: bytes) -> bytes:
        if self.nonce is None:
            return _HEADER.pack(
                self.src_aid, self.src_ephid, self.dst_ephid, self.dst_aid, mac
            )
        return _HEADER_WITH_NONCE.pack(
            self.src_aid, self.src_ephid, self.dst_ephid, self.dst_aid, mac,
            self.nonce,
        )

    @classmethod
    def parse(cls, data: bytes, *, with_nonce: bool = False) -> "ApnaHeader":
        """Parse a header from the start of ``data``.

        Whether a nonce is present is a deployment-wide configuration, not
        self-describing on the wire (the paper's header has no version
        field), so the caller must say which format it expects.

        The header is built without rerunning :meth:`__post_init__`: the
        fixed-width layout already guarantees every field (u32 AIDs,
        16-byte EphIDs, an 8-byte MAC, a u64 nonce).
        """
        layout = _HEADER_WITH_NONCE if with_nonce else _HEADER
        if len(data) < layout.size:
            raise ParseError(
                f"APNA header needs {layout.size} bytes, got {len(data)}"
            )
        if with_nonce:
            src_aid, src_ephid, dst_ephid, dst_aid, mac, nonce = layout.unpack_from(data)
        else:
            src_aid, src_ephid, dst_ephid, dst_aid, mac = layout.unpack_from(data)
            nonce = None
        # Field by field, as the dataclass __init__ does (a frozen
        # instance refuses plain assignment), minus the checks.
        header = object.__new__(cls)
        init = object.__setattr__
        init(header, "src_aid", src_aid)
        init(header, "src_ephid", src_ephid)
        init(header, "dst_ephid", dst_ephid)
        init(header, "dst_aid", dst_aid)
        init(header, "mac", mac)
        init(header, "nonce", nonce)
        return header

    def mac_input(self, payload: bytes) -> bytes:
        """Bytes the per-packet MAC is computed over (header w/ zero MAC + payload)."""
        return self._pack(_ZERO_MAC) + payload

    def with_mac(self, mac: bytes) -> "ApnaHeader":
        return replace(self, mac=mac)

    def reversed(self) -> "ApnaHeader":
        """Header for a reply packet (endpoints swapped, MAC cleared)."""
        return ApnaHeader(
            src_aid=self.dst_aid,
            src_ephid=self.dst_ephid,
            dst_ephid=self.src_ephid,
            dst_aid=self.src_aid,
            nonce=self.nonce,
        )


@dataclass(frozen=True)
class ApnaPacket:
    """An APNA packet: header plus (typically encrypted) payload."""

    header: ApnaHeader
    payload: bytes = b""

    def to_wire(self) -> bytes:
        return self.header.pack() + self.payload

    @classmethod
    def from_wire(cls, data: bytes, *, with_nonce: bool = False) -> "ApnaPacket":
        header = ApnaHeader.parse(data, with_nonce=with_nonce)
        return cls(header, data[header.wire_size :])

    @property
    def wire_size(self) -> int:
        return self.header.wire_size + len(self.payload)

    def mac_input(self) -> bytes:
        return self.header.mac_input(self.payload)


@dataclass(frozen=True)
class Endpoint:
    """A fully-qualified APNA endpoint: the AID:EphID tuple of Section III-B."""

    aid: int
    ephid: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.aid <= _MAX_AID:
            raise FieldError(f"aid out of range: {self.aid}")
        if len(self.ephid) != EPHID_SIZE:
            raise FieldError(f"ephid must be {EPHID_SIZE} bytes")

    def __str__(self) -> str:
        return f"{self.aid}:{self.ephid.hex()[:8]}…"

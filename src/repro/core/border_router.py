"""The APNA border router data plane (paper Fig. 4 and Section V-B).

Two pipelines, both built purely from symmetric cryptography:

* **Outgoing** (host -> Internet): decrypt the source EphID, check
  expiry / revocation / HID validity, verify the per-packet MAC with the
  host's kHA.  Only authenticated packets from authorized EphIDs leave
  the AS — this is the accountability enforcement point.
* **Incoming** (Internet -> host): transit packets are forwarded toward
  the destination AID untouched; at the destination AS the destination
  EphID is decrypted and checked, then the packet is forwarded
  intra-domain by HID.

The router is sans-IO: it turns a packet into a :class:`Verdict`, and the
AS assembly (or a benchmark loop) acts on it.  Per-host CMAC instances
are cached so steady-state verification costs one AES pass over the
packet.  A cold source (a HID the router has not MAC-checked before) is
verified with a one-shot CMAC context that is freed at once; the cached
instance builds its reusable key schedule on the HID's second packet,
which is where the cache starts to pay off (see
:class:`repro.crypto.cmac.Cmac`).  With the ``openssl`` crypto backend
active (see :mod:`repro.crypto.backend`) that pass — and the EphID open
before it — runs on AES-NI, which *is* the data path of the paper's
DPDK prototype rather than a simulation of it.

Burst pipeline
--------------

The paper's DPDK prototype hits line rate by computing verdicts over
*bursts* rather than single packets; :meth:`BorderRouter.process_batch`
(egress) and :meth:`BorderRouter.process_incoming_batch` (ingress) are
that loop.  A burst pays one clock read and one revocation prune; the
burst's distinct source/destination EphIDs are opened together through
:meth:`repro.core.ephid.EphIdCodec.open_batch` (two bulk ECB calls per
burst on the ``openssl`` backend, whatever the burst size); and the
per-packet MACs are verified grouped by HID through each host's cached
reusable CMAC context (:meth:`repro.crypto.cmac.Cmac.tag_many`).

Equivalence guarantee: for any packet list, ``process_batch(packets)``
returns exactly the list of :class:`Verdict` objects the scalar loop
``[process_outgoing(p) for p in packets]`` would return when the clock
does not advance between packets (the simulator's case — verdicts are
computed at one instant), and leaves the router in the identical state:
same drop counters, same forwarded counters, and the same replay-filter
inserts performed in the same packet order.  The batch path is pure
amortisation, not a semantic change; ``tests/test_batch_equivalence.py``
fuzzes this property under both crypto backends.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..crypto.cmac import Cmac
from ..crypto.util import ct_eq
from ..wire import icmp as icmp_wire
from ..wire.apna import ApnaPacket
from .ephid import EphIdCodec
from .errors import EphIdError
from .replay_filter import RotatingReplayFilter

if TYPE_CHECKING:
    from ..state.columns import ColumnarHostDatabase
    from ..state.revlist import ColumnarRevocationList


class Action(enum.Enum):
    FORWARD_INTER = "forward-inter"  # toward another AS
    FORWARD_INTRA = "forward-intra"  # to a local HID
    DROP = "drop"


class DropReason(enum.Enum):
    SRC_FORGED = "src-ephid-forged"
    SRC_EXPIRED = "src-ephid-expired"
    SRC_REVOKED = "src-ephid-revoked"
    SRC_HID_INVALID = "src-hid-invalid"
    BAD_MAC = "packet-mac-invalid"
    DST_FORGED = "dst-ephid-forged"
    DST_EXPIRED = "dst-ephid-expired"
    DST_REVOKED = "dst-ephid-revoked"
    DST_HID_INVALID = "dst-hid-invalid"
    NOT_LOCAL_SOURCE = "src-aid-foreign"
    REPLAYED = "packet-replayed"
    #: Dispatcher-side synthetic drop: the packet was in flight to a
    #: worker shard that crashed/hung before replying, so its real
    #: verdict is unknowable (:mod:`repro.sharding.supervisor` counts
    #: every such drop).  Single-process routers never emit it.
    SHARD_FAILURE = "shard-failure"


#: ICMP codes attached to (incoming-side) drops so the source can learn
#: why its packets die (Section VIII-B: ICMP works by default in APNA).
ICMP_CODES = {
    DropReason.DST_EXPIRED: icmp_wire.CODE_EPHID_EXPIRED,
    DropReason.DST_REVOKED: icmp_wire.CODE_EPHID_REVOKED,
    DropReason.DST_HID_INVALID: icmp_wire.CODE_HID_INVALID,
}


@dataclass(frozen=True)
class Verdict:
    """The router's decision for one packet."""

    action: Action
    reason: DropReason | None = None
    hid: int | None = None  # set for FORWARD_INTRA
    next_aid: int | None = None  # set for FORWARD_INTER

    @property
    def dropped(self) -> bool:
        return self.action is Action.DROP


class InterVerdicts(dict):
    """Interned FORWARD_INTER verdicts keyed by destination AID.

    Verdicts are frozen value objects, so bursts reuse one instance per
    destination instead of constructing thousands of equal dataclasses.
    Shared by the in-process router and the shard dispatcher's transit
    short-circuit (:mod:`repro.sharding.pool`).
    """

    def __missing__(self, dst_aid: int) -> Verdict:
        verdict = Verdict(Action.FORWARD_INTER, next_aid=dst_aid)
        self[dst_aid] = verdict
        return verdict


class BorderRouter:
    """One AS's border router."""

    def __init__(
        self,
        aid: int,
        codec: EphIdCodec,
        hostdb: ColumnarHostDatabase,
        revocations: ColumnarRevocationList,
        clock: Callable[[], float],
        *,
        packet_mac_size: int = 8,
        replay_filter: RotatingReplayFilter | None = None,
    ) -> None:
        self.aid = aid
        self._codec = codec
        self._hostdb = hostdb
        self._revocations = revocations
        self._clock = clock
        self._mac_size = packet_mac_size
        self._mac_cache: dict[int, Cmac] = {}
        #: Optional in-network replay detection (Section VIII-D future
        #: work; see :mod:`repro.core.replay_filter`).  Checked on both
        #: pipelines for packets that carry the replay nonce.
        self.replay_filter = replay_filter
        self.drops: dict[DropReason, int] = {reason: 0 for reason in DropReason}
        self.forwarded_inter = 0
        self.forwarded_intra = 0
        self._inter_verdicts = InterVerdicts()

    def _drop(self, reason: DropReason) -> Verdict:
        self.drops[reason] += 1
        return Verdict(Action.DROP, reason=reason)

    def _mac_for(self, hid: int) -> Cmac:
        mac = self._mac_cache.get(hid)
        if mac is None:
            mac = Cmac(self._hostdb.get(hid).keys.packet_mac)
            self._mac_cache[hid] = mac
        return mac

    # -- Fig. 4 bottom: outgoing packets --

    def process_outgoing(self, packet: ApnaPacket) -> Verdict:
        """Egress pipeline for a packet originated by a local host."""
        now = self._clock()
        self._revocations.maybe_prune(now)
        header = packet.header
        if header.src_aid != self.aid:
            return self._drop(DropReason.NOT_LOCAL_SOURCE)
        try:
            info = self._codec.open(header.src_ephid)
        except EphIdError:
            return self._drop(DropReason.SRC_FORGED)
        if info.exp_time < now:
            return self._drop(DropReason.SRC_EXPIRED)
        if self._revocations.contains(header.src_ephid):
            return self._drop(DropReason.SRC_REVOKED)
        if not self._hostdb.is_valid(info.hid):
            return self._drop(DropReason.SRC_HID_INVALID)
        expected = self._mac_for(info.hid).tag(packet.mac_input(), self._mac_size)
        if not ct_eq(expected, header.mac):
            return self._drop(DropReason.BAD_MAC)
        # Replay detection runs after the MAC check so that spoofed
        # packets cannot pollute the filter against a victim's nonces.
        if not self._replay_fresh(header, now):
            return self._drop(DropReason.REPLAYED)
        if header.dst_aid == self.aid:
            # Intra-AS communication: run the destination-side checks too.
            return self._deliver_local(packet, now)
        self.forwarded_inter += 1
        return Verdict(Action.FORWARD_INTER, next_aid=header.dst_aid)

    # -- Fig. 4 top: incoming packets --

    def process_incoming(self, packet: ApnaPacket) -> Verdict:
        """Ingress pipeline for a packet arriving from a neighbor AS."""
        header = packet.header
        if header.dst_aid != self.aid:
            # Transit: forward toward the destination AS.
            self.forwarded_inter += 1
            return Verdict(Action.FORWARD_INTER, next_aid=header.dst_aid)
        now = self._clock()
        self._revocations.maybe_prune(now)
        if not self._replay_fresh(header, now):
            return self._drop(DropReason.REPLAYED)
        return self._deliver_local(packet, now)

    def _replay_fresh(self, header, now: float) -> bool:
        """True unless the filter says this (EphID, nonce) was seen before.

        Packets without a nonce (the base Fig. 7 header) always pass;
        in-network replay detection needs the Section VIII-D nonce.
        ``now`` is the pipeline's single clock read, so the expiry and
        replay checks can never disagree on time across a filter
        rotation boundary.
        """
        if self.replay_filter is None or header.nonce is None:
            return True
        return self.replay_filter.observe(header.src_ephid, header.nonce, now)

    # -- burst pipelines (paper §V-B: verdicts are computed per burst) --

    def process_batch(self, packets: "list[ApnaPacket]") -> "list[Verdict]":
        """Egress pipeline over a burst; see the module docstring for the
        equivalence guarantee with the scalar :meth:`process_outgoing`.
        """
        if not packets:
            return []
        now = self._clock()
        self._revocations.maybe_prune(now)
        verdicts: list[Verdict | None] = [None] * len(packets)
        local_src: list[int] = []
        for i, packet in enumerate(packets):
            if packet.header.src_aid != self.aid:
                verdicts[i] = self._drop(DropReason.NOT_LOCAL_SOURCE)
            else:
                local_src.append(i)
        infos = self._open_many(
            [packets[i].header.src_ephid for i in local_src]
        )
        # Expiry / revocation / HID validity, then MAC work grouped by
        # HID so each group reuses one cached CMAC key schedule.
        by_hid: dict[int, list[int]] = {}
        for i in local_src:
            header = packets[i].header
            info = infos[header.src_ephid]
            if info is None:
                verdicts[i] = self._drop(DropReason.SRC_FORGED)
            elif info.exp_time < now:
                verdicts[i] = self._drop(DropReason.SRC_EXPIRED)
            elif self._revocations.contains(header.src_ephid):
                verdicts[i] = self._drop(DropReason.SRC_REVOKED)
            elif not self._hostdb.is_valid(info.hid):
                verdicts[i] = self._drop(DropReason.SRC_HID_INVALID)
            else:
                by_hid.setdefault(info.hid, []).append(i)
        authentic: list[int] = []
        for hid, indexes in by_hid.items():
            tags = self._mac_for(hid).tag_many(
                [packets[i].mac_input() for i in indexes], self._mac_size
            )
            for i, expected in zip(indexes, tags):
                if ct_eq(expected, packets[i].header.mac):
                    authentic.append(i)
                else:
                    verdicts[i] = self._drop(DropReason.BAD_MAC)
        # Replay inserts must happen in packet order so that a duplicate
        # nonce inside one burst is flagged exactly as the scalar loop
        # would flag it.
        authentic.sort()
        deliver: list[int] = []
        for i in authentic:
            header = packets[i].header
            if not self._replay_fresh(header, now):
                verdicts[i] = self._drop(DropReason.REPLAYED)
            elif header.dst_aid == self.aid:
                deliver.append(i)
            else:
                self.forwarded_inter += 1
                verdicts[i] = self._inter_verdicts[header.dst_aid]
        self._deliver_local_batch(packets, deliver, verdicts, now)
        return verdicts  # type: ignore[return-value]  # every slot is filled

    def process_incoming_batch(
        self, packets: "list[ApnaPacket]"
    ) -> "list[Verdict]":
        """Ingress pipeline over a burst; equivalence mirror of
        :meth:`process_incoming`."""
        verdicts: list[Verdict | None] = [None] * len(packets)
        local: list[int] = []
        for i, packet in enumerate(packets):
            if packet.header.dst_aid != self.aid:
                self.forwarded_inter += 1
                verdicts[i] = self._inter_verdicts[packet.header.dst_aid]
            else:
                local.append(i)
        if local:
            now = self._clock()
            self._revocations.maybe_prune(now)
            deliver: list[int] = []
            for i in local:
                if self._replay_fresh(packets[i].header, now):
                    deliver.append(i)
                else:
                    verdicts[i] = self._drop(DropReason.REPLAYED)
            self._deliver_local_batch(packets, deliver, verdicts, now)
        return verdicts  # type: ignore[return-value]  # every slot is filled

    def process_mixed_batch(
        self, packets: "list[ApnaPacket]", egress: "list[bool]"
    ) -> "list[Verdict]":
        """A burst of mixed directions: the egress subset through
        :meth:`process_batch`, the ingress subset through
        :meth:`process_incoming_batch`, verdicts merged back
        positionally.

        This is *the* drain loop of a burst-accumulating router node —
        shared by :class:`~repro.core.autonomous_system.BorderRouterNode`
        and the shard worker (:mod:`repro.sharding.worker`), so the
        sharded plane's equivalence with the in-process plane is
        structural rather than re-implemented.
        """
        verdicts: "list[Verdict | None]" = [None] * len(packets)
        egress_idx = [i for i, out in enumerate(egress) if out]
        ingress_idx = [i for i, out in enumerate(egress) if not out]
        for indexes, process in (
            (egress_idx, self.process_batch),
            (ingress_idx, self.process_incoming_batch),
        ):
            for i, verdict in zip(indexes, process([packets[i] for i in indexes])):
                verdicts[i] = verdict
        return verdicts  # type: ignore[return-value]  # every slot is filled

    def _open_many(self, ephids: "list[bytes]") -> dict:
        """Open the distinct EphIDs of a burst in one batched call.

        Bursts repeat EphIDs heavily (a flow's packets share one), so
        deduplication alone removes most of the per-packet open cost
        before the bulk AES calls amortise the rest.
        """
        unique = list(dict.fromkeys(ephids))
        return dict(zip(unique, self._codec.open_batch(unique)))

    def _deliver_local_batch(
        self,
        packets: "list[ApnaPacket]",
        indexes: "list[int]",
        verdicts: "list[Verdict | None]",
        now: float,
    ) -> None:
        """Destination-side checks for the burst's intra-delivery subset."""
        if not indexes:
            return
        infos = self._open_many(
            [packets[i].header.dst_ephid for i in indexes]
        )
        for i in indexes:
            header = packets[i].header
            info = infos[header.dst_ephid]
            if info is None:
                verdicts[i] = self._drop(DropReason.DST_FORGED)
            elif info.exp_time < now:
                verdicts[i] = self._drop(DropReason.DST_EXPIRED)
            elif self._revocations.contains(header.dst_ephid):
                verdicts[i] = self._drop(DropReason.DST_REVOKED)
            elif not self._hostdb.is_valid(info.hid):
                verdicts[i] = self._drop(DropReason.DST_HID_INVALID)
            else:
                self.forwarded_intra += 1
                verdicts[i] = Verdict(Action.FORWARD_INTRA, hid=info.hid)

    def _deliver_local(self, packet: ApnaPacket, now: float) -> Verdict:
        header = packet.header
        try:
            info = self._codec.open(header.dst_ephid)
        except EphIdError:
            return self._drop(DropReason.DST_FORGED)
        if info.exp_time < now:
            return self._drop(DropReason.DST_EXPIRED)
        if self._revocations.contains(header.dst_ephid):
            return self._drop(DropReason.DST_REVOKED)
        if not self._hostdb.is_valid(info.hid):
            return self._drop(DropReason.DST_HID_INVALID)
        self.forwarded_intra += 1
        return Verdict(Action.FORWARD_INTRA, hid=info.hid)

    # -- observability --

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())

    def drop_counts(self) -> dict[str, int]:
        return {reason.value: count for reason, count in self.drops.items() if count}

"""Input generation for the three workloads.

Every input is built here, in set-up, from the benchmark's ``--seed``:
the program under test receives only the generated frames and sealed
requests, never the seed.  Each generated operation carries the outcome
it must produce, derived from how it was built (a valid frame from a
registered host expects a forward, a frame with a flipped MAC byte
expects ``BAD_MAC``, ...) -- never from running a second router.

Data-plane time is simulated: burst ``k`` of a workload is processed at
``T0 + k * TICK`` on every plane, so expiry, revocation pruning and the
replay filter's rotation see the same clock whichever plane runs it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.core.border_router import Action, DropReason, Verdict
from repro.core.config import ApnaConfig
from repro.core.messages import EphIdRequest
from repro.crypto.aead import EtmScheme
from repro.crypto.cmac import Cmac
from repro.topology import WorldBuilder
from repro.wire.apna import HEADER_SIZE, HEADER_SIZE_WITH_NONCE, ApnaHeader

LOCAL_AID = 100
REMOTE_AID = 200
TRANSIT_AID = 300

#: Packets per burst on every plane.
BURST = 64
#: Simulated clock of burst 0, and seconds between bursts.
T0 = 1000.0
TICK = 0.01
#: Replay-filter generation length (simulated seconds): ten bursts, so a
#: generation holds a few hundred entries and a Bloom false positive on
#: a fresh packet is ~1e-9 per packet.
REPLAY_WINDOW = 0.1
#: Revocations are applied before every REVOKE_EVERY-th burst, covering
#: that group of bursts.  The sharded plane must drain its pipeline for
#: control traffic, so a per-burst schedule would disable pipelining;
#: 16 = 4 x DEPTH keeps it full three quarters of the time.  Synthetic,
#: like the traffic mixes below: no rate comes from the paper.
REVOKE_EVERY = 16
#: Expiry of every long-lived EphID (far beyond any run's clock).
FAR_EXP = int(T0) + 10**6

def forward_inter(aid: int) -> Verdict:
    return Verdict(Action.FORWARD_INTER, next_aid=aid)


def forward_intra(hid: int) -> Verdict:
    return Verdict(Action.FORWARD_INTRA, hid=hid)


def drop(reason: DropReason) -> Verdict:
    return Verdict(Action.DROP, reason=reason)


@dataclass
class Burst:
    """One burst of wire frames with the verdict each must receive."""

    index: int
    frames: "list[bytes]"
    egress: "list[bool]"
    expected: "list[Verdict]"
    #: Applied (in this order) before the burst is offered.
    revoke_ephids: "list[tuple[bytes, int]]" = field(default_factory=list)
    revoke_hids: "list[int]" = field(default_factory=list)

    @property
    def now(self) -> float:
        return T0 + self.index * TICK


@dataclass
class Request:
    """One Fig. 3 sealed EphID request and how to check its reply."""

    src_ephid: bytes
    sealed: bytes
    hid: int
    control_key: bytes


@dataclass
class Workload:
    name: str
    world: object
    asys: object
    config: ApnaConfig
    #: Timed inputs.
    bursts: "list[Burst]"
    requests: "list[Request]"
    #: True when inputs may be offered again once exhausted (long-lived
    #: flows, repeatable requests); False when every input is one-shot
    #: (cold sources), so a plane stops when it runs out.
    cycle: bool
    #: Set-up-only inputs that warm each plane's code paths.
    warm_bursts: "list[Burst]"
    warm_requests: "list[Request]"
    description: "dict[str, object]" = field(default_factory=dict)

    @property
    def with_nonce(self) -> bool:
        return self.config.replay_protection

    def close(self) -> None:
        self.world.close()


@dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` for measurement, ``TINY`` for self-tests."""

    steady_flows: int
    steady_bursts: int
    cold_population: int
    cold_bursts: int
    cold_requests: int
    issuance_hosts: int
    issuance_bursts: int


FULL = Size(
    steady_flows=32,
    steady_bursts=128,
    cold_population=1 << 17,
    cold_bursts=1024,
    cold_requests=6144,
    issuance_hosts=1024,
    issuance_bursts=64,
)
TINY = Size(
    steady_flows=8,
    steady_bursts=8,
    cold_population=4096,
    cold_bursts=48,
    cold_requests=64,
    issuance_hosts=32,
    issuance_bursts=4,
)


class _Builder:
    """Shared machinery: one world, one seeded RNG, sealing helpers."""

    def __init__(self, seed: int, config: ApnaConfig, population: int) -> None:
        self.rng = random.Random(seed)
        # The world's own seed is a generated input like any other.
        world_seed = self.rng.getrandbits(32)
        self.world = (
            WorldBuilder(seed=world_seed, config=config)
            .asys("a", aid=LOCAL_AID)
            .asys("b", aid=REMOTE_AID)
            .link("a", "b", latency=0.010, bandwidth=1e10)
            .population(population, at="a")
            .build()
        )
        self.config = config
        self.asys = self.world.asys("a")
        # Only AS a's data plane is measured; AS b's shards are not needed.
        self.world.asys("b").stop_shard_pool(final=True)
        hids = list(self.world.population("a"))
        self.rng.shuffle(hids)
        self._hids = iter(hids)
        self._nonce = 0
        self.header_size = (
            HEADER_SIZE_WITH_NONCE if config.replay_protection else HEADER_SIZE
        )

    def host(self) -> int:
        """A population host that no earlier input has used."""
        return next(self._hids)

    def seal(self, hid: int, exp: int = FAR_EXP) -> bytes:
        asys = self.asys
        return asys.codec.seal(hid, exp, asys.ivs.next_iv_for(hid))

    def remote_ephid(self) -> bytes:
        """A remote endpoint's EphID: AS a never opens it, so any 16
        bytes do (unique, so remote sources never collide in the replay
        filter)."""
        return self.rng.randbytes(16)

    def mac_context(self, hid: int) -> Cmac:
        return Cmac(self.asys.hostdb.get(hid).keys.packet_mac)

    def nonce(self) -> "int | None":
        if not self.config.replay_protection:
            return None
        self._nonce += 1
        return self._nonce

    def frame(
        self,
        src: "tuple[int, bytes]",
        dst: "tuple[int, bytes]",
        size: int,
        mac: "Cmac | None",
        *,
        bad_mac: bool = False,
    ) -> bytes:
        """Wire bytes of one packet; ``mac=None`` leaves a random MAC
        (ingress frames are not MAC-checked by the destination AS)."""
        payload = self.rng.randbytes(size - self.header_size)
        nonce = self.nonce()
        if mac is None:
            tag = self.rng.randbytes(8)
        else:
            unsigned = ApnaHeader(src[0], src[1], dst[1], dst[0], nonce=nonce)
            tag = mac.tag(unsigned.mac_input(payload), 8)
            if bad_mac:
                tag = bytes([tag[0] ^ 0x01]) + tag[1:]
        return ApnaHeader(src[0], src[1], dst[1], dst[0], tag, nonce).pack() + payload

    def request(self, hid: int) -> Request:
        """A sealed Fig. 3 request from ``hid`` under its control EphID."""
        control_key = self.asys.hostdb.get(hid).keys.control
        control_ephid = self.seal(hid, int(self.config.control_ephid_lifetime))
        body = EphIdRequest(
            dh_public=self.rng.randbytes(32), sig_public=self.rng.randbytes(32)
        ).pack()
        nonce = self.rng.randbytes(12)
        sealed = nonce + EtmScheme(control_key).seal(nonce, body, b"ephid-request")
        return Request(control_ephid, sealed, hid, control_key)


def _shuffled_burst(rng: random.Random, index: int, items: list) -> Burst:
    rng.shuffle(items)
    return Burst(
        index=index,
        frames=[frame for frame, _, _ in items],
        egress=[out for _, out, _ in items],
        expected=[verdict for _, _, verdict in items],
    )


# -- steady-flows ---------------------------------------------------------

#: Frames per burst of each kind (sums to BURST).  A synthetic mix, not
#: a measured or published one: half egress, the one direction on which
#: the source AS runs the whole Fig. 4 check (EphID open, host checks,
#: CMAC over the payload); a quarter ingress (destination EphID open
#: only); the last quarter transit (no crypto: parse and forward) and a
#: few intra-AS frames (both ends opened), so every path runs in every
#: burst.
STEADY_MIX = {"egress": 32, "intra": 4, "ingress": 16, "transit": 12}
STEADY_SIZES = (128, 512, 1518)


def build_steady_flows(seed: int, size: Size = FULL) -> Workload:
    """A two-AS world with a few dozen long-lived flows, no nonce.

    Each flow is one local host with one long-lived EphID talking to one
    remote endpoint; frames are egress to AS b, intra-AS, ingress to the
    local host, and transit (AS b to AS 300), at 128/512/1518 B.
    """
    config = ApnaConfig(forwarding_shards=2)
    b = _Builder(seed, config, population=2 * size.steady_flows)
    flows = []
    for _ in range(size.steady_flows):
        hid = b.host()
        flows.append((hid, b.seal(hid), b.remote_ephid(), b.mac_context(hid)))
    rng = b.rng

    def burst(index: int) -> Burst:
        items = []
        for kind, count in STEADY_MIX.items():
            for _ in range(count):
                hid, ephid, remote, mac = rng.choice(flows)
                length = rng.choice(STEADY_SIZES)
                if kind == "egress":
                    frame = b.frame((LOCAL_AID, ephid), (REMOTE_AID, remote), length, mac)
                    items.append((frame, True, forward_inter(REMOTE_AID)))
                elif kind == "intra":
                    peer = rng.choice([f for f in flows if f[0] != hid])
                    frame = b.frame((LOCAL_AID, ephid), (LOCAL_AID, peer[1]), length, mac)
                    items.append((frame, True, forward_intra(peer[0])))
                elif kind == "ingress":
                    frame = b.frame((REMOTE_AID, remote), (LOCAL_AID, ephid), length, None)
                    items.append((frame, False, forward_intra(hid)))
                else:
                    frame = b.frame(
                        (REMOTE_AID, remote), (TRANSIT_AID, rng.randbytes(16)), length, None
                    )
                    items.append((frame, False, forward_inter(TRANSIT_AID)))
        return _shuffled_burst(rng, index, items)

    bursts = [burst(index) for index in range(size.steady_bursts)]
    requests = [b.request(hid) for hid, _, _, _ in flows]
    return Workload(
        name="steady-flows",
        world=b.world,
        asys=b.asys,
        config=config,
        bursts=bursts,
        requests=requests,
        cycle=True,
        # Long-lived flows: warm-up offers the timed inputs themselves so
        # every per-host CMAC context and MS scheme is cached.
        warm_bursts=bursts,
        warm_requests=requests,
        description={
            "flows": size.steady_flows,
            "burst_mix": dict(STEADY_MIX),
            "frame_sizes": list(STEADY_SIZES),
            "nonce": False,
        },
    )


# -- cold-crowd -----------------------------------------------------------

#: Frames per burst of each class (sums to BURST).  Every valid frame's
#: source (or, ingress, destination) is a host that sends nowhere else.
#: Synthetic, like STEADY_MIX: one expected drop of each class, the
#: smallest share that still times every drop path in every burst; of
#: the valid frames, egress (the whole Fig. 4 check) takes the rest
#: after an eighth ingress and a few intra-AS and transit frames.
COLD_MIX = {
    "egress": 43,
    "ingress": 8,
    "intra": 4,
    "transit": 2,
    DropReason.SRC_FORGED: 1,
    DropReason.SRC_EXPIRED: 1,
    DropReason.SRC_REVOKED: 1,
    DropReason.SRC_HID_INVALID: 1,
    DropReason.BAD_MAC: 1,
    DropReason.REPLAYED: 1,
    DropReason.NOT_LOCAL_SOURCE: 1,
}
COLD_SIZE = 128


def build_cold_crowd(seed: int, size: Size = FULL) -> Workload:
    """A >=10^5-host columnar population, 128 B frames, replay filter on.

    Every timed frame's EphID is freshly sealed and sent once; a fixed
    share of every burst is an expected drop of each adversarial class;
    EphID and HID revocations land between bursts at a fixed rate.
    """
    config = ApnaConfig(
        forwarding_shards=2,
        replay_protection=True,
        in_network_replay_filter=True,
        replay_filter_window=REPLAY_WINDOW,
    )
    b = _Builder(seed, config, population=size.cold_population)
    rng = b.rng

    def fresh(exp: int = FAR_EXP) -> "tuple[int, bytes]":
        hid = b.host()
        return hid, b.seal(hid, exp)

    def burst(index: int, group_exp: int) -> Burst:
        items = []
        revoke_ephids: "list[tuple[bytes, int]]" = []
        revoke_hids: "list[int]" = []
        egress_frames: "list[bytes]" = []
        for kind, count in COLD_MIX.items():
            if kind is DropReason.REPLAYED:
                continue
            for _ in range(count):
                remote = (REMOTE_AID, b.remote_ephid())
                if kind == "egress":
                    hid, ephid = fresh()
                    frame = b.frame((LOCAL_AID, ephid), remote, COLD_SIZE, b.mac_context(hid))
                    egress_frames.append(frame)
                    items.append((frame, True, forward_inter(REMOTE_AID)))
                elif kind == "ingress":
                    hid, ephid = fresh()
                    frame = b.frame(remote, (LOCAL_AID, ephid), COLD_SIZE, None)
                    items.append((frame, False, forward_intra(hid)))
                elif kind == "intra":
                    hid, ephid = fresh()
                    peer, peer_ephid = fresh()
                    frame = b.frame(
                        (LOCAL_AID, ephid), (LOCAL_AID, peer_ephid), COLD_SIZE, b.mac_context(hid)
                    )
                    items.append((frame, True, forward_intra(peer)))
                elif kind == "transit":
                    frame = b.frame(remote, (TRANSIT_AID, rng.randbytes(16)), COLD_SIZE, None)
                    items.append((frame, False, forward_inter(TRANSIT_AID)))
                elif kind is DropReason.SRC_FORGED:
                    hid, ephid = fresh()
                    forged = ephid[:-1] + bytes([ephid[-1] ^ 0x01])
                    frame = b.frame((LOCAL_AID, forged), remote, COLD_SIZE, b.mac_context(hid))
                    items.append((frame, True, drop(kind)))
                elif kind is DropReason.SRC_EXPIRED:
                    hid, ephid = fresh(exp=int(T0) - 10)
                    frame = b.frame((LOCAL_AID, ephid), remote, COLD_SIZE, b.mac_context(hid))
                    items.append((frame, True, drop(kind)))
                elif kind is DropReason.SRC_REVOKED:
                    # Expires a second or two after its revocation, so
                    # the revocation list's expiry pruning has work.
                    hid, ephid = fresh(exp=group_exp)
                    revoke_ephids.append((ephid, group_exp))
                    frame = b.frame((LOCAL_AID, ephid), remote, COLD_SIZE, b.mac_context(hid))
                    items.append((frame, True, drop(kind)))
                elif kind is DropReason.SRC_HID_INVALID:
                    hid, ephid = fresh()
                    revoke_hids.append(hid)
                    frame = b.frame((LOCAL_AID, ephid), remote, COLD_SIZE, b.mac_context(hid))
                    items.append((frame, True, drop(kind)))
                elif kind is DropReason.BAD_MAC:
                    hid, ephid = fresh()
                    frame = b.frame(
                        (LOCAL_AID, ephid), remote, COLD_SIZE, b.mac_context(hid), bad_mac=True
                    )
                    items.append((frame, True, drop(kind)))
                elif kind is DropReason.NOT_LOCAL_SOURCE:
                    frame = b.frame(remote, remote, COLD_SIZE, None)
                    items.append((frame, True, drop(kind)))
        # Replays are byte-identical copies of this burst's valid egress
        # frames, placed after their original.
        built = _shuffled_burst(rng, index, items)
        for original in rng.sample(egress_frames, COLD_MIX[DropReason.REPLAYED]):
            at = rng.randint(built.frames.index(original) + 1, len(built.frames))
            built.frames.insert(at, original)
            built.egress.insert(at, True)
            built.expected.insert(at, drop(DropReason.REPLAYED))
        built.revoke_ephids, built.revoke_hids = revoke_ephids, revoke_hids
        return built

    def bursts(count: int, first_index: int) -> "list[Burst]":
        out: "list[Burst]" = []
        for index in range(first_index, first_index + count):
            group = index - index % REVOKE_EVERY
            group_exp = math.ceil(T0 + group * TICK) + 1
            out.append(burst(index, group_exp))
        # Each group's revocations land before its first burst.
        for start in range(0, len(out), REVOKE_EVERY):
            head = out[start]
            for other in out[start + 1 : start + REVOKE_EVERY]:
                head.revoke_ephids += other.revoke_ephids
                head.revoke_hids += other.revoke_hids
                other.revoke_ephids, other.revoke_hids = [], []
        return out

    timed = bursts(size.cold_bursts, 0)
    requests = [b.request(b.host()) for _ in range(size.cold_requests)]
    # Warm-up inputs use hosts no timed input uses and run on discarded
    # routers, at burst indexes before the timed ones so the shard
    # workers' replay-filter clock never runs ahead of the timed bursts.
    warm = bursts(2, -REVOKE_EVERY)
    warm_requests = [b.request(b.host()) for _ in range(8)]
    return Workload(
        name="cold-crowd",
        world=b.world,
        asys=b.asys,
        config=config,
        bursts=timed,
        requests=requests,
        cycle=False,
        warm_bursts=warm,
        warm_requests=warm_requests,
        description={
            "population": size.cold_population,
            "burst_mix": {getattr(k, "name", k): v for k, v in COLD_MIX.items()},
            "frame_sizes": [COLD_SIZE],
            "nonce": True,
            "revoke_every_bursts": REVOKE_EVERY,
        },
    )


# -- issuance -------------------------------------------------------------

ISSUANCE_FRAME = 512


def build_issuance(seed: int, size: Size = FULL) -> Workload:
    """Fig. 3 sealed requests from many hosts, repeated by one client.

    The data planes carry a plain egress mix (one long-lived EphID per
    requesting host, 512 B) so every plane has a row on this workload;
    the MS path is what this workload is for.
    """
    config = ApnaConfig(forwarding_shards=2)
    b = _Builder(seed, config, population=2 * size.issuance_hosts)
    hosts = [b.host() for _ in range(size.issuance_hosts)]
    requests = [b.request(hid) for hid in hosts]
    senders = [(hid, b.seal(hid), b.mac_context(hid)) for hid in hosts]
    rng = b.rng
    bursts = []
    for index in range(size.issuance_bursts):
        items = []
        for _ in range(BURST):
            hid, ephid, mac = rng.choice(senders)
            frame = b.frame(
                (LOCAL_AID, ephid), (REMOTE_AID, b.remote_ephid()), ISSUANCE_FRAME, mac
            )
            items.append((frame, True, forward_inter(REMOTE_AID)))
        bursts.append(_shuffled_burst(rng, index, items))
    return Workload(
        name="issuance",
        world=b.world,
        asys=b.asys,
        config=config,
        bursts=bursts,
        requests=requests,
        cycle=True,
        warm_bursts=bursts,
        warm_requests=requests,
        description={
            "requesting_hosts": size.issuance_hosts,
            "frame_sizes": [ISSUANCE_FRAME],
            "nonce": False,
        },
    )


BUILDERS = {
    "steady-flows": build_steady_flows,
    "cold-crowd": build_cold_crowd,
    "issuance": build_issuance,
}

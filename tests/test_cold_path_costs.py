"""Exact work counts of one cold burst through the border router.

A cold burst is one in which (almost) every source is a host the router
has not seen: no per-host CMAC context is cached and the replay filter
knows none of the nonces.  Wall time on a shared host is too noisy to
gate, so this pins the *work* such a burst does, counted through
monkeypatched seams and independent of timing:

* one SHA-256 per replay-filter ``observe``;
* one OpenSSL CMAC context per distinct MAC-checked HID, and a reusable
  base context kept only for HIDs with two or more MAC-checked packets;
* no ``ApnaHeader.__post_init__`` run while parsing the wire frames;
* two bulk block-cipher calls per ``EphIdCodec.open_batch``, and no
  single-block ones.
"""

import random

import pytest

from repro.core import replay_filter as replay_filter_mod
from repro.core.border_router import Action, BorderRouter, DropReason
from repro.core.ephid import EphIdCodec
from repro.core.hostdb import HostDatabase, HostRecord
from repro.core.keys import HostAsKeys
from repro.core.replay_filter import RotatingReplayFilter
from repro.core.revocation import RevocationList
from repro.crypto import backend as crypto_backend
from repro.crypto.aes import AES
from repro.crypto.cmac import Cmac
from repro.wire.apna import ApnaHeader, ApnaPacket

pytestmark = pytest.mark.skipif(
    "openssl" not in crypto_backend.available_backends(),
    reason="counts OpenSSL CMAC contexts",
)

LOCAL, REMOTE, TRANSIT = 100, 200, 300
NOW = 1000.0
FAR = 10**6


class _Counted:
    """Call counter around one function, installable as a method."""

    def __init__(self, func):
        self.func, self.calls = func, 0

    def __get__(self, obj, owner=None):
        return self if obj is None else (lambda *a, **k: self(obj, *a, **k))

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.func(*args, **kwargs)


class _Burst:
    """Builds wire frames for fresh hosts; records what each should get."""

    def __init__(self, rng):
        self.rng = rng
        self.hostdb = HostDatabase()
        self.codec = EphIdCodec(rng.randbytes(16), rng.randbytes(16), backend="openssl")
        self.frames, self.egress, self.expected = [], [], []
        self.mac_checked = {}  # HID -> MAC-checked packets in the burst
        self.observed = 0  # packets that reach the replay filter
        self._nonce = 0

    def host(self, exp=FAR):
        hid = self.hostdb.allocate_hid()
        keys = HostAsKeys(control=self.rng.randbytes(16), packet_mac=self.rng.randbytes(16))
        self.hostdb.register(HostRecord(hid=hid, keys=keys))
        return hid, self.codec.seal(hid, exp, self.rng.getrandbits(32))

    def frame(self, src, dst, key=None, *, bad_mac=False):
        self._nonce += 1
        payload = self.rng.randbytes(80)
        unsigned = ApnaHeader(src[0], src[1], dst[1], dst[0], nonce=self._nonce)
        if key is None:
            mac = self.rng.randbytes(8)
        else:
            # Reference MACs from the from-scratch implementation.
            mac = Cmac(key, backend="pure").tag(unsigned.mac_input(payload), 8)
            if bad_mac:
                mac = bytes([mac[0] ^ 1]) + mac[1:]
        return unsigned.with_mac(mac).pack() + payload

    def add(self, frame, egress, expected, *, mac_hid=None, observed=False):
        self.frames.append(frame)
        self.egress.append(egress)
        self.expected.append(expected)
        if mac_hid is not None:
            self.mac_checked[mac_hid] = self.mac_checked.get(mac_hid, 0) + 1
        self.observed += observed


def _cold_burst(seed=5):
    b = _Burst(random.Random(seed))
    inter = (Action.FORWARD_INTER, REMOTE)

    def remote():
        return (REMOTE, b.rng.randbytes(16))

    def key(hid):
        return b.hostdb.get(hid).keys.packet_mac

    for _ in range(24):  # egress, one packet per fresh host
        hid, ephid = b.host()
        b.add(b.frame((LOCAL, ephid), remote(), key(hid)), True, inter, mac_hid=hid, observed=True)
    replayed_hid, replayed = hid, b.frames[-1]
    for _ in range(2):  # two hosts sending two packets each
        hid, ephid = b.host()
        for _ in range(2):
            b.add(b.frame((LOCAL, ephid), remote(), key(hid)), True, inter, mac_hid=hid, observed=True)
    # A byte-identical replay: MAC-checked and observed, then dropped.
    b.add(replayed, True, (Action.DROP, DropReason.REPLAYED), mac_hid=replayed_hid, observed=True)
    for _ in range(4):  # intra-AS: source MAC-checked, destination opened
        hid, ephid = b.host()
        peer, peer_ephid = b.host()
        b.add(
            b.frame((LOCAL, ephid), (LOCAL, peer_ephid), key(hid)),
            True, (Action.FORWARD_INTRA, peer), mac_hid=hid, observed=True,
        )
    for _ in range(6):  # ingress to fresh local hosts
        hid, ephid = b.host()
        b.add(b.frame(remote(), (LOCAL, ephid)), False, (Action.FORWARD_INTRA, hid), observed=True)
    b.add(b.frame(remote(), (TRANSIT, b.rng.randbytes(16))), False, (Action.FORWARD_INTER, TRANSIT))
    hid, ephid = b.host()
    b.add(
        b.frame((LOCAL, ephid), remote(), key(hid), bad_mac=True),
        True, (Action.DROP, DropReason.BAD_MAC), mac_hid=hid,
    )
    hid, ephid = b.host()
    forged = ephid[:-1] + bytes([ephid[-1] ^ 1])
    b.add(b.frame((LOCAL, forged), remote(), key(hid)), True, (Action.DROP, DropReason.SRC_FORGED))
    hid, ephid = b.host(exp=int(NOW) - 1)
    b.add(b.frame((LOCAL, ephid), remote(), key(hid)), True, (Action.DROP, DropReason.SRC_EXPIRED))
    b.add(b.frame(remote(), remote()), True, (Action.DROP, DropReason.NOT_LOCAL_SOURCE))
    order = list(range(len(b.frames)))
    b.rng.shuffle(order)
    # The replay must follow its original.
    first, copy = b.frames.index(replayed), len(b.frames) - 1 - b.frames[::-1].index(replayed)
    order.remove(copy)
    order.insert(order.index(first) + 1, copy)
    for name in ("frames", "egress", "expected"):
        setattr(b, name, [getattr(b, name)[i] for i in order])
    return b


def _verdict_key(verdict):
    if verdict.action is Action.DROP:
        return (Action.DROP, verdict.reason)
    if verdict.action is Action.FORWARD_INTRA:
        return (Action.FORWARD_INTRA, verdict.hid)
    return (Action.FORWARD_INTER, verdict.next_aid)


def test_cold_burst_work_counts(monkeypatch):
    burst = _cold_burst()
    with crypto_backend.use_backend("openssl"):
        router = BorderRouter(
            LOCAL, burst.codec, burst.hostdb, RevocationList(), lambda: NOW,
            replay_filter=RotatingReplayFilter(window=60.0, bits_per_generation=1 << 16),
        )
        provider = crypto_backend.get_backend("openssl")
        counters = {
            "sha256": _Counted(replay_filter_mod.sha256),
            "observe": _Counted(RotatingReplayFilter.observe),
            "cmac_contexts": _Counted(provider._cmac_cls),
            "post_init": _Counted(ApnaHeader.__post_init__),
            "open_batch": _Counted(EphIdCodec.open_batch),
            "encrypt_blocks": _Counted(AES.encrypt_blocks),
            "encrypt_block": _Counted(AES.encrypt_block),
        }
        monkeypatch.setattr(replay_filter_mod, "sha256", counters["sha256"])
        monkeypatch.setattr(RotatingReplayFilter, "observe", counters["observe"])
        monkeypatch.setattr(provider, "_cmac_cls", counters["cmac_contexts"])
        monkeypatch.setattr(ApnaHeader, "__post_init__", counters["post_init"])
        monkeypatch.setattr(EphIdCodec, "open_batch", counters["open_batch"])
        monkeypatch.setattr(AES, "encrypt_blocks", counters["encrypt_blocks"])
        monkeypatch.setattr(AES, "encrypt_block", counters["encrypt_block"])

        packets = [ApnaPacket.from_wire(f, with_nonce=True) for f in burst.frames]
        assert counters["post_init"].calls == 0
        verdicts = router.process_mixed_batch(packets, burst.egress)

    calls = {name: counter.calls for name, counter in counters.items()}
    assert [_verdict_key(v) for v in verdicts] == burst.expected
    assert calls["observe"] == burst.observed == 39
    assert calls["sha256"] == calls["observe"]
    assert calls["cmac_contexts"] == len(burst.mac_checked) == 31
    kept = {hid for hid, cmac in router._mac_cache.items() if cmac._impl._base is not None}
    assert kept == {hid for hid, n in burst.mac_checked.items() if n >= 2}
    assert len(kept) == 3
    assert calls["post_init"] == 0
    # Source opens (egress), destination opens (intra), destination
    # opens (ingress).
    assert calls["open_batch"] == 3
    assert calls["encrypt_blocks"] == 2 * calls["open_batch"]
    assert calls["encrypt_block"] == 0

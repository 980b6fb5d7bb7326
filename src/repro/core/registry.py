"""The Registry Service (RS): host bootstrapping per paper Fig. 2.

The RS authenticates a subscriber, establishes the host<->AS shared keys
kHA by Diffie-Hellman, assigns an HID, creates the control EphID, pushes
the (HID, kHA) binding to the AS infrastructure (m1), and returns the
signed id_info plus the MS and DNS service certificates (m2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..crypto.kdf import hmac_sha256
from ..crypto.rng import Rng, SystemRng
from ..crypto.util import ct_eq
from .certs import EphIdCertificate
from .config import ApnaConfig
from .ephid import EphIdCodec, IvAllocator
from .errors import AuthError
from .hostdb import HostRecord
from .infrabus import InfraBus
from .keys import AsKeyMaterial, as_host_dh
from .messages import BootstrapReply, BootstrapRequest, IdInfo, InfraUpdate

if TYPE_CHECKING:
    from ..state.columns import ColumnarHostDatabase


def credential_proof(subscriber_secret: bytes, host_public: bytes) -> bytes:
    """The authentication proof hosts present (HMAC over K+H).

    Stand-in for the paper's unspecified subscriber authentication: it
    binds the presented public key to the long-term subscriber secret, so
    an eavesdropper cannot re-register a different key.
    """
    return hmac_sha256(subscriber_secret, b"apna-bootstrap:" + host_public)


class RegistryService:
    """One AS's Registry Service."""

    def __init__(
        self,
        aid: int,
        keys: AsKeyMaterial,
        codec: EphIdCodec,
        ivs: IvAllocator,
        hostdb: ColumnarHostDatabase,
        bus: InfraBus,
        clock: Callable[[], float],
        config: ApnaConfig,
        rng: Rng | None = None,
    ) -> None:
        self.aid = aid
        self._keys = keys
        self._codec = codec
        self._ivs = ivs
        self._hostdb = hostdb
        self._bus = bus
        self._clock = clock
        self._config = config
        self._rng = rng or SystemRng()
        self._subscribers: dict[int, bytes] = {}
        # Service certificates handed out in m2; set by the AS assembly.
        self.ms_cert: EphIdCertificate | None = None
        self.dns_cert: EphIdCertificate | None = None
        self.bootstraps = 0
        self.rejected = 0

    # -- subscriber management (the AS business relationship) --

    def enroll_subscriber(self, subscriber_id: int) -> bytes:
        """Create a subscriber account; returns the shared secret."""
        if subscriber_id in self._subscribers:
            raise AuthError(f"subscriber {subscriber_id} already enrolled")
        secret = self._rng.read(16)
        self._subscribers[subscriber_id] = secret
        return secret

    # -- Fig. 2 --

    def bootstrap(self, request: BootstrapRequest) -> BootstrapReply:
        """Authenticate the host and bootstrap it into the AS."""
        secret = self._subscribers.get(request.subscriber_id)
        if secret is None:
            self.rejected += 1
            raise AuthError(f"unknown subscriber {request.subscriber_id}")
        expected = credential_proof(secret, request.host_public)
        if not ct_eq(expected, request.proof):
            self.rejected += 1
            raise AuthError("bad credential proof")
        if len(request.host_public) != 32:
            self.rejected += 1
            raise AuthError("host public key must be 32 bytes")

        # One live HID per host: re-bootstrapping revokes the previous
        # identity and all its EphIDs (Section VI-A, Identity Minting).
        previous = self._hostdb.find_by_subscriber(request.subscriber_id)
        if previous is not None:
            self._hostdb.revoke_hid(previous.hid)

        # kHA = DH(K-AS, K+H), split into control + packet-MAC subkeys.
        kha = as_host_dh(self._keys.exchange, request.host_public)

        hid = self._hostdb.allocate_hid()
        record = HostRecord(hid=hid, keys=kha, subscriber_id=request.subscriber_id)
        self._hostdb.register(record)

        # m1: distribute (HID, kHA) to all AS entities over the infra bus.
        self._bus.publish_host_update(
            InfraUpdate(
                hid=hid,
                control_key=kha.control,
                packet_mac_key=kha.packet_mac,
            )
        )

        # Control EphID with its (long) lifetime.
        exp_time = int(self._clock() + self._config.control_ephid_lifetime)
        ctrl_ephid = self._codec.seal(hid=hid, exp_time=exp_time, iv=self._ivs.next_iv_for(hid))
        id_info = IdInfo.issue(self._keys.signing, ctrl_ephid, exp_time)

        if self.ms_cert is None or self.dns_cert is None:
            raise AuthError("RS not fully initialised: missing service certificates")
        self.bootstraps += 1
        return BootstrapReply(id_info=id_info, ms_cert=self.ms_cert, dns_cert=self.dns_cert)

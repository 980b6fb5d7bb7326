"""AES-CMAC (RFC 4493): a variable-length-secure MAC built on AES.

APNA computes a MAC over *every packet* a host sends, keyed with the
host<->AS shared key (paper Section IV-D2).  Packets have variable length,
so plain CBC-MAC would be forgeable; CMAC is the standard fix and is what
this reproduction uses for packet authentication.

:class:`Cmac` is a facade over the active crypto backend (see
:mod:`repro.crypto.backend`); :class:`PureCmac` is the from-scratch
implementation that backs the ``"pure"`` provider.
"""

from __future__ import annotations

from .aes import BLOCK_SIZE, PureAES
from .backend import resolve_backend
from .util import ct_eq, xor_bytes

_R128 = 0x87


def _left_shift(block: bytes) -> bytes:
    value = int.from_bytes(block, "big") << 1
    out = value & ((1 << 128) - 1)
    if value >> 128:
        out ^= _R128
    return out.to_bytes(BLOCK_SIZE, "big")


class Cmac:
    """A reusable CMAC instance bound to one AES key.

    The key schedule (and, for the pure backend, the RFC 4493 subkeys
    K1/K2) is derived once per instance, making repeated ``tag`` calls
    cheap — the border router caches one instance per host.  The OpenSSL
    backend derives it lazily, on the key's second use: a key used once
    costs one one-shot context (see :mod:`repro.crypto.backend`).
    """

    __slots__ = ("_impl",)

    def __init__(self, key: bytes, *, backend=None) -> None:
        self._impl = resolve_backend(backend).new_cmac(key)

    def warm(self) -> None:
        """Build the reusable key schedule now instead of on second use.

        For keys known to tag more than once, such as an AEAD session
        key: it spares them the one-shot context of a lazy first use.
        Backends that derive the schedule at construction ignore it.
        """
        warm = getattr(self._impl, "warm", None)
        if warm is not None:
            warm()

    def tag(self, message: bytes, length: int = BLOCK_SIZE) -> bytes:
        """Compute the CMAC tag, optionally truncated to ``length`` bytes."""
        if not 1 <= length <= BLOCK_SIZE:
            raise ValueError("tag length must be between 1 and 16 bytes")
        return self._impl.tag(message, length)

    def tag_many(self, messages, length: int = BLOCK_SIZE) -> list[bytes]:
        """Tag a burst of messages under the shared key schedule.

        Backends with a native bulk path (OpenSSL) keep the loop inside
        one call; the result is element-for-element identical to calling
        :meth:`tag` on each message.
        """
        if not 1 <= length <= BLOCK_SIZE:
            raise ValueError("tag length must be between 1 and 16 bytes")
        impl = self._impl
        native = getattr(impl, "tag_many", None)
        if native is not None:
            return native(messages, length)
        tag = impl.tag
        return [tag(message, length) for message in messages]

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Verify a (possibly truncated) tag in constant time."""
        return ct_eq(self.tag(message, len(tag)), tag)


class PureCmac:
    """The from-scratch RFC 4493 implementation (the "pure" backend).

    Subkeys K1/K2 are derived once at construction (RFC 4493 Section 2.3).
    """

    __slots__ = ("_cipher", "_k1", "_k2")

    def __init__(self, key: bytes) -> None:
        self._cipher = PureAES(key)
        zero = self._cipher.encrypt_block(bytes(BLOCK_SIZE))
        self._k1 = _left_shift(zero)
        self._k2 = _left_shift(self._k1)

    def tag(self, message: bytes, length: int = BLOCK_SIZE) -> bytes:
        if not 1 <= length <= BLOCK_SIZE:
            raise ValueError("tag length must be between 1 and 16 bytes")
        n_blocks = max(1, (len(message) + BLOCK_SIZE - 1) // BLOCK_SIZE)
        complete = bool(message) and len(message) % BLOCK_SIZE == 0

        last = message[(n_blocks - 1) * BLOCK_SIZE :]
        if complete:
            last = xor_bytes(last, self._k1)
        else:
            padded = last + b"\x80" + bytes(BLOCK_SIZE - len(last) - 1)
            last = xor_bytes(padded, self._k2)

        state = bytes(BLOCK_SIZE)
        encrypt = self._cipher.encrypt_block
        for i in range(n_blocks - 1):
            state = encrypt(xor_bytes(state, message[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]))
        return encrypt(xor_bytes(state, last))[:length]


def cmac(key: bytes, message: bytes, length: int = BLOCK_SIZE) -> bytes:
    """One-shot AES-CMAC."""
    return Cmac(key).tag(message, length)

"""AES-CMAC tests pinned to the RFC 4493 vectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import backend as crypto_backend
from repro.crypto.cmac import Cmac, PureCmac, cmac

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
MSG_64 = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)

RFC4493_VECTORS = [
    (b"", "bb1d6929e95937287fa37d129b756746"),
    (MSG_64[:16], "070a16b46b4d4144f79bdd9dd04a287c"),
    (MSG_64[:40], "dfa66747de9ae63030ca32611497c827"),
    (MSG_64, "51f0bebf7e3b9d92fc49741779363cfe"),
]


@pytest.mark.parametrize("message,tag", RFC4493_VECTORS)
def test_rfc4493_vectors(message, tag):
    assert cmac(KEY, message).hex() == tag


def test_subkeys_match_rfc4493():
    # Subkey derivation is a pure-implementation detail (the OpenSSL
    # backend keeps K1/K2 inside the EVP context).
    mac = PureCmac(KEY)
    assert mac._k1.hex() == "fbeed618357133667c85e08f7236a8de"
    assert mac._k2.hex() == "f7ddac306ae266ccf90bc11ee46d513b"


def test_truncated_tag_is_prefix():
    full = cmac(KEY, b"hello world")
    assert cmac(KEY, b"hello world", length=8) == full[:8]


def test_truncation_bounds():
    with pytest.raises(ValueError):
        cmac(KEY, b"x", length=0)
    with pytest.raises(ValueError):
        cmac(KEY, b"x", length=17)


def test_verify_accepts_and_rejects():
    mac = Cmac(KEY)
    tag = mac.tag(b"packet payload", 8)
    assert mac.verify(b"packet payload", tag)
    assert not mac.verify(b"packet payloae", tag)
    assert not mac.verify(b"packet payload", bytes(8))


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    message=st.binary(min_size=0, max_size=300),
)
def test_tag_verifies(key, message):
    mac = Cmac(key)
    assert mac.verify(message, mac.tag(message))


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    message=st.binary(min_size=1, max_size=100),
    flip=st.integers(min_value=0),
)
def test_any_bit_flip_is_detected(key, message, flip):
    mac = Cmac(key)
    tag = mac.tag(message)
    position = flip % (len(message) * 8)
    tampered = bytearray(message)
    tampered[position // 8] ^= 1 << (position % 8)
    assert not mac.verify(bytes(tampered), tag)


def test_length_extension_distinct():
    # m1 padded differently from m1||pad must not collide (RFC 4493 K1/K2 split).
    mac = Cmac(KEY)
    assert mac.tag(bytes(16)) != mac.tag(bytes(16) + b"\x80" + bytes(15))


# -- OpenSSL backend: lazily built key schedule ---------------------------

needs_openssl = pytest.mark.skipif(
    "openssl" not in crypto_backend.available_backends(),
    reason="the 'cryptography' package is not importable",
)

#: Messages that hit the CMAC padding cases: empty, partial and
#: block-aligned final blocks.
_messages = st.one_of(
    st.sampled_from([b"", bytes(16), bytes(range(32)), MSG_64]),
    st.binary(max_size=80),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("tag"), _messages, st.integers(1, 16)),
        st.tuples(st.just("tag_many"), st.lists(_messages, max_size=4), st.integers(1, 16)),
    ),
    min_size=1,
    max_size=6,
)


@needs_openssl
@given(key=st.binary(min_size=16, max_size=16), ops=_ops)
@settings(max_examples=150, deadline=None)
def test_openssl_call_sequences_match_pure(key, ops):
    # Covers a single-message first use, a multi-message first use and
    # every later mix, since hypothesis varies the first op.
    mac = Cmac(key, backend="openssl")
    reference = PureCmac(key)
    for op, arg, length in ops:
        if op == "tag":
            assert mac.tag(arg, length) == reference.tag(arg, length)
        else:
            assert mac.tag_many(arg, length) == [reference.tag(m, length) for m in arg]


@needs_openssl
@pytest.mark.parametrize(
    "first", [("tag", b"one"), ("tag_many", [b"one"]), ("tag_many", [b"one", b"two"])]
)
def test_openssl_tag_after_first_use_matches_pure(first):
    mac = Cmac(KEY, backend="openssl")
    op, arg = first
    getattr(mac, op)(arg)
    for message in (b"", MSG_64[:16], MSG_64[:40], MSG_64):
        for length in range(1, 17):
            assert mac.tag(message, length) == PureCmac(KEY).tag(message, length)


class _CountingCmacClass:
    """Stands in for the OpenSSL CMAC class and counts what the backend
    does with it: contexts constructed and copies of a base."""

    def __init__(self, real):
        self.real, self.built, self.copies = real, 0, 0

    def __call__(self, algorithm):
        self.built += 1
        return _CountingContext(self, self.real(algorithm))


class _CountingContext:
    def __init__(self, owner, ctx):
        self.owner, self.ctx = owner, ctx

    def copy(self):
        self.owner.copies += 1
        return self.ctx.copy()

    def update(self, data):
        self.ctx.update(data)

    def finalize(self):
        return self.ctx.finalize()


@pytest.fixture()
def counting_cmac(monkeypatch):
    provider = crypto_backend.get_backend("openssl")
    counter = _CountingCmacClass(provider._cmac_cls)
    monkeypatch.setattr(provider, "_cmac_cls", counter)
    return counter


@needs_openssl
@pytest.mark.parametrize("use", [lambda m: m.tag(b"x" * 40, 8), lambda m: m.tag_many([b"x" * 40], 8)])
def test_openssl_single_use_builds_one_context_keeps_none(counting_cmac, use):
    mac = Cmac(KEY, backend="openssl")
    assert counting_cmac.built == 0  # construction builds no context
    use(mac)
    assert (counting_cmac.built, counting_cmac.copies) == (1, 0)
    assert mac._impl._base is None


@needs_openssl
def test_openssl_reuse_builds_base_once_then_copies(counting_cmac):
    mac = Cmac(KEY, backend="openssl")
    mac.tag(b"first")  # one-shot
    mac.tag(b"second")  # builds the base
    mac.tag_many([b"a", b"b", b"c"])
    mac.tag(b"third")
    assert counting_cmac.built == 2
    assert counting_cmac.copies == 5
    assert mac._impl._base is not None


@needs_openssl
def test_openssl_burst_first_use_builds_base_once(counting_cmac):
    mac = Cmac(KEY, backend="openssl")
    mac.tag_many([b"a", b"b"])
    mac.tag(b"c")
    assert (counting_cmac.built, counting_cmac.copies) == (1, 3)


@pytest.mark.parametrize("backend", crypto_backend.available_backends())
@pytest.mark.parametrize("size", [0, 15, 17, 64])
def test_bad_key_length_rejected_at_construction(backend, size):
    with pytest.raises(ValueError):
        Cmac(bytes(size), backend=backend)


@needs_openssl
def test_openssl_warm_builds_base_up_front(counting_cmac):
    mac = Cmac(KEY, backend="openssl")
    mac.warm()
    mac.warm()
    assert (counting_cmac.built, counting_cmac.copies) == (1, 0)
    assert mac.tag(MSG_64[:40]) == PureCmac(KEY).tag(MSG_64[:40])
    assert mac.tag_many([b"", MSG_64], 8) == [PureCmac(KEY).tag(m, 8) for m in (b"", MSG_64)]
    assert (counting_cmac.built, counting_cmac.copies) == (1, 3)


@needs_openssl
def test_etm_scheme_builds_one_cmac_context_per_session(counting_cmac):
    # An AEAD session key is reused by construction, so its MAC schedule
    # is built once, up front, not one-shot and then again.
    from repro.crypto.aead import EtmScheme

    scheme = EtmScheme(bytes(range(16)), backend="openssl")
    sealed = scheme.seal(bytes(12), b"request", b"aad")
    assert scheme.open(bytes(12), sealed, b"aad") == b"request"
    assert (counting_cmac.built, counting_cmac.copies) == (1, 2)


@pytest.mark.parametrize("backend", crypto_backend.available_backends())
def test_warm_does_not_change_tags(backend):
    mac = Cmac(KEY, backend=backend)
    mac.warm()
    assert [mac.tag(m) for m, _ in RFC4493_VECTORS] == [bytes.fromhex(t) for _, t in RFC4493_VECTORS]

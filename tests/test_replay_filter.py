"""Tests for in-network replay detection (Section VIII-D future work)."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.border_router import Action, DropReason
from repro.core.config import ApnaConfig
from repro.core.replay_filter import BloomFilter, RotatingReplayFilter
from repro.wire.apna import Endpoint

from tests.conftest import build_world


class TestBloomFilter:
    def test_empty_contains_nothing(self):
        bloom = BloomFilter(1 << 10)
        assert b"anything" not in bloom
        assert bloom.fp_probability() == 0.0

    def test_added_items_are_found(self):
        bloom = BloomFilter(1 << 10)
        for i in range(100):
            bloom.add(f"item-{i}".encode())
        for i in range(100):
            assert f"item-{i}".encode() in bloom
        assert bloom.inserted == 100

    def test_check_and_add_semantics(self):
        bloom = BloomFilter(1 << 12)
        assert not bloom.check_and_add(b"first")
        assert bloom.check_and_add(b"first")
        assert bloom.inserted == 1

    def test_clear(self):
        bloom = BloomFilter(1 << 10)
        bloom.add(b"x")
        bloom.clear()
        assert b"x" not in bloom
        assert bloom.inserted == 0

    def test_memory_is_bits_over_eight(self):
        assert BloomFilter(1 << 20).memory_bytes == (1 << 20) // 8

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BloomFilter(1000)

    def test_rejects_bad_hash_count(self):
        with pytest.raises(ValueError):
            BloomFilter(1 << 10, hashes=0)
        # SHA-256 has eight 32-bit words: one per hash function.
        with pytest.raises(ValueError):
            BloomFilter(1 << 10, hashes=9)

    def test_fp_probability_grows_with_load(self):
        bloom = BloomFilter(1 << 10, hashes=4)
        assert bloom.fp_probability(10) < bloom.fp_probability(1000)

    def test_measured_fp_rate_matches_model(self):
        # Insert n items, probe with fresh ones; the measured FP rate
        # should be within a small factor of the analytic estimate.
        bloom = BloomFilter(1 << 14, hashes=4)
        n = 2000
        for i in range(n):
            bloom.add(f"present-{i}".encode())
        false_positives = sum(
            f"absent-{i}".encode() in bloom for i in range(10_000)
        )
        measured = false_positives / 10_000
        predicted = bloom.fp_probability()
        assert measured <= max(4 * predicted, 0.02)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=50)
    def test_no_false_negatives(self, item):
        bloom = BloomFilter(1 << 10)
        bloom.add(item)
        assert item in bloom


class TestRotatingReplayFilter:
    def test_fresh_then_replay(self):
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        assert filt.observe(b"\x01" * 16, 1, now=0.0)
        assert not filt.observe(b"\x01" * 16, 1, now=1.0)
        assert filt.passed == 1
        assert filt.replays == 1

    def test_distinct_nonces_pass(self):
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 14)
        assert all(filt.observe(b"\x01" * 16, n, now=0.0) for n in range(100))

    def test_same_nonce_different_ephid_passes(self):
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        assert filt.observe(b"\x01" * 16, 7, now=0.0)
        assert filt.observe(b"\x02" * 16, 7, now=0.0)

    def test_remembered_across_one_rotation(self):
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        filt.observe(b"\x01" * 16, 1, now=0.0)
        # One window later the entry moved to the previous generation.
        assert not filt.observe(b"\x01" * 16, 1, now=10.5)
        assert filt.rotations == 1

    def test_forgotten_after_two_rotations(self):
        # The documented replay horizon: after two full windows the nonce
        # is forgotten (by then the EphID itself should have expired).
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        filt.observe(b"\x01" * 16, 1, now=0.0)
        filt.observe(b"\x02" * 16, 2, now=10.5)  # forces first rotation
        assert filt.observe(b"\x01" * 16, 1, now=21.0)  # second rotation

    def test_idle_gap_forgets_beyond_horizon(self):
        # Regression: a single rotation per observe() used to leave the
        # pre-gap generation populated after an idle gap >= 2 windows, so
        # a fresh nonce far beyond the documented two-window horizon was
        # wrongly dropped as a replay.
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        assert filt.observe(b"\x01" * 16, 1, now=5.0)
        # 35 s of silence — the nonce is more than two windows old and
        # must have been forgotten, exactly like the steady-traffic case
        # in test_forgotten_after_two_rotations.
        assert filt.observe(b"\x01" * 16, 1, now=40.0)

    def test_idle_gap_clears_both_generations(self):
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        filt.observe(b"\x01" * 16, 1, now=0.0)
        filt.observe(b"\x02" * 16, 2, now=10.5)  # 1 -> previous, 2 -> current
        # A jumped clock (NTP step, VM resume): both generations are now
        # beyond the horizon and neither nonce may be remembered.
        assert filt.observe(b"\x01" * 16, 1, now=1e9)
        assert filt.observe(b"\x02" * 16, 2, now=1e9)

    def test_short_idle_gap_keeps_previous_generation(self):
        # A gap in [window, 2*window) rotates once: the last generation's
        # entries are still inside the horizon and must be remembered.
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        filt.observe(b"\x01" * 16, 1, now=0.0)
        assert not filt.observe(b"\x01" * 16, 1, now=19.9)

    def test_first_packet_on_wall_clock_is_not_a_rotation(self):
        # Deployments feed wall-clock time; the first packet used to look
        # like a giant gap from the initial _rotated_at = 0.0 and counted
        # a bogus rotation.
        filt = RotatingReplayFilter(window=10.0, bits_per_generation=1 << 12)
        assert filt.observe(b"\x01" * 16, 1, now=1.7e9)
        assert filt.rotations == 0
        assert not filt.observe(b"\x01" * 16, 1, now=1.7e9 + 1.0)

    def test_memory_accounting(self):
        filt = RotatingReplayFilter(window=1.0, bits_per_generation=1 << 13)
        assert filt.memory_bytes == 2 * (1 << 13) // 8

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            RotatingReplayFilter(window=0.0)


class _ReferenceReplayFilter:
    """The two-generation rotating Bloom filter, written from the spec.

    Bit ``i`` of an item is its ``i``-th big-endian 32-bit SHA-256 word
    modulo the generation size; bit ``p`` lives in byte ``p // 8`` at
    ``1 << p % 8``.  Lookups consult both generations, inserts go to the
    current one; a gap of one window rotates, a gap of two clears both.
    """

    def __init__(self, window, bits, hashes):
        self.window, self.bits, self.hashes = window, bits, hashes
        self.gens = [bytearray(bits // 8), bytearray(bits // 8)]  # current, previous
        self.inserted = [0, 0]
        self.start = None

    def observe(self, ephid, nonce, now):
        if self.start is None:
            self.start = now
        elif now - self.start >= self.window:
            keep = now - self.start < 2 * self.window
            self.gens = [bytearray(self.bits // 8), self.gens[0] if keep else bytearray(self.bits // 8)]
            self.inserted = [0, self.inserted[0] if keep else 0]
            self.start = now
        digest = hashlib.sha256(ephid + nonce.to_bytes(8, "big")).digest()
        bits = [int.from_bytes(digest[4 * i : 4 * i + 4], "big") % self.bits for i in range(self.hashes)]
        if any(all(gen[p // 8] & 1 << p % 8 for p in bits) for gen in self.gens):
            return False
        for p in bits:
            self.gens[0][p // 8] |= 1 << p % 8
        self.inserted[0] += 1
        return True


class TestAgainstReference:
    """The filter against :class:`_ReferenceReplayFilter`, over generated
    packet sequences with duplicates, rotations and long idle gaps.  Tiny
    generations make false positives common, so the two must agree on
    every bit, not only on the obvious replays."""

    WINDOW = 10.0

    @given(
        hashes=st.integers(1, 8),
        bits_log2=st.integers(3, 9),
        steps=st.lists(
            st.tuples(
                st.integers(0, 3),  # which EphID
                st.integers(0, 7),  # nonce
                # Time advance: none, within a window, one window, an
                # idle gap of 2+ windows.
                st.sampled_from([0.0, 0.0, 3.0, 10.0, 14.0, 20.0, 35.0]),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_decisions_counts_and_bits(self, hashes, bits_log2, steps):
        bits = 1 << bits_log2
        real = RotatingReplayFilter(window=self.WINDOW, bits_per_generation=bits, hashes=hashes)
        spec = _ReferenceReplayFilter(self.WINDOW, bits, hashes)
        now = 1000.0
        for which, nonce, advance in steps:
            now += advance
            ephid = bytes([which]) * 16
            assert real.observe(ephid, nonce, now) == spec.observe(ephid, nonce, now)
            assert [real._current.inserted, real._previous.inserted] == spec.inserted
            assert bytes(real._current._array) == bytes(spec.gens[0])
            assert bytes(real._previous._array) == bytes(spec.gens[1])

    def test_shares_bloom_filter_layout(self):
        # observe() and BloomFilter.add set the same bits for one key.
        real = RotatingReplayFilter(window=self.WINDOW, bits_per_generation=1 << 12)
        bloom = BloomFilter(1 << 12)
        real.observe(b"\x05" * 16, 99, 0.0)
        bloom.add(b"\x05" * 16 + (99).to_bytes(8, "big"))
        assert real._current._array == bloom._array


class TestBorderRouterIntegration:
    @pytest.fixture()
    def replay_world(self):
        return build_world(
            config=ApnaConfig(
                replay_protection=True,
                in_network_replay_filter=True,
                replay_filter_window=900.0,
                replay_filter_bits=1 << 14,
            )
        )

    def _outgoing_packet(self, world, nonce=1):
        alice = world.hosts["alice"]
        bob = world.hosts["bob"]
        owned = alice.acquire_ephid_direct()
        peer = bob.acquire_ephid_direct()
        return alice.stack.make_packet(
            owned.ephid, Endpoint(200, peer.ephid), b"data", nonce=nonce
        )

    def test_assembly_builds_filter_from_config(self, replay_world):
        assert replay_world.as_a.br.replay_filter is not None

    def test_assembly_without_config_has_no_filter(self, world):
        assert world.as_a.br.replay_filter is None

    def test_first_copy_forwards_replay_drops(self, replay_world):
        packet = self._outgoing_packet(replay_world)
        br = replay_world.as_a.br
        assert br.process_outgoing(packet).action is Action.FORWARD_INTER
        verdict = br.process_outgoing(packet)
        assert verdict.dropped
        assert verdict.reason is DropReason.REPLAYED
        assert br.drops[DropReason.REPLAYED] == 1

    def test_replay_dropped_at_destination_ingress(self, replay_world):
        packet = self._outgoing_packet(replay_world)
        br_b = replay_world.as_b.br
        assert br_b.process_incoming(packet).action is Action.FORWARD_INTRA
        verdict = br_b.process_incoming(packet)
        assert verdict.dropped
        assert verdict.reason is DropReason.REPLAYED

    def test_transit_does_not_consume_filter(self, replay_world):
        # A transit AS forwards without replay bookkeeping: the check
        # protects the source and destination edges.
        import dataclasses

        packet = self._outgoing_packet(replay_world)
        transit_router = replay_world.as_a.br
        # Re-address the packet so AS A sees it as pure transit traffic.
        transit_header = dataclasses.replace(packet.header, dst_aid=999)
        transit_packet = dataclasses.replace(packet, header=transit_header)
        verdict = transit_router.process_incoming(transit_packet)
        assert verdict.action is Action.FORWARD_INTER
        assert transit_router.replay_filter.passed == 0

    def test_spoofed_packet_cannot_poison_filter(self, replay_world):
        # A packet with a bad MAC dies before the filter sees its nonce,
        # so an attacker cannot pre-burn a victim's nonces.
        packet = self._outgoing_packet(replay_world)
        import dataclasses

        spoofed = dataclasses.replace(
            packet, header=packet.header.with_mac(b"\xff" * 8)
        )
        br = replay_world.as_a.br
        assert br.process_outgoing(spoofed).reason is DropReason.BAD_MAC
        assert br.replay_filter.passed == 0
        assert br.process_outgoing(packet).action is Action.FORWARD_INTER

    def test_nonceless_deployment_never_consults_filter(self):
        # Filter enabled but nonces disabled: everything passes (the
        # mechanism requires the Section VIII-D header extension).
        world = build_world(
            config=ApnaConfig(
                replay_protection=False, in_network_replay_filter=True
            )
        )
        packet = self._outgoing_packet(world, nonce=None)
        br = world.as_a.br
        assert br.process_outgoing(packet).action is Action.FORWARD_INTER
        assert br.process_outgoing(packet).action is Action.FORWARD_INTER
        assert br.replay_filter.passed == 0

    def _outgoing_packet_nonceless(self, world):
        return self._outgoing_packet(world, nonce=None)
